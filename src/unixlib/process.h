// Processes as a user-space convention (paper §5.2, Figure 6), file
// descriptors as mapped segments (§5.3), pipes, signals (§5.6), and the
// spawn/fork/exec machinery (§7.1).
//
// A process is: two fresh categories pr/pw; a *process container* labeled
// {pw0, 1} exposing the exit-status segment and a signal gate; and an
// *internal container* labeled {pr3, pw0, 1} holding the address space,
// heap, stack and file-descriptor segments. All of it is built with plain
// syscalls — no kernel privilege.
//
// The spawner owns pr⋆/pw⋆ only while it builds the child: minting them puts
// them in its label (and pr3/pw3 in its clearance), and Launch hands both
// back before it returns, on every path. Afterwards only the child's thread
// and its signal and exit gates own them. The spawner needs no ownership to
// Wait (the exit segment is {pw0, 1}), Kill (the signal gate grants
// pr⋆/pw⋆) or Destroy (write access to the parent container, §3.2). A
// thread's label is as large as what it owns, so a spawner that kept them
// would pay for every child it ever started on each later label operation.
//
// Programs are C++ functions registered in a ProgramRegistry; executable
// files contain the line "#!histar <program>" and exec() resolves them
// through the file system, standing in for on-disk binaries.
#ifndef SRC_UNIXLIB_PROCESS_H_
#define SRC_UNIXLIB_PROCESS_H_

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sync.h"
#include "src/core/thread_annotations.h"
#include "src/kernel/kernel.h"
#include "src/unixlib/fs.h"

namespace histar {

// Shared, boot-time environment handed to every process.
struct UnixEnv {
  Kernel* kernel = nullptr;
  ObjectId fs_root = kInvalidObject;    // the "/" directory container
  ObjectId proc_root = kInvalidObject;  // where process containers live
  ObjectId console = kInvalidObject;    // console device id
};

// Kernel object ids making up one process (Figure 6).
struct ProcessIds {
  ObjectId proc_ct = kInvalidObject;      // {pw0, 1}
  ObjectId internal_ct = kInvalidObject;  // {pr3, pw0, 1}
  ObjectId thread = kInvalidObject;       // {pr*, pw*, …, 1}
  ObjectId address_space = kInvalidObject;
  ObjectId heap = kInvalidObject;
  ObjectId stack = kInvalidObject;
  ObjectId exit_seg = kInvalidObject;     // {pw0, 1}: [done u64][status i64]
  ObjectId signal_gate = kInvalidObject;  // {pr*, pw*, 1}, clearance-guarded
  ObjectId exit_gate = kInvalidObject;    // §5.8 exit declassifier (optional)
  CategoryId pr = kInvalidCategory;
  CategoryId pw = kInvalidCategory;
};


// Options controlling the labels of a new process.
struct ProcessOpts {
  // Categories the new process's thread should own beyond pr/pw (e.g. the
  // user's ur/uw, or wrap's v). Only ⋆ entries are honored.
  Label extra_ownership;
  // Taint applied to the process's thread and all its objects (e.g. v3 for
  // the isolated scanner).
  Label taint;
  // Category whose owners may invoke the signal gate (conventionally the
  // user's uw). kInvalidCategory → anyone who can see the gate may signal.
  CategoryId signal_guard = kInvalidCategory;
  // Descriptors to share with the new process (fd segments hard-linked into
  // its container, in order — fd 0, 1, …). Used by fork and by launchers
  // that pre-plumb pipes (wrap → scanner).
  std::vector<ContainerEntry> inherit_fds;
  // Where to place the process container. Defaults to the environment's
  // proc_root; a tainted launcher (wrap) must supply a container its taint
  // can write — the kernel will not let it touch the untainted default.
  ObjectId proc_parent = kInvalidObject;
  // §5.8 exit declassification: categories whose owner (the spawner) pre-
  // authorizes the one-bit "this process exited, with this status" leak. If
  // non-empty, the library installs an exit untainting gate owning exactly
  // these categories; a process that later taints itself in them can still
  // report its exit. Empty (the default, and wrap's choice) means a self-
  // tainted process simply cannot signal its exit to untainted observers.
  // The spawner must own every category listed here.
  std::vector<CategoryId> exit_untaint;
  uint64_t quota = 8 << 20;
};

// Gives back categories that `self` minted for one operation: each goes to
// the default level of its label (dropping ⋆ is a raise, always allowed) and
// of its clearance (a lowering, allowed once the label is back at default).
// One batch reads the label and clearance, a second sets both. Entries equal
// to kInvalidCategory are skipped. As with any read-then-set of a thread's
// own label, no other host thread may run as `self` meanwhile.
Status ReleaseCategories(Kernel* kernel, ObjectId self, std::initializer_list<CategoryId> cats);

struct ProcessContext;
using ProgramFn = std::function<int64_t(ProcessContext&)>;

class ProcessManager;

// Per-fd state, stored *in* the fd segment so it is shared by every process
// mapping that segment (§5.3: shared seek positions).
enum class FdType : uint64_t {
  kFree = 0,
  kFile = 1,
  kPipe = 2,
  kConsole = 3,
};

struct FdSegState {
  uint64_t type = 0;
  uint64_t dir = 0;       // containing directory of the file
  uint64_t obj = 0;       // file segment / pipe buffer segment
  uint64_t buf_ct = 0;    // container holding the pipe buffer
  uint64_t offset = 0;    // seek position
  uint64_t open_flags = 0;
  uint64_t write_end = 0;  // pipes: 1 if this fd is the write end
};

// The fd table: fd number → fd segment (hard-linked into the process
// container, so shared descriptors die only after every holder closes).
class FdTable {
 public:
  FdTable(Kernel* kernel, const ProcessIds& ids, Label seg_label)
      : kernel_(kernel), ids_(ids), seg_label_(std::move(seg_label)) {}

  // Allocates the lowest free fd backed by a fresh fd segment.
  Result<int> OpenFile(ObjectId self, ObjectId dir, ObjectId file, uint64_t flags);
  // Opens the console device (named by ⟨root_ct, console⟩) as an fd.
  Result<int> OpenConsole(ObjectId self, ObjectId root_ct, ObjectId console);
  // Creates a pipe; returns {read_fd, write_fd}. The buffer segment carries
  // `seg_label_` so tainted processes get tainted pipes.
  Result<std::pair<int, int>> CreatePipe(ObjectId self);

  Status Close(ObjectId self, int fd);
  // Duplicates another process's open descriptor into this table (the fork
  // path): hard-links the fd segment.
  Result<int> Adopt(ObjectId self, ContainerEntry fd_seg);

  // Unix-ish I/O. Reads/writes move the shared seek pointer.
  Result<uint64_t> Read(ObjectId self, int fd, void* buf, uint64_t len);
  // As Read, but a pipe with no data returns kAgain after ~timeout_ms
  // instead of blocking until data or EOF (wrap's covert-channel deadline
  // needs a bounded poll).
  Result<uint64_t> ReadTimeout(ObjectId self, int fd, void* buf, uint64_t len,
                               uint32_t timeout_ms);
  Result<uint64_t> Write(ObjectId self, int fd, const void* buf, uint64_t len);
  Result<uint64_t> Seek(ObjectId self, int fd, uint64_t pos);

  // The fd segment backing `fd` (for Adopt in a child).
  Result<ContainerEntry> Entry(int fd) const;
  int count() const;

  static constexpr int kMaxFd = 64;

 private:
  static constexpr uint64_t kPipeBufBytes = 4096;

  Result<int> Alloc(ObjectId self, const FdSegState& init);
  Result<FdSegState> Load(ObjectId self, int fd) const;
  Status Store(ObjectId self, int fd, const FdSegState& st);

  Result<uint64_t> PipeRead(ObjectId self, const FdSegState& st, void* buf, uint64_t len,
                            uint32_t timeout_ms);
  Result<uint64_t> PipeWrite(ObjectId self, const FdSegState& st, const void* buf,
                             uint64_t len);

  Kernel* kernel_;
  ProcessIds ids_;
  Label seg_label_;
  ObjectId fd_segs_[kMaxFd] = {};
};

// Everything a running program sees.
struct ProcessContext {
  Kernel* kernel = nullptr;
  UnixEnv env;
  ProcessIds ids;
  ObjectId self = kInvalidObject;  // == ids.thread
  FileSystem fs{nullptr};          // per-process (mount table copies on fork)
  ObjectId cwd = kInvalidObject;
  std::unique_ptr<FdTable> fds;
  std::vector<std::string> args;
  ProcessManager* mgr = nullptr;
  // Default container for this process's children (inherited): a sandboxed
  // process spawns helpers inside its donated area, not the global root.
  ObjectId child_proc_parent = kInvalidObject;
  // Unix signal dispositions (signo → handler); invoked by PollSignals.
  std::map<int, std::function<void(int)>> signal_handlers;
  int64_t pending_exit_code = 0;

  // Drains kernel alerts into Unix signal handlers. Returns count handled.
  int PollSignals();
};

// A spawned process the parent can wait on.
class ProcHandle {
 public:
  ProcHandle(Kernel* kernel, ProcessIds ids) : kernel_(kernel), ids_(std::move(ids)) {}
  ~ProcHandle();

  ProcHandle(const ProcHandle&) = delete;
  ProcHandle& operator=(const ProcHandle&) = delete;

  const ProcessIds& ids() const { return ids_; }
  // Blocks until the child exits; returns its status.
  Result<int64_t> Wait(ObjectId self, uint32_t timeout_ms = 30000);
  // Sends a Unix signal through the child's signal gate.
  Status Kill(ObjectId self, int signo);
  // Severs the process subtree (resource revocation, §3.2): works even if
  // the target never cooperates.
  Status Destroy(ObjectId self);

  void AttachHost(std::thread t) { host_ = std::move(t); }

 private:
  friend class ProcessManager;
  Kernel* kernel_;
  ProcessIds ids_;
  std::thread host_;
};

class ProcessManager {
 public:
  explicit ProcessManager(const UnixEnv& env);

  // Registers a program (the moral equivalent of installing a binary).
  void RegisterProgram(const std::string& name, ProgramFn fn);
  bool HasProgram(const std::string& name) const;
  // Writes an executable file ("#!histar <program>") into `dir`.
  Result<ObjectId> InstallBinary(ObjectId self, FileSystem* fs, ObjectId dir,
                                 const std::string& filename, const std::string& program,
                                 const Label& label);

  // spawn(): builds a complete process and starts `program` in it on a new
  // host thread (paper §7.1: the fast path, no copying of the parent).
  Result<std::unique_ptr<ProcHandle>> Spawn(ProcessContext& parent, const std::string& program,
                                            const std::vector<std::string>& args,
                                            const ProcessOpts& opts = ProcessOpts());
  // As Spawn but resolves `path` through the file system to an executable.
  Result<std::unique_ptr<ProcHandle>> SpawnPath(ProcessContext& parent,
                                                const std::string& path,
                                                const std::vector<std::string>& args,
                                                const ProcessOpts& opts = ProcessOpts());

  // fork(): new process that *copies* the parent's heap, stack, mount table
  // and shares its descriptors, then runs `child_body` (our stand-in for
  // "returns 0 in the child"). Much more expensive than Spawn — that is the
  // point (§7.1).
  Result<std::unique_ptr<ProcHandle>> Fork(ProcessContext& parent,
                                           std::function<int64_t(ProcessContext&)> child_body);

  // exec(): replaces the current process image (fresh AS/heap/stack, old
  // ones dropped) and runs the program found at `path`; returns its exit
  // status, which the caller must itself return.
  Result<int64_t> Exec(ProcessContext& ctx, const std::string& path,
                       const std::vector<std::string>& args);

  // The exit protocol (status write + futex wake + halt). Called
  // automatically when a program function returns.
  void Exit(ProcessContext& ctx, int64_t status);

  // Builds the scaffolding of Figure 6 without starting a program (used by
  // daemons that manage their own main loop, and by tests). The creator
  // keeps pr⋆/pw⋆ (and pr3/pw3 clearance) afterwards, so it can go on
  // building inside the new process; it sheds them with ReleaseCategories
  // when it is done. Spawn, SpawnPath and Fork do that themselves.
  Result<ProcessIds> CreateProcessObjects(ObjectId creator, const std::string& name,
                                          const ProcessOpts& opts);
  // Makes a ProcessContext for a thread of an already-created process.
  ProcessContext MakeContext(const ProcessIds& ids, const std::vector<std::string>& args);

  const UnixEnv& env() const { return env_; }

 private:
  // Builds the child (CreateProcessObjects, fork's image copy, inherited
  // fds), hands pr/pw back, then starts `fn` on the child's thread. The
  // spawner leaves with exactly the label and clearance it came in with,
  // whether or not the launch succeeded.
  Result<std::unique_ptr<ProcHandle>> Launch(ProcessContext& parent, ProgramFn fn,
                                             const std::vector<std::string>& args,
                                             const ProcessOpts& opts,
                                             bool copy_parent_image);
  // CreateProcessObjects' body. Fills `out` as it goes, so on failure the
  // caller still learns which categories it minted.
  Status BuildProcessObjects(ObjectId creator, const std::string& name,
                             const ProcessOpts& opts, ProcessIds* out);
  // Launch's steps between the build and the handback: fork's copies of the
  // parent's heap and stack, and adopting the inherited fds.
  Status PlumbChild(ProcessContext& parent, ProcessContext* ctx, const ProcessOpts& opts,
                    bool copy_parent_image);

  UnixEnv env_;
  mutable Mutex programs_mu_;
  std::map<std::string, ProgramFn> programs_ GUARDED_BY(programs_mu_);
};

}  // namespace histar

#endif  // SRC_UNIXLIB_PROCESS_H_
