// The HiStar kernel simulator: object table, label enforcement, and the
// complete system-call surface (paper §3).
//
// Concurrency model: each syscall takes the object table's one lock
// (src/kernel/object_table.h) once — shared for read-only paths, exclusive
// for mutation — and auxiliary state (futex queues, dirty set, page-fault
// handlers, gate entries) lives under its own leaf mutex. Warm
// side-effect-free reads take no lock at all (the epoch-protected
// published index). The full lock hierarchy and per-helper
// requirements are documented in ARCHITECTURE.md ("Concurrency model");
// the per-syscall lock mode is tabulated in docs/syscalls.md.
//
// Host threads stand in for hardware threads; each host thread binds itself
// to a kernel Thread object and passes that id as the first argument of
// every syscall (the `self` register). User code — everything in unixlib and
// above — can only interact with kernel state through these syscalls, so all
// information flow is mediated by the label checks here.
//
// Two access rules from §2.2 underpin everything:
//   observe O:  L_O ⊑ L_T^J                     ("no read up")
//   modify  O:  L_T ⊑ L_O and L_O ⊑ L_T^J       ("no write down")
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <span>

#include "src/core/category.h"
#include "src/core/epoch.h"
#include "src/core/sync.h"
#include "src/core/thread_annotations.h"
#include "src/core/label.h"
#include "src/core/label_registry.h"
#include "src/core/status.h"
#include "src/kernel/object.h"
#include "src/kernel/object_table.h"
#include "src/kernel/syscall_abi.h"
#include "src/kernel/types.h"

namespace histar {

class PersistTarget;  // src/store: receives checkpoints / per-object syncs

// ---- Checkpoint wire types (kernel ↔ store) ---------------------------------
//
// Serialized object images come in two formats, distinguished by their first
// byte. Checkpoint blobs reference labels by 32-bit interned id — the label
// bytes live once in the checkpoint's label-table section — while WAL blobs
// stay self-contained (a log record must be replayable before any label
// table has been loaded, and must survive a crash that loses the table
// delta it would have referenced).
inline constexpr uint8_t kBlobFormatInline = 0x01;    // labels serialized in the blob
inline constexpr uint8_t kBlobFormatLabelRef = 0x02;  // labels as LabelId references

// One label-table entry: an interned id and the canonical label bytes
// (Label::Serialize image). Written once per checkpoint chain, however many
// thousand objects share the label.
struct LabelTableRecord {
  LabelId id = kInvalidLabelId;
  std::vector<uint8_t> bytes;
};

// One serialized object. `meta_len` is the length of the blob prefix whose
// integrity the store must guarantee (type, ids, label refs, metadata, …);
// for segments the raw payload bytes follow it and are excluded from the
// blob checksum so sys_sync_pages can flush pages in place without
// invalidating it (ext3-writeback semantics: a crash may mix old and new
// payload pages, but never makes the object look corrupt).
struct ObjectImage {
  ObjectId id = kInvalidObject;
  std::vector<uint8_t> bytes;
  uint64_t meta_len = 0;
};

// Everything one group sync hands the store. `dirty` carries label-ref
// images of objects mutated since the last committed checkpoint;
// `label_delta` carries the label-table records interned since then (the
// store accumulates them; a full base snapshot re-emits its whole table).
struct CheckpointBatch {
  std::vector<ObjectImage> dirty;
  std::vector<ObjectId> live;
  ObjectId root = kInvalidObject;
  std::vector<LabelTableRecord> label_delta;
};

class Kernel {
 public:
  Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ---- Boot interface (not reachable from user code) ----------------------

  // The root container: quota ∞, label {1}, can never be deallocated.
  ObjectId root_container() const { return root_; }

  // Creates the first thread with the given label/clearance, bypassing the
  // spawn rule — the analogue of the kernel handing control to init. The
  // thread is linked into `container` (defaults to root).
  ObjectId BootstrapThread(const Label& label, const Label& clearance,
                           const std::string& descrip,
                           ObjectId container = kInvalidObject);

  // Creates a device object in the root container. Network devices are
  // conventionally labeled {nr3, nw0, i2, 1} by the boot procedure (§5.7);
  // the caller supplies the label because categories are caller-allocated.
  ObjectId BootstrapDevice(DeviceKind kind, const Label& label, const std::string& descrip);

  // Attaches a NIC backend to a network device object (boot-time; a NIC is
  // re-attached after every restore, like real hardware re-probing).
  bool AttachNetPort(ObjectId device, NetPort* port);

  // Registers a gate entry function under a stable name. Entry names stand
  // in for code segments: they are persisted with the gate and must be
  // re-registered after a restore, just as code must be present on disk.
  void RegisterGateEntry(const std::string& name, GateEntryFn fn);
  bool HasGateEntry(const std::string& name) const;

  // The registry owning every canonical label in this kernel. Exposed for
  // the ablation bench (memo on/off) and for tests.
  LabelRegistry& label_registry() { return registry_; }
  CategoryAllocator& category_allocator() { return cat_alloc_; }

  // The object table. Exposed (const) so tests can count its lock
  // acquisitions; all access still goes through syscalls.
  const ObjectTable& object_table() const { return table_; }

  // Resolves an object's / thread's / gate's label handle to the canonical
  // immutable Label held by the registry.
  const Label& LabelOf(const Object& o) const { return registry_.Get(o.label_id()); }
  const Label& ClearanceOf(const Thread& t) const { return registry_.Get(t.clearance_id()); }
  const Label& ClearanceOf(const Gate& g) const { return registry_.Get(g.clearance_id()); }

  // ---- Syscall counters (the fork/exec analysis in §7.1 is stated in
  //      syscalls, so counting is first-class) --------------------------------
  //
  // Every entry charges one relaxed atomic in the calling host thread's
  // count slot (its registered epoch-layer slot), so entry
  // bookkeeping takes no lock and shares no cache line between live host
  // threads. The kernel-wide total is the sum over all slots (a cold read).
  uint64_t syscall_count() const;

  // ---- Batched submission (the PR 3 descriptor ABI, syscall_abi.h) ---------
  //
  // Executes `reqs` strictly in submission order and fills `res[i]` with the
  // completion of `reqs[i]` (each carries its own Status; a failing entry
  // does not stop later entries). Consecutive entries are grouped and run
  // under ONE TableLock — exclusive if any entry mutates — so a run of N
  // entries pays one lock round-trip instead of N (docs/syscalls.md
  // "Batched submission"). Consecutive entries whose bodies only
  // touch atomic / snapshot object state (BatchPlan::lockfree) form their
  // own groups and run with NO TableLock at all — an EpochGuard plus the
  // published-index read mode replace the shared table lock. Every sys_*
  // method below that has a descriptor is a thin one-element-batch wrapper
  // over this entry point; the 13 without one (DirectKind) are not.
  //
  // Returns kInvalidArg (touching nothing) if res.size() < reqs.size();
  // otherwise kOk — per-entry outcomes live in the completions.
  Status SubmitBatch(ObjectId self, std::span<const SyscallReq> reqs,
                     std::span<SyscallRes> res);

  // ---- Threads (§3.1) ------------------------------------------------------

  Result<CategoryId> sys_cat_create(ObjectId self);
  Status sys_self_set_label(ObjectId self, const Label& l);
  Status sys_self_set_clearance(ObjectId self, const Label& c);
  Result<Label> sys_self_get_label(ObjectId self);
  Result<Label> sys_self_get_clearance(ObjectId self);
  Status sys_self_set_as(ObjectId self, ContainerEntry as);
  Result<ContainerEntry> sys_self_get_as(ObjectId self);
  Status sys_self_halt(ObjectId self);

  // Creates a thread object subject to the spawn rule L_T ⊑ L_T' ⊑ C_T' ⊑ C_T.
  Result<ObjectId> sys_thread_create(ObjectId self, const CreateSpec& spec,
                                     const Label& new_label, const Label& new_clearance);
  // Sends an alert (the signal substrate, §3.4): requires write access to the
  // target's address space and observation of the target.
  Status sys_thread_alert(ObjectId self, ContainerEntry thread, uint64_t code);
  // Pops a pending alert for the calling thread; kNotFound if none.
  Result<uint64_t> sys_self_next_alert(ObjectId self);

  // Thread-local segment access (always permitted for self).
  Status sys_self_local_read(ObjectId self, void* buf, uint64_t off, uint64_t len);
  Status sys_self_local_write(ObjectId self, const void* buf, uint64_t off, uint64_t len);

  // ---- Containers (§3.2) ---------------------------------------------------

  Result<ObjectId> sys_container_create(ObjectId self, const CreateSpec& spec,
                                        uint32_t avoid_types);
  // Unlinks ce.object from ce.container; recursively destroys unreferenced
  // subtrees.
  Status sys_container_unref(ObjectId self, ContainerEntry ce);
  Result<ObjectId> sys_container_get_parent(ObjectId self, ObjectId container);
  Result<std::vector<ObjectId>> sys_container_list(ObjectId self, ObjectId container);
  // Hard-links src.object into `container` (requires the object's quota to be
  // fixed; charges the full quota again — "double-charging", §3.3).
  Status sys_container_link(ObjectId self, ObjectId container, ContainerEntry src);
  // True if the container directly links the object (observe-checked).
  Result<bool> sys_container_has(ObjectId self, ObjectId container, ObjectId obj);

  // ---- Generic object calls ------------------------------------------------

  Result<ObjectType> sys_obj_get_type(ObjectId self, ContainerEntry ce);
  Result<Label> sys_obj_get_label(ObjectId self, ContainerEntry ce);
  Result<std::string> sys_obj_get_descrip(ObjectId self, ContainerEntry ce);
  Result<uint64_t> sys_obj_get_quota(ObjectId self, ContainerEntry ce);
  Result<std::vector<uint8_t>> sys_obj_get_metadata(ObjectId self, ContainerEntry ce);
  Status sys_obj_set_metadata(ObjectId self, ContainerEntry ce, const void* data, size_t len);
  Status sys_obj_set_fixed_quota(ObjectId self, ContainerEntry ce);
  Status sys_obj_set_immutable(ObjectId self, ContainerEntry ce);

  // Moves n bytes of quota from container d to object o (or back if n < 0);
  // the asymmetric extra check for n < 0 is the paper's: failure would reveal
  // o's free space to the caller (§3.3).
  Status sys_quota_move(ObjectId self, ObjectId d, ObjectId o, int64_t n);

  // ---- Segments ------------------------------------------------------------

  Result<ObjectId> sys_segment_create(ObjectId self, const CreateSpec& spec, uint64_t len);
  // Copy with a (possibly) different label — the efficient relabel-by-copy
  // the paper mentions in §3.
  Result<ObjectId> sys_segment_copy(ObjectId self, const CreateSpec& spec, ContainerEntry src);
  Status sys_segment_resize(ObjectId self, ContainerEntry ce, uint64_t len);
  Result<uint64_t> sys_segment_get_len(ObjectId self, ContainerEntry ce);
  Status sys_segment_read(ObjectId self, ContainerEntry ce, void* buf, uint64_t off,
                          uint64_t len);
  Status sys_segment_write(ObjectId self, ContainerEntry ce, const void* buf, uint64_t off,
                           uint64_t len);

  // ---- Address spaces (§3.4) -----------------------------------------------

  Result<ObjectId> sys_as_create(ObjectId self, const CreateSpec& spec);
  Status sys_as_set(ObjectId self, ContainerEntry ce, const std::vector<Mapping>& mappings);
  Result<std::vector<Mapping>> sys_as_get(ObjectId self, ContainerEntry ce);

  // Simulated paged access through the current address space: resolves `va`,
  // performs the fault-time label checks, and copies bytes. On a check
  // failure the thread's page-fault handler (if any) runs; if it declines,
  // the access fails with the original status ("by default kills the
  // process" is the unixlib handler's policy, not the kernel's).
  Status sys_as_access(ObjectId self, uint64_t va, void* buf, uint64_t len, bool write);
  void SetPageFaultHandler(ObjectId thread, std::function<bool(uint64_t va, bool write)> h);

  // ---- Gates (§3.5) --------------------------------------------------------

  Result<ObjectId> sys_gate_create(ObjectId self, const CreateSpec& spec,
                                   const Label& gate_label, const Label& gate_clearance,
                                   const std::string& entry_name,
                                   const std::vector<uint64_t>& closure);
  // Crosses the gate: validates L_T ⊑ C_G, L_T ⊑ L_V, and
  // (L_T^J ⊔ L_G^J)^⋆ ⊑ L_R ⊑ C_R ⊑ (C_T ⊔ C_G); relabels the thread to
  // (L_R, C_R) and runs the entry function on the calling host thread. The
  // verify label L_V proves category possession without granting it.
  Status sys_gate_invoke(ObjectId self, ContainerEntry gate, const Label& request_label,
                         const Label& request_clearance, const Label& verify_label);
  // Closure words of a gate, readable by anyone who can use the entry
  // (needed by callers constructing return-gate protocols).
  Result<std::vector<uint64_t>> sys_gate_get_closure(ObjectId self, ContainerEntry ce);

  // ---- Futexes (§4.1: the only kernel IPC besides memory and gates) --------

  Status sys_futex_wait(ObjectId self, ContainerEntry seg, uint64_t offset, uint64_t expected,
                        uint32_t timeout_ms);
  Result<uint32_t> sys_futex_wake(ObjectId self, ContainerEntry seg, uint64_t offset,
                                  uint32_t max_count);

  // ---- Devices (§4.1 network API: mac address, buffers, wait) --------------

  Result<std::array<uint8_t, 6>> sys_net_macaddr(ObjectId self, ContainerEntry dev);
  Status sys_net_transmit(ObjectId self, ContainerEntry dev, ContainerEntry seg, uint64_t off,
                          uint64_t len);
  Result<uint64_t> sys_net_receive(ObjectId self, ContainerEntry dev, ContainerEntry seg,
                                   uint64_t off, uint64_t maxlen);
  Status sys_net_wait(ObjectId self, ContainerEntry dev, uint32_t timeout_ms);
  Status sys_console_write(ObjectId self, ContainerEntry dev, const std::string& text);

  // ---- Flight-recorder export (PR 10) ---------------------------------------

  // Flow-checked view of the kernel trace rings (docs/syscalls.md §
  // sys_trace_read): resolves `self` under a shared table lock, then
  // walks a lock-free snapshot applying the §3 observe rule
  // per event — an event is returned iff BOTH its recorded labels flow to
  // the reader's raised label; otherwise it only bumps `withheld`.
  TraceReadRes sys_trace_read(ObjectId self, uint32_t max_events = 0);

  // ---- Persistence hooks (single-level store, §3/§4) ------------------------

  // Attaches the store that receives checkpoints. May be null (volatile run).
  void AttachPersistTarget(PersistTarget* target) { persist_ = target; }

  // Group sync: serialize every dirty object and hand the batch (plus the
  // live set) to the store, which commits atomically.
  Status sys_sync(ObjectId self);
  // Per-object sync (the fsync path): write-ahead-log just this object.
  Status sys_sync_object(ObjectId self, ContainerEntry ce);
  // In-place flush of a page range of one segment (no checkpoint).
  Status sys_sync_pages(ObjectId self, ContainerEntry ce, uint64_t offset, uint64_t len);

  // Serialization used by the store (and by tests). The two-argument form
  // emits the self-contained kBlobFormatInline image (the canonical,
  // id-free representation — also what the equivalence tests compare);
  // `label_refs` switches to kBlobFormatLabelRef for checkpoint blobs, and
  // `meta_len` (optional) receives the checksum-covered prefix length.
  bool SerializeObject(ObjectId id, std::vector<uint8_t>* out,
                       bool label_refs = false, uint64_t* meta_len = nullptr) const;
  // Restores one serialized object into the table (boot-time only). Inline
  // blobs re-intern their label bytes; label-ref blobs resolve ids through
  // the remap installed by RestoreLabelTable, which must run first.
  Status RestoreObject(const std::vector<uint8_t>& bytes);
  // Boot-time, before any RestoreObject call: rebuilds the registry from a
  // persisted label table (records in ascending-id order) and installs the
  // old-id → new-id remap used by label-ref blobs. Re-interning in table
  // order reproduces the writing boot's per-shard slot sequence, so the
  // remap is the identity whenever the shard configuration is unchanged;
  // *ids_stable reports whether it was. When it was not, the on-disk id
  // space is unusable for further increments: this kernel re-dirties every
  // object at FinishRestore and resets its label mark so the next sync
  // rewrites the world (the store independently forces a base snapshot).
  Status RestoreLabelTable(const std::vector<LabelTableRecord>& records, bool* ids_stable);
  // All live object ids (store iteration order).
  std::vector<ObjectId> LiveObjects() const;
  // Ids of objects mutated since the last ClearDirty (incremental sync).
  std::vector<ObjectId> DirtyObjects() const;
  void ClearDirty();
  // After RestoreObject calls, rebuild derived state (intern ids, usages).
  void FinishRestore(ObjectId root);

  // ---- Introspection for tests ---------------------------------------------

  bool ObjectExists(ObjectId id) const;
  size_t ObjectCount() const;
  // Direct peek at a device's console buffer.
  std::string ConsoleContents(ObjectId dev) const;

 private:
  struct FutexKey {
    ObjectId seg;
    uint64_t offset;
    bool operator==(const FutexKey&) const = default;
  };
  struct FutexKeyHash {
    size_t operator()(const FutexKey& k) const {
      return std::hash<uint64_t>()(k.seg * 0x9e3779b97f4a7c15ULL ^ k.offset);
    }
  };
  // Queue contents are guarded by futex_mu_ (reached only through the
  // guarded `futexes_` map, so the analysis checks the map access).
  struct FutexWaitQueue {
    CondVar cv;
    uint64_t wake_seq = 0;
    uint32_t wake_budget = 0;
    uint32_t waiters = 0;
  };

  // -- Helper lock requirements (ARCHITECTURE.md "Concurrency model" has the
  //    full hierarchy; docs/syscalls.md the per-syscall lock mode) --
  //
  //   Get / GetThread / GetContainer     table lock held (any mode) — OR an
  //                                        EpochGuard with PublishedReadMode
  //                                        active, which routes Get through
  //                                        the lock-free published index
  //   CanObserve / CanModifyLabels /     table lock held (any mode)
  //     CheckModify / ResolveEntry /
  //     SerializeObjectLocked /
  //     LiveLocked
  //   CheckCreate / LinkInto /           table lock held exclusive
  //     UnlinkFrom / DestroyObject /
  //     InsertObject / AllocObjectIdLocked
  //   MarkDirty / CountSyscalls          no table requirement (leaf mutex,
  //                                        relaxed atomic)
  //   WakeAllFutexes                     must be called with NO table lock
  //
  // These requirements are enforced at compile time (clang -Wthread-safety)
  // through the table capability: every TableLock — and the
  // PublishedReadTableCap epoch stand-in — acquires table_.cap(), and the
  // helpers below carry REQUIRES / REQUIRES_SHARED on it. Shared versus
  // exclusive stays a runtime property (TSan); the static layer proves no
  // helper runs without a covering scope.

  Object* Get(ObjectId id) const REQUIRES_SHARED(table_.cap());
  Thread* GetThread(ObjectId id) const REQUIRES_SHARED(table_.cap());
  Container* GetContainer(ObjectId id) const REQUIRES_SHARED(table_.cap());

  // L_O ⊑ L_T^J — with the thread-label special case from §3.2: reading the
  // label of another *thread* requires L_T'^J ⊑ L_T^J instead. All three
  // route through the registry's memoized id-pair comparisons; no label is
  // materialized or shifted per check.
  bool CanObserve(const Thread& t, const Object& o) REQUIRES_SHARED(table_.cap());
  bool CanModifyLabels(const Thread& t, const Object& o)  // label rules only
      REQUIRES_SHARED(table_.cap());
  Status CheckModify(const Thread& t, const Object& o)  // adds immutable check
      REQUIRES_SHARED(table_.cap());

  // Validates the container entry ⟨D,O⟩ for thread t per §3.2 and returns O.
  Result<Object*> ResolveEntry(const Thread& t, ContainerEntry ce)
      REQUIRES_SHARED(table_.cap());

  // Checks the creation rule into container D with label `l`; on success
  // interns the label into `*out_lid` and returns the container. Validation
  // uses non-interning comparisons so a rejected creation allocates no
  // registry state. Charges happen in LinkInto.
  Result<Container*> CheckCreate(const Thread& t, ObjectId d, const Label& l,
                                 ObjectType type, uint64_t quota, LabelId* out_lid)
      REQUIRES(table_.cap());

  // Links obj into d, charging d's usage. Assumes all checks done.
  Status LinkInto(Container* d, Object* obj) REQUIRES(table_.cap());
  void UnlinkFrom(Container* d, ObjectId obj) REQUIRES(table_.cap());
  // Destroys an object whose link count reached zero (recursive for
  // containers). Collects destroyed segment ids for futex wakeups.
  void DestroyObject(ObjectId id, std::vector<ObjectId>* destroyed_segments)
      REQUIRES(table_.cap());

  uint64_t ContainerFree(const Container& d) const;
  void MarkDirty(ObjectId id);

  // A fresh object id, probed against the table for collisions with
  // restored objects.
  ObjectId AllocObjectIdLocked() REQUIRES(table_.cap());

  // Stamps the creation sequence number and inserts into the object table.
  void InsertObject(std::unique_ptr<Object> obj) REQUIRES(table_.cap());

  // Entry bookkeeping common to every syscall: one relaxed add in the
  // calling host thread's count slot charges `n` syscalls (a whole batch).
  void CountSyscalls(uint64_t n);

  // ---- Batched dispatch (kernel_batch.cc) ----------------------------------
  //
  // Lock plan of one request: whether it mutates (exclusive mode), and
  // whether its Locked body is safe on the lock-free published-read path
  // (only atomic / snapshot object state, no payload bytes, no mutation).
  struct BatchPlan {
    bool mutates = false;
    bool lockfree = false;
  };
  static BatchPlan PlanOf(const SyscallReq& req);

  // Executes one request under the group's covering scope: runs its
  // RunLocked overload, emplaces the result at the request's index + 1, and
  // returns its Status.
  Status ExecLocked(ObjectId self, const SyscallReq& req, SyscallRes* out)
      REQUIRES(table_.cap());

  // The entry path of the calls without a descriptor: charges one syscall,
  // runs `body` (a Do* call) with no lock held, and records one trace event
  // of `kind` carrying the status of what `body` returns.
  template <typename Fn>
  auto EnterDirect(ObjectId self, DirectKind kind, Fn&& body);

  // ---- Per-syscall bodies --------------------------------------------------
  //
  // RunLocked has one overload per descriptor: it takes the request and
  // returns the request's Completion, and assumes the group's TableLock is
  // already held (per BatchPlan). Do* bodies implement the calls without a
  // descriptor, minus entry bookkeeping (EnterDirect counts).
  // Statically: mutating bodies carry REQUIRES(table_.cap()), read-only
  // bodies REQUIRES_SHARED — the shared set is exactly BatchPlan::lockfree
  // plus the payload-touching reads.
  Result<CategoryId> RunLocked(ObjectId self, const CatCreateReq&) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const SelfSetLabelReq& r) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const SelfSetClearanceReq& r) REQUIRES(table_.cap());
  Result<Label> RunLocked(ObjectId self, const SelfGetLabelReq&) REQUIRES_SHARED(table_.cap());
  Result<Label> RunLocked(ObjectId self, const SelfGetClearanceReq&)
      REQUIRES_SHARED(table_.cap());
  Status RunLocked(ObjectId self, const SelfSetAsReq& r) REQUIRES(table_.cap());
  Result<ContainerEntry> RunLocked(ObjectId self, const SelfGetAsReq&)
      REQUIRES_SHARED(table_.cap());
  Status RunLocked(ObjectId self, const SelfHaltReq&) REQUIRES(table_.cap());
  Result<ObjectId> RunLocked(ObjectId self, const ThreadCreateReq& r) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const ThreadAlertReq& r) REQUIRES(table_.cap());
  Result<uint64_t> RunLocked(ObjectId self, const SelfNextAlertReq&) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const SelfLocalReadReq& r) REQUIRES_SHARED(table_.cap());
  Status RunLocked(ObjectId self, const SelfLocalWriteReq& r) REQUIRES(table_.cap());
  Result<ObjectId> RunLocked(ObjectId self, const ContainerCreateReq& r) REQUIRES(table_.cap());
  Result<ObjectId> RunLocked(ObjectId self, const ContainerGetParentReq& r)
      REQUIRES_SHARED(table_.cap());
  Result<std::vector<ObjectId>> RunLocked(ObjectId self, const ContainerListReq& r)
      REQUIRES_SHARED(table_.cap());
  Status RunLocked(ObjectId self, const ContainerLinkReq& r) REQUIRES(table_.cap());
  Result<bool> RunLocked(ObjectId self, const ContainerHasReq& r) REQUIRES_SHARED(table_.cap());
  Result<ObjectType> RunLocked(ObjectId self, const ObjGetTypeReq& r)
      REQUIRES_SHARED(table_.cap());
  Result<Label> RunLocked(ObjectId self, const ObjGetLabelReq& r) REQUIRES_SHARED(table_.cap());
  Result<std::string> RunLocked(ObjectId self, const ObjGetDescripReq& r)
      REQUIRES_SHARED(table_.cap());
  Result<uint64_t> RunLocked(ObjectId self, const ObjGetQuotaReq& r)
      REQUIRES_SHARED(table_.cap());
  Result<std::vector<uint8_t>> RunLocked(ObjectId self, const ObjGetMetadataReq& r)
      REQUIRES_SHARED(table_.cap());
  Status RunLocked(ObjectId self, const ObjSetMetadataReq& r) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const ObjSetFixedQuotaReq& r) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const ObjSetImmutableReq& r) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const QuotaMoveReq& r) REQUIRES(table_.cap());
  Result<ObjectId> RunLocked(ObjectId self, const SegmentCreateReq& r) REQUIRES(table_.cap());
  Result<ObjectId> RunLocked(ObjectId self, const SegmentCopyReq& r) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const SegmentResizeReq& r) REQUIRES(table_.cap());
  Result<uint64_t> RunLocked(ObjectId self, const SegmentGetLenReq& r)
      REQUIRES_SHARED(table_.cap());
  Status RunLocked(ObjectId self, const SegmentReadReq& r) REQUIRES_SHARED(table_.cap());
  Status RunLocked(ObjectId self, const SegmentWriteReq& r) REQUIRES(table_.cap());
  Result<ObjectId> RunLocked(ObjectId self, const AsCreateReq& r) REQUIRES(table_.cap());
  Status RunLocked(ObjectId self, const AsSetReq& r) REQUIRES(table_.cap());
  Result<std::vector<Mapping>> RunLocked(ObjectId self, const AsGetReq& r)
      REQUIRES_SHARED(table_.cap());
  Result<ObjectId> RunLocked(ObjectId self, const GateCreateReq& r) REQUIRES(table_.cap());
  Result<std::vector<uint64_t>> RunLocked(ObjectId self, const GateGetClosureReq& r)
      REQUIRES_SHARED(table_.cap());
  Status RunLocked(ObjectId self, const ConsoleWriteReq& r) REQUIRES(table_.cap());

  Status DoContainerUnref(ObjectId self, ContainerEntry ce);
  Status DoAsAccess(ObjectId self, uint64_t va, void* buf, uint64_t len, bool write);
  Status DoGateInvoke(ObjectId self, ContainerEntry gate, const Label& request_label,
                      const Label& request_clearance, const Label& verify_label);
  Status DoFutexWait(ObjectId self, ContainerEntry seg, uint64_t offset, uint64_t expected,
                     uint32_t timeout_ms);
  Result<uint32_t> DoFutexWake(ObjectId self, ContainerEntry seg, uint64_t offset,
                               uint32_t max_count);
  Result<std::array<uint8_t, 6>> DoNetMacAddr(ObjectId self, ContainerEntry dev);
  Status DoNetTransmit(ObjectId self, ContainerEntry dev, ContainerEntry seg, uint64_t off,
                       uint64_t len);
  Result<uint64_t> DoNetReceive(ObjectId self, ContainerEntry dev, ContainerEntry seg,
                                uint64_t off, uint64_t maxlen);
  Status DoNetWait(ObjectId self, ContainerEntry dev, uint32_t timeout_ms);
  Status DoSync(ObjectId self);
  Status DoSyncObject(ObjectId self, ContainerEntry ce);
  Status DoSyncPages(ObjectId self, ContainerEntry ce, uint64_t offset, uint64_t len);

  // Flight-recorder export body (kernel.cc): shared table lock to capture
  // the reader's raised label, then lock-free snapshot + per-event Leq
  // checks (the registry's warm path).
  void DoTraceRead(ObjectId self, uint32_t max_events, TraceReadRes* out);

  // Wakes futex waiters on a destroyed segment so they fail promptly.
  void WakeAllFutexes(const std::vector<ObjectId>& segs);

  // One resolve-check-copy pass of sys_as_access under one TableLock (the
  // per-`attempt` body; the page-fault handler runs between attempts).
  Status AsAccessOnce(ObjectId self, uint64_t va, void* buf, uint64_t len, bool write);

  // Resolves `seg` for thread `self`, runs the §3.2 observe + range checks,
  // and reads the 8-byte futex word at `offset` into *word (and the
  // segment's id into *sid). Takes its own shared TableLock. One helper for
  // both the validation pass and the post-registration recheck of
  // sys_futex_wait, so the two passes cannot drift apart.
  Status ReadFutexWord(ObjectId self, ContainerEntry seg, uint64_t offset, uint64_t* word,
                       ObjectId* sid);

  // Serialization body shared by SerializeObject and the checkpoint snapshot.
  bool SerializeObjectLocked(const Object& o, std::vector<uint8_t>* out,
                             bool label_refs = false, uint64_t* meta_len = nullptr) const
      REQUIRES_SHARED(table_.cap());
  // Live ids in creation order.
  std::vector<ObjectId> LiveLocked() const REQUIRES_SHARED(table_.cap());
  // Dirty (id, mark-generation) pairs in creation order (takes dirty_mu_
  // itself). The generation lets sys_sync retire exactly the marks it
  // serialized and no newer ones.
  std::vector<std::pair<ObjectId, uint64_t>> DirtySnapshotLocked() const
      REQUIRES_SHARED(table_.cap());

  // The object table and its one lock; see ARCHITECTURE.md "Concurrency
  // model".
  ObjectTable table_;
  std::atomic<uint64_t> creation_counter_{0};
  // Boot-time only: set by the constructor / FinishRestore before any
  // concurrent syscalls run, immutable afterwards.
  ObjectId root_ = kInvalidObject;

  CategoryAllocator cat_alloc_;
  CategoryAllocator objid_alloc_{0x4f424a4944ULL /* "OBJID" */};
  // Sharded and internally synchronized: label checks never serialize on
  // the table lock.
  mutable LabelRegistry registry_;

  // Leaf state, each under its own mutex (all ordered AFTER the table
  // lock; futex_mu_ is never held together with it):
  mutable Mutex gate_entries_mu_;
  std::unordered_map<std::string, GateEntryFn> gate_entries_ GUARDED_BY(gate_entries_mu_);

  mutable Mutex futex_mu_;
  std::unordered_map<FutexKey, std::unique_ptr<FutexWaitQueue>, FutexKeyHash> futexes_
      GUARDED_BY(futex_mu_);

  mutable Mutex pf_mu_;
  std::unordered_map<ObjectId, std::function<bool(uint64_t, bool)>> pf_handlers_
      GUARDED_BY(pf_mu_);

  // Syscall counters, one slot per registered host thread
  // (EpochDomain::ThreadSlot). Slot ids are dense and reused on
  // thread exit, so below kCountSlots concurrently live threads every host
  // thread's entry bookkeeping is a relaxed add on a private cache line;
  // above it, aliased slots still count exactly (the add is atomic).
  // syscall_count() sums the slots.
  static constexpr size_t kCountSlots = 256;
  struct alignas(64) CountSlot {
    std::atomic<uint64_t> total{0};
  };
  std::array<CountSlot, kCountSlots> count_slots_;

  // id → generation of its latest MarkDirty. sys_sync retires an id only if
  // its generation still matches the snapshot it serialized, so a write
  // landing while the store commits (no table lock held) keeps its mark.
  // This is also what makes incremental checkpoints sound: a mark that
  // survives the retire is re-serialized by the next increment.
  mutable Mutex dirty_mu_;
  std::unordered_map<ObjectId, uint64_t> dirty_ GUARDED_BY(dirty_mu_);
  uint64_t dirty_seq_ GUARDED_BY(dirty_mu_) = 0;

  // Registry cut covered by the last *committed* checkpoint (under
  // dirty_mu_). DoSync sends the labels interned past it as the batch's
  // label_delta and advances it only on success, so a failed commit's
  // records are simply resent (the store's table merge is idempotent).
  LabelRegistry::SnapshotMark persisted_label_mark_ GUARDED_BY(dirty_mu_);

  // Boot-time restore state (set by RestoreLabelTable, read by
  // RestoreObject/FinishRestore before concurrent syscalls exist):
  // old-persisted-id → freshly-interned-id, and whether they all matched.
  std::unordered_map<LabelId, LabelId> restore_label_remap_;
  bool restore_ids_stable_ = true;

  PersistTarget* persist_ = nullptr;
};

// Interface the kernel uses to push state to the single-level store.
class PersistTarget {
 public:
  virtual ~PersistTarget() = default;
  // Atomically advance the on-disk system state. `batch.dirty` carries
  // label-ref images of objects mutated since the last sync; `batch.live`
  // is the complete set of live ids (objects absent from it are dropped
  // from disk); `batch.label_delta` is the label-table delta since the last
  // committed checkpoint. Commits with a superblock flip — all or nothing.
  // The store decides whether this lands as a full base snapshot or an
  // incremental epoch (see single_level_store.h).
  virtual Status Checkpoint(const CheckpointBatch& batch) = 0;
  // Write-ahead-log a single object's new state (fsync of one object). The
  // blob is self-contained (kBlobFormatInline); meta_len bounds the
  // checksum-covered prefix once the record is folded into the heap.
  virtual Status SyncOne(ObjectId id, const std::vector<uint8_t>& bytes,
                         uint64_t meta_len) = 0;
  // Flush segment payload bytes [offset, offset+pages.size()) in place into
  // the object's home extent — the §7.1 "modified segment pages flushed
  // without checkpointing the entire system state" path used by random
  // writes to pre-existing segments. Carries the real bytes so the on-disk
  // image stays valid data (not a latency-only fiction), and the store
  // writes them past the checksummed metadata prefix so a crash in the
  // window before the next checkpoint can never make the blob look corrupt
  // at recovery.
  virtual Status SyncPages(ObjectId id, uint64_t offset,
                           const std::vector<uint8_t>& pages) = 0;
};

// RAII marker: Kernel::Get on this host thread resolves through the object
// table's lock-free published index instead of the locked map (PR 6).
// The caller MUST hold an EpochGuard for the marker's whole lifetime and
// MUST NOT hold (or take) the table lock while it is active — the published
// index is exactly the no-lock alternative, and the RunLocked bodies run
// unchanged on top of it for side-effect-free reads. SubmitBatch wraps
// each lock-free read group in one of these.
class PublishedReadMode {
 public:
  PublishedReadMode();
  ~PublishedReadMode();
  PublishedReadMode(const PublishedReadMode&) = delete;
  PublishedReadMode& operator=(const PublishedReadMode&) = delete;

  static bool Active();

 private:
  bool prev_;
};

// RAII binding of the calling host thread to a kernel thread id, so that
// library code can recover "current thread" without threading it through
// every call (the analogue of the hardware thread register).
class CurrentThread {
 public:
  static ObjectId Get();
  static void Set(ObjectId id);

  explicit CurrentThread(ObjectId id) : prev_(Get()) { Set(id); }
  ~CurrentThread() { Set(prev_); }

 private:
  ObjectId prev_;
};

}  // namespace histar

#endif  // SRC_KERNEL_KERNEL_H_
