#include "src/unixlib/process.h"

#include <algorithm>
#include <cstring>

#include "src/kernel/thread_runner.h"
#include "src/unixlib/mutex.h"

namespace histar {

namespace {

// Merges the explicit entries of `extra` into `base` (used to add taint or
// ownership components to the conventional process labels).
Label MergeEntries(Label base, const Label& extra) {
  for (CategoryId c : extra.Categories()) {
    base.set(c, extra.get(c));
  }
  return base;
}

// Gate entry for Unix signals (§5.6): reads the signal number out of the
// invoking thread's local segment and alerts the target process's thread.
// Runs with the process's pr*/pw* (granted by the gate), which is exactly
// what thread_alert requires.
void SignalGateEntry(GateCall& call) {
  uint64_t signo = 0;
  call.kernel->sys_self_local_read(call.thread, &signo, 0, 8);
  ContainerEntry target{call.closure[0], call.closure[1]};
  call.kernel->sys_thread_alert(call.thread, target, signo);
}

// Gate entry for the §5.8 exit declassification: writes the exit record
// through the gate's stored privilege. The status is passed in the invoking
// thread's local segment at offset 16 (0/8 carry the signal convention).
void ExitGateEntry(GateCall& call) {
  int64_t status = 0;
  call.kernel->sys_self_local_read(call.thread, &status, 16, 8);
  ContainerEntry exit_ce{call.closure[0], call.closure[1]};
  int64_t record[2] = {1, status};
  call.kernel->sys_segment_write(call.thread, exit_ce, record, 0, 16);
  call.kernel->sys_futex_wake(call.thread, exit_ce, 0, UINT32_MAX);
}

// Pipe buffer layout.
struct PipeHeader {
  uint64_t mutex;
  uint64_t rpos;
  uint64_t wpos;
  uint64_t readers_open;
  uint64_t writers_open;
};
constexpr uint64_t kPipeWposOffset = 16;
constexpr uint64_t kPipeRposOffset = 8;
constexpr uint64_t kPipeDataOffset = sizeof(PipeHeader);

}  // namespace

int ProcessContext::PollSignals() {
  int handled = 0;
  for (;;) {
    Result<uint64_t> code = kernel->sys_self_next_alert(self);
    if (!code.ok()) {
      break;
    }
    auto it = signal_handlers.find(static_cast<int>(code.value()));
    if (it != signal_handlers.end()) {
      it->second(static_cast<int>(code.value()));
    }
    ++handled;
  }
  return handled;
}

Status ReleaseCategories(Kernel* kernel, ObjectId self,
                         std::initializer_list<CategoryId> cats) {
  SyscallReq get[2] = {SyscallReq{SelfGetLabelReq{}}, SyscallReq{SelfGetClearanceReq{}}};
  SyscallRes got[2];
  kernel->SubmitBatch(self, get, got);
  Result<Label>& mine = CompletionOf<SelfGetLabelReq>(got[0]);
  Result<Label>& clear = CompletionOf<SelfGetClearanceReq>(got[1]);
  if (!mine.ok() || !clear.ok()) {
    return !mine.ok() ? mine.status() : clear.status();
  }
  for (CategoryId c : cats) {
    if (c != kInvalidCategory) {
      mine.value().set(c, mine.value().default_level());
      clear.value().set(c, clear.value().default_level());
    }
  }
  // Label first: the lowered clearance must still dominate it.
  SyscallReq set[2] = {SyscallReq{SelfSetLabelReq{mine.take()}},
                       SyscallReq{SelfSetClearanceReq{clear.take()}}};
  SyscallRes res[2];
  kernel->SubmitBatch(self, set, res);
  Status st = CompletionOf<SelfSetLabelReq>(res[0]);
  return st != Status::kOk ? st : CompletionOf<SelfSetClearanceReq>(res[1]);
}

// ---- FdTable -------------------------------------------------------------------

Result<int> FdTable::Alloc(ObjectId self, const FdSegState& init) {
  int fd = -1;
  for (int i = 0; i < kMaxFd; ++i) {
    if (fd_segs_[i] == kInvalidObject) {
      fd = i;
      break;
    }
  }
  if (fd < 0) {
    return Status::kNoSpace;
  }
  CreateSpec spec;
  spec.container = ids_.proc_ct;
  spec.label = seg_label_;
  spec.descrip = "fd" + std::to_string(fd);
  spec.quota = kObjectOverheadBytes + sizeof(FdSegState) + kPageSize;
  Result<ObjectId> seg = kernel_->sys_segment_create(self, spec, sizeof(FdSegState));
  if (!seg.ok()) {
    return seg.status();
  }
  // Descriptors may be shared across processes later: freeze the quota now
  // so hard links are possible (§3.3).
  Status st = kernel_->sys_obj_set_fixed_quota(self, ContainerEntry{ids_.proc_ct, seg.value()});
  if (st != Status::kOk) {
    return st;
  }
  fd_segs_[fd] = seg.value();
  st = Store(self, fd, init);
  if (st != Status::kOk) {
    fd_segs_[fd] = kInvalidObject;
    return st;
  }
  return fd;
}

Result<FdSegState> FdTable::Load(ObjectId self, int fd) const {
  if (fd < 0 || fd >= kMaxFd || fd_segs_[fd] == kInvalidObject) {
    return Status::kInvalidArg;
  }
  FdSegState st;
  Status s = kernel_->sys_segment_read(self, ContainerEntry{ids_.proc_ct, fd_segs_[fd]}, &st,
                                       0, sizeof(st));
  if (s != Status::kOk) {
    return s;
  }
  return st;
}

Status FdTable::Store(ObjectId self, int fd, const FdSegState& st) {
  return kernel_->sys_segment_write(self, ContainerEntry{ids_.proc_ct, fd_segs_[fd]}, &st, 0,
                                    sizeof(st));
}

Result<int> FdTable::OpenFile(ObjectId self, ObjectId dir, ObjectId file, uint64_t flags) {
  FdSegState st{};
  st.type = static_cast<uint64_t>(FdType::kFile);
  st.dir = dir;
  st.obj = file;
  st.open_flags = flags;
  return Alloc(self, st);
}

Result<int> FdTable::OpenConsole(ObjectId self, ObjectId root_ct, ObjectId console) {
  FdSegState st{};
  st.type = static_cast<uint64_t>(FdType::kConsole);
  st.buf_ct = root_ct;
  st.dir = console;
  return Alloc(self, st);
}

Result<std::pair<int, int>> FdTable::CreatePipe(ObjectId self) {
  CreateSpec spec;
  spec.container = ids_.proc_ct;
  spec.label = seg_label_;
  spec.descrip = "pipebuf";
  spec.quota = kObjectOverheadBytes + kPipeDataOffset + kPipeBufBytes + kPageSize;
  Result<ObjectId> buf = kernel_->sys_segment_create(self, spec,
                                                     kPipeDataOffset + kPipeBufBytes);
  if (!buf.ok()) {
    return buf.status();
  }
  Status st = kernel_->sys_obj_set_fixed_quota(self, ContainerEntry{ids_.proc_ct, buf.value()});
  if (st != Status::kOk) {
    return st;
  }
  PipeHeader h{};
  h.readers_open = 1;
  h.writers_open = 1;
  st = kernel_->sys_segment_write(self, ContainerEntry{ids_.proc_ct, buf.value()}, &h, 0,
                                  sizeof(h));
  if (st != Status::kOk) {
    return st;
  }
  FdSegState rd{};
  rd.type = static_cast<uint64_t>(FdType::kPipe);
  rd.obj = buf.value();
  rd.buf_ct = ids_.proc_ct;
  Result<int> rfd = Alloc(self, rd);
  if (!rfd.ok()) {
    return rfd.status();
  }
  FdSegState wr = rd;
  wr.write_end = 1;
  Result<int> wfd = Alloc(self, wr);
  if (!wfd.ok()) {
    return wfd.status();
  }
  return std::make_pair(rfd.value(), wfd.value());
}

Status FdTable::Close(ObjectId self, int fd) {
  Result<FdSegState> st = Load(self, fd);
  if (!st.ok()) {
    return st.status();
  }
  if (st.value().type == static_cast<uint64_t>(FdType::kPipe)) {
    ContainerEntry buf{st.value().buf_ct, st.value().obj};
    SegmentMutex mu(kernel_, buf, 0);
    if (mu.Lock(self)) {
      PipeHeader h;
      kernel_->sys_segment_read(self, buf, &h, 0, sizeof(h));
      if (st.value().write_end != 0) {
        --h.writers_open;
      } else {
        --h.readers_open;
      }
      kernel_->sys_segment_write(self, buf, &h, 0, sizeof(h));
      mu.Unlock(self);
      kernel_->sys_futex_wake(self, buf, kPipeWposOffset, UINT32_MAX);
      kernel_->sys_futex_wake(self, buf, kPipeRposOffset, UINT32_MAX);
    }
  }
  Status s = kernel_->sys_container_unref(self, ContainerEntry{ids_.proc_ct, fd_segs_[fd]});
  fd_segs_[fd] = kInvalidObject;
  return s;
}

Result<int> FdTable::Adopt(ObjectId self, ContainerEntry fd_seg) {
  int fd = -1;
  for (int i = 0; i < kMaxFd; ++i) {
    if (fd_segs_[i] == kInvalidObject) {
      fd = i;
      break;
    }
  }
  if (fd < 0) {
    return Status::kNoSpace;
  }
  // Share the very segment: hard-link it into our process container, so the
  // seek position is common and the descriptor dies only at the last close.
  Status st = kernel_->sys_container_link(self, ids_.proc_ct, fd_seg);
  if (st != Status::kOk && st != Status::kExists) {
    return st;
  }
  fd_segs_[fd] = fd_seg.object;
  // Pipes track the number of open ends.
  Result<FdSegState> state = Load(self, fd);
  if (state.ok() && state.value().type == static_cast<uint64_t>(FdType::kPipe)) {
    ContainerEntry buf{state.value().buf_ct, state.value().obj};
    SegmentMutex mu(kernel_, buf, 0);
    if (mu.Lock(self)) {
      PipeHeader h;
      kernel_->sys_segment_read(self, buf, &h, 0, sizeof(h));
      if (state.value().write_end != 0) {
        ++h.writers_open;
      } else {
        ++h.readers_open;
      }
      kernel_->sys_segment_write(self, buf, &h, 0, sizeof(h));
      mu.Unlock(self);
    }
  }
  return fd;
}

Result<ContainerEntry> FdTable::Entry(int fd) const {
  if (fd < 0 || fd >= kMaxFd || fd_segs_[fd] == kInvalidObject) {
    return Status::kInvalidArg;
  }
  return ContainerEntry{ids_.proc_ct, fd_segs_[fd]};
}

int FdTable::count() const {
  int n = 0;
  for (ObjectId seg : fd_segs_) {
    n += seg != kInvalidObject ? 1 : 0;
  }
  return n;
}

Result<uint64_t> FdTable::Read(ObjectId self, int fd, void* buf, uint64_t len) {
  return ReadTimeout(self, fd, buf, len, UINT32_MAX);
}

Result<uint64_t> FdTable::ReadTimeout(ObjectId self, int fd, void* buf, uint64_t len,
                                      uint32_t timeout_ms) {
  Result<FdSegState> st = Load(self, fd);
  if (!st.ok()) {
    return st.status();
  }
  switch (static_cast<FdType>(st.value().type)) {
    case FdType::kFile: {
      FileSystem fs(kernel_);
      Result<uint64_t> n = fs.ReadAt(self, st.value().dir, st.value().obj, buf,
                                     st.value().offset, len);
      if (!n.ok()) {
        return n.status();
      }
      FdSegState upd = st.value();
      upd.offset += n.value();
      Status s = Store(self, fd, upd);
      if (s != Status::kOk) {
        return s;
      }
      return n;
    }
    case FdType::kPipe:
      if (st.value().write_end != 0) {
        return Status::kInvalidArg;
      }
      return PipeRead(self, st.value(), buf, len, timeout_ms);
    case FdType::kConsole:
      return Status::kAgain;  // no console input in the simulator
    default:
      return Status::kInvalidArg;
  }
}

Result<uint64_t> FdTable::Write(ObjectId self, int fd, const void* buf, uint64_t len) {
  Result<FdSegState> st = Load(self, fd);
  if (!st.ok()) {
    return st.status();
  }
  switch (static_cast<FdType>(st.value().type)) {
    case FdType::kFile: {
      FileSystem fs(kernel_);
      Status s = fs.WriteAt(self, st.value().dir, st.value().obj, buf, st.value().offset, len);
      if (s != Status::kOk) {
        return s;
      }
      FdSegState upd = st.value();
      upd.offset += len;
      s = Store(self, fd, upd);
      if (s != Status::kOk) {
        return s;
      }
      return len;
    }
    case FdType::kPipe:
      if (st.value().write_end == 0) {
        return Status::kInvalidArg;
      }
      return PipeWrite(self, st.value(), buf, len);
    case FdType::kConsole: {
      // Route to the console device. The device id is stashed in open_flags
      // by OpenConsole callers via ProcessManager; fall back to discarding.
      if (st.value().dir != 0) {
        ContainerEntry dev{st.value().buf_ct, st.value().dir};
        std::string text(static_cast<const char*>(buf), len);
        Status s = kernel_->sys_console_write(self, dev, text);
        if (s != Status::kOk) {
          return s;
        }
      }
      return len;
    }
    default:
      return Status::kInvalidArg;
  }
}

Result<uint64_t> FdTable::Seek(ObjectId self, int fd, uint64_t pos) {
  Result<FdSegState> st = Load(self, fd);
  if (!st.ok()) {
    return st.status();
  }
  if (st.value().type != static_cast<uint64_t>(FdType::kFile)) {
    return Status::kInvalidArg;
  }
  FdSegState upd = st.value();
  upd.offset = pos;
  Status s = Store(self, fd, upd);
  if (s != Status::kOk) {
    return s;
  }
  return pos;
}

Result<uint64_t> FdTable::PipeRead(ObjectId self, const FdSegState& st, void* out,
                                   uint64_t len, uint32_t timeout_ms) {
  ContainerEntry buf{st.buf_ct, st.obj};
  SegmentMutex mu(kernel_, buf, 0);
  uint32_t waited = 0;
  for (;;) {
    if (!mu.Lock(self)) {
      return Status::kLabelCheckFailed;
    }
    PipeHeader h;
    Status s = kernel_->sys_segment_read(self, buf, &h, 0, sizeof(h));
    if (s != Status::kOk) {
      mu.Unlock(self);
      return s;
    }
    uint64_t avail = h.wpos - h.rpos;
    if (avail > 0) {
      uint64_t n = std::min(len, avail);
      uint8_t* dst = static_cast<uint8_t*>(out);
      // At most two segment reads (the run to the end of the ring, then the
      // wrapped remainder) plus the header commit — submitted as ONE batch,
      // so the whole transfer pays a single kernel lock round-trip and is
      // atomic against concurrent segment operations (the fig-12 IPC hot
      // path this PR's batched ABI exists for).
      uint64_t pos = h.rpos % kPipeBufBytes;
      uint64_t first = std::min(n, kPipeBufBytes - pos);
      h.rpos += n;
      SyscallReq reqs[3];
      SyscallRes res[3];
      size_t cnt = 0;
      size_t data_reads = 1;
      reqs[cnt++] = SegmentReadReq{buf, dst, kPipeDataOffset + pos, first};
      if (first < n) {
        reqs[cnt++] = SegmentReadReq{buf, dst + first, kPipeDataOffset, n - first};
        data_reads = 2;
      }
      // Commit only the rpos word: the header's mutex word (offset 0) is
      // CASed by *contenders* outside the pipe mutex, so writing the whole
      // snapshotted header back would clobber a locked-with-waiters mark
      // and cost the waiter its full wait slice.
      reqs[cnt++] = SegmentWriteReq{buf, &h.rpos, kPipeRposOffset, 8};
      kernel_->SubmitBatch(self, std::span<const SyscallReq>(reqs, cnt),
                           std::span<SyscallRes>(res, cnt));
      for (size_t i = 0; i < data_reads; ++i) {
        s = CompletionOf<SegmentReadReq>(res[i]);
        if (s != Status::kOk) {
          // A data read failed (only possible if someone with modify access
          // shrank the segment) but the header commit in the same sync
          // batch may still have advanced rpos past bytes never delivered.
          // We hold the pipe mutex — no cooperating header mutator can
          // interleave — so restore the old rpos before reporting the
          // error. Best-effort by construction: a peer that shrinks or
          // freezes the shared buffer can corrupt the ring protocol
          // directly no matter what we do (the pipe, like the §5.1
          // directory format, is a cooperative user-level convention; the
          // kernel only guarantees labels).
          h.rpos -= n;
          kernel_->sys_segment_write(self, buf, &h.rpos, kPipeRposOffset, 8);
          mu.Unlock(self);
          return s;
        }
      }
      mu.Unlock(self);
      kernel_->sys_futex_wake(self, buf, kPipeRposOffset, UINT32_MAX);
      return n;
    }
    if (h.writers_open == 0) {
      mu.Unlock(self);
      return uint64_t{0};  // EOF
    }
    uint64_t seen_wpos = h.wpos;
    mu.Unlock(self);
    uint32_t slice = std::min<uint32_t>(100, timeout_ms - waited);
    Status ws = kernel_->sys_futex_wait(self, buf, kPipeWposOffset, seen_wpos, slice);
    if (ws == Status::kHalted || ws == Status::kLabelCheckFailed) {
      return ws;
    }
    waited += slice;
    if (waited >= timeout_ms) {
      return Status::kAgain;
    }
  }
}

Result<uint64_t> FdTable::PipeWrite(ObjectId self, const FdSegState& st, const void* in,
                                    uint64_t len) {
  ContainerEntry buf{st.buf_ct, st.obj};
  SegmentMutex mu(kernel_, buf, 0);
  const uint8_t* src = static_cast<const uint8_t*>(in);
  uint64_t written = 0;
  while (written < len) {
    if (!mu.Lock(self)) {
      return Status::kLabelCheckFailed;
    }
    PipeHeader h;
    Status s = kernel_->sys_segment_read(self, buf, &h, 0, sizeof(h));
    if (s != Status::kOk) {
      mu.Unlock(self);
      return s;
    }
    if (h.readers_open == 0) {
      mu.Unlock(self);
      return Status::kNoPerm;  // EPIPE
    }
    uint64_t space = kPipeBufBytes - (h.wpos - h.rpos);
    if (space > 0) {
      uint64_t n = std::min(len - written, space);
      uint64_t pos = h.wpos % kPipeBufBytes;
      uint64_t first = std::min(n, kPipeBufBytes - pos);
      // Data write(s) + cursor commit as ONE batch: a single kernel lock
      // round-trip per chunk (mirrors PipeRead above, including writing
      // only the wpos word — never the contender-owned mutex word).
      h.wpos += n;
      SyscallReq reqs[3];
      SyscallRes res[3];
      size_t cnt = 0;
      size_t data_writes = 1;
      reqs[cnt++] = SegmentWriteReq{buf, src + written, kPipeDataOffset + pos, first};
      if (first < n) {
        reqs[cnt++] = SegmentWriteReq{buf, src + written + first, kPipeDataOffset, n - first};
        data_writes = 2;
      }
      reqs[cnt++] = SegmentWriteReq{buf, &h.wpos, kPipeWposOffset, 8};
      kernel_->SubmitBatch(self, std::span<const SyscallReq>(reqs, cnt),
                           std::span<SyscallRes>(res, cnt));
      for (size_t i = 0; i < data_writes; ++i) {
        s = CompletionOf<SegmentWriteReq>(res[i]);
        if (s != Status::kOk) {
          // Mirror of PipeRead: undo the wpos advance the sync batch's
          // header commit may have published, or the reader would deliver
          // bytes the failed data write never stored (we hold the pipe
          // mutex, so no cooperating header mutator can interleave;
          // best-effort against a hostile peer, who could corrupt the ring
          // directly).
          h.wpos -= n;
          kernel_->sys_segment_write(self, buf, &h.wpos, kPipeWposOffset, 8);
          mu.Unlock(self);
          return s;
        }
      }
      written += n;
      mu.Unlock(self);
      kernel_->sys_futex_wake(self, buf, kPipeWposOffset, UINT32_MAX);
      continue;
    }
    uint64_t seen_rpos = h.rpos;
    mu.Unlock(self);
    Status ws = kernel_->sys_futex_wait(self, buf, kPipeRposOffset, seen_rpos, 100);
    if (ws == Status::kHalted || ws == Status::kLabelCheckFailed) {
      return ws;
    }
  }
  return written;
}

// ---- ProcHandle ------------------------------------------------------------------

ProcHandle::~ProcHandle() {
  if (host_.joinable()) {
    host_.join();
  }
}

Result<int64_t> ProcHandle::Wait(ObjectId self, uint32_t timeout_ms) {
  ContainerEntry exit_ce{ids_.proc_ct, ids_.exit_seg};
  for (uint32_t waited = 0; waited < timeout_ms;) {
    uint64_t done = 0;
    Status st = kernel_->sys_segment_read(self, exit_ce, &done, 0, 8);
    if (st != Status::kOk) {
      return st;
    }
    if (done != 0) {
      int64_t status;
      st = kernel_->sys_segment_read(self, exit_ce, &status, 8, 8);
      if (st != Status::kOk) {
        return st;
      }
      if (host_.joinable()) {
        host_.join();
      }
      return status;
    }
    Status ws = kernel_->sys_futex_wait(self, exit_ce, 0, 0, 100);
    if (ws == Status::kHalted) {
      return ws;
    }
    waited += 100;
  }
  return Status::kTimedOut;
}

Status ProcHandle::Kill(ObjectId self, int signo) {
  // The gate-call sequence is three syscalls on `self` (pass the signal
  // number through the thread-local segment — the §3.5 argument
  // convention — then fetch the labels the request is built from): ONE
  // batch, at most one kernel lock round-trip.
  uint64_t code = static_cast<uint64_t>(signo);
  SyscallReq pre[3] = {SyscallReq{SelfLocalWriteReq{&code, 0, 8}},
                       SyscallReq{SelfGetLabelReq{}}, SyscallReq{SelfGetClearanceReq{}}};
  SyscallRes pre_res[3];
  kernel_->SubmitBatch(self, pre, pre_res);
  Status st = CompletionOf<SelfLocalWriteReq>(pre_res[0]);
  if (st != Status::kOk) {
    return st;
  }
  const Result<Label>& mine = CompletionOf<SelfGetLabelReq>(pre_res[1]);
  const Result<Label>& myclear = CompletionOf<SelfGetClearanceReq>(pre_res[2]);
  if (!mine.ok() || !myclear.ok()) {
    return !mine.ok() ? mine.status() : myclear.status();
  }
  // Request the process's pr*/pw* for the duration of the call, then give
  // them back (dropping ownership is a label *raise*, so it is always
  // permitted).
  Label request = mine.value();
  request.set(ids_.pr, Level::kStar);
  request.set(ids_.pw, Level::kStar);
  st = kernel_->sys_gate_invoke(self, ContainerEntry{ids_.proc_ct, ids_.signal_gate}, request,
                                myclear.value(), mine.value());
  if (st != Status::kOk) {
    return st;
  }
  // Restore label then clearance — one batch again (order preserved within
  // a batch, one lock round-trip).
  SyscallReq post[2] = {SyscallReq{SelfSetLabelReq{mine.value()}},
                        SyscallReq{SelfSetClearanceReq{myclear.value()}}};
  SyscallRes post_res[2];
  kernel_->SubmitBatch(self, post, post_res);
  return Status::kOk;
}

Status ProcHandle::Destroy(ObjectId self) {
  // Resource revocation does not require any ability to observe or modify
  // the process — only write access to the containing container (§3.2).
  Result<ObjectId> parent = kernel_->sys_container_get_parent(self, ids_.proc_ct);
  if (!parent.ok()) {
    return parent.status();
  }
  return kernel_->sys_container_unref(self, ContainerEntry{parent.value(), ids_.proc_ct});
}

// ---- ProcessManager -----------------------------------------------------------------

ProcessManager::ProcessManager(const UnixEnv& env) : env_(env) {
  env_.kernel->RegisterGateEntry("unix.signal", SignalGateEntry);
  env_.kernel->RegisterGateEntry("unix.exit", ExitGateEntry);
}

void ProcessManager::RegisterProgram(const std::string& name, ProgramFn fn) {
  MutexLock lock(&programs_mu_);
  programs_[name] = std::move(fn);
}

bool ProcessManager::HasProgram(const std::string& name) const {
  MutexLock lock(&programs_mu_);
  return programs_.count(name) > 0;
}

Result<ObjectId> ProcessManager::InstallBinary(ObjectId self, FileSystem* fs, ObjectId dir,
                                               const std::string& filename,
                                               const std::string& program,
                                               const Label& label) {
  Result<ObjectId> file = fs->Create(self, dir, filename, label);
  if (!file.ok()) {
    return file.status();
  }
  std::string content = "#!histar " + program;
  Status st = fs->WriteAt(self, dir, file.value(), content.data(), 0, content.size());
  if (st != Status::kOk) {
    return st;
  }
  return file.value();
}

Result<ProcessIds> ProcessManager::CreateProcessObjects(ObjectId creator,
                                                        const std::string& name,
                                                        const ProcessOpts& opts) {
  ProcessIds ids;
  Status st = BuildProcessObjects(creator, name, opts, &ids);
  if (st != Status::kOk) {
    return st;
  }
  return ids;
}

Status ProcessManager::BuildProcessObjects(ObjectId creator, const std::string& name,
                                           const ProcessOpts& opts, ProcessIds* out) {
  Kernel* k = env_.kernel;
  ProcessIds& ids = *out;
  // Two fresh categories protect the process's secrecy (pr) and integrity
  // (pw); the creator owns them and passes ownership to the child thread.
  Result<CategoryId> pr = k->sys_cat_create(creator);
  Result<CategoryId> pw = k->sys_cat_create(creator);
  ids.pr = pr.ok() ? pr.value() : kInvalidCategory;
  ids.pw = pw.ok() ? pw.value() : kInvalidCategory;
  if (!pr.ok() || !pw.ok()) {
    return Status::kLabelCheckFailed;
  }

  // Taint propagates: a tainted creator can only spawn children at least as
  // tainted (the kernel's spawn rule enforces it; the library cooperates by
  // folding the creator's taint into everything it builds). This is how a
  // compromised scanner's helpers stay inside the v3 sandbox (§6.1).
  Label taint = opts.taint;
  Result<Label> creator_label = k->sys_self_get_label(creator);
  if (creator_label.ok()) {
    for (CategoryId c : creator_label.value().Categories()) {
      Level lvl = creator_label.value().get(c);
      if (lvl == Level::k2 || lvl == Level::k3) {
        taint.set(c, lvl);
      }
    }
  }
  Label proc_label = MergeEntries(Label(Level::k1, {{ids.pw, Level::k0}}), taint);
  Label internal_label =
      MergeEntries(Label(Level::k1, {{ids.pr, Level::k3}, {ids.pw, Level::k0}}), taint);

  CreateSpec pspec;
  pspec.container = opts.proc_parent != kInvalidObject ? opts.proc_parent : env_.proc_root;
  pspec.label = proc_label;
  pspec.descrip = name.substr(0, kDescripLen);
  pspec.quota = opts.quota;
  Result<ObjectId> proc_ct = k->sys_container_create(creator, pspec, 0);
  if (!proc_ct.ok()) {
    return proc_ct.status();
  }
  ids.proc_ct = proc_ct.value();

  CreateSpec ispec;
  ispec.container = ids.proc_ct;
  ispec.label = internal_label;
  ispec.descrip = "internal";
  ispec.quota = opts.quota / 2;
  Result<ObjectId> internal = k->sys_container_create(creator, ispec, 0);
  if (!internal.ok()) {
    return internal.status();
  }
  ids.internal_ct = internal.value();

  // Exit-status segment: world-readable, process-writable (Figure 6).
  CreateSpec espec;
  espec.container = ids.proc_ct;
  espec.label = proc_label;
  espec.descrip = "exit-status";
  espec.quota = kObjectOverheadBytes + kPageSize;
  Result<ObjectId> exit_seg = k->sys_segment_create(creator, espec, 16);
  if (!exit_seg.ok()) {
    return exit_seg.status();
  }
  ids.exit_seg = exit_seg.value();

  // Address space, heap and stack live in the internal container.
  CreateSpec aspec;
  aspec.container = ids.internal_ct;
  aspec.label = internal_label;
  aspec.descrip = "as";
  Result<ObjectId> as = k->sys_as_create(creator, aspec);
  if (!as.ok()) {
    return as.status();
  }
  ids.address_space = as.value();

  CreateSpec hspec;
  hspec.container = ids.internal_ct;
  hspec.label = internal_label;
  hspec.descrip = "heap";
  hspec.quota = kObjectOverheadBytes + 16 * kPageSize;
  Result<ObjectId> heap = k->sys_segment_create(creator, hspec, 16 * kPageSize);
  if (!heap.ok()) {
    return heap.status();
  }
  ids.heap = heap.value();
  hspec.descrip = "stack";
  Result<ObjectId> stack = k->sys_segment_create(creator, hspec, 16 * kPageSize);
  if (!stack.ok()) {
    return stack.status();
  }
  ids.stack = stack.value();

  std::vector<Mapping> mappings;
  mappings.push_back(Mapping{0x100000, ContainerEntry{ids.internal_ct, ids.heap}, 0, 16,
                             kMapRead | kMapWrite});
  mappings.push_back(Mapping{0x200000, ContainerEntry{ids.internal_ct, ids.stack}, 0, 16,
                             kMapRead | kMapWrite});
  mappings.push_back(Mapping{0x7f0000, ContainerEntry{ids.internal_ct, kLocalSegmentId}, 0, 1,
                             kMapRead | kMapWrite});
  Status st = k->sys_as_set(creator, ContainerEntry{ids.internal_ct, ids.address_space},
                            mappings);
  if (st != Status::kOk) {
    return st;
  }

  // The thread: owns pr/pw plus whatever extra ownership the caller grants,
  // tainted as requested. Its clearance covers the taint (the creator's own
  // clearance does too, by cat_create for fresh categories).
  Label tlabel = MergeEntries(
      Label(Level::k1, {{ids.pr, Level::kStar}, {ids.pw, Level::kStar}}), opts.extra_ownership);
  tlabel = MergeEntries(tlabel, taint);
  Label tclear(Level::k2, {{ids.pr, Level::k3}, {ids.pw, Level::k3}});
  for (CategoryId c : taint.Categories()) {
    tclear.set(c, Level::k3);
  }
  // Owned categories also get headroom so the thread can allocate objects
  // tainted in them (e.g. netd creating {nr3, …} buffers).
  for (CategoryId c : opts.extra_ownership.Categories()) {
    if (opts.extra_ownership.get(c) == Level::kStar) {
      tclear.set(c, Level::k3);
    }
  }
  // Clamp to the creator's clearance (spawn rule C_T' ⊑ C_T).
  Result<Label> creator_clear = k->sys_self_get_clearance(creator);
  if (!creator_clear.ok()) {
    return creator_clear.status();
  }
  tclear = tclear.Meet(creator_clear.value());
  for (CategoryId c : tlabel.Categories()) {
    // Clearance must dominate the label.
    if (!LevelLeq(tlabel.get(c), tclear.get(c))) {
      tclear.set(c, tlabel.get(c) == Level::kStar ? tclear.get(c) : tlabel.get(c));
    }
  }
  CreateSpec tspec;
  tspec.container = ids.proc_ct;
  tspec.descrip = name.substr(0, kDescripLen);
  tspec.quota = 64 * kPageSize;
  Result<ObjectId> thread = k->sys_thread_create(creator, tspec, tlabel, tclear);
  if (!thread.ok()) {
    return thread.status();
  }
  ids.thread = thread.value();

  // Signal gate: carries pr*/pw* so that authorized signalers can alert the
  // process's threads; optionally clearance-guarded by `signal_guard`. The
  // gate label and clearance fold in the process taint — a tainted creator
  // (e.g. the sandboxed scanner spawning a helper) could not otherwise
  // satisfy L_T ⊑ L_G, and invoking a tainted process's signal gate rightly
  // taints the signaler.
  Label glabel = MergeEntries(
      Label(Level::k1, {{ids.pr, Level::kStar}, {ids.pw, Level::kStar}}), taint);
  Label gclear(Level::k2);
  for (CategoryId c : taint.Categories()) {
    gclear.set(c, Level::k3);
  }
  if (opts.signal_guard != kInvalidCategory) {
    glabel.set(opts.signal_guard, Level::kStar);
    gclear.set(opts.signal_guard, Level::k0);
  }
  CreateSpec gspec;
  gspec.container = ids.proc_ct;
  gspec.descrip = "signal-gate";
  Result<ObjectId> gate = k->sys_gate_create(creator, gspec, glabel, gclear, "unix.signal",
                                             {ids.proc_ct, ids.thread});
  if (!gate.ok()) {
    return gate.status();
  }
  ids.signal_gate = gate.value();

  // Exit untainting gate (§5.8): pre-authorizes the one-bit "this process
  // exited, with this status" leak in exactly the categories the spawner
  // (their owner) lists. Processes tainted at spawn don't need it — their
  // exit segment already carries the taint — and wrap installs none.
  if (!opts.exit_untaint.empty()) {
    Label xlabel = glabel;
    for (CategoryId c : opts.exit_untaint) {
      xlabel.set(c, Level::kStar);
    }
    Label xclear = gclear;
    for (CategoryId c : opts.exit_untaint) {
      xclear.set(c, Level::k3);  // a thread tainted up to 3 may still invoke
    }
    CreateSpec xspec;
    xspec.container = ids.proc_ct;
    xspec.descrip = "exit-gate";
    Result<ObjectId> xgate = k->sys_gate_create(creator, xspec, xlabel, xclear, "unix.exit",
                                                {ids.proc_ct, ids.exit_seg});
    if (!xgate.ok()) {
      return xgate.status();
    }
    ids.exit_gate = xgate.value();
  }
  return Status::kOk;
}

ProcessContext ProcessManager::MakeContext(const ProcessIds& ids,
                                           const std::vector<std::string>& args) {
  ProcessContext ctx;
  ctx.kernel = env_.kernel;
  ctx.env = env_;
  ctx.ids = ids;
  ctx.self = ids.thread;
  ctx.fs = FileSystem(env_.kernel);
  ctx.cwd = env_.fs_root;
  ctx.args = args;
  ctx.mgr = this;
  return ctx;
}

void ProcessManager::Exit(ProcessContext& ctx, int64_t status) {
  Kernel* k = env_.kernel;
  ContainerEntry exit_ce{ctx.ids.proc_ct, ctx.ids.exit_seg};
  int64_t data[2] = {1, status};
  // Status write, then the futex wake. The wake runs even if the write
  // fails its label check, but it performs the same modify check itself
  // and fails identically — no observable difference.
  Status st = k->sys_segment_write(ctx.self, exit_ce, data, 0, 16);
  k->sys_futex_wake(ctx.self, exit_ce, 0, UINT32_MAX);
  if (st == Status::kOk) {
    // Waking the futex told the parent we are done — permitted directly
    // because the exit segment carries the process taint (the parent can
    // only see it if it could already see the taint categories).
  } else if (st == Status::kLabelCheckFailed && ctx.ids.exit_gate != kInvalidObject) {
    // The thread tainted itself after launch and can no longer write the
    // untainted exit segment. If the spawner installed an exit untainting
    // gate (§5.8), declassify "we exited" through it.
    k->sys_self_local_write(ctx.self, &status, 16, 8);
    Result<Label> mine = k->sys_self_get_label(ctx.self);
    Result<Label> clear = k->sys_self_get_clearance(ctx.self);
    Result<Label> glabel =
        k->sys_obj_get_label(ctx.self, ContainerEntry{ctx.ids.proc_ct, ctx.ids.exit_gate});
    if (mine.ok() && clear.ok() && glabel.ok()) {
      Label request = Label::GateFloor(mine.value(), glabel.value());
      // The clearance must dominate the requested label's numeric (taint)
      // entries; Join with `request` does exactly that, since ⋆ is low.
      k->sys_gate_invoke(ctx.self, ContainerEntry{ctx.ids.proc_ct, ctx.ids.exit_gate}, request,
                         clear.value().Join(request), mine.value());
    }
  }
  k->sys_self_halt(ctx.self);
}

Status ProcessManager::PlumbChild(ProcessContext& parent, ProcessContext* ctx,
                                  const ProcessOpts& opts, bool copy_parent_image) {
  Kernel* k = env_.kernel;
  if (copy_parent_image) {
    // fork(): copy the parent's writable segments into the child and share
    // every open descriptor. This is the expensive path of §7.1.
    Label child_internal = MergeEntries(
        Label(Level::k1, {{ctx->ids.pr, Level::k3}, {ctx->ids.pw, Level::k0}}), opts.taint);
    for (ObjectId* seg : {&ctx->ids.heap, &ctx->ids.stack}) {
      ObjectId src = (seg == &ctx->ids.heap) ? parent.ids.heap : parent.ids.stack;
      CreateSpec cspec;
      cspec.container = ctx->ids.internal_ct;
      cspec.label = child_internal;
      cspec.descrip = "fork-copy";
      cspec.quota = kObjectOverheadBytes + 17 * kPageSize;
      Result<ObjectId> copy = k->sys_segment_copy(
          parent.self, cspec, ContainerEntry{parent.ids.internal_ct, src});
      if (!copy.ok()) {
        return copy.status();
      }
      // Replace the fresh segment in the AS with the copy.
      k->sys_container_unref(parent.self, ContainerEntry{ctx->ids.internal_ct, *seg});
      *seg = copy.value();
    }
    std::vector<Mapping> mappings;
    mappings.push_back(Mapping{0x100000, ContainerEntry{ctx->ids.internal_ct, ctx->ids.heap},
                               0, 16, kMapRead | kMapWrite});
    mappings.push_back(Mapping{0x200000, ContainerEntry{ctx->ids.internal_ct, ctx->ids.stack},
                               0, 16, kMapRead | kMapWrite});
    mappings.push_back(Mapping{0x7f0000,
                               ContainerEntry{ctx->ids.internal_ct, kLocalSegmentId}, 0, 1,
                               kMapRead | kMapWrite});
    Status st = k->sys_as_set(parent.self,
                              ContainerEntry{ctx->ids.internal_ct, ctx->ids.address_space},
                              mappings);
    if (st != Status::kOk) {
      return st;
    }
  }

  // Plumb inherited descriptors (fork's sharing, or a launcher's pipes).
  for (const ContainerEntry& fd_seg : opts.inherit_fds) {
    Result<int> adopted = ctx->fds->Adopt(parent.self, fd_seg);
    if (!adopted.ok()) {
      return adopted.status();
    }
  }
  return Status::kOk;
}

Result<std::unique_ptr<ProcHandle>> ProcessManager::Launch(ProcessContext& parent,
                                                           ProgramFn fn,
                                                           const std::vector<std::string>& args,
                                                           const ProcessOpts& opts,
                                                           bool copy_parent_image) {
  Kernel* k = env_.kernel;
  std::string name = args.empty() ? "proc" : args[0];
  ProcessOpts effective = opts;
  if (effective.proc_parent == kInvalidObject) {
    effective.proc_parent = parent.child_proc_parent;  // may still be invalid
  }
  ProcessIds ids;
  Status st = BuildProcessObjects(parent.self, name, effective, &ids);
  std::unique_ptr<ProcessContext> ctx;
  if (st == Status::kOk) {
    ctx = std::make_unique<ProcessContext>(MakeContext(ids, args));
    ctx->fds = std::make_unique<FdTable>(k, ids, MergeEntries(Label(), opts.taint));
    ctx->fs = parent.fs;  // copies the mount table (Plan 9 style, §5.1)
    ctx->cwd = parent.cwd;
    ctx->child_proc_parent = effective.proc_parent;
    st = PlumbChild(parent, ctx.get(), opts, copy_parent_image);
  }
  if (st != Status::kOk && ids.proc_ct != kInvalidObject) {
    // Undo the half-built child while pw⋆ still lets us write its
    // containers: close the fds it adopted, so each pipe's open-end count
    // drops back, then unlink its process container.
    for (int fd = 0; ctx != nullptr && fd < FdTable::kMaxFd; ++fd) {
      if (ctx->fds->Entry(fd).ok()) {
        ctx->fds->Close(parent.self, fd);
      }
    }
    ObjectId proc_parent =
        effective.proc_parent != kInvalidObject ? effective.proc_parent : env_.proc_root;
    k->sys_container_unref(parent.self, ContainerEntry{proc_parent, ids.proc_ct});
  }
  // Nothing left needs pr⋆/pw⋆: the child's thread and its gates own them.
  // Hand them back, failure or not (§5.2).
  ReleaseCategories(k, parent.self, {ids.pr, ids.pw});
  if (st != Status::kOk) {
    return st;
  }

  auto handle = std::make_unique<ProcHandle>(k, ctx->ids);
  ProcessContext* ctx_raw = ctx.release();
  ProcessManager* mgr = this;
  std::thread host = RunOnHostThread(k, ctx_raw->ids.thread, [mgr, ctx_raw, fn]() {
    std::unique_ptr<ProcessContext> owned(ctx_raw);
    owned->kernel->sys_self_set_as(owned->self,
                                   ContainerEntry{owned->ids.internal_ct,
                                                  owned->ids.address_space});
    int64_t status = fn(*owned);
    mgr->Exit(*owned, status);
  });
  handle->AttachHost(std::move(host));
  return handle;
}

Result<std::unique_ptr<ProcHandle>> ProcessManager::Spawn(ProcessContext& parent,
                                                          const std::string& program,
                                                          const std::vector<std::string>& args,
                                                          const ProcessOpts& opts) {
  ProgramFn fn;
  {
    MutexLock lock(&programs_mu_);
    auto it = programs_.find(program);
    if (it == programs_.end()) {
      return Status::kNotFound;
    }
    fn = it->second;
  }
  std::vector<std::string> full_args = args;
  if (full_args.empty()) {
    full_args.push_back(program);
  }
  return Launch(parent, fn, full_args, opts, /*copy_parent_image=*/false);
}

Result<std::unique_ptr<ProcHandle>> ProcessManager::SpawnPath(
    ProcessContext& parent, const std::string& path, const std::vector<std::string>& args,
    const ProcessOpts& opts) {
  Result<std::pair<ObjectId, std::string>> loc =
      parent.fs.WalkParent(parent.self, parent.cwd, path);
  if (!loc.ok()) {
    return loc.status();
  }
  Result<ObjectId> file = parent.fs.Lookup(parent.self, loc.value().first, loc.value().second);
  if (!file.ok()) {
    return file.status();
  }
  char buf[128] = {};
  Result<uint64_t> n = parent.fs.ReadAt(parent.self, loc.value().first, file.value(), buf, 0,
                                        sizeof(buf) - 1);
  if (!n.ok()) {
    return n.status();
  }
  std::string content(buf, n.value());
  const std::string magic = "#!histar ";
  if (content.rfind(magic, 0) != 0) {
    return Status::kNoPerm;  // ENOEXEC
  }
  std::string program = content.substr(magic.size());
  std::vector<std::string> full_args = args;
  if (full_args.empty()) {
    full_args.push_back(path);
  }
  return Spawn(parent, program, full_args, opts);
}

Result<std::unique_ptr<ProcHandle>> ProcessManager::Fork(
    ProcessContext& parent, std::function<int64_t(ProcessContext&)> child_body) {
  ProcessOpts opts;
  // Share every open descriptor with the child: the fd *segments* are
  // hard-linked into the child's container, so seek positions stay common
  // and a descriptor dies only when every process has closed it (§5.3).
  if (parent.fds != nullptr) {
    for (int fd = 0; fd < 64; ++fd) {
      Result<ContainerEntry> e = parent.fds->Entry(fd);
      if (e.ok()) {
        opts.inherit_fds.push_back(e.value());
      }
    }
  }
  return Launch(parent, std::move(child_body), parent.args, opts, /*copy_parent_image=*/true);
}

Result<int64_t> ProcessManager::Exec(ProcessContext& ctx, const std::string& path,
                                     const std::vector<std::string>& args) {
  Kernel* k = env_.kernel;
  Result<std::pair<ObjectId, std::string>> loc = ctx.fs.WalkParent(ctx.self, ctx.cwd, path);
  if (!loc.ok()) {
    return loc.status();
  }
  Result<ObjectId> file = ctx.fs.Lookup(ctx.self, loc.value().first, loc.value().second);
  if (!file.ok()) {
    return file.status();
  }
  char buf[128] = {};
  Result<uint64_t> n =
      ctx.fs.ReadAt(ctx.self, loc.value().first, file.value(), buf, 0, sizeof(buf) - 1);
  if (!n.ok()) {
    return n.status();
  }
  std::string content(buf, n.value());
  const std::string magic = "#!histar ";
  if (content.rfind(magic, 0) != 0) {
    return Status::kNoPerm;
  }
  std::string program = content.substr(magic.size());
  ProgramFn fn;
  {
    MutexLock lock(&programs_mu_);
    auto it = programs_.find(program);
    if (it == programs_.end()) {
      return Status::kNotFound;
    }
    fn = it->second;
  }
  // Replace the image: fresh AS, heap and stack; drop the old ones. This is
  // the real cost of exec on HiStar — a pile of object operations (§7.1).
  Label internal_label(Level::k1, {{ctx.ids.pr, Level::k3}, {ctx.ids.pw, Level::k0}});
  CreateSpec aspec;
  aspec.container = ctx.ids.internal_ct;
  aspec.label = internal_label;
  aspec.descrip = "as-exec";
  Result<ObjectId> as = k->sys_as_create(ctx.self, aspec);
  if (!as.ok()) {
    return as.status();
  }
  CreateSpec hspec;
  hspec.container = ctx.ids.internal_ct;
  hspec.label = internal_label;
  hspec.descrip = "heap";
  hspec.quota = kObjectOverheadBytes + 16 * kPageSize;
  Result<ObjectId> heap = k->sys_segment_create(ctx.self, hspec, 16 * kPageSize);
  if (!heap.ok()) {
    return heap.status();
  }
  hspec.descrip = "stack";
  Result<ObjectId> stack = k->sys_segment_create(ctx.self, hspec, 16 * kPageSize);
  if (!stack.ok()) {
    return stack.status();
  }
  std::vector<Mapping> mappings;
  mappings.push_back(Mapping{0x100000, ContainerEntry{ctx.ids.internal_ct, heap.value()}, 0,
                             16, kMapRead | kMapWrite});
  mappings.push_back(Mapping{0x200000, ContainerEntry{ctx.ids.internal_ct, stack.value()}, 0,
                             16, kMapRead | kMapWrite});
  mappings.push_back(Mapping{0x7f0000, ContainerEntry{ctx.ids.internal_ct, kLocalSegmentId},
                             0, 1, kMapRead | kMapWrite});
  Status st = k->sys_as_set(ctx.self, ContainerEntry{ctx.ids.internal_ct, as.value()},
                            mappings);
  if (st != Status::kOk) {
    return st;
  }
  st = k->sys_self_set_as(ctx.self, ContainerEntry{ctx.ids.internal_ct, as.value()});
  if (st != Status::kOk) {
    return st;
  }
  k->sys_container_unref(ctx.self, ContainerEntry{ctx.ids.internal_ct, ctx.ids.heap});
  k->sys_container_unref(ctx.self, ContainerEntry{ctx.ids.internal_ct, ctx.ids.stack});
  k->sys_container_unref(ctx.self, ContainerEntry{ctx.ids.internal_ct, ctx.ids.address_space});
  ctx.ids.address_space = as.value();
  ctx.ids.heap = heap.value();
  ctx.ids.stack = stack.value();
  ctx.args = args.empty() ? std::vector<std::string>{path} : args;
  ctx.signal_handlers.clear();
  return fn(ctx);
}

}  // namespace histar
