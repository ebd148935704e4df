// Segment, address-space, futex and device syscalls (paper §3.4, §4.1, §5.7).
//
// The lock mode per syscall is tabulated in docs/syscalls.md. Futexes
// deserve note (full discussion in ARCHITECTURE.md "Concurrency model"):
// they live under their own futex_mu_, which is never held together with
// the table lock. The lost-wakeup window this opens between "read the
// futex word" and "sleep" is closed by registering as a waiter first and
// re-reading the word afterwards; wakes that land in between are captured
// by the queue's wake_seq/wake_budget counters.
#include <chrono>
#include <cstring>

#include "src/core/trace.h"
#include "src/kernel/kernel.h"

namespace histar {

// ---- segments ----------------------------------------------------------------

Result<ObjectId> Kernel::RunLocked(ObjectId self, const SegmentCreateReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  LabelId lid = kInvalidLabelId;
  Result<Container*> d = CheckCreate(*t, r.spec.container, r.spec.label, ObjectType::kSegment,
                                     r.spec.quota, &lid);
  if (!d.ok()) {
    return d.status();
  }
  if (!RangeOk(kObjectOverheadBytes, r.len, r.spec.quota)) {
    return Status::kQuotaExceeded;
  }
  auto s = std::make_unique<Segment>(AllocObjectIdLocked(), lid);
  s->bytes().resize(r.len, 0);
  s->set_quota_internal(r.spec.quota);
  s->set_descrip_internal(r.spec.descrip);
  Segment* raw = s.get();
  InsertObject(std::move(s));
  Status ls = LinkInto(d.value(), raw);
  if (ls != Status::kOk) {
    table_.EraseLocked(raw->id());
    return ls;
  }
  MarkDirty(raw->id());
  return raw->id();
}

Result<ObjectId> Kernel::RunLocked(ObjectId self, const SegmentCopyReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.src);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kSegment) {
    return Status::kWrongType;
  }
  Segment* s = static_cast<Segment*>(o.value());
  // Copying reads the source...
  if (!CanObserve(*t, *s)) {
    return Status::kLabelCheckFailed;
  }
  // ...and creates a new object at the requested label; the usual creation
  // rule keeps the copy at least as tainted as the thread that read it.
  LabelId lid = kInvalidLabelId;
  Result<Container*> d = CheckCreate(*t, r.spec.container, r.spec.label, ObjectType::kSegment,
                                     r.spec.quota, &lid);
  if (!d.ok()) {
    return d.status();
  }
  if (!RangeOk(kObjectOverheadBytes, s->bytes().size(), r.spec.quota)) {
    return Status::kQuotaExceeded;
  }
  auto ns = std::make_unique<Segment>(AllocObjectIdLocked(), lid);
  ns->bytes() = s->bytes();
  ns->set_quota_internal(r.spec.quota);
  ns->set_descrip_internal(r.spec.descrip);
  Segment* raw = ns.get();
  InsertObject(std::move(ns));
  Status ls = LinkInto(d.value(), raw);
  if (ls != Status::kOk) {
    table_.EraseLocked(raw->id());
    return ls;
  }
  MarkDirty(raw->id());
  return raw->id();
}

Status Kernel::RunLocked(ObjectId self, const SegmentResizeReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kSegment) {
    return Status::kWrongType;
  }
  Segment* s = static_cast<Segment*>(o.value());
  Status ms = CheckModify(*t, *s);
  if (ms != Status::kOk) {
    return ms;
  }
  if (!RangeOk(kObjectOverheadBytes, r.len, s->quota())) {
    return Status::kQuotaExceeded;
  }
  s->bytes().resize(r.len, 0);
  // Republish the length for lock-free sys_segment_get_len readers (PR 6);
  // the byte vector itself stays lock-protected.
  s->publish_len_internal();
  MarkDirty(s->id());
  return Status::kOk;
}

Result<uint64_t> Kernel::RunLocked(ObjectId self, const SegmentGetLenReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kSegment) {
    return Status::kWrongType;
  }
  if (!CanObserve(*t, *o.value())) {
    return Status::kLabelCheckFailed;
  }
  // The published length, not bytes().size(): identical under any lock
  // (mutators republish before unlocking), and the only torn-free read for
  // the lock-free batch path — a concurrent resize may be reallocating the
  // vector itself.
  return static_cast<Segment*>(o.value())->published_len();
}

Status Kernel::RunLocked(ObjectId self, const SegmentReadReq& r) {
  // The read-mostly hot path: a shared table lock, so concurrent reads of
  // different (or the same) segments proceed together
  // (bench/ablation_objtable.cc measures exactly this path). Under the
  // batch ABI, a run of reads additionally shares ONE lock acquisition
  // (bench/fig12_ipc.cc measures that).
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kSegment) {
    return Status::kWrongType;
  }
  Segment* s = static_cast<Segment*>(o.value());
  if (!CanObserve(*t, *s)) {
    return Status::kLabelCheckFailed;
  }
  if (!RangeOk(r.off, r.len, s->bytes().size())) {
    return Status::kRange;
  }
  // CopyBytes, not memcpy: len == 0 at off == size is a valid no-op read
  // (RangeOk admits it) and may pair with a null buf or empty segment.
  CopyBytes(r.buf, s->bytes().data() + r.off, r.len);
  return Status::kOk;
}

Status Kernel::RunLocked(ObjectId self, const SegmentWriteReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kSegment) {
    return Status::kWrongType;
  }
  Segment* s = static_cast<Segment*>(o.value());
  Status ms = CheckModify(*t, *s);
  if (ms != Status::kOk) {
    return ms;
  }
  if (!RangeOk(r.off, r.len, s->bytes().size())) {
    return Status::kRange;
  }
  CopyBytes(s->bytes().data() + r.off, r.buf, r.len);
  MarkDirty(s->id());
  return Status::kOk;
}

// ---- address spaces -------------------------------------------------------------

Result<ObjectId> Kernel::RunLocked(ObjectId self, const AsCreateReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  LabelId lid = kInvalidLabelId;
  Result<Container*> d = CheckCreate(*t, r.spec.container, r.spec.label, ObjectType::kAddressSpace,
                                     r.spec.quota, &lid);
  if (!d.ok()) {
    return d.status();
  }
  auto as = std::make_unique<AddressSpace>(AllocObjectIdLocked(), lid);
  as->set_quota_internal(r.spec.quota);
  as->set_descrip_internal(r.spec.descrip);
  AddressSpace* raw = as.get();
  InsertObject(std::move(as));
  Status ls = LinkInto(d.value(), raw);
  if (ls != Status::kOk) {
    table_.EraseLocked(raw->id());
    return ls;
  }
  MarkDirty(raw->id());
  return raw->id();
}

Status Kernel::RunLocked(ObjectId self, const AsSetReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kAddressSpace) {
    return Status::kWrongType;
  }
  AddressSpace* as = static_cast<AddressSpace*>(o.value());
  Status ms = CheckModify(*t, *as);
  if (ms != Status::kOk) {
    return ms;
  }
  for (const Mapping& m : r.mappings) {
    if (m.va % kPageSize != 0 || m.npages == 0) {
      return Status::kInvalidArg;
    }
  }
  as->mappings_mutable() = r.mappings;
  MarkDirty(as->id());
  return Status::kOk;
}

Result<std::vector<Mapping>> Kernel::RunLocked(ObjectId self, const AsGetReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kAddressSpace) {
    return Status::kWrongType;
  }
  if (!CanObserve(*t, *o.value())) {
    return Status::kLabelCheckFailed;
  }
  return static_cast<AddressSpace*>(o.value())->mappings();
}

void Kernel::SetPageFaultHandler(ObjectId thread,
                                 std::function<bool(uint64_t va, bool write)> h) {
  MutexLock lock(&pf_mu_);
  pf_handlers_[thread] = std::move(h);
}

Status Kernel::AsAccessOnce(ObjectId self, uint64_t va, void* buf, uint64_t len, bool write) {
  // The objects reached are data-dependent (thread → address space →
  // mapping → segment); the table lock covers whichever they turn out to
  // be. Shared for reads, so concurrent readers stay parallel; exclusive
  // for writes.
  TableLock lk(table_, write ? TableLock::Mode::kExclusive : TableLock::Mode::kShared);
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  AddressSpace* as = nullptr;
  Object* aso = Get(t->address_space().object);
  if (aso != nullptr && aso->type() == ObjectType::kAddressSpace) {
    as = static_cast<AddressSpace*>(aso);
  }
  const Mapping* m = as != nullptr ? as->Lookup(va) : nullptr;
  if (m == nullptr || !m->Covers(va + (len == 0 ? 0 : len - 1))) {
    return Status::kNotFound;
  }
  if ((write && (m->flags & kMapWrite) == 0) || (!write && (m->flags & kMapRead) == 0)) {
    return Status::kNoPerm;
  }
  if (m->segment.object == kLocalSegmentId) {
    // Thread-local segments are always accessible by the current thread.
    uint64_t off = va - m->va + m->start_page * kPageSize;
    if (!RangeOk(off, len, t->local_segment().size())) {
      return Status::kRange;
    }
    if (write) {
      CopyBytes(t->local_segment().data() + off, buf, len);
      MarkDirty(self);
    } else {
      CopyBytes(buf, t->local_segment().data() + off, len);
    }
    return Status::kOk;
  }
  // Fault-time checks (§3.4): read D and O; for writes also L_T ⊑ L_O.
  Result<Object*> o = ResolveEntry(*t, m->segment);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kSegment) {
    return Status::kWrongType;
  }
  Segment* s = static_cast<Segment*>(o.value());
  if (!CanObserve(*t, *s)) {
    return Status::kLabelCheckFailed;
  }
  if (write && (!registry_.Leq(t->label_id(), s->label_id()) || s->immutable())) {
    return s->immutable() ? Status::kImmutable : Status::kLabelCheckFailed;
  }
  uint64_t off = va - m->va + m->start_page * kPageSize;
  if (!RangeOk(off, len, s->bytes().size())) {
    return Status::kRange;
  }
  if (write) {
    CopyBytes(s->bytes().data() + off, buf, len);
    MarkDirty(s->id());
  } else {
    CopyBytes(buf, s->bytes().data() + off, len);
  }
  return Status::kOk;
}

Status Kernel::DoAsAccess(ObjectId self, uint64_t va, void* buf, uint64_t len, bool write) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status st = AsAccessOnce(self, va, buf, len, write);
    if (st == Status::kOk || st == Status::kHalted) {
      return st;
    }
    // Call up to the user-mode page-fault handler; if it claims to have
    // repaired the fault (remapped something), retry once.
    std::function<bool(uint64_t, bool)> handler;
    {
      MutexLock lock(&pf_mu_);
      auto it = pf_handlers_.find(self);
      if (it != pf_handlers_.end()) {
        handler = it->second;
      }
    }
    if (!handler || attempt == 1 || !handler(va, write)) {
      return st;
    }
  }
  return Status::kInvalidArg;
}

// ---- futexes ----------------------------------------------------------------------

Status Kernel::ReadFutexWord(ObjectId self, ContainerEntry seg, uint64_t offset,
                             uint64_t* word, ObjectId* sid) {
  TableLock lk(table_, TableLock::Mode::kShared);
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, seg);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kSegment) {
    return Status::kWrongType;
  }
  Segment* s = static_cast<Segment*>(o.value());
  if (!CanObserve(*t, *s)) {
    return Status::kLabelCheckFailed;
  }
  if (!RangeOk(offset, 8, s->bytes().size())) {
    return Status::kRange;
  }
  memcpy(word, s->bytes().data() + offset, 8);
  *sid = s->id();
  return Status::kOk;
}

Status Kernel::DoFutexWait(ObjectId self, ContainerEntry seg, uint64_t offset,
                           uint64_t expected, uint32_t timeout_ms) {
  // Validation pass: resolve, observe-check, range-check, and the cheap
  // early-out when the word already differs.
  uint64_t current = 0;
  ObjectId sid = kInvalidObject;
  Status st = ReadFutexWord(self, seg, offset, &current, &sid);
  if (st != Status::kOk) {
    return st;
  }
  if (current != expected) {
    return Status::kAgain;
  }
  // Register as a waiter BEFORE re-reading the word. A writer that changes
  // the word and calls futex_wake between our validation pass and the sleep
  // bumps wake_seq/wake_budget under futex_mu_, which the wait loop below
  // observes — this ordering is what replaces the old big lock's atomicity.
  FutexKey key{sid, offset};
  FutexWaitQueue* q = nullptr;
  uint64_t seq = 0;
  {
    MutexLock fl(&futex_mu_);
    auto it = futexes_.find(key);
    if (it == futexes_.end()) {
      it = futexes_.emplace(key, std::make_unique<FutexWaitQueue>()).first;
    }
    q = it->second.get();
    seq = q->wake_seq;
    ++q->waiters;
  }
  // Re-read now that we are registered (closes the lost-wakeup window).
  // Same helper as the validation pass, so the two cannot drift; a changed
  // segment identity (destroyed and relinked under the same entry) also
  // aborts — our registration would be on the old segment's queue.
  ObjectId sid2 = kInvalidObject;
  Status recheck = ReadFutexWord(self, seg, offset, &current, &sid2);
  if (recheck == Status::kOk && (current != expected || sid2 != sid)) {
    recheck = Status::kAgain;
  }
  if (recheck != Status::kOk) {
    MutexLock fl(&futex_mu_);
    if (--q->waiters == 0) {
      futexes_.erase(key);  // GC: queues exist only while someone waits
    }
    return recheck;
  }
  auto deadline = trace::SteadyNow() + std::chrono::milliseconds(timeout_ms);
  Status result = Status::kOk;
  futex_mu_.Lock();
  for (;;) {
    // Re-check world state each wakeup: halted, alerted, consumed a wake
    // token, or timed out. Thread state lives behind the table lock, and
    // futex_mu_ never nests with it (lock hierarchy) — so drop the
    // futex lock for the peek; wakes that land meanwhile persist in
    // wake_seq/wake_budget and are seen on reacquisition.
    futex_mu_.Unlock();
    Status ts = Status::kOk;
    {
      TableLock lk(table_, TableLock::Mode::kShared);
      Thread* t = GetThread(self);
      if (t == nullptr || t->halted()) {
        ts = Status::kHalted;
      } else if (!t->alerts().empty()) {
        ts = Status::kAgain;  // interrupted by alert (EINTR analogue)
      }
    }
    futex_mu_.Lock();
    if (ts != Status::kOk) {
      result = ts;
      break;
    }
    if (q->wake_seq != seq && q->wake_budget > 0) {
      --q->wake_budget;
      result = Status::kOk;
      break;
    }
    // Wait in bounded slices rather than one full-deadline block: alerts,
    // halts and thread destruction are only observable through the table-
    // locked peek above (futex queues are keyed by segment, not by thread,
    // so thread-targeted events cannot notify this cv directly), and the
    // slice bound is what makes them interrupt a long timed wait promptly.
    const auto slice = std::chrono::milliseconds(50);
    if (timeout_ms != 0) {
      auto now = trace::SteadyNow();
      if (now >= deadline) {
        result = Status::kTimedOut;
        break;
      }
      q->cv.WaitFor(futex_mu_,
                    std::min<std::chrono::steady_clock::duration>(deadline - now, slice));
    } else {
      q->cv.WaitFor(futex_mu_, slice);
    }
  }
  if (--q->waiters == 0) {
    // GC the queue with the last waiter (still under futex_mu_, so a
    // concurrent register either already counted itself — keeping the
    // queue alive — or will recreate it fresh). Unconsumed wake budget
    // dies with it, which is fine: budget is only ever granted against
    // counted waiters, and futexes permit spurious outcomes either way.
    futexes_.erase(key);
  }
  futex_mu_.Unlock();
  return result;
}

Result<uint32_t> Kernel::DoFutexWake(ObjectId self, ContainerEntry seg, uint64_t offset,
                                     uint32_t max_count) {
  ObjectId sid = kInvalidObject;
  {
    TableLock lk(table_, TableLock::Mode::kShared);
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Result<Object*> o = ResolveEntry(*t, seg);
    if (!o.ok()) {
      return o.status();
    }
    if (o.value()->type() != ObjectType::kSegment) {
      return Status::kWrongType;
    }
    Segment* s = static_cast<Segment*>(o.value());
    // Waking waiters conveys information to them: require modify access, the
    // same as writing the futex word. (Label-only checks — no object state
    // is mutated, so the shared table lock suffices; the queue mutation
    // below happens under futex_mu_.)
    Status ms = CheckModify(*t, *s);
    if (ms != Status::kOk) {
      return ms;
    }
    sid = s->id();
  }
  MutexLock fl(&futex_mu_);
  FutexKey key{sid, offset};
  auto it = futexes_.find(key);
  if (it == futexes_.end()) {
    return 0u;
  }
  FutexWaitQueue* q = it->second.get();
  uint32_t woken = std::min(max_count, q->waiters);
  ++q->wake_seq;
  q->wake_budget += woken;
  q->cv.NotifyAll();
  return woken;
}

// ---- devices -----------------------------------------------------------------------

Result<std::array<uint8_t, 6>> Kernel::DoNetMacAddr(ObjectId self, ContainerEntry dev) {
  TableLock lk(table_, TableLock::Mode::kShared);
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, dev);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kDevice) {
    return Status::kWrongType;
  }
  Device* d = static_cast<Device*>(o.value());
  if (d->kind() != DeviceKind::kNet || d->net_port() == nullptr) {
    return Status::kWrongType;
  }
  if (!CanObserve(*t, *d)) {
    return Status::kLabelCheckFailed;
  }
  return d->net_port()->MacAddress();
}

Status Kernel::DoNetTransmit(ObjectId self, ContainerEntry dev, ContainerEntry seg,
                             uint64_t off, uint64_t len) {
  NetPort* port = nullptr;
  std::vector<uint8_t> frame;
  {
    TableLock lk(table_, TableLock::Mode::kShared);
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Result<Object*> od = ResolveEntry(*t, dev);
    if (!od.ok()) {
      return od.status();
    }
    if (od.value()->type() != ObjectType::kDevice) {
      return Status::kWrongType;
    }
    Device* d = static_cast<Device*>(od.value());
    if (d->kind() != DeviceKind::kNet || d->net_port() == nullptr) {
      return Status::kWrongType;
    }
    // Transmitting writes the device: the boot-time label {nr3, nw0, i2, 1}
    // means a thread tainted in any unowned category above the device's
    // level cannot transmit — this single check is what "tainted data cannot
    // leave the machine" reduces to. (Label checks only; the frame bytes go
    // to the NIC ring, not into kernel objects, so a shared lock suffices.)
    Status ms = CheckModify(*t, *d);
    if (ms != Status::kOk) {
      return ms;
    }
    Result<Object*> os = ResolveEntry(*t, seg);
    if (!os.ok()) {
      return os.status();
    }
    if (os.value()->type() != ObjectType::kSegment) {
      return Status::kWrongType;
    }
    Segment* s = static_cast<Segment*>(os.value());
    if (!CanObserve(*t, *s)) {
      return Status::kLabelCheckFailed;
    }
    if (!RangeOk(off, len, s->bytes().size())) {
      return Status::kRange;
    }
    frame.assign(s->bytes().begin() + static_cast<ptrdiff_t>(off),
                 s->bytes().begin() + static_cast<ptrdiff_t>(off + len));
    port = d->net_port();
  }
  return port->Transmit(frame) ? Status::kOk : Status::kAgain;
}

Result<uint64_t> Kernel::DoNetReceive(ObjectId self, ContainerEntry dev, ContainerEntry seg,
                                      uint64_t off, uint64_t maxlen) {
  NetPort* port = nullptr;
  {
    TableLock lk(table_, TableLock::Mode::kShared);
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Result<Object*> od = ResolveEntry(*t, dev);
    if (!od.ok()) {
      return od.status();
    }
    if (od.value()->type() != ObjectType::kDevice) {
      return Status::kWrongType;
    }
    Device* d = static_cast<Device*>(od.value());
    if (d->kind() != DeviceKind::kNet || d->net_port() == nullptr) {
      return Status::kWrongType;
    }
    // Receiving observes the device; the device's label (i2 component)
    // forces the receive buffer — and hence the reader — to carry the
    // network taint.
    if (!CanObserve(*t, *d)) {
      return Status::kLabelCheckFailed;
    }
    Result<Object*> os = ResolveEntry(*t, seg);
    if (!os.ok()) {
      return os.status();
    }
    if (os.value()->type() != ObjectType::kSegment) {
      return Status::kWrongType;
    }
    Segment* s = static_cast<Segment*>(os.value());
    Status ms = CheckModify(*t, *s);
    if (ms != Status::kOk) {
      return ms;
    }
    // The receive buffer must be at least as tainted as the device, or data
    // arriving from the wire would shed its taint. L_D ⊑ L_S^J.
    if (!registry_.Leq(d->label_id(), registry_.HiOf(s->label_id()))) {
      return Status::kLabelCheckFailed;
    }
    port = d->net_port();
  }
  std::vector<uint8_t> frame;
  if (!port->Receive(&frame)) {
    return Status::kAgain;
  }
  uint64_t n = std::min<uint64_t>(frame.size(), maxlen);
  {
    // Copy-in pass mutates the segment: exclusive lock, and re-resolve —
    // the world may have changed while we polled the NIC unlocked.
    TableLock lk(table_, TableLock::Mode::kExclusive);
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Result<Object*> os = ResolveEntry(*t, seg);
    if (!os.ok()) {
      return os.status();
    }
    if (os.value()->type() != ObjectType::kSegment) {
      return Status::kWrongType;
    }
    Segment* s = static_cast<Segment*>(os.value());
    // Re-run the modify rule, not just resolution: the segment may have
    // been marked immutable while we waited on the NIC with no lock held.
    Status ms = CheckModify(*t, *s);
    if (ms != Status::kOk) {
      return ms;
    }
    if (!RangeOk(off, n, s->bytes().size())) {
      return Status::kRange;
    }
    CopyBytes(s->bytes().data() + off, frame.data(), n);
    MarkDirty(s->id());
  }
  return n;
}

Status Kernel::DoNetWait(ObjectId self, ContainerEntry dev, uint32_t timeout_ms) {
  NetPort* port = nullptr;
  {
    TableLock lk(table_, TableLock::Mode::kShared);
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Result<Object*> od = ResolveEntry(*t, dev);
    if (!od.ok()) {
      return od.status();
    }
    if (od.value()->type() != ObjectType::kDevice) {
      return Status::kWrongType;
    }
    Device* d = static_cast<Device*>(od.value());
    if (d->kind() != DeviceKind::kNet || d->net_port() == nullptr) {
      return Status::kWrongType;
    }
    if (!CanObserve(*t, *d)) {
      return Status::kLabelCheckFailed;
    }
    port = d->net_port();
  }
  return port->WaitForFrame(timeout_ms) ? Status::kOk : Status::kTimedOut;
}

Status Kernel::RunLocked(ObjectId self, const ConsoleWriteReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.dev);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kDevice) {
    return Status::kWrongType;
  }
  Device* d = static_cast<Device*>(o.value());
  if (d->kind() != DeviceKind::kConsole) {
    return Status::kWrongType;
  }
  Status ms = CheckModify(*t, *d);
  if (ms != Status::kOk) {
    return ms;
  }
  d->console_buffer() += r.text;
  return Status::kOk;
}

}  // namespace histar
