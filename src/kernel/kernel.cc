// Kernel core: construction, label-check helpers, containers, generic object
// syscalls, and the quota system.
//
// Locking convention used throughout the syscall implementations: the
// syscall takes ONE TableLock — shared for read-only paths, exclusive when
// anything is mutated — and holds it for the duration of the checks and
// the state change. The lock covers the whole table, so a syscall never
// needs to know in advance which objects it will reach (recursive destroy,
// alerts through a target's address space). Futex wakeups happen after the
// table lock is released (futex_mu_ and the table lock never nest).
#include "src/kernel/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/core/trace.h"

namespace histar {

namespace {
thread_local ObjectId g_current_thread = kInvalidObject;
thread_local bool g_published_reads = false;
}  // namespace

ObjectId CurrentThread::Get() { return g_current_thread; }
void CurrentThread::Set(ObjectId id) { g_current_thread = id; }

PublishedReadMode::PublishedReadMode() : prev_(g_published_reads) {
  g_published_reads = true;
}
PublishedReadMode::~PublishedReadMode() { g_published_reads = prev_; }
bool PublishedReadMode::Active() { return g_published_reads; }

bool Container::HasLink(ObjectId o) const {
  // Read through the published snapshot when one exists: it is identical to
  // links_ under the table lock (mutators republish before unlocking), and
  // it is the only safe view for a lock-free reader (the live vector may be
  // reallocating under a concurrent LinkInto).
  const std::vector<ObjectId>* snap = links_snapshot();
  const std::vector<ObjectId>& v = snap != nullptr ? *snap : links_;
  return std::find(v.begin(), v.end(), o) != v.end();
}

const Mapping* AddressSpace::Lookup(uint64_t va) const {
  for (const Mapping& m : mappings_) {
    if (m.Covers(va)) {
      return &m;
    }
  }
  return nullptr;
}

Kernel::Kernel() {
  // Flight-recorder events recorded while this kernel runs carry label ids
  // from ITS registry; publishing the registry's instance id as the
  // recorder's label generation is what lets sys_trace_read reject a stale
  // event whose id numerically collides with a live one (ids are dense per
  // instance, so collision — not Known() failure — is the common case
  // after an in-process reboot).
  trace::SetLabelGeneration(registry_.instance_id());
  // The root container: label {1}, quota ∞, never deallocated. Its "fake
  // parent" is labeled {3} in the paper; we model that by making the parent
  // id invalid and refusing get_parent on the root.
  TableLock lk(table_, TableLock::Mode::kExclusive);
  auto root = std::make_unique<Container>(AllocObjectIdLocked(),
                                          registry_.Intern(Label(Level::k1)), 0, kInvalidObject);
  root->set_quota_internal(kQuotaInfinite);
  root->set_descrip_internal("root");
  root->add_link_internal();  // permanent anchor link
  root_ = root->id();
  InsertObject(std::move(root));
}

// ---- boot -------------------------------------------------------------------

ObjectId Kernel::BootstrapThread(const Label& label, const Label& clearance,
                                 const std::string& descrip, ObjectId container) {
  if (container == kInvalidObject) {
    container = root_;
  }
  TableLock lk(table_, TableLock::Mode::kExclusive);
  Container* d = GetContainer(container);
  if (d == nullptr) {
    return kInvalidObject;
  }
  auto t = std::make_unique<Thread>(AllocObjectIdLocked(), registry_.Intern(label),
                                    registry_.Intern(clearance));
  t->set_quota_internal(64 * kPageSize);
  t->set_descrip_internal(descrip);
  Thread* raw = t.get();
  InsertObject(std::move(t));
  LinkInto(d, raw);
  MarkDirty(raw->id());
  return raw->id();
}

ObjectId Kernel::BootstrapDevice(DeviceKind kind, const Label& label,
                                 const std::string& descrip) {
  TableLock lk(table_, TableLock::Mode::kExclusive);
  Container* d = GetContainer(root_);
  auto dev = std::make_unique<Device>(AllocObjectIdLocked(), registry_.Intern(label), kind);
  dev->set_quota_internal(64 * kPageSize);
  dev->set_descrip_internal(descrip);
  Device* raw = dev.get();
  InsertObject(std::move(dev));
  LinkInto(d, raw);
  MarkDirty(raw->id());
  return raw->id();
}

bool Kernel::AttachNetPort(ObjectId device, NetPort* port) {
  TableLock lk(table_, TableLock::Mode::kExclusive);
  Object* o = Get(device);
  if (o == nullptr || o->type() != ObjectType::kDevice) {
    return false;
  }
  static_cast<Device*>(o)->set_net_port(port);
  return true;
}

void Kernel::RegisterGateEntry(const std::string& name, GateEntryFn fn) {
  MutexLock lock(&gate_entries_mu_);
  gate_entries_[name] = std::move(fn);
}

bool Kernel::HasGateEntry(const std::string& name) const {
  MutexLock lock(&gate_entries_mu_);
  return gate_entries_.count(name) > 0;
}

uint64_t Kernel::syscall_count() const {
  uint64_t n = 0;
  for (const CountSlot& slot : count_slots_) {
    n += slot.total.load(std::memory_order_relaxed);
  }
  return n;
}

// ---- internal helpers (table-lock requirements in kernel.h) ------------------

Object* Kernel::Get(ObjectId id) const {
  if (PublishedReadMode::Active()) {
    return table_.GetPublished(id);
  }
  return table_.GetLocked(id);
}

Thread* Kernel::GetThread(ObjectId id) const {
  Object* o = Get(id);
  if (o == nullptr || o->type() != ObjectType::kThread) {
    return nullptr;
  }
  Thread* t = static_cast<Thread*>(o);
#if HISTAR_TRACE
  // Taint stamp for the flight recorder: the FIRST thread a request
  // resolves is the acting thread (`self` resolves before any target), so
  // first-write-wins gives the event the actor's label.
  trace::StampThread(t->label_id());
#endif
  return t;
}

Container* Kernel::GetContainer(ObjectId id) const {
  Object* o = Get(id);
  return (o != nullptr && o->type() == ObjectType::kContainer) ? static_cast<Container*>(o)
                                                               : nullptr;
}

bool Kernel::CanObserve(const Thread& t, const Object& o) {
  // L_O ⊑ L_T^J. (Thread labels as observed objects are handled by the
  // caller where the §3.2 special rule applies; for alerts and similar the
  // plain rule is correct.) The raised form of the thread label is a
  // precomputed id — no shifted label is built per check.
  return registry_.Leq(o.label_id(), registry_.HiOf(t.label_id()));
}

bool Kernel::CanModifyLabels(const Thread& t, const Object& o) {
  // L_T ⊑ L_O ⊑ L_T^J — modification implies observation.
  return registry_.Leq(t.label_id(), o.label_id()) && CanObserve(t, o);
}

Status Kernel::CheckModify(const Thread& t, const Object& o) {
  if (!CanModifyLabels(t, o)) {
    return Status::kLabelCheckFailed;
  }
  if (o.immutable()) {
    return Status::kImmutable;
  }
  return Status::kOk;
}

Result<Object*> Kernel::ResolveEntry(const Thread& t, ContainerEntry ce) {
  // §3.2: for thread T to use ⟨D,O⟩, D must link O and T must read D
  // (L_D ⊑ L_T^J). Every container contains itself: ⟨D,D⟩ needs only the
  // read check on D.
  Container* d = GetContainer(ce.container);
  if (d == nullptr) {
    return Status::kNotFound;
  }
  if (!CanObserve(t, *d)) {
    return Status::kLabelCheckFailed;
  }
  if (ce.object == ce.container) {
#if HISTAR_TRACE
    trace::StampObject(d->id(), d->label_id());
#endif
    return static_cast<Object*>(d);
  }
  if (!d->HasLink(ce.object)) {
    return Status::kNotFound;
  }
  Object* o = Get(ce.object);
  if (o == nullptr) {
    return Status::kNotFound;
  }
#if HISTAR_TRACE
  // Last-write-wins: a request resolving several entries leaves the most
  // recently touched object's label on the event — for single-⟨D,O⟩
  // syscalls (the common case) that IS the operand object.
  trace::StampObject(o->id(), o->label_id());
#endif
  return o;
}

Result<Container*> Kernel::CheckCreate(const Thread& t, ObjectId d_id, const Label& l,
                                       ObjectType type, uint64_t quota, LabelId* out_lid) {
  Container* d = GetContainer(d_id);
  if (d == nullptr) {
    return Status::kNotFound;
  }
  // Creation requires write access to D...
  Status ms = CheckModify(t, *d);
  if (ms != Status::kOk) {
    return ms;
  }
  // ...a label within the creator's range L_T ⊑ L ⊑ C_T. Validated without
  // interning: `l` is caller-supplied and gets a registry entry only after
  // every check passes, so rejected creations cannot grow kernel state.
  if (!registry_.LeqWith(t.label_id(), l) || !registry_.LeqOf(l, t.clearance_id())) {
    return Status::kLabelCheckFailed;
  }
  // Object labels other than gates' may not contain ⋆ (Figure 3).
  if (type != ObjectType::kGate && type != ObjectType::kThread && l.HasLevel(Level::kStar)) {
    return Status::kInvalidArg;
  }
  // ...a type the container tree permits...
  if ((d->avoid_types() & TypeBit(type)) != 0) {
    return Status::kNoPerm;
  }
  // ...and quota headroom in D.
  if (quota == kQuotaInfinite && d->quota() != kQuotaInfinite) {
    return Status::kQuotaExceeded;
  }
  if (quota != kQuotaInfinite && ContainerFree(*d) < quota) {
    return Status::kQuotaExceeded;
  }
  *out_lid = registry_.Intern(l);
  return d;
}

Status Kernel::LinkInto(Container* d, Object* obj) {
  if (d->quota() != kQuotaInfinite) {
    uint64_t charge = obj->quota() == kQuotaInfinite ? 0 : obj->quota();
    if (ContainerFree(*d) < charge) {
      return Status::kQuotaExceeded;
    }
  }
  d->links_mutable().push_back(obj->id());
  // Republish the link snapshot for lock-free readers; the outgrown copy may
  // still be probed by a pinned reader, so it goes through the epoch layer.
  EpochDomain::Global().Retire(d->RepublishLinks());
  obj->add_link_internal();
  if (obj->quota() != kQuotaInfinite) {
    d->set_usage_internal(d->usage() + obj->quota());
  }
  MarkDirty(d->id());
  return Status::kOk;
}

void Kernel::UnlinkFrom(Container* d, ObjectId obj_id) {
  auto& links = d->links_mutable();
  auto it = std::find(links.begin(), links.end(), obj_id);
  if (it == links.end()) {
    return;
  }
  links.erase(it);
  EpochDomain::Global().Retire(d->RepublishLinks());
  Object* obj = Get(obj_id);
  if (obj != nullptr) {
    obj->drop_link_internal();
    if (obj->quota() != kQuotaInfinite) {
      d->set_usage_internal(d->usage() - obj->quota());
    }
  }
  MarkDirty(d->id());
}

void Kernel::DestroyObject(ObjectId id, std::vector<ObjectId>* destroyed_segments) {
  Object* o = Get(id);
  if (o == nullptr) {
    return;
  }
  if (o->type() == ObjectType::kContainer) {
    Container* c = static_cast<Container*>(o);
    // Recursively unreference the whole subtree (paper §3.2) under the
    // caller's exclusive table lock.
    std::vector<ObjectId> children = c->links();
    for (ObjectId child : children) {
      Object* co = Get(child);
      if (co == nullptr) {
        continue;
      }
      co->drop_link_internal();
      if (co->link_count() == 0) {
        DestroyObject(child, destroyed_segments);
      }
    }
  } else if (o->type() == ObjectType::kSegment) {
    // Futex queues keyed by the segment are torn down only after the table
    // lock drops: the caller hands this list to WakeAllFutexes.
    destroyed_segments->push_back(id);
  }
  // Destroyed threads need no flag or futex wake: the erase below makes
  // every later GetThread return nullptr, which a wait by this thread
  // observes as kHalted at its next bounded-slice state peek (≤50 ms).
  {
    MutexLock dl(&dirty_mu_);
    dirty_.erase(id);
  }
  {
    MutexLock pl(&pf_mu_);
    pf_handlers_.erase(id);
  }
  table_.EraseLocked(id);
}

uint64_t Kernel::ContainerFree(const Container& d) const {
  if (d.quota() == kQuotaInfinite) {
    return kQuotaInfinite;
  }
  uint64_t used = d.usage() + d.OwnUsage();
  return d.quota() > used ? d.quota() - used : 0;
}

void Kernel::MarkDirty(ObjectId id) {
  MutexLock lock(&dirty_mu_);
  dirty_[id] = ++dirty_seq_;
}

void Kernel::InsertObject(std::unique_ptr<Object> obj) {
  obj->set_creation_seq(creation_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  table_.InsertLocked(std::move(obj));
}

ObjectId Kernel::AllocObjectIdLocked() {
  // The allocator is a counter behind a cipher, so two calls never produce
  // the same id — the probe only guards against collision with restored
  // objects.
  for (;;) {
    ObjectId id = objid_alloc_.Allocate();
    if (id != kLocalSegmentId && !table_.ContainsLocked(id)) {
      return id;
    }
  }
}

void Kernel::CountSyscalls(uint64_t n) {
  // One add per *batch*: an N-entry submission charges all N here, into the
  // calling host thread's slot — never shared below kCountSlots live
  // threads — and no kernel-wide atomic is touched.
  count_slots_[EpochDomain::ThreadSlot() & (kCountSlots - 1)].total.fetch_add(
      n, std::memory_order_relaxed);
}

void Kernel::DoTraceRead(ObjectId self, uint32_t max_events, TraceReadRes* out) {
  // Resolve the reader and capture its raised label under a shared table
  // lock ONLY — the snapshot walk and the per-event Leq checks run
  // lock-free afterwards (the registry's warm Leq path takes no table
  // lock), so a trace read never serializes against the syscall hot path
  // it is observing.
  LabelId reader_hi = kInvalidLabelId;
  {
    TableLock lk(table_, TableLock::Mode::kShared);
    Thread* t = GetThread(self);
    if (t == nullptr) {
      out->status = Status::kNotFound;
      return;
    }
    reader_hi = registry_.HiOf(t->label_id());
  }

  uint32_t cap = max_events == 0 ? kTraceReadDefaultMax : max_events;
  if (cap > kTraceReadMaxEvents) {
    cap = kTraceReadMaxEvents;
  }

  std::vector<trace::SlotEvent> snap;
  trace::Snapshot(&snap);
  out->total = 0;
  out->withheld = 0;
  const uint32_t gen = registry_.instance_id();
  for (const trace::SlotEvent& se : snap) {
    const trace::Event& e = se.event;
    ++out->total;
    // §3 observe rule, applied per event: BOTH recorded labels must flow
    // to the reader's raised label (equivalent to their join flowing —
    // Leq distributes over join on the left). Label id 0 means "no label
    // recorded", which carries no information and always flows. A labeled
    // event from a different label generation (the recorder outlives
    // kernel instances, so events stamped under a previous instance's
    // registry can linger — the crash-recovery tests reboot dozens of
    // kernels in one process) cannot be interpreted: ids are dense per
    // instance, so a stale id usually COLLIDES with a currently-issued id
    // rather than failing Known(), and Leq against the colliding label
    // would be checking the wrong label entirely. Different generation ⇒
    // does not flow; Known() stays as the bounds check for malformed ids
    // within the current generation.
    const bool same_gen = e.gen == gen;
    auto flows = [&](LabelId l) {
      return l == kInvalidLabelId ||
             (same_gen && registry_.Known(l) && registry_.Leq(l, reader_hi));
    };
    bool visible = flows(e.tlabel) && flows(e.olabel);
    if (!visible) {
      // Counted-but-withheld: the aggregate count is label-safe (it
      // reveals that secret activity exists, not what it was — the same
      // information the paper's resource-exhaustion channels already
      // concede), pinned by tests/kernel/trace_flow_test.cc.
      ++out->withheld;
      continue;
    }
    if (out->events.size() >= cap) {
      continue;  // keep counting total/withheld past the cap
    }
    TraceEventWire w;
    w.ts_ns = e.ts_ns;
    w.a = e.a;
    w.b = e.b;
    w.c = e.c;
    w.seq = se.seq;
    w.slot = se.slot;
    w.dur_ns = e.dur_ns;
    w.tlabel = e.tlabel;
    w.olabel = e.olabel;
    w.gen = e.gen;
    w.kind = e.kind;
    w.code = static_cast<uint32_t>(static_cast<int32_t>(e.code));
    w.aux = e.aux;
    out->events.push_back(w);
  }
  out->status = Status::kOk;
}

void Kernel::WakeAllFutexes(const std::vector<ObjectId>& segs) {
  if (segs.empty()) {
    return;
  }
  MutexLock lock(&futex_mu_);
  for (auto& [key, q] : futexes_) {
    if (std::find(segs.begin(), segs.end(), key.seg) != segs.end()) {
      ++q->wake_seq;
      q->wake_budget += q->waiters;
      q->cv.NotifyAll();
    }
  }
}

// ---- containers ---------------------------------------------------------------
//
// Syscall bodies below: RunLocked bodies run under a TableLock the batch
// dispatcher already holds; Do* bodies, the calls without a descriptor,
// take their own locks. The public sys_* wrappers live in
// kernel_batch.cc.

Result<ObjectId> Kernel::RunLocked(ObjectId self, const ContainerCreateReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  LabelId lid = kInvalidLabelId;
  Result<Container*> d = CheckCreate(*t, r.spec.container, r.spec.label, ObjectType::kContainer,
                                     r.spec.quota, &lid);
  if (!d.ok()) {
    return d.status();
  }
  // avoid_types restrictions are inherited by all descendants.
  uint32_t avoid = r.avoid_types | d.value()->avoid_types();
  auto c = std::make_unique<Container>(AllocObjectIdLocked(), lid, avoid,
                                       r.spec.container);
  c->set_quota_internal(r.spec.quota);
  c->set_descrip_internal(r.spec.descrip);
  Container* raw = c.get();
  InsertObject(std::move(c));
  Status ls = LinkInto(d.value(), raw);
  if (ls != Status::kOk) {
    table_.EraseLocked(raw->id());
    return ls;
  }
  MarkDirty(raw->id());
  return raw->id();
}

Status Kernel::DoContainerUnref(ObjectId self, ContainerEntry ce) {
  std::vector<ObjectId> destroyed;
  {
    // One exclusive lock covers the unlink and, if it drops O's last link,
    // the recursive destroy of O's whole subtree.
    TableLock lk(table_, TableLock::Mode::kExclusive);
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Container* d = GetContainer(ce.container);
    if (d == nullptr) {
      return Status::kNotFound;
    }
    // Unreferencing requires write access on D — and nothing about O. This
    // is the §3.2 point: resource revocation is separate from access.
    Status ms = CheckModify(*t, *d);
    if (ms != Status::kOk) {
      return ms;
    }
    if (ce.object == ce.container || ce.object == root_) {
      return Status::kInvalidArg;  // the root (and self-entries) cannot be unlinked
    }
    if (!d->HasLink(ce.object)) {
      return Status::kNotFound;
    }
    Object* o = Get(ce.object);
    UnlinkFrom(d, ce.object);
    if (o != nullptr && o->link_count() == 0) {
      DestroyObject(ce.object, &destroyed);
    }
  }
  // Futex wakeups strictly after the table lock drops (lock hierarchy:
  // futex_mu_ is a leaf that never nests with the table lock).
  WakeAllFutexes(destroyed);
  return Status::kOk;
}

Result<ObjectId> Kernel::RunLocked(ObjectId self, const ContainerGetParentReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Container* d = GetContainer(r.container);
  if (d == nullptr) {
    return Status::kNotFound;
  }
  if (!CanObserve(*t, *d)) {
    return Status::kLabelCheckFailed;
  }
  if (d->parent() == kInvalidObject) {
    // The root's fake parent is labeled {3}: unobservable by anyone.
    return Status::kLabelCheckFailed;
  }
  return d->parent();
}

Result<std::vector<ObjectId>> Kernel::RunLocked(ObjectId self, const ContainerListReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Container* d = GetContainer(r.container);
  if (d == nullptr) {
    return Status::kNotFound;
  }
  if (!CanObserve(*t, *d)) {
    return Status::kLabelCheckFailed;
  }
  // Copy out of the published snapshot (identical to links_ under a lock,
  // and the only stable view for a lock-free reader).
  const std::vector<ObjectId>* snap = d->links_snapshot();
  return snap != nullptr ? *snap : d->links();
}

Status Kernel::RunLocked(ObjectId self, const ContainerLinkReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.src);
  if (!o.ok()) {
    return o.status();
  }
  Container* d = GetContainer(r.container);
  if (d == nullptr) {
    return Status::kNotFound;
  }
  Status ms = CheckModify(*t, *d);
  if (ms != Status::kOk) {
    return ms;
  }
  // Hard-linking prolongs the object's life; the creator must have clearance
  // to allocate at the object's label (L_S ⊑ C_T, §3.2)...
  if (!registry_.Leq(o.value()->label_id(), t->clearance_id())) {
    return Status::kLabelCheckFailed;
  }
  // ...and the object's quota must be frozen first (§3.3).
  if (!o.value()->fixed_quota()) {
    return Status::kNoPerm;
  }
  if (d->HasLink(o.value()->id())) {
    return Status::kExists;
  }
  return LinkInto(d, o.value());
}

Result<bool> Kernel::RunLocked(ObjectId self, const ContainerHasReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Container* d = GetContainer(r.container);
  if (d == nullptr) {
    return Status::kNotFound;
  }
  if (!CanObserve(*t, *d)) {
    return Status::kLabelCheckFailed;
  }
  return d->HasLink(r.obj);
}

// ---- generic object syscalls ---------------------------------------------------

Result<ObjectType> Kernel::RunLocked(ObjectId self, const ObjGetTypeReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  return o.value()->type();
}

Result<Label> Kernel::RunLocked(ObjectId self, const ObjGetLabelReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() == ObjectType::kThread) {
    // Thread labels are mutable, so being able to use the entry is not
    // enough: §3.2 requires L_T'^J ⊑ L_T^J. Both raised forms are
    // precomputed registry ids, so this is one memoized probe.
    const Thread* other = static_cast<const Thread*>(o.value());
    if (!registry_.Leq(registry_.HiOf(other->label_id()), registry_.HiOf(t->label_id()))) {
      return Status::kLabelCheckFailed;
    }
  }
  return LabelOf(*o.value());
}

Result<std::string> Kernel::RunLocked(ObjectId self, const ObjGetDescripReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  return o.value()->descrip();
}

Result<uint64_t> Kernel::RunLocked(ObjectId self, const ObjGetQuotaReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  // Quota is observable state: require observation of O itself.
  if (!CanObserve(*t, *o.value())) {
    return Status::kLabelCheckFailed;
  }
  return o.value()->quota();
}

Result<std::vector<uint8_t>> Kernel::RunLocked(ObjectId self, const ObjGetMetadataReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (!CanObserve(*t, *o.value())) {
    return Status::kLabelCheckFailed;
  }
  const auto& md = o.value()->metadata();
  return std::vector<uint8_t>(md.begin(), md.end());
}

Status Kernel::RunLocked(ObjectId self, const ObjSetMetadataReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  if (r.len > kMetadataLen) {
    return Status::kRange;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  Status ms = CheckModify(*t, *o.value());
  if (ms != Status::kOk) {
    return ms;
  }
  memcpy(o.value()->metadata_mutable().data(), r.data, r.len);
  MarkDirty(o.value()->id());
  return Status::kOk;
}

Status Kernel::RunLocked(ObjectId self, const ObjSetFixedQuotaReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  Status ms = CheckModify(*t, *o.value());
  if (ms != Status::kOk) {
    return ms;
  }
  o.value()->set_fixed_quota_internal();
  MarkDirty(o.value()->id());
  return Status::kOk;
}

Status Kernel::RunLocked(ObjectId self, const ObjSetImmutableReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  Status ms = CheckModify(*t, *o.value());
  if (ms != Status::kOk) {
    return ms;
  }
  o.value()->set_immutable_internal();
  MarkDirty(o.value()->id());
  return Status::kOk;
}

Status Kernel::RunLocked(ObjectId self, const QuotaMoveReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Container* d = GetContainer(r.d);
  if (d == nullptr) {
    return Status::kNotFound;
  }
  // §3.3: T must write D and have L_T ⊑ L_O ⊑ C_T.
  Status ms = CheckModify(*t, *d);
  if (ms != Status::kOk) {
    return ms;
  }
  if (!d->HasLink(r.o)) {
    return Status::kNotFound;
  }
  Object* o = Get(r.o);
  if (o == nullptr) {
    return Status::kNotFound;
  }
  if (!registry_.Leq(t->label_id(), o->label_id()) ||
      !registry_.Leq(o->label_id(), t->clearance_id())) {
    return Status::kLabelCheckFailed;
  }
  if (o->fixed_quota()) {
    return Status::kImmutable;
  }
  if (o->quota() == kQuotaInfinite) {
    return Status::kInvalidArg;
  }
  if (r.n < 0) {
    // Shrinking returns an error when O has fewer than |n| spare bytes, which
    // conveys information about O — hence the extra L_O ⊑ L_T^J requirement.
    if (!CanObserve(*t, *o)) {
      return Status::kLabelCheckFailed;
    }
    uint64_t shrink = static_cast<uint64_t>(-r.n);
    uint64_t spare = o->quota() - o->OwnUsage();
    if (o->type() == ObjectType::kContainer) {
      const Container* oc = static_cast<const Container*>(o);
      uint64_t used = oc->usage() + oc->OwnUsage();
      spare = o->quota() > used ? o->quota() - used : 0;
    }
    if (spare < shrink) {
      return Status::kQuotaExceeded;
    }
    o->set_quota_internal(o->quota() - shrink);
    if (d->quota() != kQuotaInfinite) {
      d->set_usage_internal(d->usage() - shrink);
    }
  } else {
    uint64_t grow = static_cast<uint64_t>(r.n);
    if (ContainerFree(*d) < grow) {
      return Status::kQuotaExceeded;
    }
    o->set_quota_internal(o->quota() + grow);
    if (d->quota() != kQuotaInfinite) {
      d->set_usage_internal(d->usage() + grow);
    }
  }
  MarkDirty(r.d);
  MarkDirty(r.o);
  return Status::kOk;
}

// ---- introspection ---------------------------------------------------------------

bool Kernel::ObjectExists(ObjectId id) const {
  TableLock lk(table_, TableLock::Mode::kShared);
  return table_.ContainsLocked(id);
}

size_t Kernel::ObjectCount() const {
  TableLock lk(table_, TableLock::Mode::kShared);
  return table_.SizeLocked();
}

std::string Kernel::ConsoleContents(ObjectId dev) const {
  TableLock lk(table_, TableLock::Mode::kShared);
  Object* o = Get(dev);
  if (o == nullptr || o->type() != ObjectType::kDevice) {
    return "";
  }
  return static_cast<Device*>(o)->console_buffer();
}

}  // namespace histar
