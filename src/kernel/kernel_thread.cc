// Thread and gate syscalls (paper §3.1, §3.5).
//
// The lock mode per syscall is tabulated in docs/syscalls.md; the general
// convention (one TableLock per syscall, leaf mutexes nested under it) is
// described in kernel.cc / ARCHITECTURE.md.
#include <cstring>

#include "src/kernel/kernel.h"

namespace histar {

// ---- threads -----------------------------------------------------------------

Result<CategoryId> Kernel::RunLocked(ObjectId self, const CatCreateReq&) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  // The allocating thread becomes the category's only owner: L_T(c) ← ⋆ and
  // C_T(c) ← 3. Labels are egalitarian — no other thread is below default.
  // This is the one place thread labels legitimately mutate: build the new
  // label and swap the handle.
  CategoryId c = cat_alloc_.Allocate();
  Label l = LabelOf(*t);
  l.set(c, Level::kStar);
  t->set_label_id_internal(registry_.Intern(l));
  Label cl = ClearanceOf(*t);
  cl.set(c, Level::k3);
  t->set_clearance_id_internal(registry_.Intern(cl));
  MarkDirty(self);
  return c;
}

Status Kernel::RunLocked(ObjectId self, const SelfSetLabelReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  // L_T ⊑ L ⊑ C_T: a thread may taint itself up to its clearance, and may
  // drop ownership, but may never shed taint. Validated before interning so
  // a rejected relabel leaves no trace in the registry.
  if (!registry_.LeqWith(t->label_id(), r.label) || !registry_.LeqOf(r.label, t->clearance_id())) {
    return Status::kLabelCheckFailed;
  }
  t->set_label_id_internal(registry_.Intern(r.label));
  MarkDirty(self);
  return Status::kOk;
}

Status Kernel::RunLocked(ObjectId self, const SelfSetClearanceReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  // L_T ⊑ C ⊑ (C_T ⊔ L_T^J): clearance may be lowered freely (not below the
  // label) and raised only in owned categories. The bound is a registry Join
  // of two existing ids — no label arithmetic on this path after the first
  // crossing at a given (clearance, label) pair; `c` itself is interned only
  // once it has passed every check.
  LabelId bound = registry_.Join(t->clearance_id(), registry_.HiOf(t->label_id()));
  if (!registry_.LeqWith(t->label_id(), r.clearance) || !registry_.LeqOf(r.clearance, bound)) {
    return Status::kLabelCheckFailed;
  }
  if (r.clearance.HasLevel(Level::kHi)) {
    return Status::kInvalidArg;
  }
  t->set_clearance_id_internal(registry_.Intern(r.clearance));
  MarkDirty(self);
  return Status::kOk;
}

Result<Label> Kernel::RunLocked(ObjectId self, const SelfGetLabelReq&) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  return LabelOf(*t);
}

Result<Label> Kernel::RunLocked(ObjectId self, const SelfGetClearanceReq&) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  return ClearanceOf(*t);
}

Status Kernel::RunLocked(ObjectId self, const SelfSetAsReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.as);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kAddressSpace) {
    return Status::kWrongType;
  }
  // Using an address space requires observing it (L_A ⊑ L_T^J).
  if (!CanObserve(*t, *o.value())) {
    return Status::kLabelCheckFailed;
  }
  t->set_address_space_internal(r.as);
  MarkDirty(self);
  return Status::kOk;
}

Result<ContainerEntry> Kernel::RunLocked(ObjectId self, const SelfGetAsReq&) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  return t->address_space();
}

Status Kernel::RunLocked(ObjectId self, const SelfHaltReq&) {
  {
    Thread* t = GetThread(self);
    if (t == nullptr) {
      return Status::kNotFound;
    }
    t->set_halted_internal();
    MarkDirty(self);
  }
  // No futex notify: queues are segment-keyed, so a thread id matches
  // nothing. A host thread waiting as this kernel thread observes the halt
  // through the wait loop's bounded-slice state peek (≤50 ms).
  return Status::kOk;
}

Result<ObjectId> Kernel::RunLocked(ObjectId self, const ThreadCreateReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  // Spawn rule (§3.1): L_T ⊑ L_T' ⊑ C_T' ⊑ C_T, validated before interning.
  if (!registry_.LeqWith(t->label_id(), r.label) ||
      !LabelRegistry::LeqDirect(r.label, r.clearance) ||
      !registry_.LeqOf(r.clearance, t->clearance_id())) {
    return Status::kLabelCheckFailed;
  }
  LabelId nl = kInvalidLabelId;
  Result<Container*> d = CheckCreate(*t, r.spec.container, r.label, ObjectType::kThread,
                                     r.spec.quota, &nl);
  if (!d.ok()) {
    return d.status();
  }
  auto nt = std::make_unique<Thread>(AllocObjectIdLocked(), nl,
                                     registry_.Intern(r.clearance));
  nt->set_quota_internal(r.spec.quota);
  nt->set_descrip_internal(r.spec.descrip);
  Thread* raw = nt.get();
  InsertObject(std::move(nt));
  Status ls = LinkInto(d.value(), raw);
  if (ls != Status::kOk) {
    table_.EraseLocked(raw->id());
    return ls;
  }
  MarkDirty(raw->id());
  return raw->id();
}

Status Kernel::RunLocked(ObjectId self, const ThreadAlertReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.thread);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kThread) {
    return Status::kWrongType;
  }
  Thread* target = static_cast<Thread*>(o.value());
  // §3.4: the sender must be able to write the target's address space — the
  // alert vector lives there and this also implies the sender could have
  // taken the target over entirely — and observe the target.
  Object* as = Get(target->address_space().object);
  if (as == nullptr) {
    return Status::kNotFound;
  }
  Status ms = CheckModify(*t, *as);
  if (ms != Status::kOk) {
    return ms;
  }
  if (!CanObserve(*t, *target)) {
    return Status::kLabelCheckFailed;
  }
  target->alerts().push_back(r.code);
  // No futex notify: segment-keyed queues cannot address a thread. The
  // target's wait loop sees the pending alert at its next bounded-slice
  // state peek (≤50 ms) and returns kAgain, the EINTR analogue.
  return Status::kOk;
}

Result<uint64_t> Kernel::RunLocked(ObjectId self, const SelfNextAlertReq&) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  if (t->alerts().empty()) {
    return Status::kNotFound;
  }
  uint64_t code = t->alerts().front();
  t->alerts().pop_front();
  return code;
}

Status Kernel::RunLocked(ObjectId self, const SelfLocalReadReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  if (!RangeOk(r.off, r.len, t->local_segment().size())) {
    return Status::kRange;
  }
  // CopyBytes: len == 0 at off == size is a valid no-op (null buf allowed).
  CopyBytes(r.buf, t->local_segment().data() + r.off, r.len);
  return Status::kOk;
}

Status Kernel::RunLocked(ObjectId self, const SelfLocalWriteReq& r) {
  // Locked exclusive (see PlanOf) even though only `self` ever writes its
  // local segment: the checkpoint path serializes thread-local pages under
  // the shared table lock, and shared/shared with a concurrent writer
  // would race.
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  if (!RangeOk(r.off, r.len, t->local_segment().size())) {
    return Status::kRange;
  }
  CopyBytes(t->local_segment().data() + r.off, r.buf, r.len);
  MarkDirty(self);
  return Status::kOk;
}

// ---- gates -------------------------------------------------------------------

Result<ObjectId> Kernel::RunLocked(ObjectId self, const GateCreateReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  // §3.5: L_T' ⊑ L_G ⊑ C_G ⊑ C_T'. A gate may carry ⋆ — this is how stored
  // privilege works — but only ⋆ the creator already owns (enforced by
  // L_T ⊑ L_G: a non-owner's level-1 never fits below a requested ⋆).
  // Validated before interning, like every caller-supplied label.
  if (!registry_.LeqWith(t->label_id(), r.gate_label) ||
      !LabelRegistry::LeqDirect(r.gate_label, r.gate_clearance) ||
      !registry_.LeqOf(r.gate_clearance, t->clearance_id())) {
    return Status::kLabelCheckFailed;
  }
  LabelId gl = kInvalidLabelId;
  Result<Container*> d = CheckCreate(*t, r.spec.container, r.gate_label, ObjectType::kGate,
                                     r.spec.quota, &gl);
  if (!d.ok()) {
    return d.status();
  }
  {
    // gate_entries_mu_ nests under the table lock (lock hierarchy).
    MutexLock glock(&gate_entries_mu_);
    if (gate_entries_.find(r.entry_name) == gate_entries_.end()) {
      return Status::kNotFound;  // entry code segment missing
    }
  }
  auto g = std::make_unique<Gate>(AllocObjectIdLocked(), gl,
                                  registry_.Intern(r.gate_clearance), r.entry_name, r.closure);
  g->set_quota_internal(r.spec.quota);
  g->set_descrip_internal(r.spec.descrip);
  Gate* raw = g.get();
  InsertObject(std::move(g));
  Status ls = LinkInto(d.value(), raw);
  if (ls != Status::kOk) {
    table_.EraseLocked(raw->id());
    return ls;
  }
  MarkDirty(raw->id());
  return raw->id();
}

Status Kernel::DoGateInvoke(ObjectId self, ContainerEntry gate, const Label& request_label,
                            const Label& request_clearance, const Label& verify_label) {
  GateEntryFn entry;
  GateCall call;
  {
    TableLock lk(table_, TableLock::Mode::kExclusive);
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Result<Object*> o = ResolveEntry(*t, gate);
    if (!o.ok()) {
      return o.status();
    }
    if (o.value()->type() != ObjectType::kGate) {
      return Status::kWrongType;
    }
    Gate* g = static_cast<Gate*>(o.value());
    // §3.5 invocation rule: L_T ⊑ C_G, L_T ⊑ L_V, and
    // (L_T^J ⊔ L_G^J)^⋆ ⊑ L_R ⊑ C_R ⊑ (C_T ⊔ C_G). The floor and both
    // bounds are registry ids: after the first crossing of a given gate by a
    // thread at a given label, the whole rule is a handful of hash probes
    // and allocates nothing.
    if (!registry_.Leq(t->label_id(), g->clearance_id())) {
      return Status::kLabelCheckFailed;
    }
    // Verify labels are per-call proofs, never stored — compared directly,
    // never interned (an attacker could otherwise mint unbounded registry
    // entries with throwaway verify labels).
    if (!registry_.LeqWith(t->label_id(), verify_label)) {
      return Status::kLabelCheckFailed;
    }
    LabelId floor = registry_.StarOf(
        registry_.Join(registry_.HiOf(t->label_id()), registry_.HiOf(g->label_id())));
    LabelId clear_bound = registry_.Join(t->clearance_id(), g->clearance_id());
    if (!registry_.LeqWith(floor, request_label) ||
        !LabelRegistry::LeqDirect(request_label, request_clearance) ||
        !registry_.LeqOf(request_clearance, clear_bound)) {
      return Status::kLabelCheckFailed;
    }
    if (request_label.HasLevel(Level::kHi) || request_clearance.HasLevel(Level::kHi)) {
      return Status::kInvalidArg;
    }
    // Resolve the entry function BEFORE relabeling: a gate whose entry name
    // was never re-registered after restore must fail without switching the
    // caller's protection domain.
    {
      MutexLock glock(&gate_entries_mu_);
      auto it = gate_entries_.find(g->entry_name());
      if (it == gate_entries_.end()) {
        return Status::kNotFound;
      }
      entry = it->second;
    }
    // The thread crosses the gate: its label and clearance become exactly
    // what it requested (the kernel verified, user code specified — §3.5);
    // only now, with every check passed, do the request labels earn a
    // registry entry.
    t->set_label_id_internal(registry_.Intern(request_label));
    t->set_clearance_id_internal(registry_.Intern(request_clearance));
    MarkDirty(self);
    call.kernel = this;
    call.thread = self;
    call.closure = g->closure();
    call.gate = gate;
    call.verify = verify_label;
  }
  // Run the entry point outside every kernel lock: this is user code
  // executing in the gate creator's protection domain, and it will issue
  // syscalls that take their own TableLocks.
  entry(call);
  return Status::kOk;
}

Result<std::vector<uint64_t>> Kernel::RunLocked(ObjectId self, const GateGetClosureReq& r) {
  Thread* t = GetThread(self);
  if (t == nullptr || t->halted()) {
    return Status::kHalted;
  }
  Result<Object*> o = ResolveEntry(*t, r.ce);
  if (!o.ok()) {
    return o.status();
  }
  if (o.value()->type() != ObjectType::kGate) {
    return Status::kWrongType;
  }
  return static_cast<Gate*>(o.value())->closure();
}

}  // namespace histar
