// The batched syscall dispatcher, the one-element wrappers over it,
// and the entry path of the calls without a descriptor.
//
// SubmitBatch walks the request span in submission order, groups
// consecutive requests of the same lock-freedom, and executes each group
// under ONE TableLock (exclusive if any member mutates) or, for a group of
// lock-free reads, under no table lock at all — the lock round-trip that
// used to be paid per call is paid per group. Every descriptor can join a
// group (syscall_abi.h), so there is no other branch. Dispatch is by
// overload: each request runs the RunLocked body for its type, and the
// body's own Status or Result<T> is the completion, stored as is.
//
// The 13 calls that can never join a group (unlocked phases, user
// callbacks, sleeps, post-unlock wakes: container_unref, as_access,
// gate_invoke, futexes, net I/O, sync, trace_read) have no descriptor.
// Their sys_* wrappers run the Do* body through EnterDirect, which charges
// the syscall and records its trace event exactly as a one-element batch
// would. The lock hierarchy (ARCHITECTURE.md "Concurrency model") is
// untouched: one TableLock at a time, futex_mu_ never nested, entry
// functions outside every lock.
#include <type_traits>

#include "src/core/trace.h"
#include "src/kernel/kernel.h"

namespace histar {

// Each syscall kind owns one recorder histogram row; a kind past the last
// row would silently share it.
static_assert(trace::kMaxSyscallHist >= kNumSyscallKinds);

namespace {

template <typename T, typename... Ts>
inline constexpr bool kIsAny = (std::is_same_v<T, Ts> || ...);

// Records the flight-recorder syscall event for request k of a dispatch
// group from the taint scratch and the completion's status (duration
// patched later by FinishSyscallGroup — one clock pair per group, not per
// entry).
inline void TraceOne(const SyscallReq& req, Status st, ObjectId self, uint64_t t0_ns) {
#if HISTAR_TRACE
  trace::RecordSyscall(static_cast<uint16_t>(req.index()), static_cast<int8_t>(st), self,
                       t0_ns);
#else
  (void)req;
  (void)st;
  (void)self;
  (void)t0_ns;
#endif
}

// sys_trace_read's result carries its Status as a field.
inline Status StatusOf(const TraceReadRes& r) { return r.status; }

}  // namespace

Kernel::BatchPlan Kernel::PlanOf(const SyscallReq& req) {
  return std::visit(
      [](const auto& r) -> BatchPlan {
        using T = std::decay_t<decltype(r)>;
        if constexpr (kIsAny<T, SelfGetLabelReq, SelfGetClearanceReq, ObjGetTypeReq,
                             ObjGetLabelReq, ObjGetDescripReq, ObjGetQuotaReq,
                             SegmentGetLenReq, GateGetClosureReq, ContainerGetParentReq,
                             ContainerListReq, ContainerHasReq>) {
          // Reads of immutable or published-atomic state (labels, type,
          // descrip, quota, published segment length, gate closure, parent,
          // the published link snapshot): lock-free over the published
          // index.
          return {.lockfree = true};
        } else if constexpr (kIsAny<T, SelfGetAsReq, SelfLocalReadReq, ObjGetMetadataReq,
                                    SegmentReadReq, AsGetReq>) {
          // Reads of mutable byte/vector state (AS entry, local bytes,
          // metadata blob, segment bytes, mappings) — under the shared
          // lock, since a concurrent writer may be resizing the container.
          return {};
        } else {
          // Every other descriptor mutates: exclusive lock.
          return {.mutates = true};
        }
      },
      req);
}

Status Kernel::ExecLocked(ObjectId self, const SyscallReq& req, SyscallRes* out) {
  return std::visit(
      [&]<typename Req>(const Req& r) {
        table_.cap().AssertHeld();  // closures don't inherit the caller's lock set
        static_assert(std::is_same_v<decltype(RunLocked(self, r)), typename Req::Completion>,
                      "a body returns its request's completion");
        return StatusOf(out->emplace<kKindOf<Req> + 1>(RunLocked(self, r)));
      },
      req);
}

Status Kernel::SubmitBatch(ObjectId self, std::span<const SyscallReq> reqs,
                           std::span<SyscallRes> res) {
  if (res.size() < reqs.size()) {
    return Status::kInvalidArg;
  }
  // One stripe round-trip charges the whole batch; no global atomic (each
  // entry still counts as one syscall, so fig-12-style accounting is
  // unchanged whether callers batch or not).
  CountSyscalls(reqs.size());
  size_t i = 0;
  while (i < reqs.size()) {
    BatchPlan first = PlanOf(reqs[i]);
    // Grow the group over consecutive requests of the same lock-freedom,
    // escalating to exclusive if any member mutates.
    bool exclusive = false;
    size_t j = i;
    while (j < reqs.size()) {
      BatchPlan p = (j == i) ? first : PlanOf(reqs[j]);
      if (p.lockfree != first.lockfree) {
        break;
      }
      exclusive |= p.mutates;
      ++j;
    }
    // ONE clock pair per group: per-entry events record with a pending
    // duration and FinishSyscallGroup patches the amortized share in —
    // that, plus zero shared atomics in the recorder, is what keeps the
    // warm lock-free row inside the 5% gate (scripts/check_bench_pr10.sh).
    uint64_t t0 = trace::RecordNowNs();
    uint64_t g0 = trace::BeginSyscallGroup();
    if (first.lockfree) {
      // Lock-free read group (PR 6): ZERO table locks. The epoch guard pins
      // every published entry the group can reach; PublishedReadMode routes
      // Kernel::Get through the table's lock-free published index, and the
      // same RunLocked bodies run unchanged on top of it (they are
      // side-effect-free for every lockfree-marked kind). The zero is the
      // acceptance property asserted by tests/kernel/batch_lock_test.cc.
      EpochGuard guard;
      PublishedReadMode published;
      // The epoch + published-read pair IS this group's covering
      // acquisition; the scoped stand-in discharges the bodies' static
      // table-capability requirement (see object_table.h).
      PublishedReadTableCap cap_scope(table_);
      for (size_t k = i; k < j; ++k) {
        trace::ResetTaint();
        Status st = ExecLocked(self, reqs[k], &res[k]);
        TraceOne(reqs[k], st, self, t0);
      }
    } else {
      // The group's single lock round-trip (the acceptance property
      // asserted by tests/kernel/batch_lock_test.cc).
      TableLock lk(table_,
                   exclusive ? TableLock::Mode::kExclusive : TableLock::Mode::kShared);
      for (size_t k = i; k < j; ++k) {
        trace::ResetTaint();
        Status st = ExecLocked(self, reqs[k], &res[k]);
        TraceOne(reqs[k], st, self, t0);
      }
      // Lock-free groups deliberately record NO kTableLock event — the
      // zero-lock property shows up in the trace as its absence.
      trace::RecordEvent(trace::EventKind::kTableLock, exclusive ? 1 : 0, j - i, 0, 0, 0,
                         0, t0);
    }
    trace::FinishSyscallGroup(g0, t0, trace::RecordNowNs());
    i = j;
  }
  return Status::kOk;
}

// ---- Batchable wrappers ------------------------------------------------------
//
// Every batchable sys_* entry point is a one-element batch that returns its
// completion as is: source compatibility for all existing callers, one code
// path (SubmitBatch) for all enforcement.

namespace {

template <typename Req>
typename Req::Completion SubmitOne(Kernel* k, ObjectId self, Req&& req) {
  SyscallReq r{std::forward<Req>(req)};
  SyscallRes out;
  k->SubmitBatch(self, std::span<const SyscallReq>(&r, 1), std::span<SyscallRes>(&out, 1));
  return CompletionOf<Req>(std::move(out));
}

}  // namespace

Result<CategoryId> Kernel::sys_cat_create(ObjectId self) {
  return SubmitOne(this, self, CatCreateReq{});
}

Status Kernel::sys_self_set_label(ObjectId self, const Label& l) {
  return SubmitOne(this, self, SelfSetLabelReq{l});
}

Status Kernel::sys_self_set_clearance(ObjectId self, const Label& c) {
  return SubmitOne(this, self, SelfSetClearanceReq{c});
}

Result<Label> Kernel::sys_self_get_label(ObjectId self) {
  return SubmitOne(this, self, SelfGetLabelReq{});
}

Result<Label> Kernel::sys_self_get_clearance(ObjectId self) {
  return SubmitOne(this, self, SelfGetClearanceReq{});
}

Status Kernel::sys_self_set_as(ObjectId self, ContainerEntry as) {
  return SubmitOne(this, self, SelfSetAsReq{as});
}

Result<ContainerEntry> Kernel::sys_self_get_as(ObjectId self) {
  return SubmitOne(this, self, SelfGetAsReq{});
}

Status Kernel::sys_self_halt(ObjectId self) {
  return SubmitOne(this, self, SelfHaltReq{});
}

Result<ObjectId> Kernel::sys_thread_create(ObjectId self, const CreateSpec& spec,
                                           const Label& new_label,
                                           const Label& new_clearance) {
  return SubmitOne(this, self, ThreadCreateReq{spec, new_label, new_clearance});
}

Status Kernel::sys_thread_alert(ObjectId self, ContainerEntry thread, uint64_t code) {
  return SubmitOne(this, self, ThreadAlertReq{thread, code});
}

Result<uint64_t> Kernel::sys_self_next_alert(ObjectId self) {
  return SubmitOne(this, self, SelfNextAlertReq{});
}

Status Kernel::sys_self_local_read(ObjectId self, void* buf, uint64_t off, uint64_t len) {
  return SubmitOne(this, self, SelfLocalReadReq{buf, off, len});
}

Status Kernel::sys_self_local_write(ObjectId self, const void* buf, uint64_t off,
                                    uint64_t len) {
  return SubmitOne(this, self, SelfLocalWriteReq{buf, off, len});
}

Result<ObjectId> Kernel::sys_container_create(ObjectId self, const CreateSpec& spec,
                                              uint32_t avoid_types) {
  return SubmitOne(this, self, ContainerCreateReq{spec, avoid_types});
}

Result<ObjectId> Kernel::sys_container_get_parent(ObjectId self, ObjectId container) {
  return SubmitOne(this, self, ContainerGetParentReq{container});
}

Result<std::vector<ObjectId>> Kernel::sys_container_list(ObjectId self, ObjectId container) {
  return SubmitOne(this, self, ContainerListReq{container});
}

Status Kernel::sys_container_link(ObjectId self, ObjectId container, ContainerEntry src) {
  return SubmitOne(this, self, ContainerLinkReq{container, src});
}

Result<bool> Kernel::sys_container_has(ObjectId self, ObjectId container, ObjectId obj) {
  return SubmitOne(this, self, ContainerHasReq{container, obj});
}

Result<ObjectType> Kernel::sys_obj_get_type(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, ObjGetTypeReq{ce});
}

Result<Label> Kernel::sys_obj_get_label(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, ObjGetLabelReq{ce});
}

Result<std::string> Kernel::sys_obj_get_descrip(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, ObjGetDescripReq{ce});
}

Result<uint64_t> Kernel::sys_obj_get_quota(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, ObjGetQuotaReq{ce});
}

Result<std::vector<uint8_t>> Kernel::sys_obj_get_metadata(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, ObjGetMetadataReq{ce});
}

Status Kernel::sys_obj_set_metadata(ObjectId self, ContainerEntry ce, const void* data,
                                    size_t len) {
  return SubmitOne(this, self, ObjSetMetadataReq{ce, data, static_cast<uint64_t>(len)});
}

Status Kernel::sys_obj_set_fixed_quota(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, ObjSetFixedQuotaReq{ce});
}

Status Kernel::sys_obj_set_immutable(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, ObjSetImmutableReq{ce});
}

Status Kernel::sys_quota_move(ObjectId self, ObjectId d, ObjectId o, int64_t n) {
  return SubmitOne(this, self, QuotaMoveReq{d, o, n});
}

Result<ObjectId> Kernel::sys_segment_create(ObjectId self, const CreateSpec& spec,
                                            uint64_t len) {
  return SubmitOne(this, self, SegmentCreateReq{spec, len});
}

Result<ObjectId> Kernel::sys_segment_copy(ObjectId self, const CreateSpec& spec,
                                          ContainerEntry src) {
  return SubmitOne(this, self, SegmentCopyReq{spec, src});
}

Status Kernel::sys_segment_resize(ObjectId self, ContainerEntry ce, uint64_t len) {
  return SubmitOne(this, self, SegmentResizeReq{ce, len});
}

Result<uint64_t> Kernel::sys_segment_get_len(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, SegmentGetLenReq{ce});
}

Status Kernel::sys_segment_read(ObjectId self, ContainerEntry ce, void* buf, uint64_t off,
                                uint64_t len) {
  return SubmitOne(this, self, SegmentReadReq{ce, buf, off, len});
}

Status Kernel::sys_segment_write(ObjectId self, ContainerEntry ce, const void* buf,
                                 uint64_t off, uint64_t len) {
  return SubmitOne(this, self, SegmentWriteReq{ce, buf, off, len});
}

Result<ObjectId> Kernel::sys_as_create(ObjectId self, const CreateSpec& spec) {
  return SubmitOne(this, self, AsCreateReq{spec});
}

Status Kernel::sys_as_set(ObjectId self, ContainerEntry ce,
                          const std::vector<Mapping>& mappings) {
  return SubmitOne(this, self, AsSetReq{ce, mappings});
}

Result<std::vector<Mapping>> Kernel::sys_as_get(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, AsGetReq{ce});
}

Result<ObjectId> Kernel::sys_gate_create(ObjectId self, const CreateSpec& spec,
                                         const Label& gate_label, const Label& gate_clearance,
                                         const std::string& entry_name,
                                         const std::vector<uint64_t>& closure) {
  return SubmitOne(this, self,
                   GateCreateReq{spec, gate_label, gate_clearance, entry_name, closure});
}

Result<std::vector<uint64_t>> Kernel::sys_gate_get_closure(ObjectId self, ContainerEntry ce) {
  return SubmitOne(this, self, GateGetClosureReq{ce});
}

Status Kernel::sys_console_write(ObjectId self, ContainerEntry dev, const std::string& text) {
  return SubmitOne(this, self, ConsoleWriteReq{dev, text});
}

// ---- Entry points without a descriptor ----------------------------------------

template <typename Fn>
auto Kernel::EnterDirect(ObjectId self, DirectKind kind, Fn&& body) {
  CountSyscalls(1);
  uint64_t t0 = trace::RecordNowNs();
  uint64_t g0 = trace::BeginSyscallGroup();
  trace::ResetTaint();
  auto out = body();
  trace::RecordSyscall(static_cast<uint16_t>(kind), static_cast<int8_t>(StatusOf(out)), self,
                       t0);
  trace::FinishSyscallGroup(g0, t0, trace::RecordNowNs());
  return out;
}

Status Kernel::sys_container_unref(ObjectId self, ContainerEntry ce) {
  return EnterDirect(self, DirectKind::kContainerUnref,
                     [&] { return DoContainerUnref(self, ce); });
}

Status Kernel::sys_as_access(ObjectId self, uint64_t va, void* buf, uint64_t len, bool write) {
  return EnterDirect(self, DirectKind::kAsAccess,
                     [&] { return DoAsAccess(self, va, buf, len, write); });
}

Status Kernel::sys_gate_invoke(ObjectId self, ContainerEntry gate, const Label& request_label,
                               const Label& request_clearance, const Label& verify_label) {
  return EnterDirect(self, DirectKind::kGateInvoke, [&] {
    return DoGateInvoke(self, gate, request_label, request_clearance, verify_label);
  });
}

Status Kernel::sys_futex_wait(ObjectId self, ContainerEntry seg, uint64_t offset,
                              uint64_t expected, uint32_t timeout_ms) {
  return EnterDirect(self, DirectKind::kFutexWait,
                     [&] { return DoFutexWait(self, seg, offset, expected, timeout_ms); });
}

Result<uint32_t> Kernel::sys_futex_wake(ObjectId self, ContainerEntry seg, uint64_t offset,
                                        uint32_t max_count) {
  return EnterDirect(self, DirectKind::kFutexWake,
                     [&] { return DoFutexWake(self, seg, offset, max_count); });
}

Result<std::array<uint8_t, 6>> Kernel::sys_net_macaddr(ObjectId self, ContainerEntry dev) {
  return EnterDirect(self, DirectKind::kNetMacAddr, [&] { return DoNetMacAddr(self, dev); });
}

Status Kernel::sys_net_transmit(ObjectId self, ContainerEntry dev, ContainerEntry seg,
                                uint64_t off, uint64_t len) {
  return EnterDirect(self, DirectKind::kNetTransmit,
                     [&] { return DoNetTransmit(self, dev, seg, off, len); });
}

Result<uint64_t> Kernel::sys_net_receive(ObjectId self, ContainerEntry dev, ContainerEntry seg,
                                         uint64_t off, uint64_t maxlen) {
  return EnterDirect(self, DirectKind::kNetReceive,
                     [&] { return DoNetReceive(self, dev, seg, off, maxlen); });
}

Status Kernel::sys_net_wait(ObjectId self, ContainerEntry dev, uint32_t timeout_ms) {
  return EnterDirect(self, DirectKind::kNetWait,
                     [&] { return DoNetWait(self, dev, timeout_ms); });
}

Status Kernel::sys_sync(ObjectId self) {
  return EnterDirect(self, DirectKind::kSync, [&] { return DoSync(self); });
}

Status Kernel::sys_sync_object(ObjectId self, ContainerEntry ce) {
  return EnterDirect(self, DirectKind::kSyncObject, [&] { return DoSyncObject(self, ce); });
}

Status Kernel::sys_sync_pages(ObjectId self, ContainerEntry ce, uint64_t offset,
                              uint64_t len) {
  return EnterDirect(self, DirectKind::kSyncPages,
                     [&] { return DoSyncPages(self, ce, offset, len); });
}

TraceReadRes Kernel::sys_trace_read(ObjectId self, uint32_t max_events) {
  return EnterDirect(self, DirectKind::kTraceRead, [&] {
    TraceReadRes out;
    DoTraceRead(self, max_events, &out);
    return out;
  });
}

}  // namespace histar
