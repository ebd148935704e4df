// The batched syscall dispatcher, the one-element wrappers over it,
// and the entry path of the calls without a descriptor.
//
// SubmitBatch walks the request span in submission order, groups
// consecutive requests of the same lock-freedom, and executes each group
// under ONE TableLock (exclusive if any member mutates) or, for a group of
// lock-free reads, under no table lock at all — the lock round-trip that
// used to be paid per call is paid per group. Every descriptor can join a
// group (syscall_abi.h), so there is no other branch.
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

template <typename T>
inline constexpr bool kNoLockedBody = false;

// Folds the taint scratch + completion status into one flight-recorder
// syscall event for request k of a dispatch group (duration patched later
// by FinishSyscallGroup — one clock pair per group, not per entry).
inline void TraceOne(const SyscallReq& req, const SyscallRes& res, ObjectId self,
                     uint64_t t0_ns) {
#if HISTAR_TRACE
  trace::RecordSyscall(static_cast<uint16_t>(req.index()),
                       static_cast<int8_t>(ResStatus(res)), self, t0_ns);
#else
  (void)req;
  (void)res;
  (void)self;
  (void)t0_ns;
#endif
}

// The Status a direct call's result carries, for its trace event.
inline Status StatusOf(Status st) { return st; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}
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

void Kernel::ExecLocked(ObjectId self, const SyscallReq& req, SyscallRes* out) {
  // Converts the Locked body's Result<T>/Status into the matching completion
  // descriptor. Value fields stay default-initialized on failure.
  std::visit(
      [&](const auto& r) {
        table_.cap().AssertHeld();  // closures don't inherit the caller's lock set
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, CatCreateReq>) {
          Result<CategoryId> v = CatCreateLocked(self);
          *out = CatCreateRes{v.status(), v.ok() ? v.value() : kInvalidCategory};
        } else if constexpr (std::is_same_v<T, SelfSetLabelReq>) {
          *out = SelfSetLabelRes{SelfSetLabelLocked(self, r.label)};
        } else if constexpr (std::is_same_v<T, SelfSetClearanceReq>) {
          *out = SelfSetClearanceRes{SelfSetClearanceLocked(self, r.clearance)};
        } else if constexpr (std::is_same_v<T, SelfGetLabelReq>) {
          Result<Label> v = SelfGetLabelLocked(self);
          *out = SelfGetLabelRes{v.status(), v.ok() ? v.take() : Label()};
        } else if constexpr (std::is_same_v<T, SelfGetClearanceReq>) {
          Result<Label> v = SelfGetClearanceLocked(self);
          *out = SelfGetClearanceRes{v.status(), v.ok() ? v.take() : Label()};
        } else if constexpr (std::is_same_v<T, SelfSetAsReq>) {
          *out = SelfSetAsRes{SelfSetAsLocked(self, r.as)};
        } else if constexpr (std::is_same_v<T, SelfGetAsReq>) {
          Result<ContainerEntry> v = SelfGetAsLocked(self);
          *out = SelfGetAsRes{v.status(), v.ok() ? v.value() : ContainerEntry{}};
        } else if constexpr (std::is_same_v<T, SelfHaltReq>) {
          *out = SelfHaltRes{SelfHaltLocked(self)};
        } else if constexpr (std::is_same_v<T, ThreadCreateReq>) {
          Result<ObjectId> v = ThreadCreateLocked(self, r.spec, r.label, r.clearance);
          *out = ThreadCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, ThreadAlertReq>) {
          *out = ThreadAlertRes{ThreadAlertLocked(self, r.thread, r.code)};
        } else if constexpr (std::is_same_v<T, SelfNextAlertReq>) {
          Result<uint64_t> v = SelfNextAlertLocked(self);
          *out = SelfNextAlertRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, SelfLocalReadReq>) {
          *out = SelfLocalReadRes{SelfLocalReadLocked(self, r.buf, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, SelfLocalWriteReq>) {
          *out = SelfLocalWriteRes{SelfLocalWriteLocked(self, r.buf, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, ContainerCreateReq>) {
          Result<ObjectId> v = ContainerCreateLocked(self, r.spec, r.avoid_types);
          *out = ContainerCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, ContainerGetParentReq>) {
          Result<ObjectId> v = ContainerGetParentLocked(self, r.container);
          *out = ContainerGetParentRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, ContainerListReq>) {
          Result<std::vector<ObjectId>> v = ContainerListLocked(self, r.container);
          *out = ContainerListRes{v.status(),
                                  v.ok() ? v.take() : std::vector<ObjectId>{}};
        } else if constexpr (std::is_same_v<T, ContainerLinkReq>) {
          *out = ContainerLinkRes{ContainerLinkLocked(self, r.container, r.src)};
        } else if constexpr (std::is_same_v<T, ContainerHasReq>) {
          Result<bool> v = ContainerHasLocked(self, r.container, r.obj);
          *out = ContainerHasRes{v.status(), v.ok() && v.value()};
        } else if constexpr (std::is_same_v<T, ObjGetTypeReq>) {
          Result<ObjectType> v = ObjGetTypeLocked(self, r.ce);
          *out = ObjGetTypeRes{v.status(), v.ok() ? v.value() : ObjectType::kContainer};
        } else if constexpr (std::is_same_v<T, ObjGetLabelReq>) {
          Result<Label> v = ObjGetLabelLocked(self, r.ce);
          *out = ObjGetLabelRes{v.status(), v.ok() ? v.take() : Label()};
        } else if constexpr (std::is_same_v<T, ObjGetDescripReq>) {
          Result<std::string> v = ObjGetDescripLocked(self, r.ce);
          *out = ObjGetDescripRes{v.status(), v.ok() ? v.take() : std::string()};
        } else if constexpr (std::is_same_v<T, ObjGetQuotaReq>) {
          Result<uint64_t> v = ObjGetQuotaLocked(self, r.ce);
          *out = ObjGetQuotaRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, ObjGetMetadataReq>) {
          Result<std::vector<uint8_t>> v = ObjGetMetadataLocked(self, r.ce);
          *out = ObjGetMetadataRes{v.status(),
                                   v.ok() ? v.take() : std::vector<uint8_t>{}};
        } else if constexpr (std::is_same_v<T, ObjSetMetadataReq>) {
          *out = ObjSetMetadataRes{
              ObjSetMetadataLocked(self, r.ce, r.data, static_cast<size_t>(r.len))};
        } else if constexpr (std::is_same_v<T, ObjSetFixedQuotaReq>) {
          *out = ObjSetFixedQuotaRes{ObjSetFixedQuotaLocked(self, r.ce)};
        } else if constexpr (std::is_same_v<T, ObjSetImmutableReq>) {
          *out = ObjSetImmutableRes{ObjSetImmutableLocked(self, r.ce)};
        } else if constexpr (std::is_same_v<T, QuotaMoveReq>) {
          *out = QuotaMoveRes{QuotaMoveLocked(self, r.d, r.o, r.n)};
        } else if constexpr (std::is_same_v<T, SegmentCreateReq>) {
          Result<ObjectId> v = SegmentCreateLocked(self, r.spec, r.len);
          *out = SegmentCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, SegmentCopyReq>) {
          Result<ObjectId> v = SegmentCopyLocked(self, r.spec, r.src);
          *out = SegmentCopyRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, SegmentResizeReq>) {
          *out = SegmentResizeRes{SegmentResizeLocked(self, r.ce, r.len)};
        } else if constexpr (std::is_same_v<T, SegmentGetLenReq>) {
          Result<uint64_t> v = SegmentGetLenLocked(self, r.ce);
          *out = SegmentGetLenRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, SegmentReadReq>) {
          *out = SegmentReadRes{SegmentReadLocked(self, r.ce, r.buf, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, SegmentWriteReq>) {
          *out = SegmentWriteRes{SegmentWriteLocked(self, r.ce, r.buf, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, AsCreateReq>) {
          Result<ObjectId> v = AsCreateLocked(self, r.spec);
          *out = AsCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, AsSetReq>) {
          *out = AsSetRes{AsSetLocked(self, r.ce, r.mappings)};
        } else if constexpr (std::is_same_v<T, AsGetReq>) {
          Result<std::vector<Mapping>> v = AsGetLocked(self, r.ce);
          *out = AsGetRes{v.status(), v.ok() ? v.take() : std::vector<Mapping>{}};
        } else if constexpr (std::is_same_v<T, GateCreateReq>) {
          Result<ObjectId> v = GateCreateLocked(self, r.spec, r.gate_label, r.gate_clearance,
                                                r.entry_name, r.closure);
          *out = GateCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, GateGetClosureReq>) {
          Result<std::vector<uint64_t>> v = GateGetClosureLocked(self, r.ce);
          *out = GateGetClosureRes{v.status(),
                                   v.ok() ? v.take() : std::vector<uint64_t>{}};
        } else if constexpr (std::is_same_v<T, ConsoleWriteReq>) {
          *out = ConsoleWriteRes{ConsoleWriteLocked(self, r.dev, r.text)};
        } else {
          static_assert(kNoLockedBody<T>, "every descriptor needs a *Locked body");
        }
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
      // same *Locked bodies run unchanged on top of it (they are
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
        ExecLocked(self, reqs[k], &res[k]);
        TraceOne(reqs[k], res[k], self, t0);
      }
    } else {
      // The group's single lock round-trip (the acceptance property
      // asserted by tests/kernel/batch_lock_test.cc).
      TableLock lk(table_,
                   exclusive ? TableLock::Mode::kExclusive : TableLock::Mode::kShared);
      for (size_t k = i; k < j; ++k) {
        trace::ResetTaint();
        ExecLocked(self, reqs[k], &res[k]);
        TraceOne(reqs[k], res[k], self, t0);
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
// Every batchable sys_* entry point is a one-element batch: source
// compatibility for all existing callers, one code path (SubmitBatch) for
// all enforcement.

namespace {

template <typename ResT, typename ReqT>
ResT SubmitOne(Kernel* k, ObjectId self, ReqT&& req) {
  SyscallReq r{std::forward<ReqT>(req)};
  SyscallRes out;
  k->SubmitBatch(self, std::span<const SyscallReq>(&r, 1), std::span<SyscallRes>(&out, 1));
  return std::get<ResT>(std::move(out));
}

template <typename T>
Result<T> ToResult(Status st, T&& value) {
  if (st != Status::kOk) {
    return st;
  }
  return std::forward<T>(value);
}

}  // namespace

Result<CategoryId> Kernel::sys_cat_create(ObjectId self) {
  CatCreateRes r = SubmitOne<CatCreateRes>(this, self, CatCreateReq{});
  return ToResult(r.status, std::move(r.cat));
}

Status Kernel::sys_self_set_label(ObjectId self, const Label& l) {
  return SubmitOne<SelfSetLabelRes>(this, self, SelfSetLabelReq{l}).status;
}

Status Kernel::sys_self_set_clearance(ObjectId self, const Label& c) {
  return SubmitOne<SelfSetClearanceRes>(this, self, SelfSetClearanceReq{c}).status;
}

Result<Label> Kernel::sys_self_get_label(ObjectId self) {
  SelfGetLabelRes r = SubmitOne<SelfGetLabelRes>(this, self, SelfGetLabelReq{});
  return ToResult(r.status, std::move(r.label));
}

Result<Label> Kernel::sys_self_get_clearance(ObjectId self) {
  SelfGetClearanceRes r = SubmitOne<SelfGetClearanceRes>(this, self, SelfGetClearanceReq{});
  return ToResult(r.status, std::move(r.clearance));
}

Status Kernel::sys_self_set_as(ObjectId self, ContainerEntry as) {
  return SubmitOne<SelfSetAsRes>(this, self, SelfSetAsReq{as}).status;
}

Result<ContainerEntry> Kernel::sys_self_get_as(ObjectId self) {
  SelfGetAsRes r = SubmitOne<SelfGetAsRes>(this, self, SelfGetAsReq{});
  return ToResult(r.status, std::move(r.as));
}

Status Kernel::sys_self_halt(ObjectId self) {
  return SubmitOne<SelfHaltRes>(this, self, SelfHaltReq{}).status;
}

Result<ObjectId> Kernel::sys_thread_create(ObjectId self, const CreateSpec& spec,
                                           const Label& new_label,
                                           const Label& new_clearance) {
  ThreadCreateRes r =
      SubmitOne<ThreadCreateRes>(this, self, ThreadCreateReq{spec, new_label, new_clearance});
  return ToResult(r.status, std::move(r.id));
}

Status Kernel::sys_thread_alert(ObjectId self, ContainerEntry thread, uint64_t code) {
  return SubmitOne<ThreadAlertRes>(this, self, ThreadAlertReq{thread, code}).status;
}

Result<uint64_t> Kernel::sys_self_next_alert(ObjectId self) {
  SelfNextAlertRes r = SubmitOne<SelfNextAlertRes>(this, self, SelfNextAlertReq{});
  return ToResult(r.status, std::move(r.code));
}

Status Kernel::sys_self_local_read(ObjectId self, void* buf, uint64_t off, uint64_t len) {
  return SubmitOne<SelfLocalReadRes>(this, self, SelfLocalReadReq{buf, off, len}).status;
}

Status Kernel::sys_self_local_write(ObjectId self, const void* buf, uint64_t off,
                                    uint64_t len) {
  return SubmitOne<SelfLocalWriteRes>(this, self, SelfLocalWriteReq{buf, off, len}).status;
}

Result<ObjectId> Kernel::sys_container_create(ObjectId self, const CreateSpec& spec,
                                              uint32_t avoid_types) {
  ContainerCreateRes r =
      SubmitOne<ContainerCreateRes>(this, self, ContainerCreateReq{spec, avoid_types});
  return ToResult(r.status, std::move(r.id));
}

Result<ObjectId> Kernel::sys_container_get_parent(ObjectId self, ObjectId container) {
  ContainerGetParentRes r =
      SubmitOne<ContainerGetParentRes>(this, self, ContainerGetParentReq{container});
  return ToResult(r.status, std::move(r.parent));
}

Result<std::vector<ObjectId>> Kernel::sys_container_list(ObjectId self, ObjectId container) {
  ContainerListRes r = SubmitOne<ContainerListRes>(this, self, ContainerListReq{container});
  return ToResult(r.status, std::move(r.links));
}

Status Kernel::sys_container_link(ObjectId self, ObjectId container, ContainerEntry src) {
  return SubmitOne<ContainerLinkRes>(this, self, ContainerLinkReq{container, src}).status;
}

Result<bool> Kernel::sys_container_has(ObjectId self, ObjectId container, ObjectId obj) {
  ContainerHasRes r = SubmitOne<ContainerHasRes>(this, self, ContainerHasReq{container, obj});
  return ToResult(r.status, std::move(r.has));
}

Result<ObjectType> Kernel::sys_obj_get_type(ObjectId self, ContainerEntry ce) {
  ObjGetTypeRes r = SubmitOne<ObjGetTypeRes>(this, self, ObjGetTypeReq{ce});
  return ToResult(r.status, std::move(r.type));
}

Result<Label> Kernel::sys_obj_get_label(ObjectId self, ContainerEntry ce) {
  ObjGetLabelRes r = SubmitOne<ObjGetLabelRes>(this, self, ObjGetLabelReq{ce});
  return ToResult(r.status, std::move(r.label));
}

Result<std::string> Kernel::sys_obj_get_descrip(ObjectId self, ContainerEntry ce) {
  ObjGetDescripRes r = SubmitOne<ObjGetDescripRes>(this, self, ObjGetDescripReq{ce});
  return ToResult(r.status, std::move(r.descrip));
}

Result<uint64_t> Kernel::sys_obj_get_quota(ObjectId self, ContainerEntry ce) {
  ObjGetQuotaRes r = SubmitOne<ObjGetQuotaRes>(this, self, ObjGetQuotaReq{ce});
  return ToResult(r.status, std::move(r.quota));
}

Result<std::vector<uint8_t>> Kernel::sys_obj_get_metadata(ObjectId self, ContainerEntry ce) {
  ObjGetMetadataRes r = SubmitOne<ObjGetMetadataRes>(this, self, ObjGetMetadataReq{ce});
  return ToResult(r.status, std::move(r.metadata));
}

Status Kernel::sys_obj_set_metadata(ObjectId self, ContainerEntry ce, const void* data,
                                    size_t len) {
  return SubmitOne<ObjSetMetadataRes>(this, self,
                                      ObjSetMetadataReq{ce, data, static_cast<uint64_t>(len)})
      .status;
}

Status Kernel::sys_obj_set_fixed_quota(ObjectId self, ContainerEntry ce) {
  return SubmitOne<ObjSetFixedQuotaRes>(this, self, ObjSetFixedQuotaReq{ce}).status;
}

Status Kernel::sys_obj_set_immutable(ObjectId self, ContainerEntry ce) {
  return SubmitOne<ObjSetImmutableRes>(this, self, ObjSetImmutableReq{ce}).status;
}

Status Kernel::sys_quota_move(ObjectId self, ObjectId d, ObjectId o, int64_t n) {
  return SubmitOne<QuotaMoveRes>(this, self, QuotaMoveReq{d, o, n}).status;
}

Result<ObjectId> Kernel::sys_segment_create(ObjectId self, const CreateSpec& spec,
                                            uint64_t len) {
  SegmentCreateRes r = SubmitOne<SegmentCreateRes>(this, self, SegmentCreateReq{spec, len});
  return ToResult(r.status, std::move(r.id));
}

Result<ObjectId> Kernel::sys_segment_copy(ObjectId self, const CreateSpec& spec,
                                          ContainerEntry src) {
  SegmentCopyRes r = SubmitOne<SegmentCopyRes>(this, self, SegmentCopyReq{spec, src});
  return ToResult(r.status, std::move(r.id));
}

Status Kernel::sys_segment_resize(ObjectId self, ContainerEntry ce, uint64_t len) {
  return SubmitOne<SegmentResizeRes>(this, self, SegmentResizeReq{ce, len}).status;
}

Result<uint64_t> Kernel::sys_segment_get_len(ObjectId self, ContainerEntry ce) {
  SegmentGetLenRes r = SubmitOne<SegmentGetLenRes>(this, self, SegmentGetLenReq{ce});
  return ToResult(r.status, std::move(r.len));
}

Status Kernel::sys_segment_read(ObjectId self, ContainerEntry ce, void* buf, uint64_t off,
                                uint64_t len) {
  return SubmitOne<SegmentReadRes>(this, self, SegmentReadReq{ce, buf, off, len}).status;
}

Status Kernel::sys_segment_write(ObjectId self, ContainerEntry ce, const void* buf,
                                 uint64_t off, uint64_t len) {
  return SubmitOne<SegmentWriteRes>(this, self, SegmentWriteReq{ce, buf, off, len}).status;
}

Result<ObjectId> Kernel::sys_as_create(ObjectId self, const CreateSpec& spec) {
  AsCreateRes r = SubmitOne<AsCreateRes>(this, self, AsCreateReq{spec});
  return ToResult(r.status, std::move(r.id));
}

Status Kernel::sys_as_set(ObjectId self, ContainerEntry ce,
                          const std::vector<Mapping>& mappings) {
  return SubmitOne<AsSetRes>(this, self, AsSetReq{ce, mappings}).status;
}

Result<std::vector<Mapping>> Kernel::sys_as_get(ObjectId self, ContainerEntry ce) {
  AsGetRes r = SubmitOne<AsGetRes>(this, self, AsGetReq{ce});
  return ToResult(r.status, std::move(r.mappings));
}

Result<ObjectId> Kernel::sys_gate_create(ObjectId self, const CreateSpec& spec,
                                         const Label& gate_label, const Label& gate_clearance,
                                         const std::string& entry_name,
                                         const std::vector<uint64_t>& closure) {
  GateCreateRes r = SubmitOne<GateCreateRes>(
      this, self, GateCreateReq{spec, gate_label, gate_clearance, entry_name, closure});
  return ToResult(r.status, std::move(r.id));
}

Result<std::vector<uint64_t>> Kernel::sys_gate_get_closure(ObjectId self, ContainerEntry ce) {
  GateGetClosureRes r = SubmitOne<GateGetClosureRes>(this, self, GateGetClosureReq{ce});
  return ToResult(r.status, std::move(r.closure));
}

Status Kernel::sys_console_write(ObjectId self, ContainerEntry dev, const std::string& text) {
  return SubmitOne<ConsoleWriteRes>(this, self, ConsoleWriteReq{dev, text}).status;
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
