// The batched syscall ABI (PR 3): uniform request/completion descriptors.
//
// A descriptor exists if and only if a batch can group its call: every
// kernel entry point whose body runs entirely under one table lock (or
// under the lock-free published index) has exactly one request alternative
// in SyscallReq. Each request type names its `Completion`: the Status or
// Result<T> that its sys_* wrapper returns, which is also what its kernel
// body returns, so a call has one result type per call and in a batch.
// SyscallRes is generated from SyscallReq. A batch is a span of requests
// submitted through Kernel::SubmitBatch, which fills the matching span of
// completions: completion i always describes request i, carries its own
// Status (partial failure is per-entry — later entries still execute), and
// holds alternative index i+1 of SyscallRes (index 0, std::monostate, means
// "never filled"). The descriptors carry the §3 label-rule inputs
// explicitly — caller-supplied labels, container entries, create specs — so
// the dispatcher can tell from the descriptor alone which lock mode a
// request needs; that is what lets SubmitBatch execute a run of requests
// under ONE TableLock instead of one per call (ARCHITECTURE.md "The batched
// syscall ABI").
//
// The 13 calls that can never join a group (DirectKind below) have no
// descriptor: they are plain Kernel methods with one shared entry helper.
//
// Buffer fields (`buf`, `data`) are caller-owned raw pointers into the
// submitter's memory: they must stay valid until SubmitBatch returns.
// Descriptors describe in-process memory; they have no wire form.
#ifndef SRC_KERNEL_SYSCALL_ABI_H_
#define SRC_KERNEL_SYSCALL_ABI_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/label.h"
#include "src/core/status.h"
#include "src/kernel/object.h"
#include "src/kernel/types.h"

namespace histar {

// Parameters for creating any object: the destination container, the new
// object's label, descriptive string and quota.
struct CreateSpec {
  ObjectId container = kInvalidObject;
  Label label;
  std::string descrip;
  uint64_t quota = 16 * kPageSize;
};

// ---- Request descriptors (one per batchable sys_* entry point) --------------
//
// `Completion` is the type that both the sys_* wrapper and the kernel body
// return for the request.
//
// Threads (§3.1)
struct CatCreateReq {
  using Completion = Result<CategoryId>;
};
struct SelfSetLabelReq {
  using Completion = Status;
  Label label;
};
struct SelfSetClearanceReq {
  using Completion = Status;
  Label clearance;
};
struct SelfGetLabelReq {
  using Completion = Result<Label>;
};
struct SelfGetClearanceReq {
  using Completion = Result<Label>;
};
struct SelfSetAsReq {
  using Completion = Status;
  ContainerEntry as;
};
struct SelfGetAsReq {
  using Completion = Result<ContainerEntry>;
};
struct SelfHaltReq {
  using Completion = Status;
};
struct ThreadCreateReq {
  using Completion = Result<ObjectId>;
  CreateSpec spec;
  Label label;
  Label clearance;
};
struct ThreadAlertReq {
  using Completion = Status;
  ContainerEntry thread;
  uint64_t code = 0;
};
struct SelfNextAlertReq {
  using Completion = Result<uint64_t>;
};
struct SelfLocalReadReq {
  using Completion = Status;
  void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};
struct SelfLocalWriteReq {
  using Completion = Status;
  const void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};

// Containers (§3.2, §3.3)
struct ContainerCreateReq {
  using Completion = Result<ObjectId>;
  CreateSpec spec;
  uint32_t avoid_types = 0;
};
struct ContainerGetParentReq {
  using Completion = Result<ObjectId>;
  ObjectId container = kInvalidObject;
};
struct ContainerListReq {
  using Completion = Result<std::vector<ObjectId>>;
  ObjectId container = kInvalidObject;
};
struct ContainerLinkReq {
  using Completion = Status;
  ObjectId container = kInvalidObject;
  ContainerEntry src;
};
struct ContainerHasReq {
  using Completion = Result<bool>;
  ObjectId container = kInvalidObject;
  ObjectId obj = kInvalidObject;
};

// Generic object calls (§3.2)
struct ObjGetTypeReq {
  using Completion = Result<ObjectType>;
  ContainerEntry ce;
};
struct ObjGetLabelReq {
  using Completion = Result<Label>;
  ContainerEntry ce;
};
struct ObjGetDescripReq {
  using Completion = Result<std::string>;
  ContainerEntry ce;
};
struct ObjGetQuotaReq {
  using Completion = Result<uint64_t>;
  ContainerEntry ce;
};
struct ObjGetMetadataReq {
  using Completion = Result<std::vector<uint8_t>>;
  ContainerEntry ce;
};
struct ObjSetMetadataReq {
  using Completion = Status;
  ContainerEntry ce;
  const void* data = nullptr;
  uint64_t len = 0;
};
struct ObjSetFixedQuotaReq {
  using Completion = Status;
  ContainerEntry ce;
};
struct ObjSetImmutableReq {
  using Completion = Status;
  ContainerEntry ce;
};
struct QuotaMoveReq {
  using Completion = Status;
  ObjectId d = kInvalidObject;
  ObjectId o = kInvalidObject;
  int64_t n = 0;
};

// Segments (§3)
struct SegmentCreateReq {
  using Completion = Result<ObjectId>;
  CreateSpec spec;
  uint64_t len = 0;
};
struct SegmentCopyReq {
  using Completion = Result<ObjectId>;
  CreateSpec spec;
  ContainerEntry src;
};
struct SegmentResizeReq {
  using Completion = Status;
  ContainerEntry ce;
  uint64_t len = 0;
};
struct SegmentGetLenReq {
  using Completion = Result<uint64_t>;
  ContainerEntry ce;
};
struct SegmentReadReq {
  using Completion = Status;
  ContainerEntry ce;
  void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};
struct SegmentWriteReq {
  using Completion = Status;
  ContainerEntry ce;
  const void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};

// Address spaces (§3.4)
struct AsCreateReq {
  using Completion = Result<ObjectId>;
  CreateSpec spec;
};
struct AsSetReq {
  using Completion = Status;
  ContainerEntry ce;
  std::vector<Mapping> mappings;
};
struct AsGetReq {
  using Completion = Result<std::vector<Mapping>>;
  ContainerEntry ce;
};

// Gates (§3.5)
struct GateCreateReq {
  using Completion = Result<ObjectId>;
  CreateSpec spec;
  Label gate_label;
  Label gate_clearance;
  std::string entry_name;
  std::vector<uint64_t> closure;
};
struct GateGetClosureReq {
  using Completion = Result<std::vector<uint64_t>>;
  ContainerEntry ce;
};

// Devices (§4.1, §5.7)
struct ConsoleWriteReq {
  using Completion = Status;
  ContainerEntry dev;
  std::string text;
};

// sys_trace_read's event caps (a max_events of 0 reads the default).
inline constexpr uint32_t kTraceReadDefaultMax = 256;
inline constexpr uint32_t kTraceReadMaxEvents = 16384;

// ---- The variants -----------------------------------------------------------
//
// Alternative order is the ABI: SyscallRes alternative i+1 completes
// SyscallReq alternative i (SyscallRes index 0 is monostate, "unfilled").
// The index is also the syscall kind the flight recorder stores; dumps and
// tools/tracefmt carry kinds by name (SyscallKindName), not by number.
using SyscallReq = std::variant<
    CatCreateReq, SelfSetLabelReq, SelfSetClearanceReq, SelfGetLabelReq, SelfGetClearanceReq,
    SelfSetAsReq, SelfGetAsReq, SelfHaltReq, ThreadCreateReq, ThreadAlertReq, SelfNextAlertReq,
    SelfLocalReadReq, SelfLocalWriteReq, ContainerCreateReq, ContainerGetParentReq,
    ContainerListReq, ContainerLinkReq, ContainerHasReq, ObjGetTypeReq, ObjGetLabelReq,
    ObjGetDescripReq, ObjGetQuotaReq, ObjGetMetadataReq, ObjSetMetadataReq, ObjSetFixedQuotaReq,
    ObjSetImmutableReq, QuotaMoveReq, SegmentCreateReq, SegmentCopyReq, SegmentResizeReq,
    SegmentGetLenReq, SegmentReadReq, SegmentWriteReq, AsCreateReq, AsSetReq, AsGetReq,
    GateCreateReq, GateGetClosureReq, ConsoleWriteReq>;

inline constexpr size_t kNumDescriptorKinds = std::variant_size_v<SyscallReq>;

namespace abi_detail {
template <typename Req, typename V>
struct KindOf;
template <typename Req, typename... Rs>
struct KindOf<Req, std::variant<Rs...>> {
  static constexpr size_t value = [] {
    size_t i = 0;
    (void)((std::is_same_v<Req, Rs> || (++i, false)) || ...);
    return i;
  }();
  static_assert(value < sizeof...(Rs), "not a SyscallReq alternative");
};
template <typename V>
struct Completions;
template <typename... Rs>
struct Completions<std::variant<Rs...>> {
  using type = std::variant<std::monostate, typename Rs::Completion...>;
};
}  // namespace abi_detail

// The syscall kind of a request type: its alternative index in SyscallReq.
template <typename Req>
inline constexpr size_t kKindOf = abi_detail::KindOf<Req, SyscallReq>::value;

// Several alternatives share a type (17 are plain Status), so a completion
// is always reached by index, never by type.
using SyscallRes = abi_detail::Completions<SyscallReq>::type;

// The completion of a `Req` request, e.g. CompletionOf<SegmentGetLenReq>(res)
// is the Result<uint64_t> that sys_segment_get_len returns.
template <typename Req, typename Res>
decltype(auto) CompletionOf(Res&& res) {
  return std::get<kKindOf<Req> + 1>(std::forward<Res>(res));
}

// The Status a completion carries (kInvalidArg for an unfilled monostate).
inline Status StatusOf(std::monostate) { return Status::kInvalidArg; }
inline Status StatusOf(Status st) { return st; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}
Status ResStatus(const SyscallRes& res);

// ---- Entry points without a descriptor ---------------------------------------
//
// These calls can never join a lock group: each has an unlocked phase, a
// user callback, a sleep or a post-unlock wake. They are plain Kernel
// methods, and their syscall kinds follow the descriptor kinds.
enum class DirectKind : uint16_t {
  kContainerUnref = kNumDescriptorKinds,
  kAsAccess,
  kGateInvoke,
  kFutexWait,
  kFutexWake,
  kNetMacAddr,
  kNetTransmit,
  kNetReceive,
  kNetWait,
  kSync,
  kSyncObject,
  kSyncPages,
  kTraceRead,
  kEnd,
};

inline constexpr size_t kNumSyscallKinds = static_cast<size_t>(DirectKind::kEnd);

// Stable human-readable name for a syscall kind: a SyscallReq alternative
// index or a DirectKind ("unknown" out of range). The table in
// syscall_abi.cc is static_asserted against kNumSyscallKinds, so adding a
// kind without naming it is a compile error. Consumers: trace dumps,
// tools/tracefmt, perfbench, docs.
const char* SyscallKindName(size_t index);

// ---- sys_trace_read's result ------------------------------------------------
//
// The flow-checked view of the kernel trace rings (src/core/trace.h). The
// reader's raised label gates per-event visibility; events that do not
// flow to it are counted in `withheld` but never returned.

// One exported flight-recorder event (the wire form of trace::Event plus
// its slot/seq provenance). Labels travel as raw LabelIds: the flow check
// already ran kernel-side, so every event here is one the reader may see.
struct TraceEventWire {
  uint64_t ts_ns = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t seq = 0;
  uint32_t slot = 0;
  uint32_t dur_ns = 0;
  uint32_t tlabel = 0;
  uint32_t olabel = 0;
  uint32_t kind = 0;  // trace::EventKind
  uint32_t code = 0;  // Status, two's complement
  uint32_t aux = 0;   // syscall kind / trace::StoreOp
  uint32_t gen = 0;   // label generation the ids were minted under (trace.h)
};
struct TraceReadRes {
  Status status = Status::kInvalidArg;
  uint64_t total = 0;     // events inspected across all slots
  uint64_t withheld = 0;  // events whose labels do not flow to the reader
  std::vector<TraceEventWire> events;
};

}  // namespace histar

#endif  // SRC_KERNEL_SYSCALL_ABI_H_
