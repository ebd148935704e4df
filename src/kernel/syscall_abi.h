// The batched syscall ABI (PR 3): uniform request/completion descriptors.
//
// A descriptor exists if and only if a batch can group its call: every
// kernel entry point whose body runs entirely under one table lock (or
// under the lock-free published index) has exactly one request alternative
// in SyscallReq and one completion alternative in SyscallRes. A batch is a
// span of requests submitted through Kernel::SubmitBatch, which fills the
// matching span of completions: completion i always describes request i,
// carries its own Status (partial failure is per-entry — later entries
// still execute), and holds alternative index i+1 of SyscallRes (index 0,
// std::monostate, means "never filled"). The descriptors carry the §3
// label-rule inputs explicitly — caller-supplied labels, container entries,
// create specs — so the dispatcher can tell from the descriptor alone which
// lock mode a request needs; that is what lets SubmitBatch execute a run of
// requests under ONE TableLock instead of one per call (ARCHITECTURE.md
// "The batched syscall ABI").
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
// Threads (§3.1)
struct CatCreateReq {};
struct SelfSetLabelReq {
  Label label;
};
struct SelfSetClearanceReq {
  Label clearance;
};
struct SelfGetLabelReq {};
struct SelfGetClearanceReq {};
struct SelfSetAsReq {
  ContainerEntry as;
};
struct SelfGetAsReq {};
struct SelfHaltReq {};
struct ThreadCreateReq {
  CreateSpec spec;
  Label label;
  Label clearance;
};
struct ThreadAlertReq {
  ContainerEntry thread;
  uint64_t code = 0;
};
struct SelfNextAlertReq {};
struct SelfLocalReadReq {
  void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};
struct SelfLocalWriteReq {
  const void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};

// Containers (§3.2, §3.3)
struct ContainerCreateReq {
  CreateSpec spec;
  uint32_t avoid_types = 0;
};
struct ContainerGetParentReq {
  ObjectId container = kInvalidObject;
};
struct ContainerListReq {
  ObjectId container = kInvalidObject;
};
struct ContainerLinkReq {
  ObjectId container = kInvalidObject;
  ContainerEntry src;
};
struct ContainerHasReq {
  ObjectId container = kInvalidObject;
  ObjectId obj = kInvalidObject;
};

// Generic object calls (§3.2)
struct ObjGetTypeReq {
  ContainerEntry ce;
};
struct ObjGetLabelReq {
  ContainerEntry ce;
};
struct ObjGetDescripReq {
  ContainerEntry ce;
};
struct ObjGetQuotaReq {
  ContainerEntry ce;
};
struct ObjGetMetadataReq {
  ContainerEntry ce;
};
struct ObjSetMetadataReq {
  ContainerEntry ce;
  const void* data = nullptr;
  uint64_t len = 0;
};
struct ObjSetFixedQuotaReq {
  ContainerEntry ce;
};
struct ObjSetImmutableReq {
  ContainerEntry ce;
};
struct QuotaMoveReq {
  ObjectId d = kInvalidObject;
  ObjectId o = kInvalidObject;
  int64_t n = 0;
};

// Segments (§3)
struct SegmentCreateReq {
  CreateSpec spec;
  uint64_t len = 0;
};
struct SegmentCopyReq {
  CreateSpec spec;
  ContainerEntry src;
};
struct SegmentResizeReq {
  ContainerEntry ce;
  uint64_t len = 0;
};
struct SegmentGetLenReq {
  ContainerEntry ce;
};
struct SegmentReadReq {
  ContainerEntry ce;
  void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};
struct SegmentWriteReq {
  ContainerEntry ce;
  const void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};

// Address spaces (§3.4)
struct AsCreateReq {
  CreateSpec spec;
};
struct AsSetReq {
  ContainerEntry ce;
  std::vector<Mapping> mappings;
};
struct AsGetReq {
  ContainerEntry ce;
};

// Gates (§3.5)
struct GateCreateReq {
  CreateSpec spec;
  Label gate_label;
  Label gate_clearance;
  std::string entry_name;
  std::vector<uint64_t> closure;
};
struct GateGetClosureReq {
  ContainerEntry ce;
};

// Devices (§4.1, §5.7)
struct ConsoleWriteReq {
  ContainerEntry dev;
  std::string text;
};

// sys_trace_read's event caps (a max_events of 0 reads the default).
inline constexpr uint32_t kTraceReadDefaultMax = 256;
inline constexpr uint32_t kTraceReadMaxEvents = 16384;

// ---- Completion descriptors -------------------------------------------------
//
// Every completion leads with its own Status; value fields are meaningful
// only when status == Status::kOk.
struct CatCreateRes {
  Status status = Status::kInvalidArg;
  CategoryId cat = kInvalidCategory;
};
struct SelfSetLabelRes {
  Status status = Status::kInvalidArg;
};
struct SelfSetClearanceRes {
  Status status = Status::kInvalidArg;
};
struct SelfGetLabelRes {
  Status status = Status::kInvalidArg;
  Label label;
};
struct SelfGetClearanceRes {
  Status status = Status::kInvalidArg;
  Label clearance;
};
struct SelfSetAsRes {
  Status status = Status::kInvalidArg;
};
struct SelfGetAsRes {
  Status status = Status::kInvalidArg;
  ContainerEntry as;
};
struct SelfHaltRes {
  Status status = Status::kInvalidArg;
};
struct ThreadCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct ThreadAlertRes {
  Status status = Status::kInvalidArg;
};
struct SelfNextAlertRes {
  Status status = Status::kInvalidArg;
  uint64_t code = 0;
};
struct SelfLocalReadRes {
  Status status = Status::kInvalidArg;
};
struct SelfLocalWriteRes {
  Status status = Status::kInvalidArg;
};
struct ContainerCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct ContainerGetParentRes {
  Status status = Status::kInvalidArg;
  ObjectId parent = kInvalidObject;
};
struct ContainerListRes {
  Status status = Status::kInvalidArg;
  std::vector<ObjectId> links;
};
struct ContainerLinkRes {
  Status status = Status::kInvalidArg;
};
struct ContainerHasRes {
  Status status = Status::kInvalidArg;
  bool has = false;
};
struct ObjGetTypeRes {
  Status status = Status::kInvalidArg;
  ObjectType type = ObjectType::kContainer;
};
struct ObjGetLabelRes {
  Status status = Status::kInvalidArg;
  Label label;
};
struct ObjGetDescripRes {
  Status status = Status::kInvalidArg;
  std::string descrip;
};
struct ObjGetQuotaRes {
  Status status = Status::kInvalidArg;
  uint64_t quota = 0;
};
struct ObjGetMetadataRes {
  Status status = Status::kInvalidArg;
  std::vector<uint8_t> metadata;
};
struct ObjSetMetadataRes {
  Status status = Status::kInvalidArg;
};
struct ObjSetFixedQuotaRes {
  Status status = Status::kInvalidArg;
};
struct ObjSetImmutableRes {
  Status status = Status::kInvalidArg;
};
struct QuotaMoveRes {
  Status status = Status::kInvalidArg;
};
struct SegmentCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct SegmentCopyRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct SegmentResizeRes {
  Status status = Status::kInvalidArg;
};
struct SegmentGetLenRes {
  Status status = Status::kInvalidArg;
  uint64_t len = 0;
};
struct SegmentReadRes {
  Status status = Status::kInvalidArg;
};
struct SegmentWriteRes {
  Status status = Status::kInvalidArg;
};
struct AsCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct AsSetRes {
  Status status = Status::kInvalidArg;
};
struct AsGetRes {
  Status status = Status::kInvalidArg;
  std::vector<Mapping> mappings;
};
struct GateCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct GateGetClosureRes {
  Status status = Status::kInvalidArg;
  std::vector<uint64_t> closure;
};
struct ConsoleWriteRes {
  Status status = Status::kInvalidArg;
};

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

using SyscallRes = std::variant<
    std::monostate, CatCreateRes, SelfSetLabelRes, SelfSetClearanceRes, SelfGetLabelRes,
    SelfGetClearanceRes, SelfSetAsRes, SelfGetAsRes, SelfHaltRes, ThreadCreateRes,
    ThreadAlertRes, SelfNextAlertRes, SelfLocalReadRes, SelfLocalWriteRes, ContainerCreateRes,
    ContainerGetParentRes, ContainerListRes, ContainerLinkRes, ContainerHasRes, ObjGetTypeRes,
    ObjGetLabelRes, ObjGetDescripRes, ObjGetQuotaRes, ObjGetMetadataRes, ObjSetMetadataRes,
    ObjSetFixedQuotaRes, ObjSetImmutableRes, QuotaMoveRes, SegmentCreateRes, SegmentCopyRes,
    SegmentResizeRes, SegmentGetLenRes, SegmentReadRes, SegmentWriteRes, AsCreateRes, AsSetRes,
    AsGetRes, GateCreateRes, GateGetClosureRes, ConsoleWriteRes>;

inline constexpr size_t kNumDescriptorKinds = std::variant_size_v<SyscallReq>;
static_assert(std::variant_size_v<SyscallRes> == kNumDescriptorKinds + 1,
              "every request alternative needs exactly one completion alternative");

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

// The Status of a completion (kInvalidArg for an unfilled monostate): every
// completion alternative leads with one, and the dispatcher's trace hook
// reads it generically.
Status ResStatus(const SyscallRes& res);

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
