// Label-aware kernel observability (PR 10): an always-on, lock-free flight
// recorder plus log2-bucketed latency histograms.
//
// Design:
//   * Per-thread ring buffers of fixed-size binary events, keyed by the
//     PR 6 epoch-slot registration (EpochDomain::ThreadSlot masked to
//     kTraceSlots, the same dense ids the kernel's syscall-count slots
//     use). The hot path touches ZERO shared atomics: the writer owns its
//     slot, so every store is a relaxed store into private cache lines and
//     the only ordering is one release store of the slot's head index.
//   * Events are packed into kEventWords atomic words so a concurrent
//     reader (sys_trace_read, the crash dump) is TSan-clean: relaxed word
//     loads against relaxed word stores, with the acquire-load of `head`
//     ordering everything not yet overwritten. An event being overwritten
//     mid-read can tear ACROSS words; readers filter those by re-checking
//     head after the copy (Snapshot below).
//   * Each event carries TWO label ids — the acting thread's label and the
//     label of the last object the kernel resolved for it ("the most
//     tainted object it touched"). Carrying both is flow-equivalent to
//     carrying their join (join ⊑ reader ⟺ both ⊑ reader) and costs two
//     32-bit stores instead of a label-algebra call per event. The flow
//     check itself happens at READ time, in the kernel, against the
//     reader's raised label (paper §3: any channel out of the kernel is
//     covered by the label rules — including this one).
//   * Latency histograms are per-slot log2 ns buckets (no shared
//     cachelines), per syscall kind and per store operation; readers sum
//     across slots.
//
// Compile-out: -DHISTAR_TRACE=0 turns every Record*/taint call into an
// empty inline (the bench overhead gate compares the two builds,
// scripts/check_bench_pr10.sh). The clock helpers below stay compiled in
// either way — deadline waits still need a monotonic clock — and are the
// ONLY sanctioned raw-clock reads in src/ (histar-lint rule
// raw-clock-read).
#ifndef SRC_CORE_TRACE_H_
#define SRC_CORE_TRACE_H_

#ifndef HISTAR_TRACE
#define HISTAR_TRACE 1
#endif

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/epoch.h"

namespace histar {
namespace trace {

// ---- clock ------------------------------------------------------------------
//
// The one place src/ reads the monotonic clock. Deadline-style call sites
// (futex waits, ring waits) use SteadyNow(); the recorder uses NowNs().
// Always compiled, even with HISTAR_TRACE=0: removing *recording* must not
// change *waiting*.
inline std::chrono::steady_clock::time_point SteadyNow() {
  return std::chrono::steady_clock::now();
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyNow().time_since_epoch())
          .count());
}

// Clock read whose only purpose is feeding the recorder: compiles to 0
// under HISTAR_TRACE=0 so instrumentation sites pay neither the record NOR
// the clock read in the compiled-out build (the overhead-gate baseline).
#if HISTAR_TRACE
inline uint64_t RecordNowNs() { return NowNs(); }
#else
inline uint64_t RecordNowNs() { return 0; }
#endif

// ---- event schema -----------------------------------------------------------

enum class EventKind : uint8_t {
  kNone = 0,
  kSyscall = 1,       // a=resolved object id, b=calling kernel thread id;
                      // aux=syscall kind (SyscallKindName), code=Status
  kTableLock = 2,     // a=exclusive?1:0, b=group size
  kEpochAdvance = 3,  // a=items freed, b=global epoch after
  kEpochRetire = 4,   // a=approx limbo size after the retire
  kStoreCommit = 5,   // a=bytes written, b=device write ops;
                      // aux=StoreOp, code=Status
  kFault = 6,         // a=fault class, b=fault detail; code=Status
  kFatal = 7,         // a=detail; code=the fatal Status
};
inline constexpr size_t kNumEventKinds = 8;

const char* EventKindName(uint8_t kind);

// Store operations with their own latency histograms (kStoreCommit aux).
enum class StoreOp : uint8_t {
  kCheckpoint = 0,
  kSyncOne = 1,
  kSyncPages = 2,
  kRestore = 3,
};
inline constexpr size_t kNumStoreOps = 4;

const char* StoreOpName(uint8_t op);

// One decoded flight-recorder event. The in-ring form is kEventWords
// packed words (below); this is the unpacked view handed to readers.
struct Event {
  uint64_t ts_ns = 0;   // NowNs() at record time
  uint64_t a = 0;       // kind-specific operands (see EventKind)
  uint64_t b = 0;
  uint64_t c = 0;
  uint32_t dur_ns = 0;  // saturating; kDurPending until the group closes
  uint32_t tlabel = 0;  // acting thread's LabelId (0 = none recorded)
  uint32_t olabel = 0;  // last resolved object's LabelId (0 = none)
  uint32_t gen = 0;     // label generation the ids belong to (see below)
  uint8_t kind = 0;     // EventKind
  int8_t code = 0;      // Status (or kind-specific small code)
  uint16_t aux = 0;     // syscall kind / StoreOp / kind-specific
};

// Packed layout: w0=ts, w1=a, w2=b, w3=c, w4=dur<<32|tlabel,
// w5=olabel<<32|aux<<16|code<<8|kind, w6=label generation (low 32 bits).
inline constexpr size_t kEventWords = 7;

// Group-amortized durations are patched in after the fact; until then the
// event's dur reads as this sentinel (readers report it as 0).
inline constexpr uint32_t kDurPending = 0xffffffffu;

// ---- per-slot storage -------------------------------------------------------

inline constexpr size_t kTraceSlots = 256;   // ThreadSlot() & (kTraceSlots-1)
inline constexpr size_t kRingEvents = 1024;  // per slot, power of two
inline constexpr size_t kHistBuckets = 32;   // log2 ns buckets
// Histogram rows per slot for syscall kinds; >= kNumSyscallKinds with
// headroom for new kinds (static_asserted in kernel_batch.cc).
inline constexpr size_t kMaxSyscallHist = 64;

// Bucket index for a log2 ns histogram: bucket b holds [2^b, 2^(b+1)),
// bucket 0 holds [0, 2), the last bucket saturates (>= 2^(kHistBuckets-1)
// ns, about 2.1 s). Pinned by tests/core/trace_test.cc.
inline constexpr size_t HistBucket(uint64_t ns) {
  if (ns < 2) {
    return 0;
  }
  size_t b = 63 - static_cast<size_t>(__builtin_clzll(ns));
  return b < kHistBuckets - 1 ? b : kHistBuckets - 1;
}

// One thread slot's recorder storage: the event ring plus its histograms.
// Single writer (the slot's current thread — slot ids are reused only
// after the owning thread exits), any number of racing readers. Above
// kTraceSlots concurrently-live threads the masked slot ids alias and
// writers would share a ring; interleaved Append word stores could then
// publish an event pairing one request's payload with another's labels,
// which the read-side flow check must never be allowed to pass. The ring
// therefore tracks its claiming writer: a store by a DIFFERENT unmasked
// ThreadSlot id sets `multi_writer`, and Snapshot withholds the whole
// ring (sticky until Reset) — degraded observability, never mixed labels.
struct SlotRing {
  std::atomic<uint64_t> head{0};  // events ever recorded in this slot
  // 1 + the unmasked EpochDomain::ThreadSlot() of the writer that claimed
  // this ring (0 = unclaimed). Unmasked ids are dense and lowest-free-
  // first, so a mismatch can only happen once concurrently-live threads
  // exceed kTraceSlots — exactly the aliasing regime.
  std::atomic<uint32_t> owner{0};
  std::atomic<uint32_t> multi_writer{0};  // sticky; cleared only by Reset
  std::atomic<uint64_t> words[kRingEvents * kEventWords];
  std::atomic<uint64_t> sys_hist[kMaxSyscallHist][kHistBuckets];
  std::atomic<uint64_t> store_hist[kNumStoreOps][kHistBuckets];
};

// The process-wide recorder: lazily allocated slot rings. A leaked
// singleton for the same reason EpochDomain is — events may be recorded
// from static-destructor-time teardown paths.
class Recorder {
 public:
  static Recorder& Global();

  static size_t CurrentSlot() {
    return EpochDomain::ThreadSlot() & (kTraceSlots - 1);
  }

  // The calling thread's slot ring, allocating it on first use.
  SlotRing& ForCurrentThread();

  // Slot i's ring, or nullptr if no thread mapped to it ever recorded.
  SlotRing* Slot(size_t i) const {
    return rings_[i & (kTraceSlots - 1)].load(std::memory_order_acquire);
  }

 private:
  Recorder() = default;
  ~Recorder() = delete;

  std::atomic<SlotRing*> rings_[kTraceSlots] = {};
};

// ---- label generation -------------------------------------------------------
//
// LabelIds are dense per registry instance and registries intern in the
// same order from boot, so an id alone is indistinguishable from the
// numerically-equal id of a PREVIOUS kernel's registry — and the recorder
// deliberately outlives kernels (crash-recovery flows reboot many in one
// process). Every event is therefore stamped with the generation current
// at record time (the attached kernel sets its LabelRegistry::instance_id
// here at construction); sys_trace_read treats labeled events from any
// other generation as "does not flow". Always compiled: the read side
// needs the current value even when recording is compiled out.
void SetLabelGeneration(uint32_t gen);
uint32_t LabelGeneration();

// ---- taint scratch ----------------------------------------------------------
//
// Thread-local scratch the kernel stamps while executing a request:
// GetThread stamps the acting thread's label (first write wins — the first
// thread resolved is `self`), ResolveEntry stamps the last resolved
// object's label and id (last write wins). RecordSyscall folds the scratch
// into the event; ResetTaint runs once per dispatched request.
struct Taint {
  uint32_t tlabel = 0;
  uint32_t olabel = 0;
  uint64_t oid = 0;
};

Taint& Scratch();

#if HISTAR_TRACE

inline void ResetTaint() {
  Taint& t = Scratch();
  t.tlabel = 0;
  t.olabel = 0;
  t.oid = 0;
}
inline void StampThread(uint32_t label_id) {
  Taint& t = Scratch();
  if (t.tlabel == 0) {
    t.tlabel = label_id;
  }
}
inline void StampObject(uint64_t oid, uint32_t label_id) {
  Taint& t = Scratch();
  t.olabel = label_id;
  t.oid = oid;
}

// Records one syscall event from the current taint scratch. `ts_ns` is the
// enclosing group's start timestamp; dur is left kDurPending until
// FinishSyscallGroup patches the amortized group duration in (one clock
// pair per lock group, not two clock reads per entry — that is what keeps
// the warm lock-free row inside the 5% overhead gate).
void RecordSyscall(uint16_t syscall_kind, int8_t status_code, uint64_t self_or_b,
                   uint64_t ts_ns);

// Opens a syscall group: returns the calling slot's current head sequence,
// to be handed back to FinishSyscallGroup. Cheap (one relaxed load).
uint64_t BeginSyscallGroup();

// Closes the syscall group opened at `start_seq`, executed between t0 and
// t1: patches dur = (t1-t0)/n into exactly the n pending kSyscall events
// recorded in [start_seq, head) and feeds the per-kind latency histograms.
// Non-syscall events recorded inside the group (table-lock markers, epoch
// advances/retires, fault events) are skipped with no bound on how many
// may interleave — the exact range replaces the old bounded backward scan,
// which stopped early and left events pending forever.
void FinishSyscallGroup(uint64_t start_seq, uint64_t t0_ns, uint64_t t1_ns);

// Generic event record (table locks, epoch, faults). Reads
// the clock itself when ts_ns == 0.
void RecordEvent(EventKind kind, uint64_t a, uint64_t b, uint64_t c,
                 int8_t code = 0, uint16_t aux = 0, uint32_t dur_ns = 0,
                 uint64_t ts_ns = 0);

// Store commit/restore: one kStoreCommit event plus the per-op histogram.
void RecordStoreOp(StoreOp op, int8_t status_code, uint64_t dur_ns, uint64_t bytes,
                   uint64_t write_ops);

// Fatal path: records a kFatal event and, when a dump path is configured
// (SetFatalDumpPath or the HISTAR_TRACE_DUMP environment variable), writes
// the flight-recorder dump there. Safe to call repeatedly; the dump file
// is rewritten each time so it holds the freshest last-N window.
void RecordFatal(int8_t status_code, uint64_t detail);

#else  // !HISTAR_TRACE — recording compiles out entirely.

inline void ResetTaint() {}
inline void StampThread(uint32_t) {}
inline void StampObject(uint64_t, uint32_t) {}
inline void RecordSyscall(uint16_t, int8_t, uint64_t, uint64_t) {}
inline uint64_t BeginSyscallGroup() { return 0; }
inline void FinishSyscallGroup(uint64_t, uint64_t, uint64_t) {}
inline void RecordEvent(EventKind, uint64_t, uint64_t, uint64_t, int8_t = 0,
                        uint16_t = 0, uint32_t = 0, uint64_t = 0) {}
inline void RecordStoreOp(StoreOp, int8_t, uint64_t, uint64_t, uint64_t) {}
inline void RecordFatal(int8_t, uint64_t) {}

#endif  // HISTAR_TRACE

// ---- read side (always compiled; empty when recording is compiled out) ------

// One snapshot entry: the decoded event plus where it came from.
struct SlotEvent {
  Event event;
  uint32_t slot = 0;
  uint64_t seq = 0;  // monotonically increasing per slot
};

// Copies up to `max_per_slot` of the most recent events from every active
// slot (oldest first within a slot). Events the writer may have started
// overwriting while being copied are dropped by re-checking head after
// the copy — including the boundary case head == seq + kRingEvents, where
// the writer stores the lapping event's words BEFORE publishing the new
// head — so returned events are never torn. Rings flagged multi_writer
// (slot-id aliasing past kTraceSlots live threads) are withheld entirely.
// Returns the number of events appended.
size_t Snapshot(std::vector<SlotEvent>* out, size_t max_per_slot = kRingEvents);

// Sums a syscall kind's latency histogram across slots into
// out[0..kHistBuckets).
void SumSyscallHist(uint16_t syscall_kind, uint64_t* out);
void SumStoreHist(StoreOp op, uint64_t* out);

// ---- crash dump -------------------------------------------------------------
//
// JSON-lines: a header object, then one object per event (most recent
// last_n per slot), e.g.
//   {"schema":"histar-trace-dump-v1","slots":3}
//   {"slot":0,"seq":41,"ts_ns":12345,"kind":"syscall","a":7,...}
// tools/tracefmt converts this to Chrome trace-event format
// (docs/observability.md).
void DumpJson(std::ostream& os, size_t last_n_per_slot = 64);
bool DumpToFile(const std::string& path, size_t last_n_per_slot = 64);

// Configures where RecordFatal writes its dump ("" disables). The
// HISTAR_TRACE_DUMP environment variable seeds this on first use.
void SetFatalDumpPath(const std::string& path);

// Rewinds every slot ring (events AND histograms, plus the owner claim
// and multi_writer flag) to empty. The recorder deliberately outlives
// kernel instances (crash-recovery flows reboot many kernels in one
// process and want the whole history in one dump), so this is NOT called
// at kernel construction; tests that need per-instance isolation call it
// themselves. Events stamped under a previous instance's label registry
// are handled at read time instead: every event carries the label
// generation it was recorded under (SetLabelGeneration), and
// sys_trace_read treats labeled events from any other generation as
// "does not flow" — id bounds alone cannot work, because registries
// intern densely from boot and stale ids collide with live ones.
// Not safe to race with writers — call only while nothing is recording.
void Reset();

}  // namespace trace
}  // namespace histar

#endif  // SRC_CORE_TRACE_H_
