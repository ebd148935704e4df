// Shared harness of the benchmark driver: seeded inputs, the closed-loop
// client runner with per-op deadlines, span tracing recorded from the
// benchmark's own code around calls into each layer, kernel-counter
// snapshots, and the metric report printed as the last line of stdout.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/syscall_abi.h"

namespace perfbench {

// ---- options -------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int clients = 0;       // 0: the workload's default client count
  uint64_t ops = 0;      // >0: stop each client after this many ops, not on time
  int setup_reps = 3;    // boots before the loop (see main.cc for the rest)
};

// ---- clock and statistics ------------------------------------------------------

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Quantile q in [0,1] of `v` (nearest rank); sorts `v`. 0 when empty.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

// Peak resident set of this process, MB.
double PeakRssMb();

// ---- seeded inputs ---------------------------------------------------------------

// splitmix64 finalizer: the hash every derived input key goes through.
uint64_t Mix(uint64_t x);
inline uint64_t Key(uint64_t a, uint64_t b, uint64_t c = 0, uint64_t d = 0) {
  return Mix(Mix(Mix(Mix(a) ^ b) ^ c) ^ d);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return Mix(s_ += 0x9e3779b97f4a7c15ULL); }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Log-uniform integer in [lo, hi].
  uint64_t LogUniform(uint64_t lo, uint64_t hi);

 private:
  uint64_t s_;
};

// Deterministic bytes for `key` (file contents, payloads).
void FillBytes(uint64_t key, uint8_t* buf, size_t n);
std::vector<uint8_t> MakeBytes(uint64_t key, size_t n);
// Printable token of `n` characters derived from `key`.
std::string MakeToken(uint64_t key, size_t n);

// ---- spans -----------------------------------------------------------------------
//
// A span is recorded around one call into a layer's public function. Spans
// of one op share its id; a span's parent is the innermost span open on the
// same host thread, or a span handed across threads with SpanParent (the
// web worker runs in a spawned process on another host thread). Spans stay
// in memory and are written out when the run ends.

struct SpanRec {
  const char* name;
  uint64_t id;
  uint64_t parent;  // 0: none
  uint64_t op;      // 0: not inside an op
  uint64_t t0_ns;
  uint64_t t1_ns;
};

namespace tracing {
extern std::atomic<bool> g_enabled;
inline bool On() { return g_enabled.load(std::memory_order_relaxed); }
// The op the calling thread is executing, and the innermost open span.
void SetOp(uint64_t op);
uint64_t CurrentOp();
uint64_t CurrentSpan();
// All spans recorded so far (every thread), in no particular order.
std::vector<SpanRec> Collect();
void Clear();
}  // namespace tracing

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr when tracing is off
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t t0_ = 0;
};

// Adopts an op id and parent span recorded on another host thread for the
// lifetime of this object.
class SpanParent {
 public:
  SpanParent(uint64_t op, uint64_t parent_span);
  ~SpanParent();
  SpanParent(const SpanParent&) = delete;
  SpanParent& operator=(const SpanParent&) = delete;

 private:
  uint64_t prev_op_;
  uint64_t prev_span_;
};

// Self time (duration minus the union of child-span intervals) per span
// name, in microseconds.
std::map<std::string, std::vector<double>> SelfTimesUs(const std::vector<SpanRec>& spans);
// Writes the first `max_spans` spans as tab-separated lines: name id parent
// op t0_ns t1_ns.
bool WriteSpans(const std::string& path, const std::vector<SpanRec>& spans, size_t max_spans);

// ---- closed-loop runner ------------------------------------------------------------

// One op as a client body reports it. The body times only the calls into
// the program; checking the outputs happens outside that interval.
struct OpOutcome {
  int cls = 0;            // op class, indexes LoopResult::by_class
  bool ok = true;         // the calls succeeded
  bool correct = true;    // outputs matched the client's model
  double latency_us = 0;
};

struct LoopResult {
  uint64_t attempted = 0;
  uint64_t errors = 0;      // calls that failed
  uint64_t mismatches = 0;  // wrong outputs
  uint64_t timeouts = 0;    // ops that overran their deadline
  uint64_t start_ns = 0;
  double elapsed_s = 0;
  double rss_mark_mb = 0;   // peak RSS once rss_mark_ops ops had completed
  std::vector<double> all_us;                 // every op's latency
  std::vector<uint64_t> end_ns;               // and when it completed
  std::vector<std::vector<double>> by_class;  // per op class
  uint64_t failed() const { return errors + mismatches + timeouts; }
};

struct LoopSpec {
  int clients = 1;
  double seconds = 1;
  uint64_t max_ops = 0;        // per client; 0: time-bound
  int classes = 1;
  std::string dump_path;       // flight-recorder dump on the first overrun
  // Peak RSS is sampled when this many ops (all clients) have completed, so
  // the memory figure covers a fixed amount of work, whatever the speed.
  uint64_t rss_mark_ops = 0;
  // Runs on the client's host thread before its first op / after its last.
  std::function<void(int client)> client_init;
  std::function<void(int client)> client_fini;
  // Executes op number `index` of `client`.
  std::function<OpOutcome(int client, uint64_t index)> body;
};

// Runs `spec.clients` host threads, each issuing its next op only after the
// previous one completed, until the time (or op budget) is spent. An op
// slower than 2 s failed; a watchdog writes a flight-recorder dump the
// first time an op overruns that deadline. If an op has not returned 30 s
// after the run should have ended, it ends the process with exit code 4 and
// no result: stuck host threads cannot be joined.
LoopResult RunClosedLoop(const LoopSpec& spec);

// Appends the ops of a later run of the same loop to `into`, moving their
// completion times back by the gap between the two runs, so that the
// slices of the joined result cover time spent in the loop only. The peak
// RSS mark stays the first run's.
void AppendRun(LoopResult* into, const LoopResult& later);

// Ops in completion order, cut into `slices` consecutive slices of at least
// `min_ops` each (at most `max_slices`, at least one); every figure is the
// median of its per-slice values. Throughput of a slice is its op count
// over the time since the previous slice ended.
struct SliceStats {
  size_t slices = 0;
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};
SliceStats Sliced(const LoopResult& r, size_t max_slices, size_t min_ops);

// ---- kernel counters -------------------------------------------------------------

// Counters read before and after a phase; per-layer metrics are deltas.
struct KernelSnap {
  uint64_t syscalls = 0;
  std::vector<uint64_t> kind_count;  // per syscall kind, from the recorder
  std::vector<double> kind_ns;       // estimated from log2 buckets
  uint64_t store_count[4] = {};
  double store_ns[4] = {};
  uint64_t labels = 0;
};
KernelSnap SnapKernel(histar::Kernel* kernel);
// Index of a syscall kind by its ABI name.
size_t SyscallKind(const char* name);

// ---- report ------------------------------------------------------------------------

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Prints every metric set to stderr, and the result object as the last
  // stdout line with exactly the metrics in `names` (absent ones as 0).
  void Print(bool correct, uint64_t attempted, uint64_t failed,
             const std::vector<std::pair<std::string, std::string>>& names) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

// Sets the kernel.* / core.* per-layer metrics for a phase of `ops` ops.
void ReportKernelDeltas(Report* r, const KernelSnap& before, const KernelSnap& after,
                        double ops);
// Sets the p50 self time of every span name listed in `names` (metric name
// = span name + "_us"); spans never seen are left unset.
void ReportSpanSelfTimes(Report* r, const std::map<std::string, std::vector<double>>& self,
                         const std::vector<const char*>& names);
// Runs the monolithic-kernel baselines (pipe RTT, fork/exec) and sets
// baseline.pipe_rtt_us and baseline.forkexec_us.
void ReportBaselines(Report* r);

// Every metric a run prints, by mode: end to end (tracing off) and per layer
// (tracing on). Each entry is {name, unit}; BENCHMARK.json lists the same.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
