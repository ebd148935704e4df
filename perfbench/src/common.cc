#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/baseline/mono_fs.h"
#include "src/core/trace.h"

namespace perfbench {

// ---- statistics ----------------------------------------------------------------

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  idx = idx == 0 ? 0 : idx - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- seeded inputs ---------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Rng::LogUniform(uint64_t lo, uint64_t hi) {
  double l = std::log(static_cast<double>(lo));
  double h = std::log(static_cast<double>(hi));
  uint64_t v = static_cast<uint64_t>(std::exp(l + (h - l) * Uniform()));
  return std::clamp(v, lo, hi);
}

void FillBytes(uint64_t key, uint8_t* buf, size_t n) {
  uint64_t s = key;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = Mix(s += 0x9e3779b97f4a7c15ULL);
    std::memcpy(buf + i, &w, 8);
  }
  if (i < n) {
    uint64_t w = Mix(s += 0x9e3779b97f4a7c15ULL);
    std::memcpy(buf + i, &w, n - i);
  }
}

std::vector<uint8_t> MakeBytes(uint64_t key, size_t n) {
  std::vector<uint8_t> v(n);
  FillBytes(key, v.data(), n);
  return v;
}

std::string MakeToken(uint64_t key, size_t n) {
  static const char kAlnum[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string s(n, 'a');
  for (size_t i = 0; i < n; ++i) {
    s[i] = kAlnum[Key(key, i) % 36];
  }
  return s;
}

// ---- spans -----------------------------------------------------------------------

namespace tracing {

std::atomic<bool> g_enabled{false};

namespace {
std::atomic<uint64_t> g_next_span{1};
std::mutex g_buffers_mu;
// Owned here, not by the recording threads: worker threads exit before the
// spans are collected.
std::deque<std::unique_ptr<std::vector<SpanRec>>> g_buffers;

struct ThreadState {
  std::vector<SpanRec>* buf = nullptr;
  uint64_t op = 0;
  uint64_t span = 0;
};
thread_local ThreadState t_state;

std::vector<SpanRec>* Buffer() {
  if (t_state.buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<std::vector<SpanRec>>());
    g_buffers.back()->reserve(1 << 14);
    t_state.buf = g_buffers.back().get();
  }
  return t_state.buf;
}
}  // namespace

void SetOp(uint64_t op) { t_state.op = op; }
uint64_t CurrentOp() { return t_state.op; }
uint64_t CurrentSpan() { return t_state.span; }

std::vector<SpanRec> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRec> out;
  for (const auto& b : g_buffers) {
    out.insert(out.end(), b->begin(), b->end());
  }
  return out;
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& b : g_buffers) {
    b->clear();
  }
}

}  // namespace tracing

Span::Span(const char* name) {
  if (!tracing::On()) {
    return;
  }
  name_ = name;
  id_ = tracing::g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = tracing::t_state.span;
  tracing::t_state.span = id_;
  t0_ = NowNs();
}

Span::~Span() {
  if (name_ == nullptr) {
    return;
  }
  uint64_t t1 = NowNs();
  tracing::t_state.span = parent_;
  tracing::Buffer()->push_back(SpanRec{name_, id_, parent_, tracing::t_state.op, t0_, t1});
}

SpanParent::SpanParent(uint64_t op, uint64_t parent_span)
    : prev_op_(tracing::t_state.op), prev_span_(tracing::t_state.span) {
  tracing::t_state.op = op;
  tracing::t_state.span = parent_span;
}

SpanParent::~SpanParent() {
  tracing::t_state.op = prev_op_;
  tracing::t_state.span = prev_span_;
}

std::map<std::string, std::vector<double>> SelfTimesUs(const std::vector<SpanRec>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::map<std::string, std::vector<double>> out;
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (const SpanRec& s : spans) {
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      iv.clear();
      for (size_t ci : it->second) {
        uint64_t a = std::max(spans[ci].t0_ns, s.t0_ns);
        uint64_t b = std::min(spans[ci].t1_ns, s.t1_ns);
        if (a < b) {
          iv.emplace_back(a, b);
        }
      }
      std::sort(iv.begin(), iv.end());
      uint64_t cur_a = 0;
      uint64_t cur_b = 0;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b - cur_a;
    }
    uint64_t dur = s.t1_ns - s.t0_ns;
    out[s.name].push_back(static_cast<double>(dur - std::min(dur, covered)) / 1e3);
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRec>& spans, size_t max_spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name\tid\tparent\top\tt0_ns\tt1_ns\n");
  for (const SpanRec& s : spans) {
    if (max_spans-- == 0) {
      break;
    }
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%llu\t%llu\n", s.name,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), static_cast<unsigned long long>(s.t0_ns),
                 static_cast<unsigned long long>(s.t1_ns));
  }
  return std::fclose(f) == 0;
}

// ---- closed-loop runner ------------------------------------------------------------

LoopResult RunClosedLoop(const LoopSpec& spec) {
  constexpr double kDeadlineMs = 2000;
  const int n = spec.clients;
  struct alignas(64) ClientState {
    std::atomic<uint64_t> op_start{0};  // 0: between ops
    std::atomic<uint64_t> op_index{0};
    std::atomic<bool> done{false};
    LoopResult r;
  };
  std::vector<ClientState> st(static_cast<size_t>(n));
  std::atomic<uint64_t> completed{0};
  std::atomic<double> rss_mark{0};
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(spec.seconds * 1e9);
  const double deadline_us = kDeadlineMs * 1e3;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&spec, &st, &completed, &rss_mark, c, end, deadline_us]() {
      ClientState& cs = st[static_cast<size_t>(c)];
      cs.r.by_class.resize(static_cast<size_t>(spec.classes));
      if (spec.client_init) {
        spec.client_init(c);
      }
      for (uint64_t i = 0;; ++i) {
        if (spec.max_ops != 0 ? i >= spec.max_ops : NowNs() >= end) {
          break;
        }
        tracing::SetOp((static_cast<uint64_t>(c + 1) << 40) | (i + 1));
        cs.op_index.store(i, std::memory_order_relaxed);
        cs.op_start.store(NowNs(), std::memory_order_relaxed);
        OpOutcome o = spec.body(c, i);
        cs.op_start.store(0, std::memory_order_relaxed);
        tracing::SetOp(0);
        ++cs.r.attempted;
        if (!o.ok) {
          ++cs.r.errors;
        } else if (!o.correct) {
          ++cs.r.mismatches;
        } else if (o.latency_us > deadline_us) {
          ++cs.r.timeouts;
        }
        cs.r.all_us.push_back(o.latency_us);
        cs.r.end_ns.push_back(NowNs());
        cs.r.by_class[static_cast<size_t>(o.cls)].push_back(o.latency_us);
        if (completed.fetch_add(1, std::memory_order_relaxed) + 1 == spec.rss_mark_ops) {
          rss_mark.store(PeakRssMb());
        }
      }
      if (spec.client_fini) {
        spec.client_fini(c);
      }
      cs.done.store(true, std::memory_order_release);
    });
  }

  // Watchdog: dump on the first overrun; give up 30 s past the planned end
  // (an op budget run gets 150 s in all).
  bool dumped = false;
  const uint64_t give_up =
      spec.max_ops != 0 ? t0 + 150'000'000'000ULL : end + 30'000'000'000ULL;
  for (;;) {
    bool all_done = true;
    uint64_t now = NowNs();
    for (size_t c = 0; c < st.size(); ++c) {
      ClientState& cs = st[c];
      if (!cs.done.load(std::memory_order_acquire)) {
        all_done = false;
      }
      uint64_t s = cs.op_start.load(std::memory_order_relaxed);
      if (!dumped && s != 0 && now > s &&
          static_cast<double>(now - s) / 1e3 > deadline_us && !spec.dump_path.empty()) {
        dumped = true;
        histar::trace::DumpToFile(spec.dump_path, 256);
        std::fprintf(stderr,
                     "perfbench: client %zu op %llu overran its %.0f ms deadline; trace dump "
                     "in %s\n",
                     c, static_cast<unsigned long long>(cs.op_index.load()), kDeadlineMs,
                     spec.dump_path.c_str());
      }
    }
    if (all_done) {
      break;
    }
    if (now > give_up) {
      if (!dumped && !spec.dump_path.empty()) {
        histar::trace::DumpToFile(spec.dump_path, 256);
      }
      std::fprintf(stderr, "perfbench: a client is stuck in an op; trace dump in %s\n",
                   spec.dump_path.c_str());
      // The stuck host threads cannot be joined; end the process here.
      std::fflush(stderr);
      std::_Exit(4);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& t : threads) {
    t.join();
  }

  LoopResult out;
  out.start_ns = t0;
  out.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  out.rss_mark_mb = rss_mark.load() > 0 ? rss_mark.load() : PeakRssMb();
  out.by_class.resize(static_cast<size_t>(spec.classes));
  for (auto& cs : st) {
    out.attempted += cs.r.attempted;
    out.errors += cs.r.errors;
    out.mismatches += cs.r.mismatches;
    out.timeouts += cs.r.timeouts;
    out.all_us.insert(out.all_us.end(), cs.r.all_us.begin(), cs.r.all_us.end());
    out.end_ns.insert(out.end_ns.end(), cs.r.end_ns.begin(), cs.r.end_ns.end());
    for (size_t k = 0; k < out.by_class.size(); ++k) {
      out.by_class[k].insert(out.by_class[k].end(), cs.r.by_class[k].begin(),
                             cs.r.by_class[k].end());
    }
  }
  return out;
}

void AppendRun(LoopResult* into, const LoopResult& later) {
  if (into->all_us.empty()) {
    *into = later;
    return;
  }
  const uint64_t joined_end = into->start_ns + static_cast<uint64_t>(into->elapsed_s * 1e9);
  const uint64_t gap = later.start_ns > joined_end ? later.start_ns - joined_end : 0;
  into->attempted += later.attempted;
  into->errors += later.errors;
  into->mismatches += later.mismatches;
  into->timeouts += later.timeouts;
  into->elapsed_s += later.elapsed_s;
  into->all_us.insert(into->all_us.end(), later.all_us.begin(), later.all_us.end());
  for (uint64_t t : later.end_ns) {
    into->end_ns.push_back(t - gap);
  }
  for (size_t k = 0; k < into->by_class.size() && k < later.by_class.size(); ++k) {
    into->by_class[k].insert(into->by_class[k].end(), later.by_class[k].begin(),
                             later.by_class[k].end());
  }
}

SliceStats Sliced(const LoopResult& r, size_t max_slices, size_t min_ops) {
  SliceStats out;
  const size_t n = r.all_us.size();
  if (n == 0) {
    return out;
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&r](size_t a, size_t b) { return r.end_ns[a] < r.end_ns[b]; });
  out.slices = std::clamp<size_t>(n / min_ops, 1, max_slices);
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> lat;
  uint64_t prev_end = r.start_ns;
  for (size_t s = 0; s < out.slices; ++s) {
    size_t lo = n * s / out.slices;
    size_t hi = n * (s + 1) / out.slices;
    lat.clear();
    for (size_t i = lo; i < hi; ++i) {
      lat.push_back(r.all_us[order[i]]);
    }
    uint64_t end = r.end_ns[order[hi - 1]];
    rate.push_back(static_cast<double>(hi - lo) / (static_cast<double>(end - prev_end) / 1e9));
    prev_end = end;
    p50.push_back(Quantile(lat, 0.50));
    p99.push_back(Quantile(lat, 0.99));
  }
  out.ops_per_s = Median(rate);
  out.p50_us = Median(p50);
  out.p99_us = Median(p99);
  return out;
}

// ---- kernel counters -------------------------------------------------------------

namespace {
// Midpoint of log2 bucket b ([2^b, 2^(b+1)) ns).
double BucketMidNs(size_t b) { return b == 0 ? 1.0 : 1.5 * static_cast<double>(1ULL << b); }
}  // namespace

size_t SyscallKind(const char* name) {
  for (size_t i = 0; i < histar::kNumSyscallKinds; ++i) {
    if (std::strcmp(histar::SyscallKindName(i), name) == 0) {
      return i;
    }
  }
  std::fprintf(stderr, "perfbench: unknown syscall kind %s\n", name);
  std::abort();
}

KernelSnap SnapKernel(histar::Kernel* kernel) {
  KernelSnap s;
  s.syscalls = kernel->syscall_count();
  s.labels = kernel->label_registry().size();
  s.kind_count.assign(histar::kNumSyscallKinds, 0);
  s.kind_ns.assign(histar::kNumSyscallKinds, 0);
  uint64_t h[histar::trace::kHistBuckets];
  for (size_t k = 0; k < histar::kNumSyscallKinds; ++k) {
    histar::trace::SumSyscallHist(static_cast<uint16_t>(k), h);
    for (size_t b = 0; b < histar::trace::kHistBuckets; ++b) {
      s.kind_count[k] += h[b];
      s.kind_ns[k] += static_cast<double>(h[b]) * BucketMidNs(b);
    }
  }
  for (size_t op = 0; op < histar::trace::kNumStoreOps; ++op) {
    histar::trace::SumStoreHist(static_cast<histar::trace::StoreOp>(op), h);
    for (size_t b = 0; b < histar::trace::kHistBuckets; ++b) {
      s.store_count[op] += h[b];
      s.store_ns[op] += static_cast<double>(h[b]) * BucketMidNs(b);
    }
  }
  return s;
}

// ---- report ------------------------------------------------------------------------

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed,
                   const std::vector<std::pair<std::string, std::string>>& names) const {
  for (const auto& [name, m] : metrics_) {
    std::fprintf(stderr, "perfbench: %s = %.6g %s\n", name.c_str(), m.first, m.second.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, unit] : names) {
    auto it = metrics_.find(name);
    double v = it != metrics_.end() ? it->second.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

namespace {
const char* const kReportedKinds[] = {
    "segment_read", "segment_write", "container_create", "container_unref", "gate_invoke",
    "thread_create", "futex_wait", "futex_wake", "sync", "sync_object",
};
}  // namespace

void ReportKernelDeltas(Report* r, const KernelSnap& before, const KernelSnap& after,
                        double ops) {
  if (ops <= 0) {
    return;
  }
  r->Set("kernel.syscalls_per_op", static_cast<double>(after.syscalls - before.syscalls) / ops,
         "count/op");
  double ns = 0;
  for (size_t k = 0; k < after.kind_ns.size(); ++k) {
    ns += after.kind_ns[k] - before.kind_ns[k];
  }
  r->Set("kernel.syscall_us_per_op", ns / 1e3 / ops, "us/op");
  for (const char* kind : kReportedKinds) {
    size_t k = SyscallKind(kind);
    r->Set(std::string("kernel.") + kind + ".per_op",
           static_cast<double>(after.kind_count[k] - before.kind_count[k]) / ops, "count/op");
  }
  for (const char* kind : {"futex_wait", "gate_invoke", "container_unref"}) {
    size_t k = SyscallKind(kind);
    r->Set(std::string("kernel.") + kind + "_us_per_op",
           (after.kind_ns[k] - before.kind_ns[k]) / 1e3 / ops, "us/op");
  }
  r->Set("core.labels_interned_per_op", static_cast<double>(after.labels - before.labels) / ops,
         "count/op");
  r->Set("core.labels_interned", static_cast<double>(after.labels), "count");
  // Store ops only where a store is attached (left unset, so 0, elsewhere).
  const std::pair<const char*, histar::trace::StoreOp> store_ops[] = {
      {"store.checkpoint_us", histar::trace::StoreOp::kCheckpoint},
      {"store.wal_append_us", histar::trace::StoreOp::kSyncOne},
  };
  for (const auto& [name, op] : store_ops) {
    size_t i = static_cast<size_t>(op);
    uint64_t n = after.store_count[i] - before.store_count[i];
    if (n > 0) {
      r->Set(name, (after.store_ns[i] - before.store_ns[i]) / 1e3 / static_cast<double>(n), "us");
    }
  }
}

void ReportSpanSelfTimes(Report* r, const std::map<std::string, std::vector<double>>& self,
                         const std::vector<const char*>& names) {
  for (const char* name : names) {
    auto it = self.find(name);
    if (it != self.end() && !it->second.empty()) {
      r->Set(std::string(name) + "_us", Median(it->second), "us");
    }
  }
}

void ReportBaselines(Report* r) {
  constexpr int kRtts = 20000;
  monosim::MonoPipe ping;
  monosim::MonoPipe pong;
  std::thread echo([&]() {
    char buf[8];
    for (int i = 0; i < kRtts; ++i) {
      uint64_t got = 0;
      while (got < sizeof(buf)) {
        got += ping.Read(buf + got, sizeof(buf) - got);
      }
      pong.Write(buf, sizeof(buf));
    }
  });
  char msg[8] = {'b', 'a', 's', 'e', 'l', 'i', 'n', 'e'};
  char back[8];
  uint64_t t0 = NowNs();
  for (int i = 0; i < kRtts; ++i) {
    ping.Write(msg, sizeof(msg));
    uint64_t got = 0;
    while (got < sizeof(back)) {
      got += pong.Read(back + got, sizeof(back) - got);
    }
  }
  uint64_t t1 = NowNs();
  echo.join();
  r->Set("baseline.pipe_rtt_us", static_cast<double>(t1 - t0) / 1e3 / kRtts, "us");

  constexpr int kForks = 2000;
  monosim::MonoProcessModel model;
  uint64_t syscalls = 0;
  t0 = NowNs();
  for (int i = 0; i < kForks; ++i) {
    syscalls += model.ForkExecTrue();
  }
  t1 = NowNs();
  if (syscalls == 0) {
    std::fprintf(stderr, "perfbench: baseline fork/exec did nothing\n");
  }
  r->Set("baseline.forkexec_us", static_cast<double>(t1 - t0) / 1e3 / kForks, "us");
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"setup_s", "s"},       {"ops_per_s", "1/s"}, {"op_p50_us", "us"},
      {"op_p99_us", "us"},    {"rss_mb", "MB"},
  };
  return k;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> k = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        // The workload-specific end-to-end figures (see README.md).
        {"fail_frac", "ratio"},
        {"sync_p50_us", "us"},
        {"disk_ms_per_kop", "ms/kop"},
        {"restore_ms", "ms"},
        {"net_MBps", "MB/s"},
        {"net_rtt_p50_us", "us"},
    };
    for (const char* s : {"lookup", "read", "write", "create", "unlink", "readdir", "syncfile",
                          "synceverything"}) {
      v.push_back({std::string("unixlib.fs.") + s + "_us", "us"});
    }
    for (const char* s : {"pipe.write", "pipe.read", "proc.spawn", "proc.wait"}) {
      v.push_back({std::string("unixlib.") + s + "_us", "us"});
    }
    v.push_back({"kernel.syscalls_per_op", "count/op"});
    v.push_back({"kernel.syscall_us_per_op", "us/op"});
    for (const char* kind : kReportedKinds) {
      v.push_back({std::string("kernel.") + kind + ".per_op", "count/op"});
    }
    for (const char* kind : {"futex_wait", "gate_invoke", "container_unref"}) {
      v.push_back({std::string("kernel.") + kind + "_us_per_op", "us/op"});
    }
    v.insert(v.end(), {
                          {"core.labels_interned_per_op", "count/op"},
                          {"core.labels_interned", "count"},
                          {"store.checkpoint_us", "us"},
                          {"store.wal_append_us", "us"},
                          {"store.device_writes_per_kop", "count/kop"},
                          {"store.device_seeks_per_kop", "count/kop"},
                          {"store.write_amp", "ratio"},
                          {"store.log_applies_per_kop", "count/kop"},
                          {"store.chain_length", "count"},
                          {"store.restore_device_ms", "ms"},
                          {"store.restore_seeks", "count"},
                          {"auth.login_us", "us"},
                          {"auth.gate_calls_per_login", "count"},
                          {"apps.store_get_us", "us"},
                          {"apps.store_put_us", "us"},
                          {"net.ctl_us", "us"},
                          {"net.send_us", "us"},
                          {"net.recv_us", "us"},
                          {"net.frames_per_MB", "count/MB"},
                          {"net.wire_goodput_Mbps", "Mb/s"},
                          {"baseline.pipe_rtt_us", "us"},
                          {"baseline.forkexec_us", "us"},
                          {"bench.trace_overhead_frac", "ratio"},
                      });
    return v;
  }();
  return k;
}

}  // namespace perfbench
