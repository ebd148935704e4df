// Benchmark driver: runs one seeded workload and prints its metrics.
//
//   perfbench --workload <fs-durable|web-login|net-stream>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--clients <n>] [--ops <n>] [--setup-reps <n>]
//
// --trace 0 measures the end-to-end metrics with span tracing off.
// --trace 1 first runs an untraced phase (30% of --seconds) and then a
// traced one (70%), and prints the per-layer metrics of the traced phase
// plus the tracing overhead between the two. --ops replaces the time limit
// with a fixed op budget per client (the exact-count check in
// perfbench/run.py uses it). Spans and dumps go to .bench_out/. The last
// stdout line is the result object.
#include <malloc.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "src/core/trace.h"
#include "workload.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fs-durable|web-login|net-stream> "
               "--seed <n> --seconds <s> --trace <0|1> [--clients <n>] [--ops <n>] "
               "[--setup-reps <n>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--clients") {
      o->clients = std::atoi(v);
    } else if (k == "--ops") {
      o->ops = std::strtoull(v, nullptr, 10);
    } else if (k == "--setup-reps") {
      o->setup_reps = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0 && o->setup_reps > 0;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "fs-durable") {
    return MakeFsDurable();
  }
  if (name == "web-login") {
    return MakeWebLogin();
  }
  if (name == "net-stream") {
    return MakeNetStream();
  }
  return nullptr;
}

// An untraced, time-bound run is cut into this many segments. Before every segment but
// the first, kSetupsPerGap fresh instances are set up (timed) and torn down
// again: the host's speed drifts over seconds, and set-up times sampled
// across the whole run have a steadier median than a burst at its start.
constexpr int kSegments = 10;
constexpr int kSetupsPerGap = 2;

// Sets up `n` spare instances of the workload, appending each set-up time
// to `setup_s`, and destroys them (untimed).
bool SpareSetups(const Options& opts, int n, std::vector<double>* setup_s) {
  const histar::ObjectId bound = histar::CurrentThread::Get();
  for (int i = 0; i < n; ++i) {
    std::unique_ptr<Workload> spare = Make(opts.workload);
    uint64_t t0 = NowNs();
    bool ok = spare->Setup(opts);
    setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!ok) {
      return false;
    }
  }
  histar::CurrentThread::Set(bound);
  return true;
}

void Summarize(const char* phase, const LoopResult& r) {
  std::fprintf(stderr,
               "perfbench: %s phase: %llu ops in %.2f s (%llu errors, %llu wrong, %llu late)\n",
               phase, static_cast<unsigned long long>(r.attempted), r.elapsed_s,
               static_cast<unsigned long long>(r.errors),
               static_cast<unsigned long long>(r.mismatches),
               static_cast<unsigned long long>(r.timeouts));
  for (size_t k = 0; k < r.by_class.size(); ++k) {
    std::fprintf(stderr, "perfbench:   class %zu: %zu samples\n", k, r.by_class[k].size());
  }
}

int Run(Options opts) {
  std::unique_ptr<Workload> w = Make(opts.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", opts.workload.c_str());
    return 2;
  }
  if (opts.clients <= 0) {
    opts.clients = w->default_clients();
  }
  const char* const kOutDir = ".bench_out";
  mkdir(kOutDir, 0755);
  const std::string stem = std::string(kOutDir) + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + (opts.trace ? "-traced" : "");

  // Set-up: several fresh instances; the last one is measured. An untraced
  // timed run sets up more between its segments.
  std::vector<double> setup_s;
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    if (rep > 0) {
      w = Make(opts.workload);
    }
    uint64_t t0 = NowNs();
    if (!w->Setup(opts)) {
      std::fprintf(stderr, "perfbench: %s set-up failed\n", opts.workload.c_str());
      return 3;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  LoopSpec spec = w->Loop();
  spec.clients = opts.clients;
  spec.max_ops = opts.ops;
  spec.dump_path = stem + "-timeout-dump.jsonl";

  Report report;
  LoopResult measured;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  if (!opts.trace) {
    const int segments = opts.ops == 0 ? kSegments : 1;
    spec.seconds = opts.seconds / segments;
    w->BeginPhase();
    for (int s = 0; s < segments; ++s) {
      if (s > 0 && !SpareSetups(opts, kSetupsPerGap, &setup_s)) {
        std::fprintf(stderr, "perfbench: %s set-up failed\n", opts.workload.c_str());
        return 3;
      }
      AppendRun(&measured, RunClosedLoop(spec));
    }
    Summarize("measured", measured);
  } else {
    spec.seconds = opts.seconds * 0.3;
    LoopResult plain = RunClosedLoop(spec);
    Summarize("untraced", plain);
    attempted += plain.attempted;
    failed += plain.failed();
    correct = correct && plain.mismatches == 0;

    spec.seconds = opts.seconds * 0.7;
    KernelSnap before = w->Snap();
    tracing::Clear();
    tracing::g_enabled.store(true);
    w->BeginPhase();
    measured = RunClosedLoop(spec);
    tracing::g_enabled.store(false);
    KernelSnap after = w->Snap();
    Summarize("traced", measured);

    std::vector<SpanRec> spans = tracing::Collect();
    ReportKernelDeltas(&report, before, after, static_cast<double>(measured.attempted));
    std::map<std::string, std::vector<double>> self = SelfTimesUs(spans);
    ReportSpanSelfTimes(&report, self,
                        {"unixlib.fs.lookup", "unixlib.fs.read", "unixlib.fs.write",
                         "unixlib.fs.create", "unixlib.fs.unlink", "unixlib.fs.readdir",
                         "unixlib.fs.syncfile", "unixlib.fs.synceverything", "unixlib.pipe.write",
                         "unixlib.pipe.read", "unixlib.proc.spawn", "unixlib.proc.wait",
                         "auth.login", "apps.store_get", "apps.store_put", "net.send",
                         "net.recv"});
    // Ordered by recording thread, so the cap keeps whole ops of the first
    // threads; the per-layer figures above use every span.
    if (!WriteSpans(stem + "-spans.tsv", spans, 200000)) {
      std::fprintf(stderr, "perfbench: could not write %s-spans.tsv\n", stem.c_str());
    }
    tracing::Clear();
    double plain_rate = static_cast<double>(plain.attempted) / plain.elapsed_s;
    double traced_rate = static_cast<double>(measured.attempted) / measured.elapsed_s;
    report.Set("bench.trace_overhead_frac", 1.0 - traced_rate / plain_rate, "ratio");
    ReportBaselines(&report);
  }
  attempted += measured.attempted;
  failed += measured.failed();
  correct = correct && measured.mismatches == 0;

  report.Set("fail_frac",
             static_cast<double>(measured.failed()) /
                 static_cast<double>(std::max<uint64_t>(measured.attempted, 1)),
             "ratio");
  std::string reps;
  for (double s : setup_s) {
    reps += " " + std::to_string(s * 1e3);
  }
  std::fprintf(stderr, "perfbench: set-up ms:%s\n", reps.c_str());
  report.Set("setup_s", Median(setup_s), "s");
  // Medians over up to 15 slices of the run, so a burst of load from outside
  // the run (the host is shared) moves a few slices, not the figure. A p99
  // needs 1000 samples per slice (10 beyond it); the rest need 100.
  SliceStats body = Sliced(measured, /*max_slices=*/15, /*min_ops=*/100);
  SliceStats tail = Sliced(measured, /*max_slices=*/15, /*min_ops=*/1000);
  std::fprintf(stderr, "perfbench: %zu samples; %zu slices, %zu for the p99\n",
               measured.all_us.size(), body.slices, tail.slices);
  report.Set("ops_per_s", body.ops_per_s, "1/s");
  report.Set("op_p50_us", body.p50_us, "us");
  report.Set("op_p99_us", tail.p99_us, "us");

  if (!w->Finish(measured, &report)) {
    std::fprintf(stderr, "perfbench: end-state check failed\n");
    correct = false;
  }
  report.Set("rss_mb", measured.rss_mark_mb, "MB");
  histar::CurrentThread::Set(histar::kInvalidObject);
  w.reset();

  if (attempted == 0) {
    std::fprintf(stderr, "perfbench: no op was attempted\n");
    return 3;
  }
  report.Print(correct, attempted, failed, opts.trace ? PerLayerMetrics() : EndToEndMetrics());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the process rather than handing it back to the
  // OS: on a VM, memory returned to the host faults back in at a cost that
  // swings with the host's load, and set-up (repeated several times) and
  // web-login's world renewal would measure those faults.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  perfbench::Options opts;
  if (!perfbench::ParseArgs(argc, argv, &opts)) {
    return perfbench::Usage();
  }
  return perfbench::Run(opts);
}
