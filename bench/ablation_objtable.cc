// Contention rows for the object table's one reader/writer lock.
//
// Every locked syscall takes the table's single SharedMutex once; these
// rows keep the lock's cost under contention visible (EXPERIMENTS.md, "One
// table lock"):
//
//   * BM_ObjTableResolveContended — pure read-mostly resolve (segment
//     reads over a pool of segments), all under the shared lock.
//   * BM_ObjTableGetLenContended — the same stream of per-call
//     sys_segment_get_len, one of the kinds that take no table lock at all
//     (they read the published index).
//   * BM_ObjTableMixedContended — same read stream with a private-segment
//     write mixed in every 4th op; each write takes the lock exclusive and
//     stalls every reader.
//   * BM_ObjTableCreateUnref — create + unref round trips, both exclusive.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"

namespace histar::bench {
namespace {

constexpr int kMaxThreads = 8;
constexpr int kSegments = 64;

// Shared across the benchmark's threads; (re)built by thread 0 before each
// run (the google-benchmark multi-threaded setup idiom, as in
// ablation_labels.cc).
struct ObjWorld {
  std::unique_ptr<Kernel> kernel;
  ObjectId root = kInvalidObject;
  std::vector<ObjectId> threads;        // one kernel thread per bench thread
  std::vector<ObjectId> shared_segs;    // read pool
  std::vector<ObjectId> private_segs;   // one write target per bench thread
};
ObjWorld g_world;

bool BuildWorld() {
  g_world.kernel = std::make_unique<Kernel>();
  Kernel* k = g_world.kernel.get();
  g_world.root = k->root_container();
  g_world.threads.clear();
  g_world.shared_segs.clear();
  g_world.private_segs.clear();
  for (int i = 0; i < kMaxThreads; ++i) {
    ObjectId t = k->BootstrapThread(Label(Level::k1), Label(Level::k2),
                                    "bench-t" + std::to_string(i));
    if (t == kInvalidObject) {
      return false;
    }
    g_world.threads.push_back(t);
  }
  auto make_seg = [&](const std::string& d) {
    CreateSpec spec;
    spec.container = g_world.root;
    spec.label = Label(Level::k1);
    spec.descrip = d;
    spec.quota = kObjectOverheadBytes + 2 * kPageSize;
    Result<ObjectId> s = k->sys_segment_create(g_world.threads[0], spec, 64);
    return s.ok() ? s.value() : kInvalidObject;
  };
  for (int i = 0; i < kSegments; ++i) {
    ObjectId s = make_seg("ro" + std::to_string(i));
    if (s == kInvalidObject) {
      return false;
    }
    g_world.shared_segs.push_back(s);
  }
  for (int i = 0; i < kMaxThreads; ++i) {
    ObjectId s = make_seg("rw" + std::to_string(i));
    if (s == kInvalidObject) {
      return false;
    }
    g_world.private_segs.push_back(s);
  }
  return true;
}

void TearDownWorld() { g_world.kernel.reset(); }

// Every iteration is one `read(kernel, self, entry)` call against a random
// shared segment; it returns the call's Status.
template <typename Read>
void ContendedReads(::benchmark::State& state, Read read) {
  if (state.thread_index() == 0) {
    if (!BuildWorld()) {
      state.SkipWithError("world boot failed");
      return;
    }
  }
  // Globals are touched only inside the iteration loop: the loop's entry
  // barrier is what orders thread 0's setup before the other threads run.
  Kernel* k = nullptr;
  ObjectId self = kInvalidObject;
  uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(state.thread_index() + 1);
  for (auto _ : state) {
    if (k == nullptr) {
      k = g_world.kernel.get();
      self = g_world.threads[static_cast<size_t>(state.thread_index())];
    }
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ObjectId seg = g_world.shared_segs[(x >> 16) % g_world.shared_segs.size()];
    if (read(k, self, ContainerEntry{g_world.root, seg}) != Status::kOk) {
      state.SkipWithError("read failed");
      return;
    }
  }
  if (state.thread_index() == 0) {
    TearDownWorld();
  }
}

// Pure resolve: every iteration is one sys_segment_read — ResolveEntry plus
// a memoized label check — under the shared table lock.
void BM_ObjTableResolveContended(::benchmark::State& state) {
  uint64_t buf = 0;
  ContendedReads(state, [&buf](Kernel* k, ObjectId self, ContainerEntry ce) {
    Status st = k->sys_segment_read(self, ce, &buf, 0, 8);
    ::benchmark::DoNotOptimize(buf);
    return st;
  });
}
BENCHMARK(BM_ObjTableResolveContended)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime()
    ->Unit(::benchmark::kNanosecond);

// Published reads: every iteration is one per-call sys_segment_get_len, the
// same resolve and label check with no table lock (an epoch pin and the
// published index instead). PlanOf routes 11 read kinds this way; this row
// measures them.
void BM_ObjTableGetLenContended(::benchmark::State& state) {
  ContendedReads(state, [](Kernel* k, ObjectId self, ContainerEntry ce) {
    Result<uint64_t> len = k->sys_segment_get_len(self, ce);
    ::benchmark::DoNotOptimize(len);
    return len.status();
  });
}
BENCHMARK(BM_ObjTableGetLenContended)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime()
    ->Unit(::benchmark::kNanosecond);

// Mixed: 3 reads of random shared segments + 1 write to this thread's
// private segment per 4 iterations. The write's exclusive lock stalls every
// reader.
void BM_ObjTableMixedContended(::benchmark::State& state) {
  if (state.thread_index() == 0) {
    if (!BuildWorld()) {
      state.SkipWithError("world boot failed");
      return;
    }
  }
  size_t ti = static_cast<size_t>(state.thread_index());
  Kernel* k = nullptr;
  ObjectId self = kInvalidObject;
  ObjectId own = kInvalidObject;
  uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(ti + 1);
  uint64_t buf = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    if (k == nullptr) {
      k = g_world.kernel.get();
      self = g_world.threads[ti];
      own = g_world.private_segs[ti];
    }
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    Status st;
    if (++i % 4 == 0) {
      st = k->sys_segment_write(self, ContainerEntry{g_world.root, own}, &x, 0, 8);
    } else {
      ObjectId seg = g_world.shared_segs[(x >> 16) % g_world.shared_segs.size()];
      st = k->sys_segment_read(self, ContainerEntry{g_world.root, seg}, &buf, 0, 8);
    }
    if (st != Status::kOk) {
      state.SkipWithError("syscall failed");
      return;
    }
    ::benchmark::DoNotOptimize(buf);
  }
  if (state.thread_index() == 0) {
    TearDownWorld();
  }
}
BENCHMARK(BM_ObjTableMixedContended)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime()
    ->Unit(::benchmark::kNanosecond);

// Create/unref round trip: the heavyweight path (exclusive create +
// exclusive destroy), so EXPERIMENTS can report what mutation costs
// relative to resolve.
void BM_ObjTableCreateUnref(::benchmark::State& state) {
  if (state.thread_index() == 0) {
    if (!BuildWorld()) {
      state.SkipWithError("world boot failed");
      return;
    }
  }
  Kernel* k = nullptr;
  ObjectId self = kInvalidObject;
  for (auto _ : state) {
    if (k == nullptr) {
      k = g_world.kernel.get();
      self = g_world.threads[static_cast<size_t>(state.thread_index())];
    }
    CreateSpec spec;
    spec.container = g_world.root;
    spec.label = Label(Level::k1);
    spec.descrip = "churn";
    spec.quota = kObjectOverheadBytes + 2 * kPageSize;
    Result<ObjectId> s = k->sys_segment_create(self, spec, 64);
    if (!s.ok() ||
        k->sys_container_unref(self, ContainerEntry{g_world.root, s.value()}) !=
            Status::kOk) {
      state.SkipWithError("create/unref failed");
      return;
    }
  }
  if (state.thread_index() == 0) {
    TearDownWorld();
  }
}
BENCHMARK(BM_ObjTableCreateUnref)
    ->ThreadRange(1, 4)
    ->UseRealTime()
    ->Unit(::benchmark::kNanosecond);

}  // namespace
}  // namespace histar::bench

BENCHMARK_MAIN();
