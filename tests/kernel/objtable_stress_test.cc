// Concurrent syscall stress over the object table and its one lock.
//
// Host threads hammer the three classes of table access concurrently:
// read-mostly resolves (shared table lock), mutation (exclusive), and
// recursive subtree destruction (exclusive). The patterns are TSan-friendly
// — bounded iterations, no sleeps in the hot loops, every cross-thread
// handoff through kernel syscalls — and the CI ThreadSanitizer job runs
// exactly this binary to race future lock changes. Invariants checked at
// the end are the ones container_test.cc and quota_test.cc pin
// deterministically: nothing lost, nothing leaked, quotas balanced.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"

namespace histar {
namespace {

struct StressWorld {
  Kernel kernel;
  ObjectId init;
  std::vector<ObjectId> workers;

  explicit StressWorld(int nworkers) {
    init = kernel.BootstrapThread(Label(Level::k1), Label(Level::k2), "init");
    for (int i = 0; i < nworkers; ++i) {
      workers.push_back(kernel.BootstrapThread(Label(Level::k1), Label(Level::k2),
                                               "w" + std::to_string(i)));
    }
  }
};

ObjectId MustSegment(Kernel* k, ObjectId self, ObjectId parent, uint64_t len) {
  CreateSpec spec;
  spec.container = parent;
  spec.label = Label(Level::k1);
  spec.descrip = "stress-seg";
  spec.quota = kObjectOverheadBytes + len + kPageSize;
  Result<ObjectId> r = k->sys_segment_create(self, spec, len);
  EXPECT_TRUE(r.ok()) << StatusName(r.status());
  return r.ok() ? r.value() : kInvalidObject;
}

// Readers resolve shared segments while writers create/write/unref private
// subtrees: the mixed workload of a busy multi-process system.
TEST(ObjectTableStress, ConcurrentResolveCreateUnref) {
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  StressWorld w(kThreads);
  Kernel* k = &w.kernel;
  ObjectId root = k->root_container();

  // A pool of shared read-only segments.
  std::vector<ObjectId> shared;
  for (int i = 0; i < 32; ++i) {
    shared.push_back(MustSegment(k, w.init, root, 64));
  }
  size_t baseline = k->ObjectCount();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      ObjectId self = w.workers[ti];
      uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(ti + 1);
      uint64_t buf = 0;
      for (int i = 0; i < kIters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        // Read a random shared segment (shared table lock).
        ObjectId seg = shared[(x >> 16) % shared.size()];
        if (k->sys_segment_read(self, ContainerEntry{root, seg}, &buf, 0, 8) !=
            Status::kOk) {
          ++failures;
        }
        // Create a private container + segment, write, unref the subtree
        // (exclusive locks, the last one a recursive destroy).
        CreateSpec cs;
        cs.container = root;
        cs.label = Label(Level::k1);
        cs.descrip = "stress-ctr";
        cs.quota = 64 * kPageSize;
        Result<ObjectId> c = k->sys_container_create(self, cs, 0);
        if (!c.ok()) {
          ++failures;
          continue;
        }
        ObjectId s = MustSegment(k, self, c.value(), 128);
        if (s == kInvalidObject ||
            k->sys_segment_write(self, ContainerEntry{c.value(), s}, &x, 0, 8) !=
                Status::kOk) {
          ++failures;
        }
        if (k->sys_container_unref(self, ContainerEntry{root, c.value()}) != Status::kOk) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every private subtree reclaimed; the shared pool intact.
  EXPECT_EQ(k->ObjectCount(), baseline);
  for (ObjectId seg : shared) {
    EXPECT_TRUE(k->ObjectExists(seg));
  }
}

// All threads mutate the SAME container while others read it: link-count
// and usage bookkeeping must come out exact.
TEST(ObjectTableStress, SingleContainerContention) {
  constexpr int kThreads = 4;
  constexpr int kIters = 250;
  StressWorld w(kThreads);
  Kernel* k = &w.kernel;

  CreateSpec cs;
  cs.container = k->root_container();
  cs.label = Label(Level::k1);
  cs.descrip = "arena";
  cs.quota = 16 << 20;
  Result<ObjectId> arena = k->sys_container_create(w.init, cs, 0);
  ASSERT_TRUE(arena.ok());
  size_t baseline = k->ObjectCount();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      ObjectId self = w.workers[ti];
      for (int i = 0; i < kIters; ++i) {
        ObjectId s = MustSegment(k, self, arena.value(), 64);
        if (s == kInvalidObject) {
          ++failures;
          continue;
        }
        Result<std::vector<ObjectId>> ls = k->sys_container_list(self, arena.value());
        if (!ls.ok()) {
          ++failures;
        }
        if (k->sys_container_unref(self, ContainerEntry{arena.value(), s}) != Status::kOk) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(k->ObjectCount(), baseline);
  // The arena's links are empty again and its quota pool is whole: a
  // segment sized near the full arena must fit.
  Result<std::vector<ObjectId>> ls = k->sys_container_list(w.init, arena.value());
  ASSERT_TRUE(ls.ok());
  EXPECT_TRUE(ls.value().empty());
  CreateSpec big;
  big.container = arena.value();
  big.label = Label(Level::k1);
  big.descrip = "big";
  big.quota = (16 << 20) - 64 * kPageSize;
  Result<ObjectId> fit = k->sys_segment_create(w.init, big, kPageSize);
  EXPECT_TRUE(fit.ok()) << StatusName(fit.status());
}

// Thread relabeling (exclusive) racing against other threads observing it
// (lock-free or shared): label reads must never tear — every observed
// label is one the thread actually held.
TEST(ObjectTableStress, RelabelVsObserve) {
  constexpr int kIters = 300;
  StressWorld w(2);
  Kernel* k = &w.kernel;
  ObjectId relabeler = w.workers[0];
  ObjectId observer = w.workers[1];

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread obs([&] {
    ContainerEntry ce{k->root_container(), relabeler};
    while (!stop.load(std::memory_order_relaxed)) {
      Result<Label> l = k->sys_obj_get_label(observer, ce);
      // kLabelCheckFailed is legal once the relabeler taints itself above
      // the observer; any other failure is a bug.
      if (!l.ok() && l.status() != Status::kLabelCheckFailed) {
        ++failures;
      }
    }
  });
  for (int i = 0; i < kIters; ++i) {
    Result<CategoryId> c = k->sys_cat_create(relabeler);
    if (!c.ok()) {
      ++failures;
      break;
    }
    // Drop ownership again (label with the category back at default): keeps
    // the label churn going without growing without bound.
    Result<Label> cur = k->sys_self_get_label(relabeler);
    if (!cur.ok()) {
      ++failures;
      break;
    }
    Label next = cur.value();
    next.set(c.value(), Level::k1);  // drop ownership: ⋆ → default 1
    if (k->sys_self_set_label(relabeler, next) != Status::kOk) {
      ++failures;
      break;
    }
  }
  stop.store(true);
  obs.join();
  EXPECT_EQ(failures.load(), 0);
}

// Futex wait/wake across the split futex_mu_ / table-lock design: every
// protocol round must complete (no lost wakeups) even though the waiter's
// word read and its sleep are no longer under one kernel-wide lock.
TEST(ObjectTableStress, FutexHandoffNoLostWakeups) {
  constexpr int kRounds = 60;
  StressWorld w(2);
  Kernel* k = &w.kernel;
  ObjectId root = k->root_container();
  ObjectId seg = MustSegment(k, w.init, root, 64);
  ContainerEntry ce{root, seg};

  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    uint64_t zero = 0;
    ASSERT_EQ(k->sys_segment_write(w.init, ce, &zero, 0, 8), Status::kOk);
    std::thread waiter([&] {
      // kOk (woken) and kAgain (saw the new value before sleeping) are both
      // successful outcomes; kTimedOut means a wakeup was lost.
      Status st = k->sys_futex_wait(w.workers[0], ce, 0, 0, 5000);
      if (st != Status::kOk && st != Status::kAgain) {
        ++failures;
      }
    });
    uint64_t one = 1;
    if (k->sys_segment_write(w.workers[1], ce, &one, 0, 8) != Status::kOk) {
      ++failures;
    }
    // One wake after the write is enough in every interleaving: a waiter
    // that registered before the wake consumes the budget token; one that
    // registers after re-reads the word (now 1) and returns kAgain. A lost
    // wakeup would surface as kTimedOut above.
    Result<uint32_t> n = k->sys_futex_wake(w.workers[1], ce, 0, 1);
    if (!n.ok()) {
      ++failures;
    }
    waiter.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace histar
