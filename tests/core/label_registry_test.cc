// Tests for the sharded label registry (paper §4: interned immutable labels
// and memoized ⊑). Covers the single-threaded contract — intern stability,
// precomputed shifted variants, memoization equivalence — and the properties
// that make the sharding sound under concurrency: interning the same label
// from many threads yields one id, and memoized answers never diverge from
// direct comparisons no matter how races interleave.
#include "src/core/label_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"

namespace histar {
namespace {

Label RandomLabel(std::mt19937_64* rng, bool allow_star = true) {
  std::uniform_int_distribution<int> def_dist(1, 4);
  std::uniform_int_distribution<int> lvl_dist(allow_star ? 0 : 1, 4);
  std::uniform_int_distribution<int> count_dist(0, 6);
  std::uniform_int_distribution<CategoryId> cat_dist(1, 12);
  Label l(static_cast<Level>(def_dist(*rng)));
  int n = count_dist(*rng);
  for (int i = 0; i < n; ++i) {
    l.set(cat_dist(*rng), static_cast<Level>(lvl_dist(*rng)));
  }
  return l;
}

TEST(LabelRegistry, InternIsStableForEqualLabels) {
  LabelRegistry reg;
  Label a(Level::k1, {{5, Level::k3}});
  Label b(Level::k1, {{5, Level::k3}});
  EXPECT_EQ(reg.Intern(a), reg.Intern(b));
  Label c(Level::k1, {{5, Level::k2}});
  EXPECT_NE(reg.Intern(a), reg.Intern(c));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(LabelRegistry, NeverHandsOutInvalidId) {
  LabelRegistry reg;
  EXPECT_NE(reg.Intern(Label()), kInvalidLabelId);
}

TEST(LabelRegistry, GetReturnsCanonicalLabel) {
  LabelRegistry reg;
  Label a(Level::k2, {{7, Level::kStar}, {9, Level::k3}});
  LabelId id = reg.Intern(a);
  EXPECT_EQ(reg.Get(id), a);
}

TEST(LabelRegistry, HiAndStarArePrecomputedShifts) {
  LabelRegistry reg;
  Label a(Level::k1, {{3, Level::kStar}, {4, Level::k2}});
  LabelId id = reg.Intern(a);
  EXPECT_EQ(reg.GetHi(id), a.ToHi());
  EXPECT_EQ(reg.GetStar(id), a.ToStar());
  // The id-of-shift accessors intern lazily and are stable.
  LabelId hi = reg.HiOf(id);
  EXPECT_EQ(hi, reg.HiOf(id));
  EXPECT_EQ(reg.Get(hi), a.ToHi());
  LabelId star = reg.StarOf(id);
  EXPECT_EQ(reg.Get(star), a.ToStar());
  // Shifting is idempotent through the registry too.
  EXPECT_EQ(reg.HiOf(hi), hi);
}

TEST(LabelRegistry, LeqMatchesDirectComparison) {
  LabelRegistry reg;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 500; ++i) {
    Label a = RandomLabel(&rng);
    Label b = RandomLabel(&rng);
    LabelId ia = reg.Intern(a);
    LabelId ib = reg.Intern(b);
    EXPECT_EQ(reg.Leq(ia, ib), a.Leq(b)) << a.ToString() << " vs " << b.ToString();
    // Second query exercises the memoized path; must agree.
    EXPECT_EQ(reg.Leq(ia, ib), a.Leq(b));
  }
}

TEST(LabelRegistry, JoinMatchesDirectAndIsInterned) {
  LabelRegistry reg;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 300; ++i) {
    Label a = RandomLabel(&rng);
    Label b = RandomLabel(&rng);
    LabelId ia = reg.Intern(a);
    LabelId ib = reg.Intern(b);
    LabelId j1 = reg.Join(ia, ib);
    EXPECT_EQ(reg.Get(j1), a.Join(b));
    // Commutativity at the id level: both orders resolve to the same id.
    EXPECT_EQ(j1, reg.Join(ib, ia));
    // The join result is a first-class interned label.
    EXPECT_EQ(j1, reg.Intern(a.Join(b)));
  }
}

// A memo miss inserts under the result shard's mutex; a hit is a lock-free
// probe, so the second query of a pair takes no lock.
TEST(LabelRegistry, SecondLookupHits) {
  LabelRegistry reg;
  LabelId a = reg.Intern(Label());
  LabelId b = reg.Intern(Label(Level::k2));
  reg.set_lock_accounting(true);
  uint64_t before = reg.lock_acquisitions();
  EXPECT_TRUE(reg.Leq(a, b));
  EXPECT_EQ(reg.lock_acquisitions() - before, 1u);
  EXPECT_TRUE(reg.Leq(a, b));
  EXPECT_EQ(reg.lock_acquisitions() - before, 1u);
}

TEST(LabelRegistry, IdenticalIdsShortCircuit) {
  LabelRegistry reg;
  LabelId a = reg.Intern(Label(Level::k3));
  reg.set_lock_accounting(true);
  uint64_t before = reg.lock_acquisitions();
  EXPECT_TRUE(reg.Leq(a, a));
  EXPECT_EQ(reg.lock_acquisitions(), before);
}

TEST(LabelRegistry, DisabledFallsBackToDirect) {
  LabelRegistry reg;
  reg.set_enabled(false);
  LabelId a = reg.Intern(Label());
  LabelId b = reg.Intern(Label(Level::k2));
  reg.set_lock_accounting(true);
  uint64_t before = reg.lock_acquisitions();
  EXPECT_TRUE(reg.Leq(a, b));
  EXPECT_FALSE(reg.Leq(b, a));
  EXPECT_EQ(reg.lock_acquisitions(), before);  // no memo traffic at all
}

TEST(LabelRegistry, OrderMattersInKey) {
  LabelRegistry reg;
  LabelId lo = reg.Intern(Label());            // {1}
  LabelId hi = reg.Intern(Label(Level::k2));   // {2}
  EXPECT_TRUE(reg.Leq(lo, hi));
  EXPECT_FALSE(reg.Leq(hi, lo));
}

TEST(LabelRegistry, SingleShardConfigurationBehavesIdentically) {
  LabelRegistry reg(1);
  EXPECT_EQ(reg.shard_count(), 1u);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng);
    Label b = RandomLabel(&rng);
    EXPECT_EQ(reg.Leq(reg.Intern(a), reg.Intern(b)), a.Leq(b));
  }
}

TEST(LabelRegistry, ShardCountRoundsToPowerOfTwo) {
  EXPECT_EQ(LabelRegistry(3).shard_count(), 2u);
  EXPECT_EQ(LabelRegistry(16).shard_count(), 16u);
  EXPECT_EQ(LabelRegistry(1000).shard_count(), LabelRegistry::kMaxShardCount);
}

// ---- concurrency -------------------------------------------------------------

// Many threads intern an overlapping universe of labels. Interning must be
// stable (same label → same id everywhere) and ids must resolve back to the
// label that produced them.
TEST(LabelRegistryStress, ConcurrentInterningIsStable) {
  LabelRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::vector<std::pair<Label, LabelId>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Same seed on every thread: maximal collision pressure on the
      // intern shards.
      std::mt19937_64 rng(99);
      for (int i = 0; i < kIters; ++i) {
        Label l = RandomLabel(&rng);
        seen[t].emplace_back(l, reg.Intern(l));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Every thread interned the identical sequence; ids must agree pairwise
  // and resolve to the canonical label.
  for (int i = 0; i < kIters; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][i].second, seen[0][i].second);
    }
    EXPECT_EQ(reg.Get(seen[0][i].second), seen[0][i].first);
  }
}

// Concurrent memoized checks must never contradict the direct comparison,
// regardless of which thread populates the memo first.
TEST(LabelRegistryStress, ConcurrentMemoizationIsSound) {
  LabelRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t % 2);  // half the threads share a seed
      for (int i = 0; i < kIters; ++i) {
        Label a = RandomLabel(&rng);
        Label b = RandomLabel(&rng);
        LabelId ia = reg.Intern(a);
        LabelId ib = reg.Intern(b);
        bool memo = reg.Leq(ia, ib);
        if (memo != a.Leq(b)) {
          failures.fetch_add(1);
        }
        LabelId j = reg.Join(ia, ib);
        if (reg.Get(j) != a.Join(b)) {
          failures.fetch_add(1);
        }
        LabelId hi = reg.HiOf(ia);
        if (reg.Get(hi) != a.ToHi()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// ---- syscall-boundary discipline ---------------------------------------------

// Caller-supplied labels are validated with non-interning comparisons and
// interned only on success: a failed syscall must not grow kernel state, or
// rejected labels become a quota-free unbounded-memory channel.
TEST(KernelRegistryBoundary, RejectedLabelsAreNotInterned) {
  Kernel k;
  ObjectId init = k.BootstrapThread(Label(), Label(Level::k2), "probe");
  size_t before = k.label_registry().size();
  for (int i = 0; i < 16; ++i) {
    // Each iteration uses a fresh label above the thread's clearance, so
    // both the relabel and the creation are rejected.
    Label bad(Level::k1, {{static_cast<CategoryId>(1000 + i), Level::k3}});
    EXPECT_EQ(k.sys_self_set_label(init, bad), Status::kLabelCheckFailed);
    CreateSpec spec;
    spec.container = k.root_container();
    spec.label = bad;
    spec.descrip = "bad";
    EXPECT_FALSE(k.sys_segment_create(init, spec, 16).ok());
  }
  EXPECT_EQ(k.label_registry().size(), before);
}

}  // namespace
}  // namespace histar
