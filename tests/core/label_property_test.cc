// Property-based tests: labels form a lattice under ⊑ (paper §2.2, citing
// Denning's lattice model). Each property is checked over a randomized sweep
// of label pairs/triples generated from a seeded PRNG (parameterized so each
// seed is an independent test case).
#include <gtest/gtest.h>

#include <random>

#include "src/core/label.h"

namespace histar {
namespace {

// Generates a random label over a small category universe so collisions —
// the interesting cases — are common.
Label RandomLabel(std::mt19937_64* rng, bool allow_star) {
  std::uniform_int_distribution<int> def_dist(1, 4);           // k0..k3
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

class LabelLatticeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LabelLatticeProperty, LeqIsReflexive) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label l = RandomLabel(&rng, true);
    EXPECT_TRUE(l.Leq(l)) << l.ToString();
  }
}

TEST_P(LabelLatticeProperty, LeqIsAntisymmetric) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    if (a.Leq(b) && b.Leq(a)) {
      EXPECT_EQ(a, b) << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST_P(LabelLatticeProperty, LeqIsTransitive) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    Label c = RandomLabel(&rng, true);
    if (a.Leq(b) && b.Leq(c)) {
      EXPECT_TRUE(a.Leq(c)) << a.ToString() << " ⊑ " << b.ToString() << " ⊑ " << c.ToString();
    }
  }
}

TEST_P(LabelLatticeProperty, JoinIsLeastUpperBound) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    Label j = a.Join(b);
    // Upper bound.
    EXPECT_TRUE(a.Leq(j));
    EXPECT_TRUE(b.Leq(j));
    // Least: any other upper bound dominates j.
    Label u = RandomLabel(&rng, true);
    if (a.Leq(u) && b.Leq(u)) {
      EXPECT_TRUE(j.Leq(u));
    }
  }
}

TEST_P(LabelLatticeProperty, MeetIsGreatestLowerBound) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    Label m = a.Meet(b);
    EXPECT_TRUE(m.Leq(a));
    EXPECT_TRUE(m.Leq(b));
    Label l = RandomLabel(&rng, true);
    if (l.Leq(a) && l.Leq(b)) {
      EXPECT_TRUE(l.Leq(m));
    }
  }
}

TEST_P(LabelLatticeProperty, JoinAndMeetAreCommutativeAndIdempotent) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    EXPECT_EQ(a.Join(b), b.Join(a));
    EXPECT_EQ(a.Meet(b), b.Meet(a));
    EXPECT_EQ(a.Join(a), a);
    EXPECT_EQ(a.Meet(a), a);
  }
}

TEST_P(LabelLatticeProperty, JoinIsAssociative) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    Label c = RandomLabel(&rng, true);
    EXPECT_EQ(a.Join(b).Join(c), a.Join(b.Join(c)));
  }
}

TEST_P(LabelLatticeProperty, MeetIsAssociative) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    Label c = RandomLabel(&rng, true);
    EXPECT_EQ(a.Meet(b).Meet(c), a.Meet(b.Meet(c)));
  }
}

TEST_P(LabelLatticeProperty, JoinAndMeetSatisfyAbsorption) {
  // a ⊔ (a ⊓ b) = a and a ⊓ (a ⊔ b) = a — together with associativity,
  // commutativity and idempotence these make (⊔, ⊓) a lattice, which is
  // exactly the structure the registry's memoization relies on.
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    EXPECT_EQ(a.Join(a.Meet(b)), a) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(a.Meet(a.Join(b)), a) << a.ToString() << " vs " << b.ToString();
  }
}

TEST_P(LabelLatticeProperty, LeqIsConsistentWithJoinAndMeet) {
  // The order and the algebra must define each other:
  //   a ⊑ b ⟺ a ⊔ b = b ⟺ a ⊓ b = a.
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    Label b = RandomLabel(&rng, true);
    bool leq = a.Leq(b);
    EXPECT_EQ(leq, a.Join(b) == b) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(leq, a.Meet(b) == a) << a.ToString() << " vs " << b.ToString();
  }
}

TEST_P(LabelLatticeProperty, ShiftOperatorsAreInverse) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    // For storable labels (no J), ToStar(ToHi(L)) == L.
    EXPECT_EQ(a.ToHi().ToStar(), a);
  }
}

TEST_P(LabelLatticeProperty, RaiseForReadIsMinimalAndSufficient) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label t = RandomLabel(&rng, true);
    Label o = RandomLabel(&rng, false);  // object labels carry no ⋆
    Label r = Label::RaiseForRead(t, o);
    // Sufficient: L_T ⊑ L' and L_O ⊑ L'^J (§2.2).
    EXPECT_TRUE(t.Leq(r)) << t.ToString() << " → " << r.ToString();
    EXPECT_TRUE(o.Leq(r.ToHi())) << o.ToString() << " → " << r.ToString();
    // Minimal: any storable label satisfying both dominates r.
    Label other = RandomLabel(&rng, true);
    if (t.Leq(other) && o.Leq(other.ToHi())) {
      EXPECT_TRUE(r.Leq(other))
          << "raise " << r.ToString() << " not minimal vs " << other.ToString();
    }
  }
}

TEST_P(LabelLatticeProperty, SerializationRoundTripsRandomLabels) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng, true);
    std::vector<uint8_t> bytes;
    a.Serialize(&bytes);
    Label out;
    size_t consumed = 0;
    ASSERT_TRUE(Label::Deserialize(bytes.data(), bytes.size(), &consumed, &out));
    EXPECT_EQ(out, a);
    EXPECT_EQ(consumed, bytes.size());
  }
}

// GateFloor is the three-step (L_T^J ⊔ L_G^J)^⋆ in one merge. Every storable
// level, ⋆ included, appears both as an entry and as the default.
TEST_P(LabelLatticeProperty, GateFloorMatchesThreeStepFormula) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> lvl_dist(0, 4);  // ⋆..k3
  std::uniform_int_distribution<int> count_dist(0, 6);
  std::uniform_int_distribution<CategoryId> cat_dist(1, 12);
  auto any_label = [&] {
    Label l(static_cast<Level>(lvl_dist(rng)));
    for (int n = count_dist(rng); n > 0; --n) {
      l.set(cat_dist(rng), static_cast<Level>(lvl_dist(rng)));
    }
    return l;
  };
  for (int i = 0; i < 500; ++i) {
    Label t = any_label();
    Label g = any_label();
    EXPECT_EQ(Label::GateFloor(t, g), t.ToHi().Join(g.ToHi()).ToStar())
        << t.ToString() << " / " << g.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelLatticeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Information-flow soundness property: if the two paper access rules say a
// flow A→B is forbidden in some category, no sequence of self-relabels by a
// thread without ownership can make it allowed.
class TaintMonotonicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaintMonotonicity, SelfRelabelCannotShedTaint) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Label t = RandomLabel(&rng, false);  // no ownership anywhere
    Label target = RandomLabel(&rng, false);
    // The self_set_label rule allows L with t ⊑ L ⊑ C. Any such L is at
    // least as tainted as t in every category, so if t ⋢ target then L ⋢
    // target (transitivity contrapositive).
    Label raised = t.Join(RandomLabel(&rng, false));  // some legal raise
    ASSERT_TRUE(t.Leq(raised));
    if (!t.Leq(target)) {
      // t exceeds target in some category; any legal raise keeps it above,
      // because raised ⊑ target with t ⊑ raised would imply t ⊑ target.
      EXPECT_FALSE(raised.Leq(target))
          << t.ToString() << " raised to " << raised.ToString() << " vs "
          << target.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaintMonotonicity, ::testing::Values(7, 11, 17, 23));

}  // namespace
}  // namespace histar
