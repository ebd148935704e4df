// The quota hierarchy (paper §3.3): usage accounting, quota_move rules, and
// the information-flow constraint on shrinking.
#include <gtest/gtest.h>

#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

class QuotaTest : public KernelTest {};

TEST_F(QuotaTest, CreationChargesParent) {
  ObjectId dir = MakeContainer(Label(), kInvalidObject, 20 * kPageSize);
  CreateSpec spec;
  spec.container = dir;
  spec.quota = 8 * kPageSize;
  Result<ObjectId> a = kernel_->sys_segment_create(init_, spec, 10);
  ASSERT_TRUE(a.ok());
  Result<ObjectId> b = kernel_->sys_segment_create(init_, spec, 10);
  ASSERT_TRUE(b.ok());
  // Third one exceeds 20 pages.
  Result<ObjectId> c = kernel_->sys_segment_create(init_, spec, 10);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status(), Status::kQuotaExceeded);
}

TEST_F(QuotaTest, UnrefReleasesCharge) {
  ObjectId dir = MakeContainer(Label(), kInvalidObject, 20 * kPageSize);
  CreateSpec spec;
  spec.container = dir;
  spec.quota = 16 * kPageSize;
  Result<ObjectId> a = kernel_->sys_segment_create(init_, spec, 10);
  ASSERT_TRUE(a.ok());
  Result<ObjectId> b = kernel_->sys_segment_create(init_, spec, 10);
  EXPECT_FALSE(b.ok());
  ASSERT_EQ(kernel_->sys_container_unref(init_, ContainerEntry{dir, a.value()}), Status::kOk);
  Result<ObjectId> c = kernel_->sys_segment_create(init_, spec, 10);
  EXPECT_TRUE(c.ok()) << StatusName(c.status());
}

TEST_F(QuotaTest, QuotaMoveGrowsObject) {
  ObjectId dir = MakeContainer(Label(), kInvalidObject, 100 * kPageSize);
  CreateSpec spec;
  spec.container = dir;
  spec.quota = kObjectOverheadBytes + 100;
  Result<ObjectId> seg = kernel_->sys_segment_create(init_, spec, 100);
  ASSERT_TRUE(seg.ok());
  ContainerEntry ce{dir, seg.value()};
  EXPECT_EQ(kernel_->sys_segment_resize(init_, ce, 200), Status::kQuotaExceeded);
  ASSERT_EQ(kernel_->sys_quota_move(init_, dir, seg.value(), 4096), Status::kOk);
  EXPECT_EQ(kernel_->sys_segment_resize(init_, ce, 200), Status::kOk);
}

TEST_F(QuotaTest, QuotaMoveShrinkRequiresSpareBytes) {
  ObjectId dir = MakeContainer(Label(), kInvalidObject, 100 * kPageSize);
  CreateSpec spec;
  spec.container = dir;
  spec.quota = kObjectOverheadBytes + 4096;
  Result<ObjectId> seg = kernel_->sys_segment_create(init_, spec, 4096);
  ASSERT_TRUE(seg.ok());
  // No spare: shrink fails.
  EXPECT_EQ(kernel_->sys_quota_move(init_, dir, seg.value(), -100), Status::kQuotaExceeded);
  // Shrink the segment contents first, then quota can come back.
  ASSERT_EQ(kernel_->sys_segment_resize(init_, ContainerEntry{dir, seg.value()}, 0),
            Status::kOk);
  EXPECT_EQ(kernel_->sys_quota_move(init_, dir, seg.value(), -4096), Status::kOk);
}

TEST_F(QuotaTest, QuotaMoveRoundTripStaysBalanced) {
  ObjectId d = MakeContainer(Label(Level::k1), kInvalidObject, 1 << 20);
  ObjectId o = MakeContainer(Label(Level::k1), d, 32 * kPageSize);

  auto quota_of = [&](ObjectId dd, ObjectId oo) {
    Result<uint64_t> q = kernel_->sys_obj_get_quota(init_, ContainerEntry{dd, oo});
    EXPECT_TRUE(q.ok()) << StatusName(q.status());
    return q.ok() ? q.value() : 0;
  };
  uint64_t o_before = quota_of(d, o);
  uint64_t d_before = quota_of(kernel_->root_container(), d);

  // Grow O from D's pool...
  ASSERT_EQ(kernel_->sys_quota_move(init_, d, o, 4 * kPageSize), Status::kOk);
  EXPECT_EQ(quota_of(d, o), o_before + 4 * kPageSize);
  // ...then shrink it back. D's own quota never changes (only its usage),
  // and O ends exactly where it started: nothing leaked.
  ASSERT_EQ(kernel_->sys_quota_move(init_, d, o, -static_cast<int64_t>(4 * kPageSize)),
            Status::kOk);
  EXPECT_EQ(quota_of(d, o), o_before);
  EXPECT_EQ(quota_of(kernel_->root_container(), d), d_before);

  // The freed headroom is genuinely reusable: a segment still fits in D
  // after the round trip.
  ObjectId s = MakeSegment(Label(Level::k1), 256, d);
  EXPECT_TRUE(kernel_->ObjectExists(s));
}

TEST_F(QuotaTest, ShrinkRequiresObservePermission) {
  // §3.3: n < 0 requires L_O ⊑ L_T^J because the error path reveals O's
  // spare space. Build an object the mover cannot observe.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label secret(Level::k1, {{c.value(), Level::k3}});
  ObjectId dir = MakeContainer(Label(), kInvalidObject, 100 * kPageSize);
  CreateSpec spec;
  spec.container = dir;
  spec.label = secret;
  spec.quota = 8 * kPageSize;
  Result<ObjectId> seg = kernel_->sys_segment_create(init_, spec, 16);
  ASSERT_TRUE(seg.ok()) << StatusName(seg.status());

  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  // Growing doesn't observe O — but it does require L_T ⊑ L_O ⊑ C_T; the
  // plain thread has clearance {2} < c3, so even growth is out of reach.
  EXPECT_EQ(kernel_->sys_quota_move(plain, dir, seg.value(), 4096),
            Status::kLabelCheckFailed);
  // A thread with clearance covering c3 but no ownership can grow...
  Label cl(Level::k2, {{c.value(), Level::k3}});
  ObjectId cleared = MakeThread(Label(), cl);
  EXPECT_EQ(kernel_->sys_quota_move(cleared, dir, seg.value(), 4096), Status::kOk);
  // ...but not shrink (cannot observe).
  EXPECT_EQ(kernel_->sys_quota_move(cleared, dir, seg.value(), -4096),
            Status::kLabelCheckFailed);
  // The owner can shrink.
  EXPECT_EQ(kernel_->sys_quota_move(init_, dir, seg.value(), -4096), Status::kOk);
}

TEST_F(QuotaTest, QuotaMoveRequiresLinkInContainer) {
  ObjectId dir = MakeContainer(Label(), kInvalidObject, 100 * kPageSize);
  ObjectId seg = MakeSegment(Label(), 10);  // linked in root, not dir
  EXPECT_EQ(kernel_->sys_quota_move(init_, dir, seg, 4096), Status::kNotFound);
}

TEST_F(QuotaTest, InfiniteQuotaOnlyInsideInfiniteParent) {
  ObjectId dir = MakeContainer(Label(), kInvalidObject, 100 * kPageSize);
  CreateSpec spec;
  spec.container = dir;
  spec.quota = kQuotaInfinite;
  Result<ObjectId> bad = kernel_->sys_container_create(init_, spec, 0);
  EXPECT_FALSE(bad.ok());
  spec.container = kernel_->root_container();
  Result<ObjectId> good = kernel_->sys_container_create(init_, spec, 0);
  EXPECT_TRUE(good.ok()) << StatusName(good.status());
}

TEST_F(QuotaTest, ObjGetQuotaRequiresObserve) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label secret(Level::k1, {{c.value(), Level::k3}});
  ObjectId seg = MakeSegment(secret, 10);
  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  EXPECT_FALSE(kernel_->sys_obj_get_quota(plain, RootEntry(seg)).ok());
  EXPECT_TRUE(kernel_->sys_obj_get_quota(init_, RootEntry(seg)).ok());
}

TEST_F(QuotaTest, NestedContainersAccumulateCharges) {
  ObjectId outer = MakeContainer(Label(), kInvalidObject, 64 * kPageSize);
  // Inner container takes 32 pages of outer's quota.
  ObjectId inner = MakeContainer(Label(), outer, 32 * kPageSize);
  // Outer now has < 32 pages free: another 32-page container fails.
  CreateSpec spec;
  spec.container = outer;
  spec.quota = 32 * kPageSize;
  Result<ObjectId> bad = kernel_->sys_container_create(init_, spec, 0);
  EXPECT_FALSE(bad.ok());
  // Inner can host objects up to its own quota.
  ObjectId seg = MakeSegment(Label(), 100, inner);
  EXPECT_NE(seg, kInvalidObject);
}

}  // namespace
}  // namespace histar
