// Container hierarchy, container entries, and deallocation (paper §3.2).
#include <gtest/gtest.h>

#include <vector>

#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

class ContainerTest : public KernelTest {};

TEST_F(ContainerTest, CreateAndListChildren) {
  ObjectId dir = MakeContainer(Label());
  ObjectId seg = MakeSegment(Label(), 10, dir);
  Result<std::vector<ObjectId>> kids = kernel_->sys_container_list(init_, dir);
  ASSERT_TRUE(kids.ok());
  ASSERT_EQ(kids.value().size(), 1u);
  EXPECT_EQ(kids.value()[0], seg);
}

TEST_F(ContainerTest, GetParentWalksUp) {
  ObjectId a = MakeContainer(Label());
  ObjectId b = MakeContainer(Label(), a, 1 << 16);
  Result<ObjectId> p = kernel_->sys_container_get_parent(init_, b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), a);
  Result<ObjectId> p2 = kernel_->sys_container_get_parent(init_, a);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2.value(), kernel_->root_container());
}

TEST_F(ContainerTest, RootFakeParentUnobservable) {
  // "The root container has a fake parent labeled {3}" — get_parent fails.
  Result<ObjectId> p = kernel_->sys_container_get_parent(init_, kernel_->root_container());
  EXPECT_FALSE(p.ok());
}

TEST_F(ContainerTest, RootCannotBeUnreferenced) {
  EXPECT_EQ(kernel_->sys_container_unref(
                init_, ContainerEntry{kernel_->root_container(), kernel_->root_container()}),
            Status::kInvalidArg);
}

TEST_F(ContainerTest, UnrefDestroysObject) {
  ObjectId seg = MakeSegment(Label(), 10);
  ASSERT_TRUE(kernel_->ObjectExists(seg));
  ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(seg)), Status::kOk);
  EXPECT_FALSE(kernel_->ObjectExists(seg));
}

TEST_F(ContainerTest, UnrefRecursesIntoSubtree) {
  ObjectId a = MakeContainer(Label());
  ObjectId b = MakeContainer(Label(), a, 1 << 16);
  ObjectId seg = MakeSegment(Label(), 10, b);
  ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(a)), Status::kOk);
  EXPECT_FALSE(kernel_->ObjectExists(a));
  EXPECT_FALSE(kernel_->ObjectExists(b));
  EXPECT_FALSE(kernel_->ObjectExists(seg));
}

TEST_F(ContainerTest, UnrefReclaimsWideSubtree) {
  // A two-level tree: every child container and its segment go with the
  // top, and the table ends exactly where it started — nothing lost,
  // nothing leaked.
  size_t before = kernel_->ObjectCount();
  ObjectId top = MakeContainer(Label(Level::k1), kInvalidObject, 64 << 20);
  std::vector<ObjectId> all;
  for (int i = 0; i < 32; ++i) {
    ObjectId c = MakeContainer(Label(Level::k1), top, 32 * kPageSize);
    all.push_back(c);
    all.push_back(MakeSegment(Label(Level::k1), 128, c));
  }
  ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(top)), Status::kOk);
  EXPECT_FALSE(kernel_->ObjectExists(top));
  for (ObjectId id : all) {
    EXPECT_FALSE(kernel_->ObjectExists(id)) << id;
  }
  EXPECT_EQ(kernel_->ObjectCount(), before);
}

TEST_F(ContainerTest, EntryRequiresActualLink) {
  ObjectId dir = MakeContainer(Label());
  ObjectId seg = MakeSegment(Label(), 10);  // lives in root, not dir
  char buf;
  EXPECT_EQ(kernel_->sys_segment_read(init_, ContainerEntry{dir, seg}, &buf, 0, 1),
            Status::kNotFound);
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &buf, 0, 1), Status::kOk);
}

TEST_F(ContainerTest, EntryRequiresReadableContainer) {
  // A segment with open label inside an unreadable container is unreachable
  // via that container: container entries prevent probing.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label secret(Level::k1, {{c.value(), Level::k3}});
  ObjectId dir = MakeContainer(secret);
  ObjectId seg = MakeSegment(Label(), 10, dir);
  ObjectId other = MakeThread(Label(), Label(Level::k2));
  char buf;
  EXPECT_EQ(kernel_->sys_segment_read(other, ContainerEntry{dir, seg}, &buf, 0, 1),
            Status::kLabelCheckFailed);
  // Even the existence query is blocked.
  EXPECT_FALSE(kernel_->sys_container_list(other, dir).ok());
}

TEST_F(ContainerTest, SelfEntryAllowsAccessWithoutParentRead) {
  // ⟨D,D⟩: a thread that can read D can use D even if D's parent is
  // unreadable (§3.2).
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label secret(Level::k1, {{c.value(), Level::k3}});
  ObjectId outer = MakeContainer(secret);
  ObjectId inner = MakeContainer(Label(), outer, 1 << 16);
  ObjectId other = MakeThread(Label(), Label(Level::k2));
  // Other cannot list outer...
  EXPECT_FALSE(kernel_->sys_container_list(other, outer).ok());
  // ...but can use inner via its self-entry.
  Result<std::vector<ObjectId>> kids = kernel_->sys_container_list(other, inner);
  EXPECT_TRUE(kids.ok()) << StatusName(kids.status());
}

TEST_F(ContainerTest, AvoidTypesBlocksCreationAndInherits) {
  ObjectId no_threads = MakeContainer(Label(), kInvalidObject, 1 << 20,
                                      TypeBit(ObjectType::kThread));
  CreateSpec spec;
  spec.container = no_threads;
  spec.quota = 64 * kPageSize;
  Result<ObjectId> t =
      kernel_->sys_thread_create(init_, spec, Label(), Label(Level::k2));
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status(), Status::kNoPerm);
  // Segments are still fine.
  EXPECT_NE(MakeSegment(Label(), 10, no_threads), kInvalidObject);
  // The restriction is inherited by descendants.
  ObjectId child = MakeContainer(Label(), no_threads, 1 << 18);
  spec.container = child;
  Result<ObjectId> t2 =
      kernel_->sys_thread_create(init_, spec, Label(), Label(Level::k2));
  EXPECT_FALSE(t2.ok());
  EXPECT_EQ(t2.status(), Status::kNoPerm);
}

TEST_F(ContainerTest, HardLinkRequiresFixedQuota) {
  ObjectId dir = MakeContainer(Label());
  ObjectId seg = MakeSegment(Label(), 10);
  EXPECT_EQ(kernel_->sys_container_link(init_, dir, RootEntry(seg)), Status::kNoPerm);
  ASSERT_EQ(kernel_->sys_obj_set_fixed_quota(init_, RootEntry(seg)), Status::kOk);
  EXPECT_EQ(kernel_->sys_container_link(init_, dir, RootEntry(seg)), Status::kOk);
  // Linked twice: object survives removal of one link.
  ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(seg)), Status::kOk);
  EXPECT_TRUE(kernel_->ObjectExists(seg));
  char buf;
  EXPECT_EQ(kernel_->sys_segment_read(init_, ContainerEntry{dir, seg}, &buf, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_container_unref(init_, ContainerEntry{dir, seg}), Status::kOk);
  EXPECT_FALSE(kernel_->ObjectExists(seg));
}

TEST_F(ContainerTest, FixedQuotaForbidsQuotaMove) {
  ObjectId seg = MakeSegment(Label(), 10);
  ASSERT_EQ(kernel_->sys_obj_set_fixed_quota(init_, RootEntry(seg)), Status::kOk);
  EXPECT_EQ(kernel_->sys_quota_move(init_, kernel_->root_container(), seg, 4096),
            Status::kImmutable);
}

TEST_F(ContainerTest, HardLinkCannotExceedClearance) {
  // T can prolong S's life only if L_S ⊑ C_T (§3.2).
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label secret(Level::k1, {{c.value(), Level::k3}});
  ObjectId seg = MakeSegment(secret, 10);
  ASSERT_EQ(kernel_->sys_obj_set_fixed_quota(init_, RootEntry(seg)), Status::kOk);
  ObjectId dir = MakeContainer(Label());
  ObjectId other = MakeThread(Label(), Label(Level::k2));  // clearance {2} < c3
  EXPECT_EQ(kernel_->sys_container_link(other, dir, RootEntry(seg)),
            Status::kLabelCheckFailed);
}

TEST_F(ContainerTest, DoubleChargeOnMultipleLinks) {
  ObjectId dir1 = MakeContainer(Label(), kInvalidObject, 100 * kPageSize);
  ObjectId dir2 = MakeContainer(Label(), kInvalidObject, 100 * kPageSize);
  CreateSpec spec;
  spec.container = dir1;
  spec.quota = 10 * kPageSize;
  spec.descrip = "shared";
  Result<ObjectId> seg = kernel_->sys_segment_create(init_, spec, 100);
  ASSERT_TRUE(seg.ok());
  ASSERT_EQ(kernel_->sys_obj_set_fixed_quota(init_, ContainerEntry{dir1, seg.value()}),
            Status::kOk);
  Result<uint64_t> before = kernel_->sys_obj_get_quota(init_, RootEntry(dir2));
  ASSERT_EQ(kernel_->sys_container_link(init_, dir2, ContainerEntry{dir1, seg.value()}),
            Status::kOk);
  // dir2 is now charged the segment's entire quota too. Verify indirectly:
  // fill dir2 to the brim and observe reduced headroom.
  CreateSpec fill;
  fill.container = dir2;
  fill.quota = 91 * kPageSize;  // would fit without the double charge
  Result<ObjectId> over = kernel_->sys_segment_create(init_, fill, 10);
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.status(), Status::kQuotaExceeded);
  (void)before;
}

TEST_F(ContainerTest, PreauthorizedDeallocationRequiresOwnership) {
  // §3.2: creating D inside D' with L_D(c) < L_D'(c) requires owning c,
  // because deleting D would otherwise leak from writers-of-D' to users-of-D.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label high(Level::k1, {{c.value(), Level::k3}});
  ObjectId outer = MakeContainer(high);

  // A thread tainted c3 (not owner) cannot create a less-tainted container
  // inside outer: L ⊑ C_T holds but L_T ⊑ L fails (3 > 1).
  Label tl(Level::k1, {{c.value(), Level::k3}});
  Label tc(Level::k2, {{c.value(), Level::k3}});
  ObjectId worker = MakeThread(tl, tc);
  CreateSpec spec;
  spec.container = outer;
  spec.label = Label();  // default-1 in c: less tainted than outer
  spec.quota = 4 * kPageSize;
  Result<ObjectId> bad = kernel_->sys_container_create(worker, spec, 0);
  EXPECT_FALSE(bad.ok());
  // The owner (init, holding c⋆) may do exactly this.
  Result<ObjectId> good = kernel_->sys_container_create(init_, spec, 0);
  EXPECT_TRUE(good.ok()) << StatusName(good.status());
}

}  // namespace
}  // namespace histar
