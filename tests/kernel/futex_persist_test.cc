// Futexes (the only kernel synchronization primitive, §4.1) and object
// serialization for the single-level store.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

class FutexTest : public KernelTest {};

TEST_F(FutexTest, WaitReturnsAgainOnValueMismatch) {
  ObjectId seg = MakeSegment(Label(), 16);
  uint64_t v = 5;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &v, 0, 8), Status::kOk);
  EXPECT_EQ(kernel_->sys_futex_wait(init_, RootEntry(seg), 0, 4, 10), Status::kAgain);
}

TEST_F(FutexTest, WaitTimesOut) {
  ObjectId seg = MakeSegment(Label(), 16);
  EXPECT_EQ(kernel_->sys_futex_wait(init_, RootEntry(seg), 0, 0, 30), Status::kTimedOut);
}

TEST_F(FutexTest, WakeReleasesWaiter) {
  ObjectId seg = MakeSegment(Label(), 16);
  ObjectId waiter_t = MakeThread(Label(), Label(Level::k2));
  std::atomic<bool> woke{false};
  std::thread waiter([&]() {
    Status st = kernel_->sys_futex_wait(waiter_t, RootEntry(seg), 0, 0, 5000);
    EXPECT_EQ(st, Status::kOk);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load());
  Result<uint32_t> n = kernel_->sys_futex_wake(init_, RootEntry(seg), 0, 1);
  ASSERT_TRUE(n.ok());
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST_F(FutexTest, WakeCountIsBounded) {
  ObjectId seg = MakeSegment(Label(), 16);
  ObjectId t1 = MakeThread(Label(), Label(Level::k2));
  ObjectId t2 = MakeThread(Label(), Label(Level::k2));
  std::atomic<int> woken{0};
  auto wait_fn = [&](ObjectId tid) {
    if (kernel_->sys_futex_wait(tid, RootEntry(seg), 0, 0, 2000) == Status::kOk) {
      ++woken;
    }
  };
  std::thread a(wait_fn, t1);
  std::thread b(wait_fn, t2);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Result<uint32_t> n = kernel_->sys_futex_wake(init_, RootEntry(seg), 0, 1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  a.join();
  b.join();
  EXPECT_EQ(woken.load(), 1);  // the second timed out
}

TEST_F(FutexTest, WaitRequiresObserveWakeRequiresModify) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label secret(Level::k1, {{c.value(), Level::k3}});
  ObjectId hidden = MakeSegment(secret, 16);
  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  EXPECT_EQ(kernel_->sys_futex_wait(plain, RootEntry(hidden), 0, 0, 1),
            Status::kLabelCheckFailed);
  Label protect(Level::k1, {{c.value(), Level::k0}});
  ObjectId readonly = MakeSegment(protect, 16);
  EXPECT_EQ(kernel_->sys_futex_wake(plain, RootEntry(readonly), 0, 1).status(),
            Status::kLabelCheckFailed);
}

// Serialization round trips for every object type.
class PersistTest : public KernelTest {};

TEST_F(PersistTest, SegmentRoundTrip) {
  ObjectId seg = MakeSegment(Label(), 64);
  const char data[] = "persistent bytes";
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), data, 0, sizeof(data)),
            Status::kOk);
  std::vector<uint8_t> blob;
  ASSERT_TRUE(kernel_->SerializeObject(seg, &blob));

  Kernel k2;
  ASSERT_EQ(k2.RestoreObject(blob), Status::kOk);
  ASSERT_TRUE(k2.ObjectExists(seg));
}

TEST_F(PersistTest, FullGraphRestore) {
  // Build a small world, serialize everything, restore into a fresh kernel,
  // and verify both structure and access rules survive.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label secret(Level::k1, {{c.value(), Level::k3}});
  ObjectId dir = MakeContainer(Label());
  ObjectId pub = MakeSegment(Label(), 32, dir);
  ObjectId sec = MakeSegment(secret, 32, dir);
  const char msg[] = "survives reboot";
  ASSERT_EQ(kernel_->sys_segment_write(init_, ContainerEntry{dir, pub}, msg, 0, sizeof(msg)),
            Status::kOk);

  Kernel k2;
  for (ObjectId id : kernel_->LiveObjects()) {
    std::vector<uint8_t> blob;
    ASSERT_TRUE(kernel_->SerializeObject(id, &blob));
    ASSERT_EQ(k2.RestoreObject(blob), Status::kOk);
  }
  k2.FinishRestore(kernel_->root_container());

  // The init thread exists in the restored kernel with its ownership intact.
  CurrentThread bind(init_);
  char buf[sizeof(msg)] = {};
  ASSERT_EQ(k2.sys_segment_read(init_, ContainerEntry{dir, pub}, buf, 0, sizeof(msg)),
            Status::kOk);
  EXPECT_STREQ(buf, msg);
  // Access rules still hold after restore: a fresh plain thread can't read
  // the secret segment.
  ObjectId plain = k2.BootstrapThread(Label(), Label(Level::k2), "plain");
  EXPECT_EQ(k2.sys_segment_read(plain, ContainerEntry{dir, sec}, buf, 0, 1),
            Status::kLabelCheckFailed);
  // But init still can (owns c).
  EXPECT_EQ(k2.sys_segment_read(init_, ContainerEntry{dir, sec}, buf, 0, 1), Status::kOk);
}

TEST_F(PersistTest, RestoreRejectsCorruptBlob) {
  ObjectId seg = MakeSegment(Label(), 64);
  std::vector<uint8_t> blob;
  ASSERT_TRUE(kernel_->SerializeObject(seg, &blob));
  Kernel k2;
  // Truncations at every prefix must fail cleanly, never crash.
  for (size_t cut = 0; cut < blob.size(); cut += 7) {
    std::vector<uint8_t> t(blob.begin(), blob.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_NE(k2.RestoreObject(t), Status::kOk);
  }
  // Type byte out of range.
  std::vector<uint8_t> bad = blob;
  bad[0] = 200;
  EXPECT_EQ(k2.RestoreObject(bad), Status::kCorrupt);
}

// Type value 6 was the async submission ring in older images. It is never
// reused: recovery must reject such an object, not restore it as some other
// type. A segment blob's trailer is long enough to have parsed as a ring's.
TEST_F(PersistTest, RestoreRejectsTheRetiredRingType) {
  ObjectId seg = MakeSegment(Label(), 64);
  std::vector<uint8_t> blob;
  ASSERT_TRUE(kernel_->SerializeObject(seg, &blob));
  ASSERT_EQ(blob[1], static_cast<uint8_t>(ObjectType::kSegment));  // [format][type]...
  blob[1] = 6;
  Kernel k2;
  EXPECT_EQ(k2.RestoreObject(blob), Status::kCorrupt);
  EXPECT_FALSE(k2.ObjectExists(seg));
}

TEST_F(PersistTest, GateRoundTripKeepsEntryName) {
  kernel_->RegisterGateEntry("svc", [](GateCall&) {});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, Label(), Label(Level::k2), "svc", {1, 2});
  ASSERT_TRUE(g.ok());
  std::vector<uint8_t> blob;
  ASSERT_TRUE(kernel_->SerializeObject(g.value(), &blob));
  Kernel k2;
  ASSERT_EQ(k2.RestoreObject(blob), Status::kOk);
  // Invoking in the restored kernel requires re-registering the entry —
  // exactly like code needing to be on disk.
  ObjectId t2 = k2.BootstrapThread(Label(), Label(Level::k2), "t");
  // Fake minimal container linkage for the entry lookup.
  (void)t2;
  EXPECT_TRUE(k2.ObjectExists(g.value()));
}

TEST_F(PersistTest, DirtyTrackingIdentifiesMutatedObjects) {
  ObjectId seg = MakeSegment(Label(), 64);
  kernel_->ClearDirty();
  EXPECT_TRUE(kernel_->DirtyObjects().empty());
  char b = 'x';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
  std::vector<ObjectId> dirty = kernel_->DirtyObjects();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], seg);
}

}  // namespace
}  // namespace histar
