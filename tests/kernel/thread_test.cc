// Thread label/clearance rules, category allocation, alerts (paper §3.1).
#include <gtest/gtest.h>

#include <thread>

#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

class ThreadTest : public KernelTest {};

TEST_F(ThreadTest, CatCreateGrantsOwnership) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Result<Label> l = kernel_->sys_self_get_label(init_);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.value().get(c.value()), Level::kStar);
  Result<Label> cl = kernel_->sys_self_get_clearance(init_);
  ASSERT_TRUE(cl.ok());
  EXPECT_EQ(cl.value().get(c.value()), Level::k3);
}

TEST_F(ThreadTest, CategoriesAreFresh) {
  Result<CategoryId> c1 = kernel_->sys_cat_create(init_);
  Result<CategoryId> c2 = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(c1.value(), c2.value());
}

TEST_F(ThreadTest, SelfSetLabelCanOnlyRaise) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  ObjectId t = MakeThread(Label(), Label(Level::k2));
  // Raising to c2 (within clearance {2}) is fine.
  Label raised(Level::k1, {{c.value(), Level::k2}});
  EXPECT_EQ(kernel_->sys_self_set_label(t, raised), Status::kOk);
  // Coming back down is not: {1} is below the current label.
  EXPECT_EQ(kernel_->sys_self_set_label(t, Label()), Status::kLabelCheckFailed);
}

TEST_F(ThreadTest, SelfSetLabelBoundedByClearance) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  ObjectId t = MakeThread(Label(), Label(Level::k2));  // clearance {2}
  // c3 exceeds clearance 2 in category c.
  Label too_high(Level::k1, {{c.value(), Level::k3}});
  EXPECT_EQ(kernel_->sys_self_set_label(t, too_high), Status::kLabelCheckFailed);
  // This is exactly why the update daemon cannot read {br3,...} files (§3).
}

TEST_F(ThreadTest, SelfSetLabelCannotMintOwnership) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  ObjectId t = MakeThread(Label(), Label(Level::k2));
  Label wish(Level::k1, {{c.value(), Level::kStar}});
  // ⋆ < current level 1, so L_T ⊑ wish fails.
  EXPECT_EQ(kernel_->sys_self_set_label(t, wish), Status::kLabelCheckFailed);
}

TEST_F(ThreadTest, ClearanceCanLowerNotRaiseUnowned) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  ObjectId t = MakeThread(Label(), Label(Level::k2));
  // Lowering clearance in c is allowed.
  Label lower(Level::k2, {{c.value(), Level::k1}});
  EXPECT_EQ(kernel_->sys_self_set_clearance(t, lower), Status::kOk);
  // Raising it in an unowned category is not.
  Label higher(Level::k2, {{c.value(), Level::k3}});
  EXPECT_EQ(kernel_->sys_self_set_clearance(t, higher), Status::kLabelCheckFailed);
}

TEST_F(ThreadTest, OwnerCanRaiseOwnClearance) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  // init owns c, so C ⊑ C_T ⊔ L_T^J admits c→3 even beyond old clearance;
  // first drop clearance in c to 2, then raise back to 3.
  Label drop(Level::k2, {{c.value(), Level::k2}});
  ASSERT_EQ(kernel_->sys_self_set_clearance(init_, drop), Status::kOk);
  Label raise(Level::k2, {{c.value(), Level::k3}});
  EXPECT_EQ(kernel_->sys_self_set_clearance(init_, raise), Status::kOk);
}

TEST_F(ThreadTest, ClearanceCannotDropBelowLabel) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label tl(Level::k1, {{c.value(), Level::k2}});
  Label tc(Level::k2, {{c.value(), Level::k2}});
  ObjectId t = MakeThread(tl, tc);
  Label bad(Level::k2, {{c.value(), Level::k1}});  // below label's c2
  EXPECT_EQ(kernel_->sys_self_set_clearance(t, bad), Status::kLabelCheckFailed);
}

TEST_F(ThreadTest, SpawnRuleEnforced) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  ObjectId t = MakeThread(Label(), Label(Level::k2));  // plain thread
  CreateSpec spec;
  spec.container = kernel_->root_container();
  spec.quota = 64 * kPageSize;
  // A plain thread cannot spawn a child owning c.
  Label own(Level::k1, {{c.value(), Level::kStar}});
  Result<ObjectId> bad = kernel_->sys_thread_create(t, spec, own, Label(Level::k2));
  EXPECT_FALSE(bad.ok());
  // Nor a child whose clearance exceeds its own.
  Label high_cl(Level::k2, {{c.value(), Level::k3}});
  Result<ObjectId> bad2 = kernel_->sys_thread_create(t, spec, Label(), high_cl);
  EXPECT_FALSE(bad2.ok());
  // The owner can do both.
  Result<ObjectId> good = kernel_->sys_thread_create(init_, spec, own, high_cl);
  EXPECT_TRUE(good.ok()) << StatusName(good.status());
}

TEST_F(ThreadTest, ThreadLabelUnreadableByLessPrivileged) {
  // §3.2: T reads T''s label only if L_T'^J ⊑ L_T^J. A thread owning a
  // category init doesn't know about is unreadable to a plain thread.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label own(Level::k1, {{c.value(), Level::kStar}});
  Label cl(Level::k2, {{c.value(), Level::k3}});
  ObjectId privileged = MakeThread(own, cl);
  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  Result<Label> l = kernel_->sys_obj_get_label(plain, RootEntry(privileged));
  EXPECT_FALSE(l.ok());
  // init (who owns c too) can read it.
  Result<Label> l2 = kernel_->sys_obj_get_label(init_, RootEntry(privileged));
  EXPECT_TRUE(l2.ok()) << StatusName(l2.status());
}

TEST_F(ThreadTest, LocalSegmentReadWrite) {
  uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(kernel_->sys_self_local_write(init_, data, 100, 8), Status::kOk);
  uint8_t out[8] = {};
  ASSERT_EQ(kernel_->sys_self_local_read(init_, out, 100, 8), Status::kOk);
  EXPECT_EQ(memcmp(data, out, 8), 0);
  EXPECT_EQ(kernel_->sys_self_local_read(init_, out, kPageSize - 4, 8), Status::kRange);
}

TEST_F(ThreadTest, HaltedThreadRejectsSyscalls) {
  ObjectId t = MakeThread(Label(), Label(Level::k2));
  ASSERT_EQ(kernel_->sys_self_halt(t), Status::kOk);
  EXPECT_EQ(kernel_->sys_self_get_label(t).status(), Status::kHalted);
}

TEST_F(ThreadTest, SyscallCounting) {
  uint64_t before = kernel_->syscall_count();
  kernel_->sys_self_get_label(init_);
  kernel_->sys_self_get_label(init_);
  kernel_->sys_self_get_clearance(init_);
  EXPECT_EQ(kernel_->syscall_count(), before + 3);
  // Charge a second kernel thread from this host thread and from another,
  // so its calls sit in two count slots: the total keeps them after the
  // thread is destroyed.
  ObjectId t = MakeThread(Label(), Label(Level::k2));
  before = kernel_->syscall_count();
  kernel_->sys_self_get_label(t);
  std::thread([&] { kernel_->sys_self_get_label(t); }).join();
  EXPECT_EQ(kernel_->syscall_count(), before + 2);
  ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(t)), Status::kOk);
  EXPECT_EQ(kernel_->syscall_count(), before + 3);
}

class AlertTest : public KernelTest {
 protected:
  // Builds a minimal process-like pair: an address space owned by `owner_label`
  // and a thread using it.
  ObjectId MakeThreadWithAs(const Label& thread_label, const Label& clearance,
                            const Label& as_label) {
    CreateSpec as_spec;
    as_spec.container = kernel_->root_container();
    as_spec.label = as_label;
    as_spec.descrip = "as";
    Result<ObjectId> as = kernel_->sys_as_create(init_, as_spec);
    EXPECT_TRUE(as.ok()) << StatusName(as.status());
    ObjectId t = MakeThread(thread_label, clearance);
    EXPECT_EQ(kernel_->sys_self_set_as(t, RootEntry(as.value())), Status::kOk);
    return t;
  }
};

TEST_F(AlertTest, AlertDeliveredWhenWriterOfAddressSpace) {
  ObjectId t = MakeThreadWithAs(Label(), Label(Level::k2), Label());
  ASSERT_EQ(kernel_->sys_thread_alert(init_, RootEntry(t), 42), Status::kOk);
  Result<uint64_t> code = kernel_->sys_self_next_alert(t);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value(), 42u);
  EXPECT_EQ(kernel_->sys_self_next_alert(t).status(), Status::kNotFound);
}

TEST_F(AlertTest, AlertBlockedWithoutAsWriteAccess) {
  // The AS is protected by a category init does not own after we spawn a
  // fresh owner: emulate by labeling the AS with integrity bit c0.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label as_protect(Level::k1, {{c.value(), Level::k0}});
  ObjectId t = MakeThreadWithAs(Label(), Label(Level::k2), as_protect);
  ObjectId stranger = MakeThread(Label(), Label(Level::k2));
  EXPECT_EQ(kernel_->sys_thread_alert(stranger, RootEntry(t), 9),
            Status::kLabelCheckFailed);
  // init owns c so init can signal.
  EXPECT_EQ(kernel_->sys_thread_alert(init_, RootEntry(t), 9), Status::kOk);
}

TEST_F(AlertTest, AlertInterruptsFutexWait) {
  ObjectId seg = MakeSegment(Label(), 16);
  ObjectId t = MakeThreadWithAs(Label(), Label(Level::k2), Label());
  std::thread waiter([&]() {
    // Futex word is zero; wait forever until alerted.
    Status st = kernel_->sys_futex_wait(t, RootEntry(seg), 0, 0, 0);
    EXPECT_EQ(st, Status::kAgain);  // interrupted
  });
  // Give the waiter a moment to block, then alert.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(kernel_->sys_thread_alert(init_, RootEntry(t), 1), Status::kOk);
  waiter.join();
}

}  // namespace
}  // namespace histar
