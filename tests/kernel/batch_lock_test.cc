// Lock-accounting tests for the batched syscall ABI (PR 3) and the one
// table lock: a batch group performs AT MOST ONE TableLock acquisition,
// where the per-call path pays one per syscall, and no syscall takes more
// than one — not a create (its id is allocated under the lock it already
// holds), not a recursive destroy, not an access or alert whose objects
// are only known once the thread is read. The counter behind these
// assertions lives in ObjectTable (set_lock_accounting /
// lock_acquisitions) and is off outside tests, so the fast path carries no
// shared atomic.
#include <gtest/gtest.h>

#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

class LockCountTest : public KernelTest {
 protected:
  // Lock acquisitions performed by `fn` alone.
  template <typename Fn>
  uint64_t Acquisitions(Fn&& fn) {
    const ObjectTable& table = kernel_->object_table();
    table.set_lock_accounting(true);
    uint64_t before = table.lock_acquisitions();
    fn();
    uint64_t after = table.lock_acquisitions();
    table.set_lock_accounting(false);
    return after - before;
  }
};

class BatchLockTest : public LockCountTest {};

TEST_F(BatchLockTest, ReadBatchTakesExactlyOneLock) {
  ObjectId seg = MakeSegment(Label(), 256);
  ContainerEntry ce = RootEntry(seg);
  char buf[8] = {};
  constexpr size_t kN = 16;
  SyscallReq reqs[kN];
  SyscallRes res[kN];
  for (size_t i = 0; i < kN; ++i) {
    reqs[i] = SegmentReadReq{ce, buf, 8 * i, 8};
  }
  // Every entry is a batchable read, so the whole batch is one group:
  // exactly one TableLock acquisition — the acceptance criterion of the
  // batch ABI.
  uint64_t n = Acquisitions([&] {
    ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  });
  EXPECT_EQ(n, 1u);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(CompletionOf<SegmentReadReq>(res[i]), Status::kOk);
  }
}

TEST_F(BatchLockTest, PerCallPathPaysOneLockPerSyscall) {
  ObjectId seg = MakeSegment(Label(), 256);
  ContainerEntry ce = RootEntry(seg);
  char buf[8] = {};
  constexpr uint64_t kN = 16;
  uint64_t n = Acquisitions([&] {
    for (uint64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(kernel_->sys_segment_read(init_, ce, buf, 8 * i, 8), Status::kOk);
    }
  });
  // One acquisition per legacy call (each is a one-element batch): the
  // 16x spread against the batched case above is the whole point.
  EXPECT_EQ(n, kN);
}

TEST_F(BatchLockTest, MixedReadWriteBatchStillOneLock) {
  ObjectId seg = MakeSegment(Label(), 256);
  ContainerEntry ce = RootEntry(seg);
  char buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  SyscallReq reqs[4] = {SyscallReq{SegmentWriteReq{ce, buf, 0, 8}},
                        SyscallReq{SegmentReadReq{ce, buf, 0, 8}},
                        SyscallReq{SegmentWriteReq{ce, buf, 8, 8}},
                        SyscallReq{SegmentGetLenReq{ce}}};
  SyscallRes res[4];
  // Any mutating member escalates the single group lock to exclusive; it is
  // still one acquisition.
  uint64_t n = Acquisitions([&] {
    ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  });
  EXPECT_EQ(n, 1u);
}

TEST_F(BatchLockTest, CreateBatchTakesExactlyOneLock) {
  CreateSpec spec;
  spec.container = kernel_->root_container();
  spec.label = Label();
  spec.descrip = "b";
  spec.quota = kObjectOverheadBytes + 64 + kPageSize;
  constexpr size_t kN = 4;
  SyscallReq reqs[kN];
  SyscallRes res[kN];
  for (size_t i = 0; i < kN; ++i) {
    reqs[i] = SegmentCreateReq{spec, 64};
  }
  // Each create allocates its object id under the group lock it already
  // holds (the collision probe is a ContainsLocked), so the whole batch
  // is ONE acquisition.
  uint64_t n = Acquisitions([&] {
    ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  });
  EXPECT_EQ(n, 1u);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(CompletionOf<SegmentCreateReq>(res[i]).status(), Status::kOk);
  }
}

// ---- lock-free read path (PR 6) ---------------------------------------------
//
// The epoch-protected published index drops the warm read path's lock count
// from one to ZERO: a batch (or one-element legacy call) of pure reads
// resolves ⟨D,O⟩ entries and observes labels/quota/len/links with no
// TableLock at all. These pins are the PR 6 acceptance criteria.

TEST_F(BatchLockTest, LockFreeReadBatchTakesZeroLocks) {
  ObjectId seg = MakeSegment(Label(), 256);
  ContainerEntry ce = RootEntry(seg);
  SyscallReq reqs[4] = {SyscallReq{ObjGetTypeReq{ce}},
                        SyscallReq{ObjGetQuotaReq{ce}},
                        SyscallReq{SegmentGetLenReq{ce}},
                        SyscallReq{ContainerHasReq{kernel_->root_container(), seg}}};
  SyscallRes res[4];
  uint64_t n = Acquisitions([&] {
    ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(CompletionOf<ObjGetTypeReq>(res[0]).value(), ObjectType::kSegment);
  EXPECT_EQ(CompletionOf<SegmentGetLenReq>(res[2]).value(), 256u);
  EXPECT_TRUE(CompletionOf<ContainerHasReq>(res[3]).value());
}

TEST_F(BatchLockTest, PerCallLockFreeReadsTakeZeroLocks) {
  ObjectId seg = MakeSegment(Label(), 256);
  ContainerEntry ce = RootEntry(seg);
  // Legacy one-element calls route through the same SubmitBatch grouping,
  // so each pure read is its own lock-free group: zero acquisitions.
  uint64_t n = Acquisitions([&] {
    Result<uint64_t> len = kernel_->sys_segment_get_len(init_, ce);
    ASSERT_TRUE(len.ok());
    ASSERT_EQ(len.value(), 256u);
    Result<ObjectType> ty = kernel_->sys_obj_get_type(init_, ce);
    ASSERT_TRUE(ty.ok());
    Result<bool> has = kernel_->sys_container_has(init_, kernel_->root_container(), seg);
    ASSERT_TRUE(has.ok());
    ASSERT_TRUE(has.value());
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(BatchLockTest, MutatingEntrySplitsOffLockFreeReads) {
  ObjectId seg = MakeSegment(Label(), 256);
  ContainerEntry ce = RootEntry(seg);
  char buf[8] = {};
  SyscallReq reqs[3] = {SyscallReq{SegmentGetLenReq{ce}},
                        SyscallReq{SegmentWriteReq{ce, buf, 0, 8}},
                        SyscallReq{SegmentGetLenReq{ce}}};
  SyscallRes res[3];
  // lockfree(get_len) + locked(write) + lockfree(get_len): only the write
  // group pays a TableLock.
  uint64_t n = Acquisitions([&] {
    ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  });
  EXPECT_EQ(n, 1u);
}

TEST_F(BatchLockTest, WarmRegistryLeqTakesZeroRegistryLocks) {
  LabelRegistry& reg = kernel_->label_registry();
  Label a(Level::k0);
  Label b(Level::k2);
  LabelId ia = reg.Intern(a);
  LabelId ib = reg.Intern(b);
  ASSERT_TRUE(reg.Leq(ia, ib));  // memo-miss: recorded under the shard mutex

  reg.set_lock_accounting(true);
  uint64_t before = reg.lock_acquisitions();
  ASSERT_TRUE(reg.Leq(ia, ib));   // warm hit
  ASSERT_FALSE(reg.Leq(ib, ia));  // also memoized by the first call? no —
                                  // distinct key; prime it...
  uint64_t primed = reg.lock_acquisitions();
  ASSERT_FALSE(reg.Leq(ib, ia));  // ...now warm
  uint64_t after = reg.lock_acquisitions();
  reg.set_lock_accounting(false);
  EXPECT_EQ(before, primed - 1) << "first (ib,ia) probe misses once";
  EXPECT_EQ(primed, after) << "warm Leq must take zero registry locks";
}

// ---- one lock per syscall -------------------------------------------------------

TEST_F(LockCountTest, RecursiveUnrefTakesExactlyOneLock) {
  // A container subtree: the unlink and the recursive destroy of every
  // descendant run under one exclusive acquisition.
  ObjectId top = MakeContainer(Label(), kInvalidObject, 1 << 20);
  ObjectId mid = MakeContainer(Label(), top, 1 << 18);
  ObjectId seg = MakeSegment(Label(), 64, mid);
  uint64_t n = Acquisitions([&] {
    ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(top)), Status::kOk);
  });
  EXPECT_EQ(n, 1u);
  EXPECT_FALSE(kernel_->ObjectExists(top));
  EXPECT_FALSE(kernel_->ObjectExists(mid));
  EXPECT_FALSE(kernel_->ObjectExists(seg));
}

TEST_F(LockCountTest, FutexWakeTakesExactlyOneLock) {
  ObjectId seg = MakeSegment(Label(), 64);
  // The wake validates the segment under its own one lock, then wakes with
  // no table lock held.
  uint64_t n = Acquisitions([&] {
    Result<uint32_t> woken = kernel_->sys_futex_wake(init_, RootEntry(seg), 0, 1);
    ASSERT_TRUE(woken.ok());
  });
  EXPECT_EQ(n, 1u);
}

TEST_F(LockCountTest, ThreadAlertTakesExactlyOneLock) {
  // The §3.4 check reaches through the target's address space, which is
  // known only once the target is read; the one lock covers it anyway.
  CreateSpec aspec;
  aspec.container = kernel_->root_container();
  aspec.label = Label();
  aspec.descrip = "as";
  Result<ObjectId> as = kernel_->sys_as_create(init_, aspec);
  ASSERT_TRUE(as.ok());
  ObjectId target = MakeThread(Label(), Label(Level::k2));
  ASSERT_EQ(kernel_->sys_self_set_as(target, RootEntry(as.value())), Status::kOk);
  uint64_t n = Acquisitions([&] {
    ASSERT_EQ(kernel_->sys_thread_alert(init_, RootEntry(target), 7), Status::kOk);
  });
  EXPECT_EQ(n, 1u);
  Result<uint64_t> code = kernel_->sys_self_next_alert(target);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value(), 7u);
}

// ---- sys_as_access ---------------------------------------------------------------

class AsAccessTest : public LockCountTest {
 protected:
  // Builds an AS mapping va 0x1000 → `seg` and binds it to init.
  void MapSegment(ObjectId seg) {
    CreateSpec aspec;
    aspec.container = kernel_->root_container();
    aspec.label = Label();
    aspec.descrip = "as";
    Result<ObjectId> as = kernel_->sys_as_create(init_, aspec);
    ASSERT_TRUE(as.ok());
    as_ = as.value();
    std::vector<Mapping> maps = {
        Mapping{0x1000, RootEntry(seg), 0, 1, kMapRead | kMapWrite}};
    ASSERT_EQ(kernel_->sys_as_set(init_, RootEntry(as_), maps), Status::kOk);
    ASSERT_EQ(kernel_->sys_self_set_as(init_, RootEntry(as_)), Status::kOk);
  }

  ObjectId as_ = kInvalidObject;
};

TEST_F(AsAccessTest, EveryAccessTakesExactlyOneLock) {
  ObjectId seg = MakeSegment(Label(), kPageSize);
  MapSegment(seg);
  char buf[8] = {};
  // The thread → AS → mapping → segment chain is resolved under one lock,
  // whether or not this thread has accessed the mapping before, for reads
  // and for writes alike.
  for (bool write : {false, true}) {
    for (uint64_t va : {0x1000, 0x1008}) {
      uint64_t n = Acquisitions([&] {
        ASSERT_EQ(kernel_->sys_as_access(init_, va, buf, 8, write), Status::kOk);
      });
      EXPECT_EQ(n, 1u) << (write ? "write" : "read") << " at " << va;
    }
  }
}

TEST_F(AsAccessTest, RemapTakesEffectOnNextAccess) {
  ObjectId seg_a = MakeSegment(Label(), kPageSize);
  ObjectId seg_b = MakeSegment(Label(), kPageSize);
  MapSegment(seg_a);
  char mark = 'A';
  ASSERT_EQ(kernel_->sys_as_access(init_, 0x1000, &mark, 1, true), Status::kOk);

  // Remap the same VA onto segment B.
  std::vector<Mapping> maps = {
      Mapping{0x1000, RootEntry(seg_b), 0, 1, kMapRead | kMapWrite}};
  ASSERT_EQ(kernel_->sys_as_set(init_, RootEntry(as_), maps), Status::kOk);

  char got = 0;
  ASSERT_EQ(kernel_->sys_as_access(init_, 0x1000, &got, 1, false), Status::kOk);
  EXPECT_EQ(got, 0) << "read must hit the fresh segment B, not the old mapping";
  char direct = 0;
  ASSERT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg_a), &direct, 0, 1), Status::kOk);
  EXPECT_EQ(direct, 'A') << "the original write landed in segment A";
}

TEST_F(AsAccessTest, ShrunkSegmentFailsWithRange) {
  ObjectId seg = MakeSegment(Label(), kPageSize);
  MapSegment(seg);
  char buf[8] = {};
  ASSERT_EQ(kernel_->sys_as_access(init_, 0x1000, buf, 8, false), Status::kOk);
  // Shrink the backing segment; the translation is now out of range and
  // the access must fail with kRange.
  ASSERT_EQ(kernel_->sys_segment_resize(init_, RootEntry(seg), 4), Status::kOk);
  EXPECT_EQ(kernel_->sys_as_access(init_, 0x1000, buf, 8, false), Status::kRange);
}

}  // namespace
}  // namespace histar
