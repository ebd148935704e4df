// The batched syscall ABI (PR 3), tested at the descriptor layer.
//
// Three properties pin the ABI:
//  1. Equivalence: a one-element batch returns exactly what the legacy
//     sys_* wrapper returns — swept across the full §2.2 access matrix, so
//     descriptor dispatch cannot drift from the label semantics the matrix
//     test pins.
//  2. Completion semantics: entries execute in submission order, each
//     completion carries its own Status, and a failing entry does not stop
//     later entries (partial failure is per-entry).
//  3. Entry bookkeeping: a call without a descriptor is charged and traced
//     like a one-element batch, under its own syscall kind.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "src/core/trace.h"
#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

// ---- 1. equivalence: one-element batches vs legacy wrappers -----------------
//
// The same (thread level, object level) sweep as access_matrix_test.cc, but
// asserting that the explicit descriptor path and the legacy wrapper return
// identical statuses for observe (segment read) and modify (segment write).
using MatrixParam = std::tuple<Level, Level>;

class BatchEquivalence : public KernelTest,
                         public ::testing::WithParamInterface<MatrixParam> {};

TEST_P(BatchEquivalence, OneElementBatchMatchesLegacyWrapper) {
  auto [tl, ol] = GetParam();
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());

  Label obj_label(Level::k1, {{c.value(), ol}});
  ObjectId ct = MakeContainer(obj_label);
  ObjectId seg = MakeSegment(obj_label, 64, ct);

  Label thread_label(Level::k1, {{c.value(), tl}});
  Label thread_clear(Level::k2, {{c.value(), Level::k3}});
  ObjectId probe = kernel_->BootstrapThread(thread_label, thread_clear, "probe");
  ContainerEntry ce{ct, seg};

  char buf[8] = {};
  Status legacy_rd = kernel_->sys_segment_read(probe, ce, buf, 0, 8);
  Status legacy_wr = kernel_->sys_segment_write(probe, ce, buf, 0, 8);
  Status legacy_len = kernel_->sys_segment_get_len(probe, ce).status();
  Status legacy_quota = kernel_->sys_obj_get_quota(probe, ce).status();

  SyscallReq reqs[4] = {SyscallReq{SegmentReadReq{ce, buf, 0, 8}},
                        SyscallReq{SegmentWriteReq{ce, buf, 0, 8}},
                        SyscallReq{SegmentGetLenReq{ce}}, SyscallReq{ObjGetQuotaReq{ce}}};
  SyscallRes res[4];
  ASSERT_EQ(kernel_->SubmitBatch(probe, reqs, res), Status::kOk);

  EXPECT_EQ(std::get<SegmentReadRes>(res[0]).status, legacy_rd);
  EXPECT_EQ(std::get<SegmentWriteRes>(res[1]).status, legacy_wr);
  EXPECT_EQ(std::get<SegmentGetLenRes>(res[2]).status, legacy_len);
  EXPECT_EQ(std::get<ObjGetQuotaRes>(res[3]).status, legacy_quota);
  // Completion index i+1 answers request index i — the ABI invariant.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(res[i].index(), reqs[i].index() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLevelPairs, BatchEquivalence,
    ::testing::Combine(::testing::Values(Level::kStar, Level::k0, Level::k1, Level::k2,
                                         Level::k3),
                       ::testing::Values(Level::k0, Level::k1, Level::k2, Level::k3)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      auto name = [](Level l) {
        switch (l) {
          case Level::kStar: return std::string("Star");
          case Level::k0: return std::string("L0");
          case Level::k1: return std::string("L1");
          case Level::k2: return std::string("L2");
          case Level::k3: return std::string("L3");
          default: return std::string("J");
        }
      };
      return "T" + name(std::get<0>(info.param)) + "_O" + name(std::get<1>(info.param));
    });

// ---- 2. completion semantics ------------------------------------------------

class SubmitBatchTest : public KernelTest {};

TEST_F(SubmitBatchTest, EntriesExecuteInSubmissionOrder) {
  ObjectId seg = MakeSegment(Label(), 64);
  ContainerEntry ce = RootEntry(seg);
  char wbuf[8] = {'b', 'a', 't', 'c', 'h', 'e', 'd', '!'};
  char rbuf[8] = {};
  SyscallReq reqs[2] = {SyscallReq{SegmentWriteReq{ce, wbuf, 0, 8}},
                        SyscallReq{SegmentReadReq{ce, rbuf, 0, 8}}};
  SyscallRes res[2];
  ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  EXPECT_EQ(std::get<SegmentWriteRes>(res[0]).status, Status::kOk);
  EXPECT_EQ(std::get<SegmentReadRes>(res[1]).status, Status::kOk);
  // The read, later in the batch, observes the earlier write.
  EXPECT_EQ(memcmp(rbuf, wbuf, 8), 0);
}

TEST_F(SubmitBatchTest, PartialFailureLaterEntriesStillExecute) {
  ObjectId seg = MakeSegment(Label(), 64);
  ContainerEntry ce = RootEntry(seg);
  char buf[8] = {};
  SyscallReq reqs[3] = {
      SyscallReq{SegmentWriteReq{ce, buf, 0, 8}},
      SyscallReq{SegmentReadReq{ce, buf, 1 << 20, 8}},  // out of range: fails
      SyscallReq{SegmentReadReq{ce, buf, 0, 8}}};
  SyscallRes res[3];
  ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  EXPECT_EQ(std::get<SegmentWriteRes>(res[0]).status, Status::kOk);
  EXPECT_EQ(std::get<SegmentReadRes>(res[1]).status, Status::kRange);
  // The failing middle entry did not stop the tail.
  EXPECT_EQ(std::get<SegmentReadRes>(res[2]).status, Status::kOk);
}

TEST_F(SubmitBatchTest, CreatesInOneBatchYieldDistinctObjects) {
  CreateSpec spec;
  spec.container = kernel_->root_container();
  spec.label = Label();
  spec.descrip = "batch-seg";
  spec.quota = kObjectOverheadBytes + 64 + kPageSize;
  SyscallReq reqs[2] = {SyscallReq{SegmentCreateReq{spec, 64}},
                        SyscallReq{SegmentCreateReq{spec, 64}}};
  SyscallRes res[2];
  ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  const auto& a = std::get<SegmentCreateRes>(res[0]);
  const auto& b = std::get<SegmentCreateRes>(res[1]);
  ASSERT_EQ(a.status, Status::kOk);
  ASSERT_EQ(b.status, Status::kOk);
  EXPECT_NE(a.id, b.id);
  EXPECT_TRUE(kernel_->ObjectExists(a.id));
  EXPECT_TRUE(kernel_->ObjectExists(b.id));
}

TEST_F(SubmitBatchTest, UndersizedCompletionSpanIsRejected) {
  char buf[8] = {};
  ObjectId seg = MakeSegment(Label(), 64);
  SyscallReq reqs[2] = {SyscallReq{SegmentReadReq{RootEntry(seg), buf, 0, 8}},
                        SyscallReq{SegmentReadReq{RootEntry(seg), buf, 0, 8}}};
  SyscallRes res[1];
  uint64_t before = kernel_->syscall_count();
  EXPECT_EQ(kernel_->SubmitBatch(init_, reqs, std::span<SyscallRes>(res, 1)),
            Status::kInvalidArg);
  EXPECT_EQ(res[0].index(), 0u);  // untouched: still monostate
  EXPECT_EQ(kernel_->syscall_count(), before);  // nothing counted
}

TEST_F(SubmitBatchTest, BatchEntriesCountAsIndividualSyscalls) {
  ObjectId seg = MakeSegment(Label(), 64);
  ContainerEntry ce = RootEntry(seg);
  char buf[8] = {};
  uint64_t total_before = kernel_->syscall_count();
  SyscallReq reqs[4];
  SyscallRes res[4];
  for (int i = 0; i < 4; ++i) {
    reqs[i] = SegmentReadReq{ce, buf, 0, 8};
  }
  ASSERT_EQ(kernel_->SubmitBatch(init_, reqs, res), Status::kOk);
  EXPECT_EQ(kernel_->syscall_count(), total_before + 4);
}

// ---- 3. entry points without a descriptor -----------------------------------
//
// Each direct call is charged and traced exactly as a one-element batch
// would be: one syscall, and one recorder event under its own kind name.

class DirectCallTest : public KernelTest {
 protected:
  static uint64_t KindEvents(DirectKind kind) {
    uint64_t h[trace::kHistBuckets];
    trace::SumSyscallHist(static_cast<uint16_t>(kind), h);
    uint64_t n = 0;
    for (uint64_t b : h) {
      n += b;
    }
    return n;
  }

  // Runs `call` and checks that it charged one syscall and recorded one
  // event of `kind`, whose name is `name`.
  template <typename Fn>
  void ExpectOneEntry(DirectKind kind, const char* name, Fn&& call) {
    EXPECT_STREQ(SyscallKindName(static_cast<size_t>(kind)), name);
    uint64_t syscalls = kernel_->syscall_count();
    uint64_t events = KindEvents(kind);
    call();
    EXPECT_EQ(kernel_->syscall_count(), syscalls + 1) << name;
    if (HISTAR_TRACE) {
      EXPECT_EQ(KindEvents(kind), events + 1) << name;
    }
  }
};

TEST_F(DirectCallTest, EachCallChargesOneSyscallAndRecordsOneEventOfItsKind) {
  kernel_->RegisterGateEntry("direct-noop", [](GateCall&) {});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Result<ObjectId> gate =
      kernel_->sys_gate_create(init_, spec, Label(), Label(Level::k2), "direct-noop", {});
  ASSERT_TRUE(gate.ok());
  ObjectId seg = MakeSegment(Label(), 64);

  ExpectOneEntry(DirectKind::kGateInvoke, "gate_invoke", [&] {
    EXPECT_EQ(kernel_->sys_gate_invoke(init_, RootEntry(gate.value()), Label(),
                                       Label(Level::k2), Label()),
              Status::kOk);
  });
  ExpectOneEntry(DirectKind::kFutexWake, "futex_wake", [&] {
    Result<uint32_t> woken = kernel_->sys_futex_wake(init_, RootEntry(seg), 0, 1);
    ASSERT_TRUE(woken.ok());
    EXPECT_EQ(woken.value(), 0u);
  });
  ExpectOneEntry(DirectKind::kSyncObject, "sync_object",
                 [&] { kernel_->sys_sync_object(init_, RootEntry(seg)); });
  ExpectOneEntry(DirectKind::kTraceRead, "trace_read",
                 [&] { EXPECT_EQ(kernel_->sys_trace_read(init_).status, Status::kOk); });
  ExpectOneEntry(DirectKind::kContainerUnref, "container_unref", [&] {
    EXPECT_EQ(kernel_->sys_container_unref(init_, RootEntry(seg)), Status::kOk);
  });
}

TEST(SyscallKindNames, AllKindsHaveDistinctNames) {
  EXPECT_EQ(kNumSyscallKinds, 52u);
  std::set<std::string> names;
  for (size_t k = 0; k < kNumSyscallKinds; ++k) {
    names.insert(SyscallKindName(k));
  }
  EXPECT_EQ(names.size(), kNumSyscallKinds);
  EXPECT_EQ(names.count("unknown"), 0u);
  EXPECT_STREQ(SyscallKindName(kNumSyscallKinds), "unknown");
  // The descriptor kinds come first, then the direct kinds.
  EXPECT_STREQ(SyscallKindName(kNumDescriptorKinds - 1), "console_write");
  EXPECT_STREQ(SyscallKindName(static_cast<size_t>(DirectKind::kTraceRead)), "trace_read");
}

}  // namespace
}  // namespace histar
