// The batched syscall ABI (PR 3), tested at the descriptor layer.
//
// Four properties pin the ABI:
//  1. Equivalence: a one-element batch returns exactly what the legacy
//     sys_* wrapper returns — swept across the full §2.2 access matrix, so
//     descriptor dispatch cannot drift from the label semantics the matrix
//     test pins.
//  2. Completion semantics: entries execute in submission order, each
//     completion carries its own Status, and a failing entry does not stop
//     later entries (partial failure is per-entry).
//  3. Entry bookkeeping: a call without a descriptor is charged and traced
//     like a one-element batch, under its own syscall kind.
//  4. Every descriptor kind gives the same completion per call and in a
//     batch that spans lock-free, shared and exclusive groups.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

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

  EXPECT_EQ(CompletionOf<SegmentReadReq>(res[0]), legacy_rd);
  EXPECT_EQ(CompletionOf<SegmentWriteReq>(res[1]), legacy_wr);
  EXPECT_EQ(CompletionOf<SegmentGetLenReq>(res[2]).status(), legacy_len);
  EXPECT_EQ(CompletionOf<ObjGetQuotaReq>(res[3]).status(), legacy_quota);
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
  EXPECT_EQ(CompletionOf<SegmentWriteReq>(res[0]), Status::kOk);
  EXPECT_EQ(CompletionOf<SegmentReadReq>(res[1]), Status::kOk);
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
  EXPECT_EQ(CompletionOf<SegmentWriteReq>(res[0]), Status::kOk);
  EXPECT_EQ(CompletionOf<SegmentReadReq>(res[1]), Status::kRange);
  // The failing middle entry did not stop the tail.
  EXPECT_EQ(CompletionOf<SegmentReadReq>(res[2]), Status::kOk);
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
  const Result<ObjectId>& a = CompletionOf<SegmentCreateReq>(res[0]);
  const Result<ObjectId>& b = CompletionOf<SegmentCreateReq>(res[1]);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_TRUE(kernel_->ObjectExists(a.value()));
  EXPECT_TRUE(kernel_->ObjectExists(b.value()));
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

// ---- 4. every descriptor kind, per call and batched -------------------------
//
// Two kernels booted the same way mint the same object and category ids, so
// one sample list describes both worlds. One kernel runs every sample
// through its sys_* wrapper; the other submits them all as ONE batch. With
// one completion type per kind, each pair compares by plain equality.

CreateSpec EquivSpec(ObjectId container, uint64_t quota) {
  CreateSpec spec;
  spec.container = container;
  spec.label = Label(Level::k1);
  spec.descrip = "equiv";
  spec.quota = quota;
  return spec;
}

// init ({1}, clearance {2}); a working container `ct` holding a segment, a
// mapped address space and a gate; a second container `ct2`; a console.
struct EquivWorld {
  std::unique_ptr<Kernel> k = std::make_unique<Kernel>();
  ObjectId init = kInvalidObject;
  ObjectId ct = kInvalidObject;
  ObjectId ct2 = kInvalidObject;
  ObjectId seg = kInvalidObject;
  ObjectId as = kInvalidObject;
  ObjectId gate = kInvalidObject;
  ObjectId dev = kInvalidObject;
  char wbuf[8] = {'e', 'q', 'u', 'i', 'v', 'a', 'l', '!'};
  char seg_read[8] = {};
  char local_read[8] = {};

  EquivWorld() {
    init = k->BootstrapThread(Label(Level::k1), Label(Level::k2), "init");
    k->RegisterGateEntry("equiv-entry", [](GateCall&) {});
    dev = k->BootstrapDevice(DeviceKind::kConsole, Label(Level::k1), "console");
    ObjectId root = k->root_container();
    ct = k->sys_container_create(init, EquivSpec(root, 1 << 22), 0).value();
    ct2 = k->sys_container_create(init, EquivSpec(root, 1 << 16), 0).value();
    seg = k->sys_segment_create(init, EquivSpec(ct, 4 * kPageSize), 64).value();
    as = k->sys_as_create(init, EquivSpec(ct, 4 * kPageSize)).value();
    gate = k->sys_gate_create(init, EquivSpec(ct, 4 * kPageSize), Label(Level::k1),
                              Label(Level::k2), "equiv-entry", {42, 43})
               .value();
    EXPECT_EQ(k->sys_as_set(init, {ct, as}, {Mapping{0x10000, {ct, seg}, 0, 1, kMapRead}}),
              Status::kOk);
  }

  // Every live object in the self-contained format.
  std::map<ObjectId, std::vector<uint8_t>> Image() const {
    std::map<ObjectId, std::vector<uint8_t>> out;
    for (ObjectId id : k->LiveObjects()) {
      EXPECT_TRUE(k->SerializeObject(id, &out[id]));
    }
    return out;
  }
};

struct Sample {
  SyscallReq req;
  SyscallRes (*per_call)(Kernel*, ObjectId, const SyscallReq&);
};

// A sample of kind Req: `Call` issues the same request through its sys_*
// wrapper, which must return exactly Req::Completion.
template <typename Req, typename Call>
Sample Make(Req req, Call) {
  static_assert(std::is_same_v<std::invoke_result_t<Call, Kernel*, ObjectId, const Req&>,
                               typename Req::Completion>,
                "a wrapper returns its request's completion");
  return {SyscallReq{std::move(req)}, [](Kernel* k, ObjectId self, const SyscallReq& r) {
            SyscallRes out;
            out.emplace<kKindOf<Req> + 1>(Call{}(k, self, std::get<Req>(r)));
            return out;
          }};
}

// One sample per kind, in batch order: a lock-free group, a shared group, a
// lock-free group, then one exclusive group ending in self_halt. Every
// sample succeeds, so each compares a value, not just a failure.
std::vector<Sample> Samples(EquivWorld& w) {
  ContainerEntry seg{w.ct, w.seg};
  ContainerEntry as{w.ct, w.as};
  CreateSpec spec = EquivSpec(w.ct, 4 * kPageSize);
  using K = Kernel*;
  using T = ObjectId;
  return {
      Make(SelfGetLabelReq{}, [](K k, T t, const SelfGetLabelReq&) {
        return k->sys_self_get_label(t);
      }),
      Make(SelfGetClearanceReq{}, [](K k, T t, const SelfGetClearanceReq&) {
        return k->sys_self_get_clearance(t);
      }),
      Make(ObjGetTypeReq{seg}, [](K k, T t, const ObjGetTypeReq& r) {
        return k->sys_obj_get_type(t, r.ce);
      }),
      Make(ObjGetLabelReq{seg}, [](K k, T t, const ObjGetLabelReq& r) {
        return k->sys_obj_get_label(t, r.ce);
      }),
      Make(ObjGetDescripReq{seg}, [](K k, T t, const ObjGetDescripReq& r) {
        return k->sys_obj_get_descrip(t, r.ce);
      }),
      Make(ObjGetQuotaReq{seg}, [](K k, T t, const ObjGetQuotaReq& r) {
        return k->sys_obj_get_quota(t, r.ce);
      }),
      Make(SegmentGetLenReq{seg}, [](K k, T t, const SegmentGetLenReq& r) {
        return k->sys_segment_get_len(t, r.ce);
      }),
      // Shared group.
      Make(SelfGetAsReq{}, [](K k, T t, const SelfGetAsReq&) { return k->sys_self_get_as(t); }),
      Make(SelfLocalReadReq{w.local_read, 0, 8}, [](K k, T t, const SelfLocalReadReq& r) {
        return k->sys_self_local_read(t, r.buf, r.off, r.len);
      }),
      Make(ObjGetMetadataReq{seg}, [](K k, T t, const ObjGetMetadataReq& r) {
        return k->sys_obj_get_metadata(t, r.ce);
      }),
      Make(SegmentReadReq{seg, w.seg_read, 0, 8}, [](K k, T t, const SegmentReadReq& r) {
        return k->sys_segment_read(t, r.ce, r.buf, r.off, r.len);
      }),
      Make(AsGetReq{as}, [](K k, T t, const AsGetReq& r) { return k->sys_as_get(t, r.ce); }),
      // Lock-free group.
      Make(GateGetClosureReq{{w.ct, w.gate}}, [](K k, T t, const GateGetClosureReq& r) {
        return k->sys_gate_get_closure(t, r.ce);
      }),
      Make(ContainerGetParentReq{w.ct}, [](K k, T t, const ContainerGetParentReq& r) {
        return k->sys_container_get_parent(t, r.container);
      }),
      Make(ContainerListReq{w.ct}, [](K k, T t, const ContainerListReq& r) {
        return k->sys_container_list(t, r.container);
      }),
      Make(ContainerHasReq{w.ct, w.seg}, [](K k, T t, const ContainerHasReq& r) {
        return k->sys_container_has(t, r.container, r.obj);
      }),
      // Exclusive group.
      Make(CatCreateReq{}, [](K k, T t, const CatCreateReq&) { return k->sys_cat_create(t); }),
      Make(SelfSetLabelReq{Label(Level::k1)}, [](K k, T t, const SelfSetLabelReq& r) {
        return k->sys_self_set_label(t, r.label);
      }),
      Make(SelfSetClearanceReq{Label(Level::k2)}, [](K k, T t, const SelfSetClearanceReq& r) {
        return k->sys_self_set_clearance(t, r.clearance);
      }),
      Make(SelfSetAsReq{as}, [](K k, T t, const SelfSetAsReq& r) {
        return k->sys_self_set_as(t, r.as);
      }),
      Make(ThreadCreateReq{EquivSpec(w.ct, 128 * kPageSize), Label(Level::k1), Label(Level::k2)},
           [](K k, T t, const ThreadCreateReq& r) {
             return k->sys_thread_create(t, r.spec, r.label, r.clearance);
           }),
      Make(ThreadAlertReq{{w.k->root_container(), w.init}, 7},
           [](K k, T t, const ThreadAlertReq& r) {
             return k->sys_thread_alert(t, r.thread, r.code);
           }),
      Make(SelfNextAlertReq{}, [](K k, T t, const SelfNextAlertReq&) {
        return k->sys_self_next_alert(t);
      }),
      Make(SelfLocalWriteReq{w.wbuf, 0, 8}, [](K k, T t, const SelfLocalWriteReq& r) {
        return k->sys_self_local_write(t, r.buf, r.off, r.len);
      }),
      Make(ContainerCreateReq{spec, 0}, [](K k, T t, const ContainerCreateReq& r) {
        return k->sys_container_create(t, r.spec, r.avoid_types);
      }),
      Make(ObjSetMetadataReq{seg, w.wbuf, 8}, [](K k, T t, const ObjSetMetadataReq& r) {
        return k->sys_obj_set_metadata(t, r.ce, r.data, r.len);
      }),
      Make(SegmentWriteReq{seg, w.wbuf, 0, 8}, [](K k, T t, const SegmentWriteReq& r) {
        return k->sys_segment_write(t, r.ce, r.buf, r.off, r.len);
      }),
      Make(SegmentResizeReq{seg, 128}, [](K k, T t, const SegmentResizeReq& r) {
        return k->sys_segment_resize(t, r.ce, r.len);
      }),
      Make(SegmentCreateReq{spec, 32}, [](K k, T t, const SegmentCreateReq& r) {
        return k->sys_segment_create(t, r.spec, r.len);
      }),
      Make(SegmentCopyReq{spec, seg}, [](K k, T t, const SegmentCopyReq& r) {
        return k->sys_segment_copy(t, r.spec, r.src);
      }),
      Make(QuotaMoveReq{w.ct, w.seg, 64}, [](K k, T t, const QuotaMoveReq& r) {
        return k->sys_quota_move(t, r.d, r.o, r.n);
      }),
      Make(ObjSetFixedQuotaReq{seg}, [](K k, T t, const ObjSetFixedQuotaReq& r) {
        return k->sys_obj_set_fixed_quota(t, r.ce);
      }),
      Make(ContainerLinkReq{w.ct2, seg}, [](K k, T t, const ContainerLinkReq& r) {
        return k->sys_container_link(t, r.container, r.src);
      }),
      Make(AsCreateReq{spec}, [](K k, T t, const AsCreateReq& r) {
        return k->sys_as_create(t, r.spec);
      }),
      Make(AsSetReq{as, {Mapping{0x20000, seg, 0, 1, kMapRead | kMapWrite}}},
           [](K k, T t, const AsSetReq& r) { return k->sys_as_set(t, r.ce, r.mappings); }),
      Make(GateCreateReq{spec, Label(Level::k1), Label(Level::k2), "equiv-entry", {1}},
           [](K k, T t, const GateCreateReq& r) {
             return k->sys_gate_create(t, r.spec, r.gate_label, r.gate_clearance,
                                       r.entry_name, r.closure);
           }),
      Make(ConsoleWriteReq{{w.k->root_container(), w.dev}, "equiv"},
           [](K k, T t, const ConsoleWriteReq& r) {
             return k->sys_console_write(t, r.dev, r.text);
           }),
      Make(ObjSetImmutableReq{seg}, [](K k, T t, const ObjSetImmutableReq& r) {
        return k->sys_obj_set_immutable(t, r.ce);
      }),
      Make(SelfHaltReq{}, [](K k, T t, const SelfHaltReq&) { return k->sys_self_halt(t); }),
  };
}

TEST(DescriptorEquivalence, EveryKindHasOneSample) {
  EquivWorld w;
  std::vector<Sample> samples = Samples(w);
  std::vector<int> seen(kNumDescriptorKinds, 0);
  for (const Sample& s : samples) {
    ++seen[s.req.index()];
  }
  for (size_t kind = 0; kind < kNumDescriptorKinds; ++kind) {
    EXPECT_EQ(seen[kind], 1) << SyscallKindName(kind);
  }
  EXPECT_EQ(samples.back().req.index(), kKindOf<SelfHaltReq>);
}

TEST(DescriptorEquivalence, PerCallAndBatchedCompletionsAreEqual) {
  EquivWorld per_call_world;
  EquivWorld batch_world;
  ASSERT_EQ(per_call_world.Image(), batch_world.Image());  // same ids, same state

  std::vector<SyscallRes> per_call;
  for (const Sample& s : Samples(per_call_world)) {
    per_call.push_back(s.per_call(per_call_world.k.get(), per_call_world.init, s.req));
  }
  std::vector<SyscallReq> reqs;
  for (const Sample& s : Samples(batch_world)) {
    reqs.push_back(s.req);
  }
  std::vector<SyscallRes> batched(reqs.size());
  const ObjectTable& table = batch_world.k->object_table();
  table.set_lock_accounting(true);
  uint64_t locks = table.lock_acquisitions();
  ASSERT_EQ(batch_world.k->SubmitBatch(batch_world.init, reqs, batched), Status::kOk);
  // One lock for the shared group, one for the exclusive group; the two
  // lock-free groups take none.
  EXPECT_EQ(table.lock_acquisitions() - locks, 2u);
  table.set_lock_accounting(false);

  ASSERT_EQ(per_call.size(), batched.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    const char* name = SyscallKindName(reqs[i].index());
    EXPECT_EQ(ResStatus(batched[i]), Status::kOk) << name;
    EXPECT_EQ(ResStatus(per_call[i]), ResStatus(batched[i])) << name;
    EXPECT_TRUE(per_call[i] == batched[i]) << name;
  }
  EXPECT_EQ(memcmp(per_call_world.seg_read, batch_world.seg_read, 8), 0);
  EXPECT_EQ(memcmp(per_call_world.local_read, batch_world.local_read, 8), 0);
  EXPECT_EQ(per_call_world.Image(), batch_world.Image());
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
