// Address spaces and simulated paged access (paper §3.4).
#include <gtest/gtest.h>

#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

class AddressSpaceTest : public KernelTest {
 protected:
  ObjectId MakeAs(const Label& l) {
    CreateSpec spec;
    spec.container = kernel_->root_container();
    spec.label = l;
    spec.descrip = "as";
    Result<ObjectId> as = kernel_->sys_as_create(init_, spec);
    EXPECT_TRUE(as.ok()) << StatusName(as.status());
    return as.value();
  }

  // Maps `seg` at va with the given flags into a fresh AS and attaches it to
  // `thread`.
  ObjectId AttachMapping(ObjectId thread, ObjectId seg, uint64_t va, uint32_t flags,
                         uint64_t npages = 1) {
    ObjectId as = MakeAs(Label());
    Mapping m;
    m.va = va;
    m.segment = RootEntry(seg);
    m.npages = npages;
    m.flags = flags;
    EXPECT_EQ(kernel_->sys_as_set(init_, RootEntry(as), {m}), Status::kOk);
    EXPECT_EQ(kernel_->sys_self_set_as(thread, RootEntry(as)), Status::kOk);
    return as;
  }
};

TEST_F(AddressSpaceTest, MappedReadWrite) {
  ObjectId seg = MakeSegment(Label(), kPageSize);
  AttachMapping(init_, seg, 0x10000, kMapRead | kMapWrite);
  uint32_t v = 0xabcd1234;
  ASSERT_EQ(kernel_->sys_as_access(init_, 0x10000 + 16, &v, 4, true), Status::kOk);
  uint32_t out = 0;
  ASSERT_EQ(kernel_->sys_as_access(init_, 0x10000 + 16, &out, 4, false), Status::kOk);
  EXPECT_EQ(out, v);
  // The write went through to the segment itself.
  uint32_t direct = 0;
  ASSERT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &direct, 16, 4), Status::kOk);
  EXPECT_EQ(direct, v);
}

TEST_F(AddressSpaceTest, WriteToReadOnlyMappingFails) {
  ObjectId seg = MakeSegment(Label(), kPageSize);
  AttachMapping(init_, seg, 0x10000, kMapRead);
  uint32_t v = 1;
  EXPECT_EQ(kernel_->sys_as_access(init_, 0x10000, &v, 4, true), Status::kNoPerm);
}

TEST_F(AddressSpaceTest, UnmappedFaults) {
  ObjectId seg = MakeSegment(Label(), kPageSize);
  AttachMapping(init_, seg, 0x10000, kMapRead);
  uint32_t v;
  EXPECT_EQ(kernel_->sys_as_access(init_, 0x90000, &v, 4, false), Status::kNotFound);
}

TEST_F(AddressSpaceTest, FaultTimeLabelCheckOnWrite) {
  // Map a write-protected segment writable in the AS: the mapping is
  // accepted, but the fault-time check L_T ⊑ L_O rejects the store.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label protect(Level::k1, {{c.value(), Level::k0}});
  ObjectId seg = MakeSegment(protect, kPageSize);
  ObjectId worker = MakeThread(Label(), Label(Level::k2));
  AttachMapping(worker, seg, 0x10000, kMapRead | kMapWrite);
  uint32_t v = 1;
  EXPECT_EQ(kernel_->sys_as_access(worker, 0x10000, &v, 4, true), Status::kLabelCheckFailed);
  // Reads are fine ({c0,1} ⊑ {1}^J).
  EXPECT_EQ(kernel_->sys_as_access(worker, 0x10000, &v, 4, false), Status::kOk);
}

TEST_F(AddressSpaceTest, PageFaultHandlerCanRepair) {
  ObjectId seg = MakeSegment(Label(), kPageSize);
  ObjectId as = AttachMapping(init_, seg, 0x10000, kMapRead);
  int faults = 0;
  kernel_->SetPageFaultHandler(init_, [&](uint64_t, bool write) {
    ++faults;
    if (!write) {
      return false;
    }
    // Upgrade the mapping to writable (the library's copy-on-write path
    // would map a fresh segment; upgrading suffices for the test).
    Mapping m;
    m.va = 0x10000;
    m.segment = RootEntry(seg);
    m.npages = 1;
    m.flags = kMapRead | kMapWrite;
    return kernel_->sys_as_set(init_, RootEntry(as), {m}) == Status::kOk;
  });
  uint32_t v = 7;
  EXPECT_EQ(kernel_->sys_as_access(init_, 0x10000, &v, 4, true), Status::kOk);
  EXPECT_EQ(faults, 1);
}

TEST_F(AddressSpaceTest, LocalSegmentMapping) {
  // A mapping with the reserved id kLocalSegmentId reaches the calling
  // thread's local segment, always writable (§3.4).
  ObjectId as = MakeAs(Label());
  Mapping m;
  m.va = 0x7000000;
  m.segment = ContainerEntry{kernel_->root_container(), kLocalSegmentId};
  m.npages = 1;
  m.flags = kMapRead | kMapWrite;
  ASSERT_EQ(kernel_->sys_as_set(init_, RootEntry(as), {m}), Status::kOk);
  ASSERT_EQ(kernel_->sys_self_set_as(init_, RootEntry(as)), Status::kOk);
  uint64_t v = 0x1122334455667788ULL;
  ASSERT_EQ(kernel_->sys_as_access(init_, 0x7000000 + 8, &v, 8, true), Status::kOk);
  uint64_t direct = 0;
  ASSERT_EQ(kernel_->sys_self_local_read(init_, &direct, 8, 8), Status::kOk);
  EXPECT_EQ(direct, v);
}

TEST_F(AddressSpaceTest, AsObservationRule) {
  // A thread cannot attach an AS it cannot observe.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label secret(Level::k1, {{c.value(), Level::k3}});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  spec.label = secret;
  Result<ObjectId> as = kernel_->sys_as_create(init_, spec);
  ASSERT_TRUE(as.ok());
  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  EXPECT_EQ(kernel_->sys_self_set_as(plain, RootEntry(as.value())),
            Status::kLabelCheckFailed);
}

TEST_F(AddressSpaceTest, AsSetRejectsUnalignedMappings) {
  ObjectId as = MakeAs(Label());
  Mapping m;
  m.va = 0x10001;  // not page aligned
  m.segment = RootEntry(MakeSegment(Label(), kPageSize));
  m.npages = 1;
  m.flags = kMapRead;
  EXPECT_EQ(kernel_->sys_as_set(init_, RootEntry(as), {m}), Status::kInvalidArg);
}

TEST_F(AddressSpaceTest, MultiPageMappingWithOffset) {
  ObjectId seg = MakeSegment(Label(), 4 * kPageSize);
  // Map pages [1, 3) of the segment at 0x20000.
  ObjectId as = MakeAs(Label());
  Mapping m;
  m.va = 0x20000;
  m.segment = RootEntry(seg);
  m.start_page = 1;
  m.npages = 2;
  m.flags = kMapRead | kMapWrite;
  ASSERT_EQ(kernel_->sys_as_set(init_, RootEntry(as), {m}), Status::kOk);
  ASSERT_EQ(kernel_->sys_self_set_as(init_, RootEntry(as)), Status::kOk);
  uint32_t v = 99;
  ASSERT_EQ(kernel_->sys_as_access(init_, 0x20000, &v, 4, true), Status::kOk);
  uint32_t direct = 0;
  ASSERT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &direct, kPageSize, 4),
            Status::kOk);
  EXPECT_EQ(direct, 99u);
}

}  // namespace
}  // namespace histar
