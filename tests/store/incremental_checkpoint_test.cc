// The incremental-checkpoint subsystem and the deduplicated label table
// (ISSUE 4 tentpole; docs/persistence.md has the formats).
//
// Properties under test:
//  * the first checkpoint is a full base; later ones are increments that
//    write O(dirty) object images and an O(delta) section — never the
//    O(live) map rewrite of the pre-incremental format;
//  * a base is forced every max_increments epochs, or when the chain fills
//    the superblock's 48 slots first, resetting the chain;
//  * checkpoint blobs reference labels by 32-bit id, so a label-heavy world
//    (1k objects sharing ≤32 labels) writes measurably fewer bytes than the
//    self-contained format, and restores to an equivalent world;
//  * restore loads the label table first and re-interns once; the id remap
//    handles tables whose ids this boot cannot reproduce;
//  * the generation-based dirty retire keeps an object dirty for the NEXT
//    increment when a write lands between the snapshot cut and the store
//    commit (the PR 2 property, extended to the incremental path).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "src/store/single_level_store.h"
#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

StoreTuning SmallTuning() {
  StoreTuning t;
  t.log_region_bytes = 1 << 20;
  t.log_apply_threshold = 50;
  t.max_increments = 4;
  return t;
}

// Serializes every live object of `k` in the canonical self-contained
// format. Two kernels are equivalent iff these maps are equal: the inline
// blob covers type, id, creation_seq, label bytes, quota, flags, descrip,
// metadata, and the type-specific payload.
std::map<ObjectId, std::vector<uint8_t>> WorldImage(const Kernel& k) {
  std::map<ObjectId, std::vector<uint8_t>> img;
  for (ObjectId id : k.LiveObjects()) {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(k.SerializeObject(id, &bytes));
    img[id] = std::move(bytes);
  }
  return img;
}

class IncrementalCheckpointTest : public KernelTest {
 protected:
  StoreTuning Tuning() const { return SmallTuning(); }

  void SetUp() override {
    KernelTest::SetUp();
    DiskGeometry g;
    g.capacity_bytes = 128 << 20;
    g.zero_latency = true;
    g.store_data = true;
    disk_ = std::make_unique<DiskModel>(g);
    store_ = std::make_unique<SingleLevelStore>(disk_.get(), Tuning());
    ASSERT_EQ(store_->Format(), Status::kOk);
    kernel_->AttachPersistTarget(store_.get());
  }

  std::unique_ptr<Kernel> Reboot() {
    auto k = std::make_unique<Kernel>();
    recovered_store_ = std::make_unique<SingleLevelStore>(disk_.get(), Tuning());
    EXPECT_EQ(recovered_store_->Recover(k.get()), Status::kOk);
    return k;
  }

  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<SingleLevelStore> store_;
  std::unique_ptr<SingleLevelStore> recovered_store_;
};

TEST_F(IncrementalCheckpointTest, FirstCheckpointIsBaseLaterOnesIncrements) {
  ObjectId seg = MakeSegment(Label(), 256);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_TRUE(store_->last_commit_was_base());
  EXPECT_EQ(store_->chain_length(), 1u);
  uint64_t epoch0 = store_->epoch();

  char b = 'x';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_FALSE(store_->last_commit_was_base());
  EXPECT_EQ(store_->chain_length(), 2u);
  EXPECT_GT(store_->epoch(), epoch0);
}

TEST_F(IncrementalCheckpointTest, IncrementWritesDirtyCountNotLiveCount) {
  constexpr int kLive = 200;
  constexpr int kTouched = 5;
  std::vector<ObjectId> segs;
  for (int i = 0; i < kLive; ++i) {
    segs.push_back(MakeSegment(Label(), 64));
  }
  uint64_t base_before = disk_->bytes_written();
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  uint64_t base_bytes = disk_->bytes_written() - base_before;
  ASSERT_TRUE(store_->last_commit_was_base());
  uint64_t base_section = store_->last_section_bytes();

  char b = 'y';
  for (int i = 0; i < kTouched; ++i) {
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(segs[static_cast<size_t>(i)]), &b,
                                         0, 1),
              Status::kOk);
  }
  uint64_t before = disk_->bytes_written();
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  uint64_t incr_bytes = disk_->bytes_written() - before;

  EXPECT_FALSE(store_->last_commit_was_base());
  // O(k), not O(n): exactly the touched blobs...
  EXPECT_EQ(store_->last_commit_objects(), static_cast<uint64_t>(kTouched));
  // ...and a section listing k map records, nowhere near the full-map base
  // section (which carries 200+ records plus the label table).
  EXPECT_LT(store_->last_section_bytes() * 4, base_section);
  // Total disk traffic for the increment is a small fraction of the base
  // commit's: O(dirty) blobs plus a section and a superblock, vs the full
  // world.
  EXPECT_LT(incr_bytes * 4, base_bytes);
}

TEST_F(IncrementalCheckpointTest, BaseIsForcedEveryMaxIncrements) {
  ObjectId seg = MakeSegment(Label(), 64);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // base, chain = 1
  char b = 'z';
  // max_increments = 4: four increments extend the chain, the fifth commit
  // folds everything back into a fresh base.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
    ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
    EXPECT_FALSE(store_->last_commit_was_base());
    EXPECT_EQ(store_->chain_length(), static_cast<size_t>(i) + 2);
  }
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_TRUE(store_->last_commit_was_base());
  EXPECT_EQ(store_->chain_length(), 1u);
}

TEST_F(IncrementalCheckpointTest, LabelTableDedupsLabelHeavyWorld) {
  // ≥1k objects sharing ≤32 labels (the ISSUE 4 acceptance shape). The
  // labels are level combinations over three categories — three explicit
  // entries make each inline label ~4 words, which the label-ref format
  // collapses to 4 bytes per object plus one table record per distinct
  // label. (Three categories, not one per label: the persisted table must
  // be intern-order complete for id stability, so every re-intern of the
  // creating thread's growing ownership label would ride along and muddy
  // the size accounting.)
  constexpr int kObjects = 1000;
  constexpr int kLabels = 27;
  CategoryId cats[3] = {kernel_->sys_cat_create(init_).value(),
                        kernel_->sys_cat_create(init_).value(),
                        kernel_->sys_cat_create(init_).value()};
  const Level levels[3] = {Level::k0, Level::k2, Level::k3};
  std::vector<Label> labels;
  for (int i = 0; i < kLabels; ++i) {
    Label l(Level::k1);
    l.set(cats[0], levels[i % 3]);
    l.set(cats[1], levels[(i / 3) % 3]);
    l.set(cats[2], levels[(i / 9) % 3]);
    labels.push_back(l);
  }
  std::vector<ObjectId> segs;
  for (int i = 0; i < kObjects; ++i) {
    segs.push_back(MakeSegment(labels[static_cast<size_t>(i % kLabels)], 32));
  }
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  // Per-object saving: the label-ref image of every segment is smaller than
  // its self-contained image, and summed over the world the saving dwarfs
  // the one-time label table. (The object-map records exist in both formats
  // — the pre-incremental store rewrote the full map image every sync — so
  // the fair comparison is blob bytes + label-table bytes vs blob bytes
  // with inline labels.)
  uint64_t inline_total = 0;
  uint64_t ref_total = 0;
  for (ObjectId id : segs) {
    std::vector<uint8_t> inline_bytes;
    std::vector<uint8_t> ref_bytes;
    ASSERT_TRUE(kernel_->SerializeObject(id, &inline_bytes));
    ASSERT_TRUE(kernel_->SerializeObject(id, &ref_bytes, /*label_refs=*/true));
    EXPECT_LT(ref_bytes.size(), inline_bytes.size());
    inline_total += inline_bytes.size();
    ref_total += ref_bytes.size();
  }
  uint64_t table_bytes = 0;
  kernel_->label_registry().EnumerateSince({}, [&table_bytes](LabelId, const Label& l) {
    std::vector<uint8_t> b;
    l.Serialize(&b);
    table_bytes += 8 + b.size();  // id + length words + label image
  });
  EXPECT_LT(ref_total + table_bytes, inline_total);
  EXPECT_GE(store_->label_table_size(), static_cast<size_t>(kLabels));

  // And the world restores to full object/label equivalence.
  std::map<ObjectId, std::vector<uint8_t>> before = WorldImage(*kernel_);
  std::unique_ptr<Kernel> k2 = Reboot();
  EXPECT_EQ(WorldImage(*k2), before);
  // Spot-check the security state actually bites: a stranger at {1} cannot
  // read a fully k3-tainted segment (labels[26]) after reboot.
  ObjectId stranger = k2->BootstrapThread(Label(), Label(Level::k2), "stranger");
  char buf[8];
  EXPECT_EQ(k2->sys_segment_read(stranger, ContainerEntry{k2->root_container(), segs[26]},
                                 buf, 0, 4),
            Status::kLabelCheckFailed);
}

TEST_F(IncrementalCheckpointTest, ChainContinuesAcrossReboot) {
  // Recovery re-interns the label table in ascending-id order, reproducing
  // the writing boot's ids — so the recovered store may keep extending the
  // same chain instead of rewriting the world.
  ObjectId seg = MakeSegment(Label(), 128);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  char b = 'a';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_EQ(store_->chain_length(), 2u);

  std::unique_ptr<Kernel> k2 = Reboot();
  CurrentThread bind(init_);
  EXPECT_EQ(recovered_store_->chain_length(), 2u);
  b = 'b';
  ASSERT_EQ(k2->sys_segment_write(init_, ContainerEntry{k2->root_container(), seg}, &b, 0, 1),
            Status::kOk);
  ASSERT_EQ(k2->sys_sync(init_), Status::kOk);
  // Ids were reproducible, so the post-reboot sync stays incremental.
  EXPECT_FALSE(recovered_store_->last_commit_was_base());
  EXPECT_EQ(recovered_store_->chain_length(), 3u);
  EXPECT_EQ(recovered_store_->last_commit_objects(), 1u);

  std::map<ObjectId, std::vector<uint8_t>> before = WorldImage(*k2);
  auto store3 = std::make_unique<SingleLevelStore>(disk_.get(), Tuning());
  auto k3 = std::make_unique<Kernel>();
  ASSERT_EQ(store3->Recover(k3.get()), Status::kOk);
  EXPECT_EQ(WorldImage(*k3), before);
}

TEST_F(IncrementalCheckpointTest, DeadObjectsRecordedByIncrements) {
  ObjectId keep = MakeSegment(Label(), 64);
  ObjectId gone = MakeSegment(Label(), 64);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(gone)), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_FALSE(store_->last_commit_was_base());  // the death rode an increment

  std::unique_ptr<Kernel> k2 = Reboot();
  EXPECT_TRUE(k2->ObjectExists(keep));
  EXPECT_FALSE(k2->ObjectExists(gone));
}

TEST_F(IncrementalCheckpointTest, WalRecordsReplayOverTheChain) {
  // WAL blobs are self-contained; they must replay on top of base +
  // increments regardless of the label table's id space.
  ObjectId seg = MakeSegment(Label(), 64);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  char b = 'w';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);

  std::unique_ptr<Kernel> k2 = Reboot();
  CurrentThread bind(init_);
  char out = 0;
  ASSERT_EQ(k2->sys_segment_read(init_, ContainerEntry{k2->root_container(), seg}, &out, 0, 1),
            Status::kOk);
  EXPECT_EQ(out, 'w');
}

TEST_F(IncrementalCheckpointTest, ChainNeverOutgrowsTheSuperblock) {
  // The superblock holds 48 (offset, length) section slots: one base and 47
  // increments. With max_increments out of the way, a 120-sync stream must
  // write a base exactly when the next increment would need a 49th slot,
  // never pass 48 sections, and still restore exactly.
  StoreTuning t = Tuning();
  t.max_increments = 100000;  // only the slot budget bounds the chain
  store_ = std::make_unique<SingleLevelStore>(disk_.get(), t);
  ASSERT_EQ(store_->Format(), Status::kOk);
  kernel_->AttachPersistTarget(store_.get());

  ObjectId seg = MakeSegment(Label(), 64);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_TRUE(store_->last_commit_was_base());

  int bases = 0;
  for (int i = 0; i < 120; ++i) {
    size_t before = store_->chain_length();
    char b = static_cast<char>('a' + i % 26);
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b,
                                         static_cast<uint64_t>(i % 64), 1),
              Status::kOk);
    ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
    bool full = before == 48;
    EXPECT_EQ(store_->last_commit_was_base(), full) << "sync " << i;
    EXPECT_EQ(store_->chain_length(), full ? 1u : before + 1) << "sync " << i;
    EXPECT_LE(store_->chain_length(), 48u) << "sync " << i;
    bases += full ? 1 : 0;
  }
  EXPECT_EQ(bases, 2);  // at syncs 47 and 95

  std::map<ObjectId, std::vector<uint8_t>> before = WorldImage(*kernel_);
  std::unique_ptr<Kernel> k2 = Reboot();
  EXPECT_EQ(WorldImage(*k2), before);
  CurrentThread bind(init_);
  char out = 0;
  ASSERT_EQ(k2->sys_segment_read(init_, ContainerEntry{k2->root_container(), seg}, &out,
                                 119 % 64, 1),
            Status::kOk);
  EXPECT_EQ(out, static_cast<char>('a' + 119 % 26));
}

// ---- the id remap (restore with a table this boot cannot reproduce) ---------

TEST(LabelTableRemapTest, RemapResolvesForeignIdsAndForcesRewrite) {
  // Donor kernel: a labeled segment serialized in label-ref format, plus
  // the donor's label table records.
  Kernel donor;
  ObjectId init = donor.BootstrapThread(Label(Level::k1), Label(Level::k2), "init");
  CurrentThread bind(init);
  CategoryId c = donor.sys_cat_create(init).value();
  Label taint(Level::k1, {{c, Level::k3}});
  CreateSpec spec;
  spec.container = donor.root_container();
  spec.descrip = "donor-seg";
  spec.quota = kObjectOverheadBytes + 64 + kPageSize;
  // Burn a few allocations first: both kernels draw object ids from the
  // same deterministic sequence, and the recipient below allocates several
  // threads of its own — the labeled segment's id must not collide.
  for (int i = 0; i < 8; ++i) {
    spec.label = Label();
    ASSERT_TRUE(donor.sys_segment_create(init, spec, 8).ok());
  }
  spec.label = taint;
  ObjectId seg = donor.sys_segment_create(init, spec, 64).value();
  std::vector<uint8_t> ref_blob;
  ASSERT_TRUE(donor.SerializeObject(seg, &ref_blob, /*label_refs=*/true));

  std::vector<LabelTableRecord> table;
  donor.label_registry().EnumerateSince({}, [&table](LabelId id, const Label& l) {
    LabelTableRecord rec;
    rec.id = id;
    l.Serialize(&rec.bytes);
    table.push_back(std::move(rec));
  });

  // Recipient kernel with extra labels interned first: the donor's slot
  // sequence cannot be reproduced, so ids move and the remap is not the
  // identity — restore must still resolve every reference.
  Kernel other;
  ObjectId oinit = other.BootstrapThread(Label(Level::k0), Label(Level::k3), "skew");
  for (int i = 0; i < 4; ++i) {
    CategoryId oc = other.sys_cat_create(oinit).value();
    (void)other.BootstrapThread(Label(Level::k1, {{oc, Level::k2}}), Label(Level::k2), "skew");
  }
  bool stable = true;
  ASSERT_EQ(other.RestoreLabelTable(table, &stable), Status::kOk);
  EXPECT_FALSE(stable);
  ASSERT_EQ(other.RestoreObject(ref_blob), Status::kOk);
  // The label came back bit-for-bit even though its id moved: the canonical
  // inline serialization (which resolves the handle through the registry)
  // matches the donor's exactly.
  std::vector<uint8_t> round;
  ASSERT_TRUE(other.SerializeObject(seg, &round));
  std::vector<uint8_t> donor_round;
  ASSERT_TRUE(donor.SerializeObject(seg, &donor_round));
  EXPECT_EQ(round, donor_round);

  // An unreproducible table re-dirties the world at FinishRestore so the
  // next sync rewrites every blob in the new id space.
  other.FinishRestore(other.root_container());
  EXPECT_FALSE(other.DirtyObjects().empty());
}

TEST(LabelTableRemapTest, MalformedTableRecordsAreRejected) {
  Kernel k;
  std::vector<LabelTableRecord> bad(1);
  bad[0].id = kInvalidLabelId;  // id 0 is never handed out
  Label().Serialize(&bad[0].bytes);
  EXPECT_EQ(k.RestoreLabelTable(bad, nullptr), Status::kCorrupt);

  std::vector<LabelTableRecord> torn(1);
  torn[0].id = 17;
  Label().Serialize(&torn[0].bytes);
  torn[0].bytes.pop_back();  // truncated label image
  EXPECT_EQ(k.RestoreLabelTable(torn, nullptr), Status::kCorrupt);
}

// ---- generation-based dirty retire on the incremental path ------------------

// A persist target that mutates an object *during* the commit — the write
// that lands between the snapshot cut and the store's return. The PR 2
// generation rule must keep that object dirty so the NEXT increment
// re-serializes it; otherwise the increment chain silently loses the write.
class MidCommitWriter : public PersistTarget {
 public:
  Status Checkpoint(const CheckpointBatch& batch) override {
    last_dirty_ids.clear();
    for (const ObjectImage& img : batch.dirty) {
      last_dirty_ids.push_back(img.id);
    }
    ++checkpoints;
    if (mid_commit) {
      mid_commit();  // simulate the racing writer
    }
    return Status::kOk;
  }
  Status SyncOne(ObjectId, const std::vector<uint8_t>&, uint64_t) override {
    return Status::kOk;
  }
  Status SyncPages(ObjectId, uint64_t, const std::vector<uint8_t>&) override {
    return Status::kOk;
  }

  std::function<void()> mid_commit;
  std::vector<ObjectId> last_dirty_ids;
  int checkpoints = 0;
};

TEST_F(IncrementalCheckpointTest, WriteDuringCommitStaysDirtyForNextIncrement) {
  MidCommitWriter target;
  kernel_->AttachPersistTarget(&target);
  ObjectId seg = MakeSegment(Label(), 16);
  char b = '1';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);

  // While the first checkpoint commits (no table lock held), another write
  // lands on the already-serialized segment.
  target.mid_commit = [&]() {
    char c = '2';
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &c, 0, 1), Status::kOk);
  };
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_TRUE(std::count(target.last_dirty_ids.begin(), target.last_dirty_ids.end(), seg));

  // The mid-commit write must survive the retire: the next sync (the next
  // increment) re-serializes the segment with the new byte.
  target.mid_commit = nullptr;
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_TRUE(std::count(target.last_dirty_ids.begin(), target.last_dirty_ids.end(), seg))
      << "write landing between snapshot cut and store commit was lost";

  // And a third sync with nothing outstanding is empty — the mark was
  // retired exactly once its generation matched.
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_FALSE(std::count(target.last_dirty_ids.begin(), target.last_dirty_ids.end(), seg));
  kernel_->AttachPersistTarget(store_.get());
}

}  // namespace
}  // namespace histar
