#include "src/store/single_level_store.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "src/core/trace.h"
#include "src/store/store_alloc.h"
#include "src/store/wire_format.h"

namespace histar {

using storewire::PutU32;
using storewire::PutU64;
using storewire::PutU8;

namespace {

// Flight-recorder scope for the public commit/restore entry points: one
// kStoreCommit event carrying the op's duration and the disk-counter
// deltas (bytes written, device write ops) it caused, plus the per-op
// latency histogram (src/core/trace.h). Constructed after mu_ is taken so
// the deltas are exact; the disk's own counters lock its leaf mutex.
class StoreOpTrace {
 public:
  StoreOpTrace(trace::StoreOp op, DiskModel* disk)
#if HISTAR_TRACE
      : op_(op),
        disk_(disk),
        t0_(trace::NowNs()),
        w0_(disk->write_ops()),
        b0_(disk->bytes_written())
#endif
  {
#if !HISTAR_TRACE
    (void)op;
    (void)disk;
#endif
  }

  void Finish(Status st) {
#if HISTAR_TRACE
    trace::RecordStoreOp(op_, static_cast<int8_t>(st), trace::NowNs() - t0_,
                         disk_->bytes_written() - b0_, disk_->write_ops() - w0_);
#else
    (void)st;
#endif
  }

 private:
#if HISTAR_TRACE
  trace::StoreOp op_;
  DiskModel* disk_;
  uint64_t t0_;
  uint64_t w0_;
  uint64_t b0_;
#endif
};

}  // namespace

SingleLevelStore::SingleLevelStore(DiskModel* disk, const StoreTuning& tuning)
    : disk_(disk),
      tuning_(tuning),
      alloc_(2 * 4096 + tuning.log_region_bytes,
             disk->geometry().capacity_bytes - (2 * 4096 + tuning.log_region_bytes)) {}

uint64_t StoreChecksum(const void* data, size_t len) {
  // FNV-1a. Not cryptographic — it only needs to catch torn writes.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Status SingleLevelStore::Format() {
  MutexLock lock(&mu_);
  try {
    return FormatLocked();
  } catch (const std::bad_alloc&) {
    return Status::kNoMem;
  }
}

Status SingleLevelStore::FormatLocked() {
  objmap_.Clear();
  pending_updates_.clear();
  pending_deads_.clear();
  alloc_.Reset();
  root_ = kInvalidObject;
  generation_ = 0;
  which_sb_ = false;
  label_table_.clear();
  chain_.clear();
  epoch_ = 0;
  need_base_ = true;
  pending_frees_.clear();
  log_head_ = 0;
  log_seq_ = 0;
  log_applied_seq_ = 0;
  log_pending_ = 0;
  log_tail_.clear();
  return WriteSuperblock();
}

Status SingleLevelStore::WriteSuperblock() {
  Superblock sb;
  sb.magic = kMagic;
  sb.generation = ++generation_;
  sb.root = root_;
  sb.log_applied_seq = log_applied_seq_;
  sb.epoch = epoch_;
  sb.chain_len = chain_.size();
  for (size_t i = 0; i < chain_.size() && i < kMaxChain; ++i) {
    sb.chain[2 * i] = chain_[i].offset;
    sb.chain[2 * i + 1] = chain_[i].length;
  }
  sb.checksum = 0;
  sb.checksum = StoreChecksum(&sb, sizeof(sb));
  // Alternate slots only across SUCCESSFUL flips. A failed flip must retry
  // the same slot: advancing on failure would aim the next attempt at the
  // other slot — the one holding the newest durable superblock — and a
  // second fault (e.g. a torn write) could then destroy it, time-traveling
  // recovery past every commit to whatever the stale slot still holds.
  uint64_t slot = which_sb_ ? 4096 : 0;
  Status st = disk_->Write(slot, &sb, sizeof(sb));
  if (st == Status::kOk) {
    st = disk_->Flush();
  }
  if (st != Status::kOk) {
    return st;
  }
  which_sb_ = !which_sb_;
  return Status::kOk;
}

Status SingleLevelStore::ReadSuperblocks(Superblock* out) {
  Superblock best;
  bool found = false;
  uint64_t best_slot = 0;
  for (uint64_t slot : {uint64_t{0}, uint64_t{4096}}) {
    Superblock sb;
    if (disk_->Read(slot, &sb, sizeof(sb)) != Status::kOk) {
      continue;
    }
    uint64_t want = sb.checksum;
    sb.checksum = 0;
    if (sb.magic != kMagic || StoreChecksum(&sb, sizeof(sb)) != want) {
      continue;
    }
    sb.checksum = want;
    if (!found || sb.generation > best.generation) {
      best = sb;
      best_slot = slot;
      found = true;
    }
  }
  if (!found) {
    return Status::kNotFound;
  }
  // The next flip must target the slot NOT holding the superblock this boot
  // trusts, so a faulted first commit can never destroy it.
  which_sb_ = best_slot == 0;
  *out = best;
  return Status::kOk;
}

Status SingleLevelStore::WriteObject(ObjectId id, const std::vector<uint8_t>& bytes,
                                     uint64_t meta_len) {
  // Shadow write: new extent first, then retire the old one, so a crash
  // mid-checkpoint leaves the previous snapshot intact. The trailing
  // checksum covers only the metadata prefix [0, meta_len): segment payload
  // after it may later be rewritten in place by SyncPages without
  // invalidating the blob (ext3-writeback semantics — see
  // docs/persistence.md).
  StoreAlloc::Check();
  meta_len = std::min<uint64_t>(meta_len, bytes.size());
  Result<uint64_t> off = alloc_.Allocate(bytes.size() + 8);
  if (!off.ok()) {
    return off.status();
  }
  uint64_t csum = StoreChecksum(bytes.data(), meta_len);
  Status st =
      bytes.empty() ? Status::kOk : disk_->Write(off.value(), bytes.data(), bytes.size());
  if (st == Status::kOk) {
    st = disk_->Write(off.value() + bytes.size(), &csum, 8);
  }
  if (st != Status::kOk) {
    StoreAllocNoFail cleanup;  // unwinding a failed write must not fault again
    alloc_.Free(off.value(), bytes.size() + 8);
    return st;
  }
  // The blob is durable and the extent allocated: the map/bookkeeping update
  // must complete as a unit. A throw between the pending_frees_ push and the
  // map insert would queue the extent the map still references for reuse.
  StoreAllocNoFail atomic_update;
  if (std::optional<ObjRecord> old = objmap_.Find(id); old.has_value()) {
    pending_frees_.push_back(old->extent);
  }
  objmap_.Insert(id, ObjRecord{Extent{off.value(), bytes.size() + 8}, meta_len});
  pending_updates_.push_back(id);
  return Status::kOk;
}

Status SingleLevelStore::CommitSection(const std::vector<LabelTableRecord>* label_delta) {
  // The single commit point for every durable state advance. A base section
  // re-emits the complete label table and object map; an increment carries
  // only this epoch's label delta, map updates and deaths. Recovery replays
  // the chain in order, so the chain length bounds replay work — hence the
  // forced base once the chain holds max_increments increments, or as many
  // as the superblock's chain slots can name, whichever comes first.
  StoreAlloc::Check();
  size_t increments = chain_.empty() ? 0 : chain_.size() - 1;
  bool base = need_base_ || chain_.empty() ||
              increments >= std::min<size_t>(tuning_.max_increments, kMaxChain - 1);
  std::vector<uint8_t> image;
  PutU64(&image, kSectionMagic);
  PutU64(&image, epoch_ + 1);
  PutU8(&image, base ? 0 : 1);
  PutU8(&image, kBlobEngine);
  std::vector<std::pair<uint64_t, ObjRecord>> entries;
  if (base) {
    PutU32(&image, static_cast<uint32_t>(label_table_.size()));
    for (const auto& [id, bytes] : label_table_) {  // ascending id: re-intern order
      PutU32(&image, id);
      PutU32(&image, static_cast<uint32_t>(bytes.size()));
      image.insert(image.end(), bytes.begin(), bytes.end());
    }
    objmap_.ForEach([&entries](const uint64_t& id, const ObjRecord& rec) {
      entries.emplace_back(id, rec);
    });
  } else {
    size_t n_labels = label_delta != nullptr ? label_delta->size() : 0;
    PutU32(&image, static_cast<uint32_t>(n_labels));
    if (label_delta != nullptr) {
      for (const LabelTableRecord& rec : *label_delta) {
        PutU32(&image, rec.id);
        PutU32(&image, static_cast<uint32_t>(rec.bytes.size()));
        image.insert(image.end(), rec.bytes.begin(), rec.bytes.end());
      }
    }
    // Deduplicate update ids (an object can be written twice between
    // commits) and drop ids that died after being written.
    std::sort(pending_updates_.begin(), pending_updates_.end());
    pending_updates_.erase(std::unique(pending_updates_.begin(), pending_updates_.end()),
                           pending_updates_.end());
    for (uint64_t id : pending_updates_) {
      if (std::optional<ObjRecord> rec = objmap_.Find(id); rec.has_value()) {
        entries.emplace_back(id, *rec);
      }
    }
  }
  PutU32(&image, static_cast<uint32_t>(entries.size()));
  for (const auto& [id, rec] : entries) {
    PutU64(&image, id);
    PutU64(&image, rec.extent.offset);
    PutU64(&image, rec.extent.length);
    PutU64(&image, rec.meta_len);
  }
  // A base names no dead ids: absence from the map suffices.
  PutU32(&image, base ? 0 : static_cast<uint32_t>(pending_deads_.size()));
  if (!base) {
    for (uint64_t id : pending_deads_) {
      PutU64(&image, id);
    }
  }

  Result<uint64_t> off = alloc_.Allocate(image.size() + 8);
  if (!off.ok()) {
    return off.status();
  }
  uint64_t csum = StoreChecksum(image.data(), image.size());
  Status st = disk_->Write(off.value(), image.data(), image.size());
  if (st == Status::kOk) {
    st = disk_->Write(off.value() + image.size(), &csum, 8);
  }
  if (st == Status::kOk) {
    st = disk_->Flush();  // section + object images durable before the flip
  }
  if (st != Status::kOk) {
    StoreAllocNoFail cleanup;
    alloc_.Free(off.value(), image.size() + 8);
    return st;
  }
  ++epoch_;
  if (base) {
    // The new base subsumes the whole old chain; its sections become
    // reusable once the flip commits.
    for (const Extent& old : chain_) {
      pending_frees_.push_back(old);
    }
    chain_.clear();
  }
  chain_.push_back(Extent{off.value(), image.size() + 8});
  need_base_ = false;
  pending_updates_.clear();
  pending_deads_.clear();
  last_commit_base_ = base;
  last_section_bytes_ = image.size() + 8;
  st = WriteSuperblock();
  if (st != Status::kOk) {
    return st;
  }
  // Only after the superblock flip is it safe to reuse superseded extents.
  // The commit is durable at this point: releasing the superseded extents
  // must not fault halfway (a partial release with pending_frees_ cleared
  // would leak; a partial release with it kept would double-free later).
  StoreAllocNoFail cleanup;
  for (const Extent& e : pending_frees_) {
    alloc_.Free(e.offset, e.length);
  }
  pending_frees_.clear();
  return Status::kOk;
}

Status SingleLevelStore::Checkpoint(const CheckpointBatch& batch) {
  MutexLock lock(&mu_);
  StoreOpTrace t(trace::StoreOp::kCheckpoint, disk_);
  Status st;
  try {
    st = CheckpointLocked(batch);
  } catch (const std::bad_alloc&) {
    st = Status::kNoMem;
  }
  t.Finish(st);
  return st;
}

Status SingleLevelStore::CheckpointLocked(const CheckpointBatch& batch) {
  StoreAlloc::Check();
  // Extend the store's label table with this sync's delta. The merge is
  // idempotent: a delta resent after a failed commit just overwrites equal
  // records.
  for (const LabelTableRecord& rec : batch.label_delta) {
    label_table_[rec.id] = rec.bytes;
  }
  // Drop objects that no longer exist.
  std::unordered_map<uint64_t, bool> live_set;
  live_set.reserve(batch.live.size());
  for (ObjectId id : batch.live) {
    live_set[id] = true;
  }
  std::vector<std::pair<ObjectId, Extent>> dead;
  objmap_.ForEach([&](const uint64_t& id, const ObjRecord& rec) {
    if (live_set.find(id) == live_set.end()) {
      dead.emplace_back(id, rec.extent);
    }
  });
  for (const auto& [id, extent] : dead) {
    objmap_.Erase(id);
    pending_frees_.push_back(extent);
    pending_deads_.push_back(id);
  }
  // Write every dirty object image (delayed allocation: the batch lands
  // contiguously in creation order).
  std::unordered_map<uint64_t, bool> dirty_ids;
  dirty_ids.reserve(batch.dirty.size());
  for (const ObjectImage& img : batch.dirty) {
    Status st = WriteObject(img.id, img.bytes, img.meta_len);
    if (st != Status::kOk) {
      return st;
    }
    dirty_ids[img.id] = true;
  }
  // Fold unapplied WAL images into the heap before declaring the log
  // subsumed. After a recovery, an object can exist ONLY as a WAL record
  // (fsynced, never checkpointed, restored with a clean dirty mark):
  // without this fold, advancing log_applied_seq_ would orphan it — in
  // neither the map nor the replayable log. Ids this batch rewrote are
  // skipped (their dirty image is newer), as are ids that just died.
  for (const auto& [id, img] : log_tail_) {
    if (dirty_ids.count(id) != 0 || live_set.find(id) == live_set.end()) {
      continue;
    }
    Status st = WriteObject(id, img.bytes, img.meta_len);
    if (st != Status::kOk) {
      return st;
    }
  }
  root_ = batch.root;
  last_commit_objects_ = batch.dirty.size();
  // The checkpoint subsumes everything in the log: the committed
  // superblock records the current sequence, but the log region itself is
  // only reusable once the commit succeeds — a failed commit must leave
  // acknowledged records in place for replay (and for the next attempt's
  // fold), so the head/tail reset waits for CommitSection.
  log_applied_seq_ = log_seq_;
  Status st = CommitSection(&batch.label_delta);
  if (st == Status::kOk) {
    log_head_ = 0;
    log_pending_ = 0;
    log_tail_.clear();
  }
  return st;
}

Status SingleLevelStore::SyncOne(ObjectId id, const std::vector<uint8_t>& bytes,
                                 uint64_t meta_len) {
  MutexLock lock(&mu_);
  StoreOpTrace t(trace::StoreOp::kSyncOne, disk_);
  Status st;
  try {
    st = SyncOneLocked(id, bytes, meta_len);
  } catch (const std::bad_alloc&) {
    st = Status::kNoMem;
  }
  t.Finish(st);
  return st;
}

Status SingleLevelStore::SyncOneLocked(ObjectId id, const std::vector<uint8_t>& bytes,
                                       uint64_t meta_len) {
  StoreAlloc::Check();
  if (bytes.size() > tuning_.log_region_bytes / 4) {
    // Too big for the log: write it to a fresh extent and commit the new
    // state as an increment (or a base if one is due).
    Status st = WriteObject(id, bytes, meta_len);
    if (st != Status::kOk) {
      return st;
    }
    last_commit_objects_ = 1;
    return CommitSection(nullptr);
  }
  // Record: [magic][seq][id][len][meta_len][bytes][checksum-of-all-prior].
  uint64_t header[kLogHeaderWords] = {kLogMagic, ++log_seq_, id, bytes.size(), meta_len};
  uint64_t record_len = sizeof(header) + bytes.size() + 8;
  if (log_head_ + record_len > tuning_.log_region_bytes) {
    // Log full: fold it into the heap and commit.
    Status st = ApplyLog();
    if (st != Status::kOk) {
      return st;
    }
  }
  uint64_t base = log_start() + log_head_;
  Status st = disk_->Write(base, header, sizeof(header));
  if (st == Status::kOk && !bytes.empty()) {
    st = disk_->Write(base + sizeof(header), bytes.data(), bytes.size());
  }
  if (st == Status::kOk) {
    uint64_t csum =
        StoreChecksum(header, sizeof(header)) ^ StoreChecksum(bytes.data(), bytes.size());
    st = disk_->Write(base + sizeof(header) + bytes.size(), &csum, 8);
  }
  if (st != Status::kOk) {
    return st;
  }
  st = disk_->Flush();
  if (st != Status::kOk) {
    return st;
  }
  log_head_ += record_len;
  ++log_pending_;
  ++log_records_total_;
  log_tail_[id] = LogImage{bytes, meta_len};
  if (log_pending_ >= tuning_.log_apply_threshold) {
    return ApplyLog();
  }
  return Status::kOk;
}

Status SingleLevelStore::ApplyLog() {
  StoreAlloc::Check();
  ++log_applies_;
  for (const auto& [id, img] : log_tail_) {
    Status st = WriteObject(id, img.bytes, img.meta_len);
    if (st != Status::kOk) {
      return st;
    }
  }
  last_commit_objects_ = log_tail_.size();
  log_applied_seq_ = log_seq_;
  // Folded WAL images are self-contained; the map updates commit as an
  // increment with no label records. As in Checkpoint, the log region is
  // only recycled once the commit is durable: a failed commit keeps the
  // records (and the tail, for the retry's re-fold) intact for replay.
  Status st = CommitSection(nullptr);
  if (st == Status::kOk) {
    log_head_ = 0;
    log_pending_ = 0;
    log_tail_.clear();
  }
  return st;
}

Status SingleLevelStore::SyncPages(ObjectId id, uint64_t offset,
                                   const std::vector<uint8_t>& pages) {
  MutexLock lock(&mu_);
  StoreOpTrace t(trace::StoreOp::kSyncPages, disk_);
  Status st;
  try {
    st = SyncPagesLocked(id, offset, pages);
  } catch (const std::bad_alloc&) {
    st = Status::kNoMem;
  }
  t.Finish(st);
  return st;
}

Status SingleLevelStore::SyncPagesLocked(ObjectId id, uint64_t offset,
                                         const std::vector<uint8_t>& pages) {
  std::optional<ObjRecord> rec = objmap_.Find(id);
  if (!rec.has_value()) {
    return Status::kNotFound;  // never checkpointed: nothing to flush into
  }
  // In-place flush of real payload bytes, landing past the checksummed
  // metadata prefix — the checksum therefore stays sound however this write
  // interleaves with a crash. The on-disk image may predate a resize, so
  // clamp to the stored payload capacity; pages beyond it are covered by
  // the object's dirty mark at the next checkpoint.
  uint64_t blob_len = rec->extent.length - 8;
  uint64_t meta = std::min(rec->meta_len, blob_len);
  uint64_t capacity = blob_len - meta;
  if (offset >= capacity) {
    return Status::kOk;
  }
  uint64_t n = std::min<uint64_t>(pages.size(), capacity - offset);
  if (n == 0) {
    return Status::kOk;
  }
  Status st = disk_->Write(rec->extent.offset + meta + offset, pages.data(), n);
  if (st != Status::kOk) {
    return st;
  }
  return disk_->Flush();
}

Result<uint64_t> SingleLevelStore::TouchObject(ObjectId id) {
  MutexLock lock(&mu_);
  try {
    return TouchObjectLocked(id);
  } catch (const std::bad_alloc&) {
    return Status::kNoMem;
  }
}

Result<uint64_t> SingleLevelStore::TouchObjectLocked(ObjectId id) {
  std::optional<ObjRecord> rec = objmap_.Find(id);
  if (!rec.has_value()) {
    return Status::kNotFound;
  }
  const Extent& e = rec->extent;
  std::vector<uint8_t> buf(std::min<uint64_t>(e.length, 64 * 1024));
  uint64_t pos = 0;
  while (pos < e.length) {
    uint64_t n = std::min<uint64_t>(buf.size(), e.length - pos);
    Status st = disk_->Read(e.offset + pos, buf.data(), n);
    if (st != Status::kOk) {
      return st;
    }
    pos += n;
  }
  return e.length;
}

Status SingleLevelStore::Recover(Kernel* kernel) {
  MutexLock lock(&mu_);
  StoreOpTrace t(trace::StoreOp::kRestore, disk_);
  Status st;
  try {
    st = RecoverLocked(kernel);
  } catch (const std::bad_alloc&) {
    st = Status::kNoMem;
  }
  t.Finish(st);
  return st;
}

Status SingleLevelStore::RecoverLocked(Kernel* kernel) {
  StoreAlloc::Check();
  Superblock sb;
  Status st = ReadSuperblocks(&sb);
  if (st != Status::kOk) {
    return st;
  }
  generation_ = sb.generation;
  root_ = sb.root;
  log_applied_seq_ = sb.log_applied_seq;
  epoch_ = sb.epoch;

  // Replay the checkpoint chain in order: the base re-creates the label
  // table and the object map, each increment folds its delta on top. Every
  // section must carry the blob engine byte; a disk written by the retired
  // Bε-tree engine is rejected rather than misread.
  label_table_.clear();
  objmap_.Clear();
  pending_updates_.clear();
  pending_deads_.clear();
  chain_.clear();
  pending_frees_.clear();
  if (sb.chain_len > kMaxChain) {
    return Status::kCorrupt;
  }
  uint64_t prev_epoch = 0;
  for (size_t i = 0; i < sb.chain_len; ++i) {
    Extent ext{sb.chain[2 * i], sb.chain[2 * i + 1]};
    if (ext.length < 8) {
      return Status::kCorrupt;
    }
    std::vector<uint8_t> image(ext.length);
    st = disk_->Read(ext.offset, image.data(), image.size());
    if (st != Status::kOk) {
      return st;
    }
    uint64_t want;
    memcpy(&want, image.data() + image.size() - 8, 8);
    if (StoreChecksum(image.data(), image.size() - 8) != want) {
      return Status::kCorrupt;
    }
    storewire::Reader r{image.data(), image.size() - 8};
    uint64_t magic = r.U64();
    uint64_t epoch = r.U64();
    uint8_t kind = r.U8();
    uint8_t eng = r.U8();
    if (r.fail || magic != kSectionMagic || epoch <= prev_epoch ||
        kind != (i == 0 ? 0 : 1) || eng != kBlobEngine) {
      return Status::kCorrupt;
    }
    uint32_t n_labels = r.U32();
    for (uint32_t j = 0; j < n_labels && !r.fail; ++j) {
      uint32_t id = r.U32();
      uint32_t len = r.U32();
      std::vector<uint8_t> bytes;
      if (!r.Bytes(&bytes, len)) {
        break;
      }
      label_table_[id] = std::move(bytes);
    }
    // The body: u32 count + object-map records, then u32 count + dead ids.
    uint32_t n_objects = r.U32();
    for (uint32_t j = 0; j < n_objects && !r.fail; ++j) {
      uint64_t id = r.U64();
      ObjRecord rec;
      rec.extent.offset = r.U64();
      rec.extent.length = r.U64();
      rec.meta_len = r.U64();
      if (!r.fail) {
        objmap_.Insert(id, rec);
      }
    }
    uint32_t n_dead = r.U32();
    for (uint32_t j = 0; j < n_dead && !r.fail; ++j) {
      uint64_t id = r.U64();
      if (!r.fail) {
        objmap_.Erase(id);
      }
    }
    if (r.fail) {
      return Status::kCorrupt;
    }
    prev_epoch = epoch;
    chain_.push_back(ext);
  }

  // Rebuild the allocator: carve out the object blobs' and the chain's
  // section extents from a freshly reset free pool.
  alloc_.Reset();
  std::vector<ObjRecord> blobs;
  std::vector<Extent> used;
  objmap_.ForEach([&](const uint64_t&, const ObjRecord& rec) {
    blobs.push_back(rec);
    used.push_back(rec.extent);
  });
  for (const Extent& e : chain_) {
    used.push_back(e);
  }
  if (!alloc_.ReserveExtents(used)) {
    return Status::kCorrupt;
  }

  // Hand the label table to the kernel FIRST: one re-intern pass builds the
  // old-id → new-id remap that every label-ref blob below resolves through.
  // If the kernel could not reproduce the ids (changed shard config), the
  // on-disk id space must not be extended: force a full base — and the
  // kernel re-dirties the world so that base rewrites every blob.
  std::vector<LabelTableRecord> records;
  records.reserve(label_table_.size());
  for (const auto& [id, bytes] : label_table_) {  // std::map: ascending ids
    LabelTableRecord rec;
    rec.id = id;
    rec.bytes = bytes;
    records.push_back(std::move(rec));
  }
  bool ids_stable = true;
  st = kernel->RestoreLabelTable(records, &ids_stable);
  if (st != Status::kOk) {
    return st;
  }
  need_base_ = chain_.empty() || !ids_stable;

  // Load every object into the kernel. The checksum covers the metadata
  // prefix only; payload bytes past it carry no integrity word (they may
  // have been rewritten in place by SyncPages — writeback semantics).
  for (const ObjRecord& rec : blobs) {
    if (rec.extent.length < 8 || rec.meta_len > rec.extent.length - 8) {
      return Status::kCorrupt;
    }
    std::vector<uint8_t> blob(rec.extent.length);
    st = disk_->Read(rec.extent.offset, blob.data(), blob.size());
    if (st != Status::kOk) {
      return st;
    }
    uint64_t want;
    memcpy(&want, blob.data() + blob.size() - 8, 8);
    if (StoreChecksum(blob.data(), rec.meta_len) != want) {
      return Status::kCorrupt;
    }
    blob.resize(blob.size() - 8);
    st = kernel->RestoreObject(blob);
    if (st != Status::kOk) {
      return st;
    }
  }

  // Replay the log tail: records with seq > applied and a valid checksum.
  uint64_t pos = 0;
  log_head_ = 0;
  log_seq_ = log_applied_seq_;
  log_pending_ = 0;
  log_tail_.clear();
  for (;;) {
    uint64_t header[kLogHeaderWords];
    if (pos + sizeof(header) + 8 > tuning_.log_region_bytes) {
      break;
    }
    if (disk_->Read(log_start() + pos, header, sizeof(header)) != Status::kOk) {
      break;
    }
    if (header[0] != kLogMagic || header[1] <= log_applied_seq_) {
      break;
    }
    uint64_t len = header[3];
    if (pos + sizeof(header) + len + 8 > tuning_.log_region_bytes) {
      break;
    }
    std::vector<uint8_t> bytes(len);
    if (disk_->Read(log_start() + pos + sizeof(header), bytes.data(), len) != Status::kOk) {
      break;
    }
    uint64_t want;
    if (disk_->Read(log_start() + pos + sizeof(header) + len, &want, 8) != Status::kOk) {
      break;
    }
    if ((StoreChecksum(header, sizeof(header)) ^ StoreChecksum(bytes.data(), bytes.size())) !=
        want) {
      break;  // torn record: end of valid log
    }
    st = kernel->RestoreObject(bytes);
    if (st != Status::kOk) {
      return st;
    }
    log_seq_ = header[1];
    log_tail_[header[2]] = LogImage{bytes, header[4]};
    pos += sizeof(header) + len + 8;
    log_head_ = pos;
    ++log_pending_;
  }

  kernel->FinishRestore(root_);
  kernel->AttachPersistTarget(this);
  return Status::kOk;
}

}  // namespace histar
