// The single-level store (paper §3, §4).
//
// All kernel objects live here; on boot the entire system state is restored
// from the most recent on-disk snapshot. Layout:
//
//   [0      , 4K )   superblock slot A   (alternating, checksummed)
//   [4K     , 8K )   superblock slot B
//   [8K     , 8K+L)  write-ahead log region
//   [8K+L   , end)   object heap (extents managed by ExtentAllocator;
//                    object images and checkpoint sections both live here)
//
// Persistence model, as in the paper plus the incremental-checkpoint layer
// (docs/persistence.md has the byte-level formats):
//  * group sync / checkpoint: dirty objects are written to freshly allocated
//    (contiguous — "delayed allocation") extents in LABEL-REF format (labels
//    appear as 32-bit interned ids), then ONE checkpoint section is written
//    carrying an epoch header, the label-table records (full table for a
//    base snapshot, only the delta for an increment), the object-map records
//    for this epoch's writes, and the ids deleted this epoch. A superblock
//    flip commits the whole state atomically. After a full base snapshot,
//    subsequent checkpoints are increments: they write O(dirty) blobs and an
//    O(delta) section, never the O(live) map image the pre-incremental
//    format rewrote every sync. A base is forced on format, after a restore
//    that could not reproduce the on-disk label-id space, and once the chain
//    holds `max_increments` increments or fills the superblock's kMaxChain
//    slots, whichever comes first (bounding recovery replay length).
//  * per-object sync (fsync path): the object's SELF-CONTAINED image is
//    appended to the sequential write-ahead log and barriered (a log record
//    must replay without any label table). Logged updates are applied in
//    batches — after kLogApplyThreshold records the log contents are folded
//    into the heap and committed as an increment, matching the paper's
//    "once per approximately every 1,000 synchronous operations".
//  * in-place page flush (sys_sync_pages): the segment's real payload bytes
//    are written into its home extent past the checksummed metadata prefix.
//    Object checksums cover only that prefix (`meta_len`), so the in-place
//    write can never make the blob fail validation at recovery — the fix
//    for the old stale-checksum crash window, at the documented cost of
//    ext3-writeback semantics for the payload (a crash may leave a mix of
//    old and new pages; checkpoint/WAL paths are unaffected because their
//    atomicity comes from shadow paging + the superblock flip, not the
//    checksum).
//  * recovery: pick the newer valid superblock, replay the section chain in
//    order (base, then each increment — epochs must ascend) to rebuild the
//    label table and object map, hand the label table to the kernel FIRST
//    (one re-intern pass, yielding the old-id → new-id remap), then load
//    every object and finally replay valid log records with seq > the
//    superblock's applied sequence. A torn log record ends replay
//    (write-ahead ordering makes this safe).
#ifndef SRC_STORE_SINGLE_LEVEL_STORE_H_
#define SRC_STORE_SINGLE_LEVEL_STORE_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/core/sync.h"
#include "src/core/thread_annotations.h"
#include "src/kernel/kernel.h"
#include "src/store/bptree.h"
#include "src/store/disk_model.h"
#include "src/store/extent_alloc.h"

namespace histar {

struct StoreTuning {
  uint64_t log_region_bytes = 16 << 20;   // 16 MB WAL
  uint32_t log_apply_threshold = 1000;    // records before a batch apply
  // Incremental checkpoints between full base snapshots. Bounds the section
  // chain recovery must replay. The superblock names at most kMaxChain - 1
  // increments, so a larger value acts as kMaxChain - 1.
  uint32_t max_increments = 32;
};

// FNV-1a over bytes — the store's torn-write checksum (not cryptographic).
uint64_t StoreChecksum(const void* data, size_t len);

class SingleLevelStore : public PersistTarget {
 public:
  SingleLevelStore(DiskModel* disk, const StoreTuning& tuning = StoreTuning());

  // Formats the disk: writes an empty generation-0 superblock.
  Status Format();

  // PersistTarget: group checkpoint (base or increment — the store decides;
  // see the header comment). `batch.dirty` carries label-ref images of
  // mutated objects; `batch.live` is the full live set so deleted objects
  // are dropped; `batch.label_delta` extends the store's label table.
  Status Checkpoint(const CheckpointBatch& batch) override;
  // PersistTarget: append one self-contained object image to the WAL (fsync
  // of one object). Images too large for the log (> ¼ of the region) are
  // written directly to a fresh extent and committed as an increment — the
  // LFS-large sequential-write path.
  Status SyncOne(ObjectId id, const std::vector<uint8_t>& bytes, uint64_t meta_len) override;
  // PersistTarget: in-place payload flush. Writes the segment's real bytes
  // into the home extent past the checksummed prefix (see header comment);
  // latency-exact (a random write of pages.size() bytes plus a barrier).
  Status SyncPages(ObjectId id, uint64_t offset, const std::vector<uint8_t>& pages) override;

  // Simulates demand paging an object in from disk (the §7.1 read phases:
  // HiStar pages in the entire segment at first access). Charges the read
  // latency of the object's extent; returns its on-disk length.
  Result<uint64_t> TouchObject(ObjectId id);

  // Boot: restores the complete system state into `kernel`. Returns
  // kNotFound on an unformatted disk.
  Status Recover(Kernel* kernel);

  // Introspection for tests/benches. Locked: a bench thread may poll these
  // while syscall threads drive commits (they used to read the fields bare —
  // unsynchronized reads the annotation pass surfaced and fixed).
  uint64_t generation() const {
    MutexLock lock(&mu_);
    return generation_;
  }
  uint64_t epoch() const {
    MutexLock lock(&mu_);
    return epoch_;
  }
  uint64_t log_records() const {
    MutexLock lock(&mu_);
    return log_records_total_;
  }
  uint64_t log_applies() const {
    MutexLock lock(&mu_);
    return log_applies_;
  }
  uint64_t heap_free_bytes() const {
    MutexLock lock(&mu_);
    return alloc_.free_bytes();
  }
  ObjectId root_object() const {
    MutexLock lock(&mu_);
    return root_;
  }
  // Section chain currently committed: 1 after a base, +1 per increment.
  size_t chain_length() const {
    MutexLock lock(&mu_);
    return chain_.size();
  }
  size_t label_table_size() const {
    MutexLock lock(&mu_);
    return label_table_.size();
  }
  // Shape of the most recent commit point (checkpoint, log apply, or large
  // sync): was it a base, how many object images did it write, how big was
  // its section. These are what the O(dirty)-not-O(live) tests assert.
  bool last_commit_was_base() const {
    MutexLock lock(&mu_);
    return last_commit_base_;
  }
  uint64_t last_commit_objects() const {
    MutexLock lock(&mu_);
    return last_commit_objects_;
  }
  uint64_t last_section_bytes() const {
    MutexLock lock(&mu_);
    return last_section_bytes_;
  }

 private:
  static constexpr uint64_t kMagic = 0x48695374'61724f53ULL;  // "HiStarOS"
  static constexpr uint64_t kLogMagic = 0x4c4f4752'45435244ULL;
  static constexpr uint64_t kSectionMagic = 0x434b5054'53454354ULL;  // "CKPTSECT"
  // Superblock chain capacity: one base + up to kMaxChain-1 increments.
  static constexpr size_t kMaxChain = 48;
  static constexpr size_t kLogHeaderWords = 5;  // magic, seq, id, len, meta_len
  // The section header's engine byte. Only the blob layout exists; disks
  // from the two-engine era may carry 1 (a Bε-tree chain), which recovery
  // rejects as kCorrupt.
  static constexpr uint8_t kBlobEngine = 0;

  struct Superblock {
    uint64_t magic = 0;
    uint64_t generation = 0;
    uint64_t root = 0;
    uint64_t log_applied_seq = 0;
    uint64_t epoch = 0;
    uint64_t chain_len = 0;
    uint64_t chain[2 * kMaxChain] = {};  // (offset, length) pairs
    uint64_t checksum = 0;
  };
  static_assert(sizeof(Superblock) <= 4096, "superblock must fit its slot");

  // One object's home image: where it lives and how much of the blob the
  // checksum covers (segment payload past meta_len is excluded — see
  // ObjectImage in kernel.h).
  struct ObjRecord {
    Extent extent;
    uint64_t meta_len = 0;
  };

  // mu_ held for all of these. The public entry points above are thin
  // wrappers: take mu_, call the *Locked body, and catch std::bad_alloc
  // (the StoreAlloc fault hook and real allocation failure alike) into
  // Status::kNoMem — so an allocation failure anywhere on the store path
  // surfaces as a failed, retryable operation instead of an abort.
  Status FormatLocked() REQUIRES(mu_);
  Status CheckpointLocked(const CheckpointBatch& batch) REQUIRES(mu_);
  Status SyncOneLocked(ObjectId id, const std::vector<uint8_t>& bytes,
                       uint64_t meta_len) REQUIRES(mu_);
  Status SyncPagesLocked(ObjectId id, uint64_t offset,
                         const std::vector<uint8_t>& pages) REQUIRES(mu_);
  Result<uint64_t> TouchObjectLocked(ObjectId id) REQUIRES(mu_);
  Status RecoverLocked(Kernel* kernel) REQUIRES(mu_);
  Status WriteSuperblock() REQUIRES(mu_);
  Status ReadSuperblocks(Superblock* out) REQUIRES(mu_);
  // Shadow-writes one object image to a fresh extent and points the object
  // map at it; the superseded extent joins pending_frees_.
  Status WriteObject(ObjectId id, const std::vector<uint8_t>& bytes, uint64_t meta_len)
      REQUIRES(mu_);
  // The single commit point: writes one checkpoint section (base if the
  // chain is empty or a base is due; else an increment carrying this
  // epoch's map records and dead ids), flushes, flips the superblock, then
  // releases superseded extents. Advances epoch_.
  Status CommitSection(const std::vector<LabelTableRecord>* label_delta)
      REQUIRES(mu_);
  // Folds the outstanding log records into object home locations and
  // commits them as an increment.
  Status ApplyLog() REQUIRES(mu_);

  uint64_t log_start() const { return 2 * 4096; }
  uint64_t heap_start() const { return log_start() + tuning_.log_region_bytes; }

  DiskModel* disk_;
  StoreTuning tuning_;
  mutable Mutex mu_;

  ExtentAllocator alloc_ GUARDED_BY(mu_);
  // The object map: id → home extent (paper §4).
  BPlusTree<uint64_t, ObjRecord> objmap_ GUARDED_BY(mu_);
  // Object-map changes since the last committed section (increment records).
  std::vector<uint64_t> pending_updates_ GUARDED_BY(mu_);
  std::vector<uint64_t> pending_deads_ GUARDED_BY(mu_);
  ObjectId root_ GUARDED_BY(mu_) = kInvalidObject;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool which_sb_ GUARDED_BY(mu_) = false;  // slot to write next

  // Checkpoint-chain state. label_table_ is the store's accumulated copy of
  // the kernel's label table (id → serialized label), an ordered map so a
  // base section enumerates ascending ids — the order that lets recovery
  // re-intern to identical ids.
  std::map<uint32_t, std::vector<uint8_t>> label_table_ GUARDED_BY(mu_);
  std::vector<Extent> chain_ GUARDED_BY(mu_);  // committed: base + increments
  uint64_t epoch_ GUARDED_BY(mu_) = 0;   // epoch of latest committed section
  bool need_base_ GUARDED_BY(mu_) = true;  // force a base at the next commit
  // Extents superseded during the in-progress commit; reusable only after
  // the superblock flip commits (shadow paging discipline).
  std::vector<Extent> pending_frees_ GUARDED_BY(mu_);

  // Introspection (see accessors above).
  bool last_commit_base_ GUARDED_BY(mu_) = false;
  uint64_t last_commit_objects_ GUARDED_BY(mu_) = 0;
  uint64_t last_section_bytes_ GUARDED_BY(mu_) = 0;

  // WAL state.
  uint64_t log_head_ GUARDED_BY(mu_) = 0;  // next append offset in the region
  uint64_t log_seq_ GUARDED_BY(mu_) = 0;   // monotonic record sequence
  uint64_t log_applied_seq_ GUARDED_BY(mu_) = 0;
  uint32_t log_pending_ GUARDED_BY(mu_) = 0;  // records since last apply
  uint64_t log_records_total_ GUARDED_BY(mu_) = 0;
  uint64_t log_applies_ GUARDED_BY(mu_) = 0;
  // Images of objects sitting in the unapplied log tail (id → latest image).
  struct LogImage {
    std::vector<uint8_t> bytes;
    uint64_t meta_len = 0;
  };
  std::unordered_map<ObjectId, LogImage> log_tail_ GUARDED_BY(mu_);
};

}  // namespace histar

#endif  // SRC_STORE_SINGLE_LEVEL_STORE_H_
