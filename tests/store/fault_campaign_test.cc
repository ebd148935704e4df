// Randomized fault-injection campaign (PR 7 tentpole).
//
// Drives seeded multi-crash schedules against the single-level store across
// base checkpoints, increments, WAL appends, and base rollovers, on three
// workloads (dirty-heavy, label-churn, batch-driven). Each round mutates the
// live kernel, arms one fault from the DiskModel FaultPlan / StoreAlloc
// repertoire (torn write, misdirected write, read error, write error, bit
// flip, full-device crash, allocation failure — or none), syncs, then boots
// a fresh kernel from the disk and checks it against the CrashOracle: the
// recovered world must be a state the live system actually passed through.
// The kernel itself never crashes — it is the shadow (satellite: a failed
// sync leaves the kernel live and the world dirty).
//
// Silent-corruption classes (misdirected writes, durable bit flips on the
// write path) can defeat checksums by construction — segment payload past
// meta_len is deliberately unchecksummed (sys_sync_pages writeback
// semantics). Once one fires, the schedule drops to structural checking:
// recovery must either report corruption or produce a well-formed world
// (root intact, every object serializable) — it must never abort or hang.
//
// Reproducibility: every schedule is driven by one uint64 seed printed on
// failure as "FAULT_SEED=<seed> (workload <name>)". Environment knobs:
//   FAULT_SCHEDULES   schedules per workload (default 70 → 210 total)
//   FAULT_SEED        replay exactly one seed on every workload
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/core/trace.h"
#include "src/kernel/thread_runner.h"
#include "src/store/single_level_store.h"
#include "src/store/store_alloc.h"
#include "tests/store/crash_oracle.h"

namespace histar {
namespace {

enum class Workload { kDirtyHeavy, kLabelChurn, kBatchDriven };

StoreTuning CampaignTuning() {
  StoreTuning t;
  t.log_region_bytes = 1 << 20;
  t.log_apply_threshold = 8;   // low, so WAL folds commit mid-schedule
  t.max_increments = 3;        // low, so schedules cross base rollovers
  return t;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDirtyHeavy: return "dirty-heavy";
    case Workload::kLabelChurn: return "label-churn";
    case Workload::kBatchDriven: return "batch-driven";
  }
  return "?";
}

// Campaign-wide fault-class tally (acceptance: >= 4 classes must fire).
struct CampaignStats {
  uint64_t injected[kNumFaultKinds] = {};
  uint64_t alloc_failures = 0;
  uint64_t schedules = 0;
  uint64_t rounds = 0;
  uint64_t relaxed_schedules = 0;

  int ClassesFired() const {
    // torn, misdirect, read-error+bitflip (detection class), write-error,
    // device-crash, alloc-failure.
    int n = 0;
    n += injected[static_cast<int>(FaultKind::kTorn)] > 0;
    n += injected[static_cast<int>(FaultKind::kMisdirect)] > 0;
    n += (injected[static_cast<int>(FaultKind::kReadError)] +
          injected[static_cast<int>(FaultKind::kBitFlip)]) > 0;
    n += injected[static_cast<int>(FaultKind::kWriteError)] > 0;
    n += injected[static_cast<int>(FaultKind::kCrashDevice)] > 0;
    n += alloc_failures > 0;
    return n;
  }
};

// One schedule's state: a live kernel bound to a store on a faultable disk.
// Not a gtest fixture — the campaign builds hundreds of these inside one
// test body.
class Schedule {
 public:
  Schedule(Workload w, uint64_t seed, CampaignStats* stats)
      : workload_(w), seed_(seed), rng_(seed), stats_(stats), tuning_(CampaignTuning()) {
    DiskGeometry g;
    g.capacity_bytes = 64 << 20;
    g.zero_latency = true;
    g.store_data = true;
    disk_ = std::make_unique<DiskModel>(g);
    store_ = std::make_unique<SingleLevelStore>(disk_.get(), tuning_);
    EXPECT_EQ(store_->Format(), Status::kOk);
    kernel_ = std::make_unique<Kernel>();
    init_ = kernel_->BootstrapThread(Label(Level::k1), Label(Level::k2), "init");
    CurrentThread::Set(init_);
    kernel_->AttachPersistTarget(store_.get());
  }

  ~Schedule() {
    for (size_t k = 0; k < kNumFaultKinds; ++k) {
      stats_->injected[k] += disk_->faults_injected(static_cast<FaultKind>(k));
    }
    CurrentThread::Set(kInvalidObject);
  }

  // Returns false (with a gtest failure recorded) if any oracle check
  // failed; the caller prints the replay line.
  bool Run() {
    // Silent-corruption classes end strict checking for the rest of the
    // schedule, so only a quarter of schedules may arm them — the rest
    // keep the byte-exact oracle live to the end.
    allow_silent_ = rng_() % 4 == 0;
    SetupWorkload();
    if (kernel_->sys_sync(init_) != Status::kOk) {
      ADD_FAILURE() << "baseline sync failed before any fault was armed";
      return false;
    }
    oracle_ = std::make_unique<CrashOracle>(WorldImage(*kernel_));

    int rounds = 4 + static_cast<int>(rng_() % 4);
    for (int r = 0; r < rounds; ++r) {
      ++stats_->rounds;
      if (!RunRound()) {
        return false;
      }
    }
    return Finish();
  }

 private:
  // --- workload bodies ------------------------------------------------

  ObjectId NewSegment(const Label& l, uint64_t len) {
    CreateSpec spec;
    spec.container = kernel_->root_container();
    spec.label = l;
    spec.descrip = "fc-seg";
    spec.quota = kObjectOverheadBytes + len + kPageSize;
    Result<ObjectId> s = kernel_->sys_segment_create(init_, spec, len);
    if (!s.ok()) {
      return kInvalidObject;
    }
    segs_.push_back(s.value());
    return s.value();
  }

  ContainerEntry RootEntry(ObjectId o) const {
    return ContainerEntry{kernel_->root_container(), o};
  }

  void SetupWorkload() {
    if (workload_ == Workload::kLabelChurn) {
      Result<CategoryId> c = kernel_->sys_cat_create(init_);
      ASSERT_TRUE(c.ok());
      cat_ = c.value();
    }
    for (int i = 0; i < 4; ++i) {
      NewSegment(Label(), 128 + (rng_() % 4) * 64);
    }
  }

  void Mutate() {
    switch (workload_) {
      case Workload::kDirtyHeavy: {
        // Touch most of the live set plus a creation or two: increments
        // carry many blobs, rollover arrives fast.
        int creates = static_cast<int>(rng_() % 3);
        for (int i = 0; i < creates; ++i) {
          NewSegment(Label(), 128);
        }
        for (ObjectId s : segs_) {
          if (rng_() % 4 == 0) continue;
          uint64_t stamp = rng_();
          (void)kernel_->sys_segment_write(init_, RootEntry(s), &stamp, 0, 8);
        }
        break;
      }
      case Workload::kLabelChurn: {
        // Labeled creates and deletes: the label table grows a delta most
        // epochs and the dead sweep runs.
        Label taint(Level::k1, {{cat_, Level::k2}});
        for (int i = 0; i < 2; ++i) {
          NewSegment(rng_() % 2 == 0 ? taint : Label(), 96);
        }
        if (segs_.size() > 5 && rng_() % 2 == 0) {
          size_t victim = rng_() % segs_.size();
          if (kernel_->sys_container_unref(init_, RootEntry(segs_[victim])) == Status::kOk) {
            segs_.erase(segs_.begin() + static_cast<long>(victim));
          }
        }
        for (ObjectId s : segs_) {
          if (rng_() % 3 != 0) continue;
          uint64_t stamp = rng_();
          (void)kernel_->sys_segment_write(init_, RootEntry(s), &stamp, 0, 8);
        }
        break;
      }
      case Workload::kBatchDriven: {
        // Dirty objects through the batched ABI: three stamped segment
        // writes submitted as one SubmitBatch, run under one group lock.
        uint64_t stamps[3] = {};
        std::vector<SyscallReq> reqs;
        for (int i = 0; i < 3 && !segs_.empty(); ++i) {
          ObjectId s = segs_[rng_() % segs_.size()];
          stamps[i] = rng_();
          reqs.push_back(SegmentWriteReq{RootEntry(s), &stamps[i], 0, 8});
        }
        std::vector<SyscallRes> res(reqs.size());
        (void)kernel_->SubmitBatch(init_, reqs, res);
        break;
      }
    }
  }

  // --- fault arming ---------------------------------------------------

  // Picks one fault for this round, setting armed_silent_ (the rule is a
  // silent-corruption class — schedule drops to structural checks once it
  // actually fires) and armed_read_ (the rule targets recovery reads and
  // stays armed across the reboot check).
  void ArmFault() {
    armed_silent_ = false;
    armed_read_ = false;
    FaultPlan plan;
    FaultRule rule;
    rule.on_read = false;
    // Most write traffic lands in the heap; point a third of the rules at
    // the superblock slots so commit points get corrupted too.
    if (rng_() % 3 == 0) {
      rule.offset_lo = 0;
      rule.offset_hi = 8192;
    }
    // Let the fault land a few writes into the sync rather than always on
    // the first matching one.
    if (rng_() % 2 == 0) {
      rule.op_index = rng_() % 6;
      rule.offset_lo = 0;  // op-index rules match anywhere
      rule.offset_hi = ~uint64_t{0};
    }
    switch (rng_() % 8) {
      case 0:  // no fault this round: clean commits interleave
        return;
      case 1:
        rule.kind = FaultKind::kTorn;
        rule.arg = rng_() % 4096;
        break;
      case 2:
        if (!allow_silent_) {
          rule.kind = FaultKind::kTorn;
          rule.arg = rng_() % 4096;
          break;
        }
        rule.kind = FaultKind::kMisdirect;
        rule.arg = 4096 + rng_() % (1 << 20);
        armed_silent_ = true;
        break;
      case 3:
        rule.kind = FaultKind::kWriteError;
        break;
      case 4:
        if (!allow_silent_) {
          rule.kind = FaultKind::kWriteError;
          break;
        }
        rule.kind = FaultKind::kBitFlip;
        rule.arg = rng_();
        armed_silent_ = true;  // durable flip; may hit unchecksummed payload
        break;
      case 5:
        rule.kind = FaultKind::kCrashDevice;
        break;
      case 6:
        StoreAlloc::FailNth(1 + rng_() % 10);
        return;
      case 7:
        // Recovery-time read fault, armed for the reboot check below (the
        // sync path only writes, so the rule survives it untouched).
        rule.on_read = true;
        rule.kind = rng_() % 2 == 0 ? FaultKind::kReadError : FaultKind::kBitFlip;
        rule.arg = rng_();
        rule.op_index = rng_() % 16;
        armed_read_ = true;
        break;
    }
    plan.rules.push_back(rule);
    disk_->SetFaultPlan(std::move(plan));
  }

  // --- the round ------------------------------------------------------

  bool RunRound() {
    Mutate();
    uint64_t misdirect_before = disk_->faults_injected(FaultKind::kMisdirect);
    uint64_t flip_before = disk_->faults_injected(FaultKind::kBitFlip);
    ArmFault();
    bool alloc_armed = StoreAlloc::armed();

    // Sync the live kernel — group sync usually, per-object sync often.
    Status st;
    bool dirty_before = !kernel_->DirtyObjects().empty();
    if (!segs_.empty() && rng_() % 3 == 0) {
      ObjectId target = segs_[rng_() % segs_.size()];
      st = kernel_->sys_sync_object(init_, RootEntry(target));
      oracle_->OnObjectSync(st, target, WorldImage(*kernel_));
    } else {
      st = kernel_->sys_sync(init_);
      oracle_->OnGroupSync(st, WorldImage(*kernel_));
    }
    if (alloc_armed && !StoreAlloc::armed() && st != Status::kOk) {
      ++stats_->alloc_failures;
    }
    if (armed_silent_ &&
        (disk_->faults_injected(FaultKind::kMisdirect) > misdirect_before ||
         disk_->faults_injected(FaultKind::kBitFlip) > flip_before)) {
      if (!relaxed_) {
        relaxed_ = true;
        ++stats_->relaxed_schedules;
      }
    }

    // The kernel must survive any failed sync: still live, world dirty.
    // (A round's RNG can skip every mutation — then there are no marks to
    // retire and a faulted sync legitimately fails with a clean world.)
    if (st != Status::kOk && !relaxed_ && dirty_before) {
      EXPECT_FALSE(kernel_->DirtyObjects().empty())
          << "failed sync (" << StatusName(st) << ") retired dirty marks";
    }

    if (disk_->crashed()) {
      disk_->Repair();
    }
    // A recovery-read fault stays armed across the reboot check on
    // purpose; anything else still pending (e.g. an op-index rule the sync
    // never reached) is cleared so the check is clean.
    bool read_fault_armed = armed_read_ && disk_->pending_faults() > 0;
    if (!read_fault_armed) {
      disk_->ClearFaults();
    }
    StoreAlloc::Disarm();

    return RebootCheck(read_fault_armed);
  }

  // Boots a fresh kernel off the disk and holds it against the oracle.
  // With a read fault armed the first boot may fail or time-travel; after
  // clearing, a clean boot must pass strictly.
  bool RebootCheck(bool read_fault_armed) {
    if (read_fault_armed) {
      RebootResult faulty = RebootFromDisk(disk_.get(), tuning_);
      // Any status is legal — kIoError/kCorrupt (detected), or kOk with a
      // transient flip that recovery's checksums didn't cover. Never an
      // abort; structural sanity when it claims success.
      if (faulty.status == Status::kOk && !StructurallySane(*faulty.kernel)) {
        ADD_FAILURE() << "read-faulted recovery produced a malformed world";
        return false;
      }
      disk_->ClearFaults();
    }
    RebootResult r = RebootFromDisk(disk_.get(), tuning_);
    if (relaxed_) {
      // A silent fault fired earlier: corruption may be detected (any
      // error) or latent (well-formed world with time-shifted bytes).
      if (r.status == Status::kOk && !StructurallySane(*r.kernel)) {
        ADD_FAILURE() << "recovery after a silent fault produced a malformed world";
        return false;
      }
      return true;
    }
    if (r.status != Status::kOk) {
      ADD_FAILURE() << "clean recovery failed: " << StatusName(r.status);
      return false;
    }
    ::testing::AssertionResult ok = oracle_->CheckRecovered(WorldImage(*r.kernel));
    if (!ok) {
      ADD_FAILURE() << ok.message();
      return false;
    }
    return true;
  }

  bool StructurallySane(const Kernel& k) {
    // root may be unset: a read fault on the newer superblock slot can
    // legitimately time-travel the boot to the Format-time mirror (no
    // checkpoint yet, only WAL-replayed objects) — that is a reachable
    // crash state, not corruption.
    if (k.root_container() != kInvalidObject && !k.ObjectExists(k.root_container())) {
      return false;
    }
    for (ObjectId id : k.LiveObjects()) {
      std::vector<uint8_t> bytes;
      if (!k.SerializeObject(id, &bytes)) {
        return false;
      }
    }
    return true;
  }

  // Disarms everything, lets the live kernel commit cleanly, and runs one
  // last reboot check — after a successful group sync the recovered world
  // must equal the live one exactly (unless the schedule went relaxed).
  bool Finish() {
    disk_->ClearFaults();
    StoreAlloc::Disarm();
    if (disk_->crashed()) {
      disk_->Repair();
    }
    Status st = Status::kOk;
    for (int i = 0; i < 3; ++i) {
      st = kernel_->sys_sync(init_);
      if (st == Status::kOk) break;
    }
    if (!relaxed_) {
      EXPECT_EQ(st, Status::kOk) << "fault-free final sync kept failing";
    }
    oracle_->OnGroupSync(st, WorldImage(*kernel_));
    return RebootCheck(false);
  }

  Workload workload_;
  uint64_t seed_;
  std::mt19937_64 rng_;
  CampaignStats* stats_;
  StoreTuning tuning_;
  bool relaxed_ = false;
  bool allow_silent_ = false;
  bool armed_silent_ = false;
  bool armed_read_ = false;

  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<SingleLevelStore> store_;
  std::unique_ptr<Kernel> kernel_;
  ObjectId init_ = kInvalidObject;
  CategoryId cat_ = 0;
  std::vector<ObjectId> segs_;
  std::unique_ptr<CrashOracle> oracle_;
};

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 0) : fallback;
}

TEST(FaultCampaign, RandomizedSchedulesRecoverConsistently) {
  CampaignStats stats;
  const uint64_t replay_seed = EnvU64("FAULT_SEED", 0);
  const uint64_t per_workload = replay_seed != 0 ? 1 : EnvU64("FAULT_SCHEDULES", 70);

  for (Workload w : {Workload::kDirtyHeavy, Workload::kLabelChurn, Workload::kBatchDriven}) {
    for (uint64_t i = 0; i < per_workload; ++i) {
      // Seed derivation is stable so any schedule replays from its printed
      // seed alone (plus the workload, also printed).
      uint64_t seed = replay_seed != 0
                          ? replay_seed
                          : (static_cast<uint64_t>(w) + 1) * 0x9e3779b97f4a7c15ULL + i * 7919 + 1;
      Schedule s(w, seed, &stats);
      if (!s.Run() || ::testing::Test::HasFailure()) {
        std::fprintf(stderr, "FAULT_SEED=%llu (workload %s)\n",
                     static_cast<unsigned long long>(seed), WorkloadName(w));
        // Dump the flight recorder next to the seed line: the failing
        // schedule's last syscalls, store commits, and injected faults,
        // replayable offline with tools/tracefmt (docs/observability.md).
        // CI uploads the file with the campaign log.
        const char* dump = "fault_campaign_trace.json";
        if (trace::DumpToFile(dump, 256)) {
          std::fprintf(stderr, "FAULT_TRACE=%s (render with tracefmt)\n", dump);
        }
        FAIL() << "schedule failed; replay with FAULT_SEED=" << seed << " (workload "
               << WorkloadName(w) << ")";
      }
      ++stats.schedules;
    }
  }

  std::fprintf(stderr,
               "fault campaign: %llu schedules, %llu rounds, %llu relaxed, "
               "%llu alloc failures, classes fired: %d\n",
               static_cast<unsigned long long>(stats.schedules),
               static_cast<unsigned long long>(stats.rounds),
               static_cast<unsigned long long>(stats.relaxed_schedules),
               static_cast<unsigned long long>(stats.alloc_failures), stats.ClassesFired());
  if (replay_seed == 0 && per_workload >= 30) {
    // Acceptance: the default campaign must actually exercise the fault
    // repertoire, not just clean rounds.
    EXPECT_GE(stats.ClassesFired(), 4);
  }
}

}  // namespace
}  // namespace histar
