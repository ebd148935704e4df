// Epoch-based reclamation (EBR) for the lock-free read path (PR 6).
//
// The warm read path (ObjectTable::GetPublished, the LabelRegistry memo
// tables, container link snapshots) dereferences pointers published with a
// release store and read with an acquire load — no mutex. Mutators
// still run under the exclusive TableLock; when they unlink a
// structure a concurrent reader may still hold, they hand it to
// EpochDomain::Retire instead of deleting it. The domain frees it only
// once every reader that could have seen the pointer has left its
// critical section.
//
// Protocol (classic three-epoch scheme):
//   - Readers bracket lock-free traversals with EpochGuard. Enter stores
//     the observed global epoch into the thread's record (seq_cst) and
//     re-checks the global so an in-flight advance can't miss it; Exit
//     clears the record. Guards nest (a thread-local depth counter).
//   - Retire(p) tags p with the current global epoch E. A reader active
//     at epoch E may have loaded p just before the mutator unlinked it.
//   - TryAdvance moves the global epoch from E to E+1 only when every
//     active reader's record shows epoch E. Re-entering readers re-read
//     the global, so after TWO advances (global == E+2) every reader that
//     was active at E has exited: garbage tagged E is freed when
//     global_epoch >= E + 2.
//
// Why this is TSan-sound: the advance scan's seq_cst load of each
// record's state synchronizes with the reader's release store in Exit, so
// the reader's whole critical section happens-before the advance decision;
// the free is ordered after two such decisions via gc_mu_. TSan sees the
// full happens-before chain — no suppressions needed.
//
// Thread records double as the per-thread slot registry: ThreadSlot()
// returns a dense id (free-list reuse on thread exit), which indexes the
// kernel's syscall-count slots and the flight recorder's per-thread rings.
//
// The domain is a leaked singleton: retired garbage may legally outlive
// the Kernel or LabelRegistry that produced it (retired nodes are
// self-contained), and leaking the domain sidesteps static-destructor vs
// thread_local teardown ordering. The limbo list stays reachable from the
// static pointer, so LeakSanitizer is clean.
#ifndef SRC_CORE_EPOCH_H_
#define SRC_CORE_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/sync.h"
#include "src/core/thread_annotations.h"

namespace histar {

class EpochDomain {
 public:
  // The process-wide domain. Never destroyed (see file comment).
  static EpochDomain& Global();

  // Maximum simultaneously registered threads. Records are recycled via a
  // free list when threads exit, so this bounds concurrency, not lifetime
  // churn.
  static constexpr size_t kMaxThreads = 1024;

  // Dense slot id of the calling thread's record, registering it on first
  // use. Stable for the life of the thread; reused (lowest-free-first)
  // after the thread exits. Callers that index fixed arrays should mask
  // with their array size — ids stay below the number of concurrently
  // live threads, so masking is collision-free until that exceeds the
  // array.
  static size_t ThreadSlot();

  // Reader critical section. Prefer EpochGuard over calling these
  // directly. Nests via a thread-local depth counter.
  void Enter();
  void Exit();

  // Hands `p` to the domain for deferred deletion. Safe to call with or
  // without a guard held (mutators typically hold the exclusive table
  // lock, not a guard). Opportunistically collects when the limbo list
  // grows past a threshold, so garbage stays bounded without a dedicated
  // reclaimer thread.
  template <typename T>
  void Retire(T* p) {
    // const T is accepted (retiring a pointer-to-const snapshot is common);
    // deletion through the original type is still well-formed.
    RetireRaw(const_cast<void*>(static_cast<const void*>(p)),
              [](void* q) { delete static_cast<T*>(q); });
  }
  template <typename T>
  void RetireArray(T* p) {
    RetireRaw(const_cast<void*>(static_cast<const void*>(p)),
              [](void* q) { delete[] static_cast<T*>(q); });
  }
  void RetireRaw(void* p, void (*deleter)(void*));

  // Attempts one epoch advance and frees everything two epochs stale.
  // Returns the number of items freed.
  size_t AdvanceAndCollect();

  // Test hooks. DrainAll requires no reader to be active (it spins a
  // bounded number of advances); PendingRetired is approximate under
  // concurrency.
  void DrainAll();
  size_t PendingRetired() const;
  uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  // Limbo growth threshold that triggers an opportunistic collect inside
  // Retire. Exposed so the bounded-garbage test can pin the bound.
  static constexpr size_t kCollectThreshold = 128;

 private:
  EpochDomain();
  ~EpochDomain() = delete;

  struct alignas(64) Record {
    // 0 = quiescent; otherwise (epoch << 1) | 1.
    std::atomic<uint64_t> state{0};
    std::atomic<bool> registered{false};
  };

  struct Garbage {
    void* ptr;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  size_t RegisterThread();
  void UnregisterThread(size_t slot);

  struct ThreadHandle;
  static ThreadHandle& Handle();

  std::atomic<uint64_t> global_epoch_{1};

  Record records_[kMaxThreads];
  Mutex reg_mu_;  // guards free_slots_ / high_water_
  std::vector<size_t> free_slots_ GUARDED_BY(reg_mu_);
  size_t high_water_ GUARDED_BY(reg_mu_) = 0;  // records_[0..high_water_) ever used

  mutable Mutex gc_mu_;  // guards limbo_ and the advance scan
  std::vector<Garbage> limbo_ GUARDED_BY(gc_mu_);
  std::atomic<size_t> limbo_size_{0};
};

// RAII reader critical section over the global domain.
class EpochGuard {
 public:
  EpochGuard() : domain_(EpochDomain::Global()) { domain_.Enter(); }
  ~EpochGuard() { domain_.Exit(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochDomain& domain_;
};

}  // namespace histar

#endif  // SRC_CORE_EPOCH_H_
