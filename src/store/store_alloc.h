// Allocation-failure injection for the store path (PR 7).
//
// Every allocating operation on the persistence path — B+-tree inserts and
// deserialization, extent-allocator mutations, store image building — calls
// StoreAlloc::Check() at its entry point, BEFORE any partial mutation. An
// armed hook throws std::bad_alloc at the Nth check; the store's public
// methods catch it (and real bad_allocs) at their boundary and surface
// Status::kNoMem, so an allocation failure behaves exactly like any other
// failed commit: the syscall reports failure, the kernel stays live, the
// world stays dirty, and the next attempt retries from consistent state.
//
// Checks sit at mutation-safe entry points rather than inside half-applied
// operations, so an injected failure never leaves a tree with mismatched
// key/value vectors — the granularity the alloc-failure sweep test walks
// (fail the 1st, 2nd, ... Nth check until the workload completes).
#ifndef SRC_STORE_STORE_ALLOC_H_
#define SRC_STORE_STORE_ALLOC_H_

#include <atomic>
#include <cstdint>
#include <new>

namespace histar {

class StoreAlloc {
 public:
  // Arms the hook: the nth (1-based) subsequent Check() throws
  // std::bad_alloc and the hook disarms itself. nth == 0 disarms.
  static void FailNth(uint64_t nth) {
    attempts_.store(0, std::memory_order_relaxed);
    fail_at_.store(nth, std::memory_order_relaxed);
  }

  static void Disarm() { fail_at_.store(0, std::memory_order_relaxed); }

  static bool armed() { return fail_at_.load(std::memory_order_relaxed) != 0; }

  // Checks passed since the last FailNth/ResetAttempts — the sweep's bound:
  // run the workload unarmed, read attempts(), then fail each n in [1, N].
  static uint64_t attempts() { return attempts_.load(std::memory_order_relaxed); }

  static void ResetAttempts() { attempts_.store(0, std::memory_order_relaxed); }

  // Allocation-site marker. Cheap when disarmed (one relaxed load plus one
  // relaxed increment); throws when the armed count is reached.
  static void Check() {
    if (suppress_ != 0) {
      return;  // cleanup scope: never inject, never count
    }
    uint64_t n = attempts_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t fail_at = fail_at_.load(std::memory_order_relaxed);
    if (fail_at != 0 && n == fail_at) {
      fail_at_.store(0, std::memory_order_relaxed);  // one-shot
      ThrowInjected(n);  // records a kFault trace event, then throws
    }
  }

 private:
  friend class StoreAllocNoFail;

  [[noreturn]] static void ThrowInjected(uint64_t nth);

  static std::atomic<uint64_t> fail_at_;
  static std::atomic<uint64_t> attempts_;
  static inline thread_local uint64_t suppress_ = 0;
};

// RAII suppression for cleanup paths (freeing superseded extents, unwinding
// a failed write): allocations under this scope never fail-inject. Cleanup
// must not become a second fault mid-recovery from the first — an injected
// throw while releasing pending_frees_ would leave some extents returned to
// the pool and some not, with no record of which.
class StoreAllocNoFail {
 public:
  StoreAllocNoFail() { ++StoreAlloc::suppress_; }
  ~StoreAllocNoFail() { --StoreAlloc::suppress_; }
  StoreAllocNoFail(const StoreAllocNoFail&) = delete;
  StoreAllocNoFail& operator=(const StoreAllocNoFail&) = delete;
};

}  // namespace histar

#endif  // SRC_STORE_STORE_ALLOC_H_
