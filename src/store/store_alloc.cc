#include "src/store/store_alloc.h"

#include "src/core/status.h"
#include "src/core/trace.h"

namespace histar {

std::atomic<uint64_t> StoreAlloc::fail_at_{0};
std::atomic<uint64_t> StoreAlloc::attempts_{0};

void StoreAlloc::ThrowInjected(uint64_t nth) {
  // Out of line so the Check() fast path stays two relaxed atomics. The
  // fault class operand distinguishes injected alloc failures from disk
  // faults in a dump: disk faults record their FaultKind (small ints),
  // this records the sentinel below.
  constexpr uint64_t kAllocFaultClass = 0xa110c;
  trace::RecordEvent(trace::EventKind::kFault, kAllocFaultClass, nth, 0,
                     static_cast<int8_t>(Status::kNoMem));
  throw std::bad_alloc();
}

}  // namespace histar
