// Status codes and a lightweight Result<T> used across the HiStar simulator.
//
// The real HiStar kernel returns negative errno-style codes from system
// calls; we keep the same flavor with a small enum so call sites can switch
// on the precise failure mode (label check vs quota vs missing object).
#ifndef SRC_CORE_STATUS_H_
#define SRC_CORE_STATUS_H_

#include <cstdint>
#include <string_view>
#include <utility>

namespace histar {

enum class Status : int32_t {
  kOk = 0,
  kLabelCheckFailed = -1,   // information-flow rule violated
  kInvalidArg = -2,         // malformed argument
  kNotFound = -3,           // no such object / container entry
  kQuotaExceeded = -4,      // storage quota exhausted
  kImmutable = -5,          // object is immutable
  kWrongType = -6,          // object exists but has a different type
  kExists = -7,             // name or link already present
  kBusy = -8,               // resource busy (e.g. futex owner alive)
  kRange = -9,              // offset/length out of range
  kNoPerm = -10,            // non-label permission failure (avoid_types etc.)
  kHalted = -11,            // thread was halted
  kTimedOut = -12,          // futex or wait timeout
  kAgain = -13,             // transient: retry (e.g. no packet yet)
  kCrashed = -14,           // simulated crash hit during I/O
  kNoSpace = -15,           // disk out of space
  kCorrupt = -16,           // on-disk structure failed validation
  // -17 was the status of a cancelled async-ring op; it is not reused.
  kIoError = -18,           // device I/O error (injected or transient), no crash
  kNoMem = -19,             // host allocation failed on the store path
};

// Human-readable name for diagnostics and test failure messages.
std::string_view StatusName(Status s);

// Result<T> carries either a value or a failure Status. It is intentionally
// minimal (no exceptions, no allocation) because nearly every simulated
// syscall returns one.
template <typename T>
class Result {
 public:
  Result(Status s) : status_(s) {}  // NOLINT(google-explicit-constructor)
  Result(T v) : status_(Status::kOk), value_(std::move(v)) {}  // NOLINT

  bool ok() const { return status_ == Status::kOk; }
  Status status() const { return status_; }
  const T& value() const { return value_; }
  T& value() { return value_; }
  T take() { return std::move(value_); }

  // Equal iff both status and value are; compare a bare Status through
  // status(), not against the Result.
  bool operator==(const Result&) const = default;
  bool operator==(Status) const = delete;

 private:
  Status status_;
  T value_{};
};

}  // namespace histar

#endif  // SRC_CORE_STATUS_H_
