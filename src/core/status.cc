#include "src/core/status.h"

namespace histar {

std::string_view StatusName(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kLabelCheckFailed:
      return "label-check-failed";
    case Status::kInvalidArg:
      return "invalid-arg";
    case Status::kNotFound:
      return "not-found";
    case Status::kQuotaExceeded:
      return "quota-exceeded";
    case Status::kImmutable:
      return "immutable";
    case Status::kWrongType:
      return "wrong-type";
    case Status::kExists:
      return "exists";
    case Status::kBusy:
      return "busy";
    case Status::kRange:
      return "range";
    case Status::kNoPerm:
      return "no-perm";
    case Status::kHalted:
      return "halted";
    case Status::kTimedOut:
      return "timed-out";
    case Status::kAgain:
      return "again";
    case Status::kCrashed:
      return "crashed";
    case Status::kNoSpace:
      return "no-space";
    case Status::kCorrupt:
      return "corrupt";
    case Status::kIoError:
      return "io-error";
    case Status::kNoMem:
      return "no-mem";
  }
  return "unknown";
}

}  // namespace histar
