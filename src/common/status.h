// Lightweight status / result types used on every I/O path in BIZA.
//
// I/O paths never throw: operations return a Status (or a Result<T>), and
// callers are forced to inspect it via [[nodiscard]]. This mirrors the
// error-code discipline of kernel block drivers, which BIZA models.
#ifndef BIZA_SRC_COMMON_STATUS_H_
#define BIZA_SRC_COMMON_STATUS_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/units.h"

namespace biza {

// Error codes. Values are stable so they can be logged / asserted on.
enum class ErrorCode : int {
  kOk = 0,
  kInvalidArgument = 1,   // malformed request (bad LBA, bad size, ...)
  kOutOfRange = 2,        // address beyond device / zone capacity
  kWriteFailure = 3,      // ZNS write rejected (behind write pointer / ZRWA)
  kZoneStateError = 4,    // command illegal in the zone's current state
  kResourceExhausted = 5, // open-zone limit, capacity, queue full
  kNotFound = 6,          // lookup miss (unmapped LBN, ...)
  kFailedPrecondition = 7,// API misuse (e.g. read before create)
  kDataLoss = 8,          // unrecoverable stripe (too many failures)
  kUnimplemented = 9,
  kInternal = 10,
  kUnavailable = 11,      // device dead / offlined (permanent, not retriable)
  kDeviceError = 12,      // transient media/bus error (retriable)
};

// Returns a short stable name for an error code ("WRITE_FAILURE", ...).
std::string_view ErrorCodeName(ErrorCode code);

// A cheap, copyable status. OK statuses carry no allocation.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Human-readable one-liner, e.g. "WRITE_FAILURE: lba 42 behind wptr".
  std::string ToString() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }

Status InvalidArgumentError(std::string message);
Status OutOfRangeError(std::string message);
Status WriteFailureError(std::string message);
Status ZoneStateError(std::string message);
Status ResourceExhaustedError(std::string message);
Status NotFoundError(std::string message);
Status FailedPreconditionError(std::string message);
Status DataLossError(std::string message);
Status UnimplementedError(std::string message);
Status InternalError(std::string message);
Status UnavailableError(std::string message);
Status DeviceErrorStatus(std::string message);

// True for errors worth retrying with backoff (transient media/bus faults).
// Permanent conditions — device death (kUnavailable), address errors,
// protocol misuse — are not retriable; retrying them cannot succeed.
inline bool IsRetriable(const Status& status) {
  return status.code() == ErrorCode::kDeviceError;
}

// Exponential backoff delay for the attempt-th retry (attempt starts at 0):
// base << attempt, capped at 1024 * base so late retries stay bounded.
// Deterministic — simulated time needs no jitter to avoid thundering herds.
inline uint64_t RetryBackoffNs(int attempt, uint64_t base_ns) {
  const int shift = attempt < 10 ? attempt : 10;
  return base_ns << shift;
}

// The engines' retry budget for transient device errors: an I/O is retried
// up to kMaxIoRetries times, the i-th retry after
// RetryBackoffNs(i, kRetryBackoffBaseNs). Errors surface to the caller only
// once the budget is spent.
inline constexpr int kMaxIoRetries = 3;
inline constexpr SimTime kRetryBackoffBaseNs = 10 * kMicrosecond;

// Result<T>: either a value or a non-OK status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

// Propagates errors up the call stack without exceptions.
#define BIZA_RETURN_IF_ERROR(expr)        \
  do {                                    \
    ::biza::Status status_ = (expr);      \
    if (!status_.ok()) {                  \
      return status_;                     \
    }                                     \
  } while (0)

#define BIZA_ASSIGN_OR_RETURN(lhs, expr)  \
  auto result_##__LINE__ = (expr);        \
  if (!result_##__LINE__.ok()) {          \
    return result_##__LINE__.status();    \
  }                                       \
  lhs = std::move(result_##__LINE__).value()

}  // namespace biza

#endif  // BIZA_SRC_COMMON_STATUS_H_
