/**
 * @file
 * Structured recoverable errors.
 *
 * fatal() and panic() (util/logging.hh) remain correct for
 * unrecoverable conditions: user configuration errors that make the
 * whole run meaningless, and internal invariant violations that imply
 * a bug in this library. Everything else -- a singular thermal solve
 * for one operating point, a corrupt cache record, an evaluation that
 * failed to converge, lock contention on shared files -- is a
 * *per-item* failure inside a larger computation, and killing the
 * process over it turns one bad record into a lost 162-point
 * exploration. Those paths return (or throw, across ThreadPool
 * batches) a RampError instead, so callers drop and report the failed
 * item and keep going.
 */

#pragma once

#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace ramp {
namespace util {

/** What went wrong, at the granularity callers dispatch on. */
enum class ErrorCode {
    /** Linear system numerically singular (thermal solve). */
    SingularSystem,
    /** NaN/Inf where a finite value is required. */
    NonFiniteValue,
    /** Iterative method hit its iteration limit. */
    NonConvergence,
    /** A parameter or input failed validation. */
    InvalidInput,
    /** A persisted record failed to parse. */
    CorruptRecord,
    /** File I/O failed after bounded retries. */
    IoFailure,
    /** An advisory lock was held by another process. */
    LockContention,
    /** A deadline elapsed before an I/O operation completed. */
    Timeout,
    /** A bounded admission queue rejected the work (serving layer). */
    Overloaded,
    /** The peer is draining and no longer accepts work. */
    Unavailable,
};

/** Stable lowercase name for logs and tests. */
const char *errorCodeName(ErrorCode code);

/** One recoverable failure: a code plus a human-readable message. */
struct RampError
{
    ErrorCode code = ErrorCode::InvalidInput;
    std::string message;

    /** "code: message" rendering for logs. */
    std::string str() const;
};

/**
 * Exception wrapper for crossing stack frames that cannot return a
 * Result (ThreadPool batch functions). ThreadPool::parallelFor
 * catches it per item and reports the failures in its BatchReport
 * instead of rethrowing, so one bad item never kills a batch.
 */
class RampException : public std::exception
{
  public:
    explicit RampException(RampError error)
        : error_(std::move(error)), what_(error_.str())
    {
    }

    const RampError &error() const { return error_; }

    const char *what() const noexcept override
    {
        return what_.c_str();
    }

  private:
    RampError error_;
    std::string what_;
};

/** [[noreturn]] helper: report a misused Result and abort. */
[[noreturn]] void resultMisuse(const char *what);

/**
 * Value-or-error return type for recoverable library failures.
 * Implicitly constructible from either side; accessing the wrong
 * side is a programming bug and panics. [[nodiscard]], so with
 * -Werror (the strict preset) a dropped Result -- a dropped error --
 * does not build; tests/tools/nodiscard_check.cmake proves it.
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : v_(std::move(value)) {}
    Result(RampError error) : v_(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(v_); }
    explicit operator bool() const { return ok(); }

    T &
    value()
    {
        if (!ok())
            resultMisuse("Result::value() on an error");
        return std::get<T>(v_);
    }

    const T &
    value() const
    {
        if (!ok())
            resultMisuse("Result::value() on an error");
        return std::get<T>(v_);
    }

    const RampError &
    error() const
    {
        if (ok())
            resultMisuse("Result::error() on a value");
        return std::get<RampError>(v_);
    }

  private:
    std::variant<T, RampError> v_;
};

/** Result<void>: success carries nothing. */
template <>
class [[nodiscard]] Result<void>
{
  public:
    Result() = default;
    Result(RampError error) : err_(std::move(error)) {}

    bool ok() const { return !err_.has_value(); }
    explicit operator bool() const { return ok(); }

    const RampError &
    error() const
    {
        if (ok())
            resultMisuse("Result::error() on a value");
        return *err_;
    }

  private:
    std::optional<RampError> err_;
};

} // namespace util
} // namespace ramp
