#ifndef DPJL_COMMON_STATUS_H_
#define DPJL_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace dpjl {

/// Machine-readable category of a `Status`.
///
/// The set mirrors the subset of canonical codes the library actually
/// produces; keeping it small makes exhaustive switches practical.
enum class StatusCode : int {
  kOk = 0,
  /// Caller passed an argument outside the documented domain
  /// (e.g. epsilon <= 0, alpha outside (0, 1/2)).
  kInvalidArgument = 1,
  /// An index or size exceeded the bounds of a container or transform.
  kOutOfRange = 2,
  /// The object is not in a state where the operation is allowed
  /// (e.g. estimating distance from sketches of different transforms).
  kFailedPrecondition = 3,
  /// An internal invariant was violated; indicates a library bug.
  kInternal = 4,
  /// The requested entity does not exist.
  kNotFound = 5,
  /// The operation is recognized but not implemented.
  kUnimplemented = 6,
  /// Serialized bytes could not be decoded.
  kDataLoss = 7,
  /// The operation's deadline passed before it could run (e.g. an engine
  /// request expired while queued behind slower work).
  kDeadlineExceeded = 8,
  /// A bounded resource is at capacity and the operation was refused
  /// rather than queued (admission control; retry later or shed load).
  kResourceExhausted = 9,
  /// The operation was cancelled by its caller before it ran (e.g. an
  /// engine request cancelled while still queued).
  kCancelled = 10,
  /// A remote peer could not be reached or stopped responding (connect
  /// refused, timeout, connection reset). Transient by nature: the caller
  /// may retry, typically against another replica.
  kUnavailable = 11,
};

/// Returns the canonical lowercase name of `code` (e.g. "invalid_argument").
std::string_view StatusCodeToString(StatusCode code);

/// Parses a StatusCodeToString rendering (e.g. "unavailable") back into the
/// enum; kInvalidArgument-statused failure for an unknown name.
class Status;
template <typename T>
class Result;
Result<StatusCode> ParseStatusCode(std::string_view name);

/// Validates an integer read from an untrusted source (a wire frame, a
/// file) as a StatusCode. The enum's integer values are frozen — they are
/// a serialization contract, never renumbered.
Result<StatusCode> StatusCodeFromInt(int value);

/// Value type describing the outcome of an operation.
///
/// `dpjl` does not throw exceptions across public API boundaries; fallible
/// operations return `Status` (or `Result<T>`, see result.h). An OK status
/// carries no message and is cheap to copy.
///
/// The class itself is `[[nodiscard]]`: every function returning a Status
/// must have its result checked (or deliberately dropped through
/// `LogIfError`). Silently ignoring a failure does not compile.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with `code` and a human-readable `message`.
  /// `message` is ignored for `kOk`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(code == StatusCode::kOk ? std::string() : std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers, one per non-OK code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Deliberate status drop: logs `context: <status>` to stderr when `status`
/// is not OK, and nothing otherwise. This is the only sanctioned way to
/// ignore a `[[nodiscard]]` Status — best-effort paths (connection
/// teardown, CLI cleanup) call it so the drop is explicit, visible in the
/// log, and greppable.
void LogIfError(const Status& status, std::string_view context);

}  // namespace dpjl

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if it is not OK. For use in functions returning Status.
#define DPJL_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::dpjl::Status _dpjl_status = (expr);            \
    if (!_dpjl_status.ok()) return _dpjl_status;     \
  } while (false)

#endif  // DPJL_COMMON_STATUS_H_
