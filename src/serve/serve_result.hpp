#pragma once
// Typed results for the serving facade.
//
// The legacy per-call-site API (BellamyPredictor, ModelStore) signals every
// failure — unfitted model, unknown key, corrupt checkpoint — as an untyped
// std::runtime_error, which forces callers into catch-as-control-flow.  The
// serve layer returns ServeResult<T> instead: a status code plus a
// human-readable message, so a service loop can branch on WHY a request
// failed (retry a kShutdown, drop a kUnknownModel, alert on kStoreError)
// without string matching.  unwrap() converts back to the exception contract
// where a caller wants one (examples, tests).

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace bellamy::serve {

enum class ServeStatus {
  kOk = 0,
  kUnknownModel,     ///< no entry for this handle / key
  kNotFitted,        ///< entry exists but holds no serveable model yet
  kInvalidArgument,  ///< malformed key, missing backing store, key collision, ...
  kStoreError,       ///< ModelStore load/save failed (path + reason in message)
  kShutdown,         ///< service is stopping; request not accepted
  kConflict,         ///< lost a race with a concurrent mutation; retry if desired
  kInternalError,    ///< unexpected exception from the model layer
  kTimeout,          ///< a configured deadline elapsed before the op completed
};

inline const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kUnknownModel: return "unknown model";
    case ServeStatus::kNotFitted: return "not fitted";
    case ServeStatus::kInvalidArgument: return "invalid argument";
    case ServeStatus::kStoreError: return "store error";
    case ServeStatus::kShutdown: return "shutdown";
    case ServeStatus::kConflict: return "conflict";
    case ServeStatus::kInternalError: return "internal error";
    case ServeStatus::kTimeout: return "timeout";
  }
  return "unknown status";
}

/// Empty payload for operations that only succeed or fail (persist, erase).
struct Unit {};

template <typename T>
class [[nodiscard]] ServeResult {
 public:
  /// Success (implicit so `return value;` works).
  ServeResult(T value) : value_(std::move(value)) {}

  static ServeResult failure(ServeStatus status, std::string message) {
    ServeResult r;
    r.status_ = status;
    r.message_ = std::move(message);
    return r;
  }

  bool ok() const { return status_ == ServeStatus::kOk; }
  explicit operator bool() const { return ok(); }
  ServeStatus status() const { return status_; }
  /// Failure description; empty on success.
  const std::string& message() const { return message_; }

  /// The payload.  Calling these on a failed result is a programming error
  /// (std::logic_error), not a serving condition.
  const T& value() const& {
    require_ok();
    return *value_;
  }
  T& value() & {
    require_ok();
    return *value_;
  }
  /// Move the payload out.
  T take() {
    require_ok();
    return std::move(*value_);
  }
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  /// Exception boundary: payload on success, std::runtime_error(message)
  /// otherwise.
  T unwrap() {
    if (!ok()) throw std::runtime_error(error_text());
    return std::move(*value_);
  }
  /// Like unwrap() for results whose payload the caller discards.
  void expect() const {
    if (!ok()) throw std::runtime_error(error_text());
  }

  /// "status: message" (or just the status name) for logs.
  std::string error_text() const {
    std::string text = to_string(status_);
    if (!message_.empty()) {
      text += ": ";
      text += message_;
    }
    return text;
  }

 private:
  ServeResult() = default;

  void require_ok() const {
    if (!ok()) {
      throw std::logic_error(std::string("ServeResult::value on failure (") + error_text() +
                             ")");
    }
  }

  ServeStatus status_ = ServeStatus::kOk;
  std::string message_;
  std::optional<T> value_;
};

/// Convenience for `return ok();` in Unit-returning operations.
inline ServeResult<Unit> ok() { return ServeResult<Unit>(Unit{}); }

}  // namespace bellamy::serve
