// Result<T>: the value-or-failure type every redundant mechanism traffics in.
//
// We deliberately avoid exceptions for expected failures — a fault-tolerance
// framework's whole business is failures, so they are first-class values.
#pragma once

#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>

#include "core/failure.hpp"

namespace redundancy::core {

template <typename T>
class [[nodiscard]] Result {
 public:
  using value_type = T;

  // Implicit construction from either alternative keeps call sites terse:
  // `return 42;` or `return failure(FailureKind::crash);`.
  Result(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Result(Failure f) : state_(std::in_place_index<1>, std::move(f)) {}

  static Result ok(T value) { return Result{std::move(value)}; }
  static Result fail(Failure f) { return Result{std::move(f)}; }

  [[nodiscard]] bool has_value() const noexcept { return state_.index() == 0; }
  explicit operator bool() const noexcept { return has_value(); }

  [[nodiscard]] const T& value() const& {
    if (!has_value()) throw std::logic_error{"Result: value() on failure"};
    return std::get<0>(state_);
  }
  [[nodiscard]] T& value() & {
    if (!has_value()) throw std::logic_error{"Result: value() on failure"};
    return std::get<0>(state_);
  }
  [[nodiscard]] T&& take() && {
    if (!has_value()) throw std::logic_error{"Result: take() on failure"};
    return std::get<0>(std::move(state_));
  }

  [[nodiscard]] const Failure& error() const& {
    if (has_value()) throw std::logic_error{"Result: error() on success"};
    return std::get<1>(state_);
  }

  // Hot-path accessors: nullptr instead of a throw on the wrong arm, so the
  // cache and the hedging scheduler can branch on an adjudicated verdict
  // without touching the exception machinery. The variant itself is in-place
  // storage — a Result owns no heap block beyond what T/Failure allocate —
  // which is what lets a cache hit be served as a plain copy.
  [[nodiscard]] const T* try_value() const noexcept {
    return std::get_if<0>(&state_);
  }
  [[nodiscard]] T* try_value() noexcept { return std::get_if<0>(&state_); }
  [[nodiscard]] const Failure* try_error() const noexcept {
    return std::get_if<1>(&state_);
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return has_value() ? std::get<0>(state_) : std::move(fallback);
  }

  // map and and_then branch on the value arm's own pointer, not on
  // has_value(): GCC then sees that a Result holding a value never reaches
  // the Failure copy (-Wmaybe-uninitialized under the sanitizers).

  /// Apply fn to the value if present; propagate the failure otherwise.
  template <typename F>
  auto map(F&& fn) const -> Result<std::invoke_result_t<F, const T&>> {
    if (const T* v = std::get_if<0>(&state_)) return std::forward<F>(fn)(*v);
    return *std::get_if<1>(&state_);
  }

  /// Monadic bind: fn returns Result<U>.
  template <typename F>
  auto and_then(F&& fn) const -> std::invoke_result_t<F, const T&> {
    if (const T* v = std::get_if<0>(&state_)) return std::forward<F>(fn)(*v);
    return *std::get_if<1>(&state_);
  }

  friend bool operator==(const Result& a, const Result& b) {
    if (a.has_value() != b.has_value()) return false;
    if (a.has_value()) return a.value() == b.value();
    return a.error().kind == b.error().kind;
  }

 private:
  std::variant<T, Failure> state_;
};

/// Specialization-free helper for "void" computations.
struct Unit {
  friend bool operator==(Unit, Unit) { return true; }
};
using Status = Result<Unit>;

inline Status ok_status() { return Status{Unit{}}; }

}  // namespace redundancy::core
