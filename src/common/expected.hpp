// Minimal Expected<T, E> (std::expected lands in C++23; this repo targets
// C++20). Used at protocol boundaries where a failure is an ordinary outcome
// rather than a programming error — e.g. deserializing a message off the wire.
#pragma once

#include <utility>
#include <variant>

#include "common/check.hpp"

namespace rbc {

template <typename E>
struct Unexpected {
  E error;
};

template <typename E>
Unexpected<E> unexpected(E e) {
  return Unexpected<E>{std::move(e)};
}

template <typename T, typename E>
class Expected {
 public:
  Expected(T value) : storage_(std::in_place_index<0>, std::move(value)) {}
  /// Builds the value in place from `args` — no temporary T to move from.
  template <typename... Args>
  explicit Expected(std::in_place_t, Args&&... args)
      : storage_(std::in_place_index<0>, std::forward<Args>(args)...) {}
  Expected(Unexpected<E> u)
      : storage_(std::in_place_index<1>, std::move(u.error)) {}

  bool has_value() const noexcept { return storage_.index() == 0; }
  explicit operator bool() const noexcept { return has_value(); }

  const T& value() const& {
    RBC_CHECK_MSG(has_value(), "Expected::value() on error state");
    return std::get<0>(storage_);
  }
  T& value() & {
    RBC_CHECK_MSG(has_value(), "Expected::value() on error state");
    return std::get<0>(storage_);
  }
  T&& value() && {
    RBC_CHECK_MSG(has_value(), "Expected::value() on error state");
    return std::get<0>(std::move(storage_));
  }

  const E& error() const& {
    RBC_CHECK_MSG(!has_value(), "Expected::error() on value state");
    return std::get<1>(storage_);
  }

  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, E> storage_;
};

}  // namespace rbc
