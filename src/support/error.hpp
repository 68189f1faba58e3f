// Error handling utilities shared across TensorLib.
//
// TensorLib is a generator: almost every error is a programming or
// specification error (a singular STT matrix, a malformed access function),
// so we fail fast with an exception type that carries a formatted message.
#pragma once

#include <stdexcept>
#include <string>

namespace tensorlib {

/// Exception thrown for all TensorLib specification / internal errors.
class Error : public std::runtime_error {
 public:
  explicit Error(std::string message) : std::runtime_error(std::move(message)) {}
};

/// Throws tensorlib::Error with the given message.
[[noreturn]] void fail(const std::string& message);

/// Checks a precondition; throws Error with context when violated.
void require(bool condition, const std::string& message);

}  // namespace tensorlib

/// Internal invariant check. Unlike assert(), always enabled: a generator
/// that silently emits wrong hardware is worse than one that stops. The
/// message expression is evaluated only when the check fails, so a passing
/// check on a hot path (Matrix::at, every packed loop) builds no string.
#define TL_CHECK(cond, msg)                \
  do {                                     \
    if (!(cond)) ::tensorlib::fail(msg);   \
  } while (0)
