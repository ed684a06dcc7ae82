// Error handling: a library-wide exception type and precondition macros.
//
// Following the C++ Core Guidelines (E.2, I.6), programming errors and violated
// preconditions throw rather than abort, so tests can assert on them and
// callers embedding the library can recover.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace shiraz {

/// Base class for all exceptions raised by the shiraz library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition (bad argument, bad state).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// An I/O operation (trace file, checkpoint file) failed.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_invalid_argument(const char* expr, const char* file, int line,
                                                const std::string& msg) {
  // Base name only: messages reach clients (serve error responses), and
  // their bytes must not depend on the directory the library was built in.
  // With no separator, npos + 1 wraps to 0 and the whole name is kept.
  const std::string_view path(file);
  const std::size_t slash = path.find_last_of("/\\");
  std::ostringstream os;
  os << path.substr(slash + 1) << ':' << line << ": requirement `" << expr
     << "` failed";
  if (!msg.empty()) os << ": " << msg;
  throw InvalidArgument(os.str());
}
}  // namespace detail

}  // namespace shiraz

/// Validates a precondition; throws shiraz::InvalidArgument when violated.
#define SHIRAZ_REQUIRE(expr, msg)                                                \
  do {                                                                           \
    if (!(expr)) {                                                               \
      ::shiraz::detail::throw_invalid_argument(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                            \
  } while (false)
