#pragma once
/// \file error.hpp
/// Error-handling primitives. Following the C++ Core Guidelines (E.2, E.14)
/// we throw exceptions derived from a single library root type for
/// programming and input errors, and use RAHTM_REQUIRE for precondition
/// checks that must stay active in release builds.

#include <cstring>
#include <stdexcept>
#include <string>

namespace rahtm {

/// Root of the RAHTM exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// Malformed external input (profile file, mapfile, CLI argument, ...).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// An optimization problem had no feasible solution.
class InfeasibleError : public Error {
 public:
  explicit InfeasibleError(const std::string& what) : Error(what) {}
};

namespace detail {
/// \p file from its last `src/` component on, so an error names the source
/// file without the absolute location of the checkout it was built in.
inline const char* sourcePath(const char* file) {
  const char* from = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if ((p == file || p[-1] == '/') && std::strncmp(p, "src/", 4) == 0) {
      from = p;
    }
  }
  return from;
}

[[noreturn]] inline void requireFailed(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  throw PreconditionError(std::string(sourcePath(file)) + ":" +
                          std::to_string(line) +
                          ": requirement `" + expr + "` failed" +
                          (msg.empty() ? "" : (": " + msg)));
}
}  // namespace detail

}  // namespace rahtm

/// Precondition check that stays active in release builds.
#define RAHTM_REQUIRE(expr, msg)                                        \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::rahtm::detail::requireFailed(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                   \
  } while (false)
