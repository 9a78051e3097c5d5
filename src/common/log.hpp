#pragma once
/// \file log.hpp
/// Minimal leveled logger. Mapping runs can take minutes; the pipeline logs
/// phase progress at Info level and per-subproblem detail at Debug level.

#include <sstream>
#include <string>

namespace rahtm {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global log threshold; messages below it are dropped. The initial value
/// is Warn, overridable with RAHTM_LOG_LEVEL=debug|info|warn|error|off.
void setLogLevel(LogLevel level);
LogLevel logLevel();

/// Emit one log line (adds level tag and newline) to stderr. Thread-safe:
/// concurrent callers never interleave within a line. Set
/// RAHTM_LOG_TIMESTAMP=1 to prefix lines with an ISO-8601 UTC timestamp.
void logMessage(LogLevel level, const std::string& msg);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { logMessage(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

/// Turns a finished LogLine chain into a void expression (see RAHTM_LOG).
struct LogVoidify {
  void operator&(const LogLine&) const {}
};
}  // namespace detail

}  // namespace rahtm

// The macro is one expression, not a statement: the level check is a
// conditional whose second branch voids the whole `<<` chain (`&` binds
// looser than `<<`), so the chain is evaluated only when the level is on,
// and `if (x) RAHTM_LOG(Info) << "...";  else ...` has no hidden if for the
// else to attach to (the dangling-else hazard of `if (enabled) stream`).
#define RAHTM_LOG(level)                                \
  ::rahtm::logLevel() > ::rahtm::LogLevel::level        \
      ? (void)0                                         \
      : ::rahtm::detail::LogVoidify() &                 \
            ::rahtm::detail::LogLine(::rahtm::LogLevel::level)
