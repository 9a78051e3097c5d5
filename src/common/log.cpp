#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iomanip>
#include <mutex>
#include <string>

namespace rahtm {

namespace {

LogLevel parseLevel(const char* v, LogLevel fallback) {
  if (v == nullptr) return fallback;
  const std::string s(v);
  if (s == "debug") return LogLevel::Debug;
  if (s == "info") return LogLevel::Info;
  if (s == "warn") return LogLevel::Warn;
  if (s == "error") return LogLevel::Error;
  if (s == "off") return LogLevel::Off;
  return fallback;
}

/// Global threshold; RAHTM_LOG_LEVEL=debug|info|warn|error|off overrides
/// the default once at first use (setLogLevel still wins afterwards).
std::atomic<LogLevel>& levelRef() {
  static std::atomic<LogLevel> level{
      parseLevel(std::getenv("RAHTM_LOG_LEVEL"), LogLevel::Warn)};
  return level;
}

bool timestampsEnabled() {
  static const bool on = [] {
    const char* v = std::getenv("RAHTM_LOG_TIMESTAMP");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  return on;
}

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    default: return "?????";
  }
}

/// "2026-08-05T12:34:56.789Z" (UTC).
std::string isoTimestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  std::ostringstream os;
  os << std::put_time(&tm, "%Y-%m-%dT%H:%M:%S") << '.' << std::setfill('0')
     << std::setw(3) << ms << 'Z';
  return os.str();
}

}  // namespace

void setLogLevel(LogLevel level) { levelRef().store(level); }
LogLevel logLevel() { return levelRef().load(); }

void logMessage(LogLevel level, const std::string& msg) {
  if (level < logLevel()) return;
  // One mutex-guarded fprintf per line so concurrent threads (the tests
  // exercise the pipeline from several at once) never interleave output.
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  if (timestampsEnabled()) {
    std::fprintf(stderr, "[rahtm %s %s] %s\n", isoTimestamp().c_str(),
                 tag(level), msg.c_str());
  } else {
    std::fprintf(stderr, "[rahtm %s] %s\n", tag(level), msg.c_str());
  }
}

}  // namespace rahtm
