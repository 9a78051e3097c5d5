#pragma once
/// \file postmortem.hpp
/// Crash/stall post-mortem artifacts: a canonical `rahtm.postmortem/v1`
/// JSON file capturing the last moments of a run — flight-recorder rings,
/// heartbeat counters, the phase stack, open trace spans, a metrics
/// snapshot and the environment fingerprint — written from signal handlers
/// (SIGSEGV/SIGABRT/SIGBUS/SIGFPE), a std::terminate hook, or on demand
/// (the watchdog's stage-2 dump).
///
/// Signal discipline: everything the handler touches is pre-reserved at
/// installPostmortem() time — the serialization buffer, the ring copy
/// buffer, the (name, pointer) metric capture, the pre-rendered env
/// fragment and an alternate signal stack — so the crash path performs no
/// allocation and no locking (the tracer is consulted with try_lock only).
/// The handler writes with raw open/write/close, restores the default
/// disposition and re-raises, preserving the process's wait status.
/// snprintf is used for number formatting; it is not formally
/// async-signal-safe but is tolerated here, as in every practical crash
/// reporter.
///
/// Artifacts are named `postmortem.<reason>.json` (reason = sigsegv,
/// sigabrt, sigbus, sigfpe, terminate, stall, manual), so a stall dump and
/// the subsequent abort coexist in one directory.
///
/// Environment: RAHTM_POSTMORTEM_DIR sets the artifact directory (CLI
/// `--postmortem-dir` overrides; default ".").

#include <string>
#include <vector>

namespace rahtm::obs {

struct JsonValue;

/// Schema identifier embedded in every post-mortem artifact.
inline constexpr const char* kPostmortemSchema = "rahtm.postmortem/v1";

/// RAHTM_POSTMORTEM_DIR, or "." when unset/empty.
std::string postmortemDirFromEnv();

/// Install the signal handlers and std::terminate hook, pre-reserving all
/// crash-path buffers and capturing stable metric references from the
/// current global registry (metrics registered later appear only in
/// on-demand dumps, which re-capture). Idempotent; a second call just
/// updates the artifact directory. \p dir empty means RAHTM_POSTMORTEM_DIR
/// / current directory.
void installPostmortem(const std::string& dir = "");

/// Write an artifact right now from normal (non-signal) context — the
/// watchdog's stage-2 dump and tests use this. Initializes the crash-path
/// state lazily if installPostmortem() was never called, and re-captures
/// metric references. \p dirOverride (nullptr/"" = configured dir).
/// Returns true when the artifact was written.
bool writePostmortemNow(const char* reason, const char* dirOverride = nullptr);

/// Path the next artifact for \p reason would be written to (for tests and
/// tool log lines).
std::string postmortemPathFor(const char* reason, const std::string& dir);

/// Schema validation for a parsed `rahtm.postmortem/v1` document, in the
/// style of validateReportJson(). Empty == valid.
std::vector<std::string> validatePostmortemJson(const JsonValue& doc);

}  // namespace rahtm::obs
