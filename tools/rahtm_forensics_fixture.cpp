/// \file rahtm_forensics_fixture.cpp
/// Deliberately misbehaving binary for the CI forensics stage.
///
/// Each mode exercises one escalation path of the run-forensics layer and
/// is expected to leave a `rahtm.postmortem/v1` artifact behind:
///
///   --mode stall      enter a phase, then spin without heartbeats until the
///                     watchdog dumps `postmortem.stall.json`; exits 0 once
///                     the dump is observed (watchdog action is forced to
///                     `dump` so the fixture never aborts).
///   --mode crash      install the handlers, then dereference null; the
///                     signal handler writes `postmortem.sigsegv.json` and
///                     re-raises, so the process dies by SIGSEGV.
///   --mode abort      std::abort() -> `postmortem.sigabrt.json`.
///   --mode terminate  throw an uncaught exception -> terminate hook writes
///                     `postmortem.terminate.json` (and the subsequent
///                     std::abort adds `postmortem.sigabrt.json`).
///
/// Usage: rahtm_forensics_fixture --mode MODE --dir DIR [--deadline-sec S]

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/postmortem.hpp"
#include "obs/watchdog.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --mode stall|crash|abort|terminate --dir DIR"
            << " [--deadline-sec S]\n";
  return 2;
}

/// Volatile sink so the optimizer cannot elide the stall loop or the null
/// dereference.
volatile int* gNull = nullptr;
volatile std::uint64_t gSink = 0;

int runStall(const std::string& dir, double deadlineSec) {
  using rahtm::obs::Watchdog;
  using rahtm::obs::WatchdogAction;
  using rahtm::obs::WatchdogConfig;

  WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.pollMs = 20;
  cfg.defaultDeadlineSec = deadlineSec;
  cfg.action = WatchdogAction::Dump;  // never abort the fixture itself
  cfg.postmortemDir = dir;
  Watchdog wd(cfg);
  wd.start();

  // Produce a little genuine progress first so the artifact has nonzero
  // heartbeats, then go silent inside a named phase.
  rahtm::obs::Heartbeats::instance().beat(rahtm::obs::Pulse::PoolTasks, 7);
  rahtm::obs::PhaseScope phase("fixture.stall");
  const auto start = std::chrono::steady_clock::now();
  while (wd.stallsDetected() == 0 || wd.lastStage() < 2) {
    for (int i = 0; i < 1000; ++i) gSink = gSink + 1;  // spin, no beats
    if (std::chrono::steady_clock::now() - start > std::chrono::seconds(30)) {
      std::cerr << "fixture: watchdog never dumped within 30s\n";
      return 1;
    }
  }
  wd.stop();
  std::cout << "fixture: stall dump observed (stage " << wd.lastStage()
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<rahtm::CliArgs> parsed;
  try {
    parsed.emplace(argc, argv,
                   std::vector<std::string>{"mode", "dir", "deadline-sec"});
  } catch (const rahtm::ParseError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage(argv[0]);
  }
  const rahtm::CliArgs& args = *parsed;
  const std::string mode = args.getString("mode", "");
  const std::string dir = args.getString("dir", "");
  if (mode.empty() || dir.empty()) return usage(argv[0]);

  rahtm::obs::installPostmortem(dir);

  if (mode == "stall") {
    return runStall(dir, args.getDouble("deadline-sec", 0.2));
  }
  rahtm::obs::PhaseScope phase("fixture.fatal");
  if (mode == "crash") {
    gSink = static_cast<std::uint64_t>(*gNull);  // SIGSEGV
    return 1;                                    // unreachable
  }
  if (mode == "abort") {
    std::abort();
  }
  if (mode == "terminate") {
    throw std::runtime_error("fixture: deliberate uncaught exception");
  }
  return usage(argv[0]);
}
