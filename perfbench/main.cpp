/// \file main.cpp
/// The RAHTM benchmark binary:
///   rahtm_perfbench --workload cg64|serve_mix|sim_eval --seed N
///                   --seconds S --trace 0|1 [--out-dir DIR]
///                   [--source-digest HEX]
/// Prints the environment fingerprint, a human-readable metric table, and
/// as its last stdout line one JSON object {correct, attempted, failed,
/// metrics}. --trace 0 reports the end-to-end metrics, --trace 1 the
/// per-layer ones (README.md lists both).

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/log.hpp"
#include "obs/mem.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rahtm_perfbench: " << why
            << "\nusage: rahtm_perfbench --workload cg64|serve_mix|sim_eval "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--source-digest HEX]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Touch the memory registry first so its RSS baseline predates every
  // tracked allocation (obs.rss_coverage is measured against it).
  rahtm::obs::MemRegistry::instance();
  rahtm::setLogLevel(rahtm::LogLevel::Warn);

  perfbench::Options opt;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        haveSeconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace must be 0 or 1");
        opt.trace = v == "1";
        haveTrace = true;
      } else if (a == "--out-dir") {
        opt.outDir = v;
      } else if (a == "--source-digest") {
        opt.sourceDigest = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!haveSeconds || !haveTrace || !(opt.seconds > 0)) {
    usage("--seconds and --trace are required");
  }
  opt.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  void (*run)(const perfbench::Options&, perfbench::Telemetry&,
              perfbench::Result&) = nullptr;
  if (opt.workload == "cg64") run = perfbench::runCg64;
  if (opt.workload == "serve_mix") run = perfbench::runServeMix;
  if (opt.workload == "sim_eval") run = perfbench::runSimEval;
  if (run == nullptr) usage("unknown workload '" + opt.workload + "'");

  std::cout << "env " << perfbench::fingerprint(opt) << std::endl;
  perfbench::Result result;
  try {
    perfbench::Telemetry tel(opt);
    run(opt, tel, result);
    tel.setEnabled(false);
    tel.write(opt);
  } catch (const std::exception& e) {
    std::cerr << "rahtm_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << result.table() << result.json() << std::endl;
  return 0;
}
