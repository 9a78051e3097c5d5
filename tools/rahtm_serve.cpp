/// \file rahtm_serve.cpp
/// Mapping-as-a-service daemon. Speaks newline-delimited JSON
/// (rahtm.serve.request/v1 in, rahtm.serve.response/v1 out) over either a
/// Unix stream socket (daemon mode) or stdin/stdout (batch mode, used by
/// CI). Requests are admitted through the serve::Scheduler (bounded queue,
/// reject-with-retry-after past the depth limit) and solved by its serving
/// threads, each taking the next queued request as soon as it finishes
/// one; per-topology route tables and flow incidences are shared across
/// requests through the serve::ArtifactCache, with bit-identical mappings
/// to one-shot rahtm_map runs at equal seeds.
///
/// Usage:
///   rahtm_serve --stdin < requests.ndjson > responses.ndjson
///   rahtm_serve --socket /tmp/rahtm.sock

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "exec/thread_pool.hpp"
#include "mapping/mapfile.hpp"
#include "obs/mem.hpp"
#include "obs/telemetry.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "topology/torus.hpp"

namespace {

using namespace rahtm;

const std::vector<std::string> kFlags = {
    "help", "stdin", "socket", "threads", "queue-depth",
    "no-mapping", "map-out-dir", "trace-out", "trace-summary", "metrics-out",
    "mem-report", "mem-budget-mb", "verbose"};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " (--stdin | --socket PATH)\n"
      << "          [--threads N] [--queue-depth N]\n"
      << "          [--no-mapping] [--map-out-dir DIR]\n"
      << "          [--trace-out FILE] [--trace-summary FILE] "
         "[--metrics-out FILE]\n"
      << "          [--mem-report] [--mem-budget-mb N] [--verbose]\n"
      << "\n"
      << "--stdin reads one rahtm.serve.request/v1 JSON document per line\n"
      << "until EOF and writes one rahtm.serve.response/v1 line per request\n"
      << "to stdout, in request order (batch mode, used by CI).\n"
      << "--socket listens on a Unix stream socket; each connection is an\n"
      << "NDJSON session with responses in per-connection request order.\n"
      << "\n"
      << "--threads N serving threads solve requests in arrival order, each\n"
      << "taking the next queued request as soon as it finishes one, so a\n"
      << "long solve never holds back the requests behind it while another\n"
      << "thread is free (0 = all hardware threads, at most "
      << exec::kMaxThreads << ").\n"
      << "--queue-depth N (1.." << std::numeric_limits<int>::max()
      << ", default 64) bounds the admission\n"
      << "queue -- past it, submissions are rejected with a retry-after\n"
      << "hint (batch mode retries internally).\n"
      << "\n"
      << "Route tables and flow incidences are shared across requests\n"
      << "through an artifact cache of at most 256 MiB; past it, or once\n"
      << "accounted memory passes half of --mem-budget-mb, the cache\n"
      << "forgets every completed entry.\n"
      << "--mem-budget-mb N refuses any accounted allocation that would\n"
      << "pass N MiB (overrides RAHTM_MEM_BUDGET_MB; warns at 80%); the\n"
      << "request that asked for it fails, and the daemon keeps serving.\n"
      << "--no-mapping omits the per-rank mapping array from responses;\n"
      << "--map-out-dir writes each successful mapping as DIR/<id>.map\n"
      << "(BG/Q mapfile, same writer as rahtm_map).\n";
  return 2;
}

/// --queue-depth: 1 through INT_MAX (default 64); anything else is a
/// ParseError naming the flag.
int parseQueueDepth(const CliArgs& args) {
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  std::int64_t depth = 0;
  try {
    depth = args.getInt("queue-depth", 64);
  } catch (const ParseError& e) {
    throw ParseError(std::string("--queue-depth: ") + e.what());
  }
  if (depth < 1 || depth > kMax) {
    throw ParseError("--queue-depth must be 1.." + std::to_string(kMax) +
                     ", got " + std::to_string(depth));
  }
  return static_cast<int>(depth);
}

struct ServeOptions {
  serve::SchedulerConfig sched;
  bool includeMapping = true;
  std::string mapOutDir;
};

/// Submit with bounded retries: batch/connection handlers must eventually
/// process every request, so a backpressure rejection becomes a client-side
/// wait for the suggested retry-after interval.
serve::Scheduler::Ticket submitWithRetry(serve::Scheduler& sched,
                                         const serve::MapRequest& req) {
  for (;;) {
    serve::Scheduler::Ticket t = sched.submit(req);
    if (t.accepted) return t;
    const double sec = std::min(std::max(t.retryAfterSec, 1e-3), 0.1);
    std::this_thread::sleep_for(std::chrono::duration<double>(sec));
  }
}

void writeMapfileFor(const ServeOptions& opt, const serve::MapRequest& req,
                     const serve::MapResponse& resp, std::size_t index) {
  if (opt.mapOutDir.empty() || !resp.ok) return;
  const std::string name =
      resp.id.empty() ? ("request-" + std::to_string(index)) : resp.id;
  const std::string path = opt.mapOutDir + "/" + name + ".map";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  writeMapfile(out, resp.mapping, Torus::torus(req.machine));
}

int runStdinBatch(serve::Scheduler& sched, const ServeOptions& opt) {
  struct Pending {
    bool ready = false;               // parse failures are ready immediately
    serve::MapResponse resp;
    std::future<serve::MapResponse> future;
    serve::MapRequest req;
  };
  std::vector<Pending> pending;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    Pending p;
    try {
      p.req = serve::parseMapRequestLine(line);
      p.future = submitWithRetry(sched, p.req).response;
    } catch (const std::exception& e) {
      p.ready = true;
      p.resp = serve::parseFailureResponse(e);
    }
    pending.push_back(std::move(p));
  }
  sched.drain();
  std::size_t ok = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Pending& p = pending[i];
    if (!p.ready) p.resp = p.future.get();
    if (p.resp.ok) ++ok;
    writeMapfileFor(opt, p.req, p.resp, i);
    serve::writeMapResponseJson(std::cout, p.resp, opt.includeMapping);
    std::cout << "\n";
  }
  std::cout.flush();
  std::cerr << "rahtm_serve: " << pending.size() << " requests, " << ok
            << " ok";
  if (!pending.empty()) {
    const serve::ArtifactCacheStats& c = pending.back().resp.cache;
    std::cerr << "; cache: " << c.routeHits << "/" << c.routeMisses
              << " route hits/misses, " << c.incidenceHits << "/"
              << c.incidenceMisses << " incidence, " << c.evictions
              << " evictions";
  }
  std::cerr << "\n";
  return ok == pending.size() ? 0 : 1;
}

std::atomic<int> g_listenFd{-1};

void onSignal(int) {
  // Break the accept loop; the fd close makes accept() return with EBADF.
  const int fd = g_listenFd.exchange(-1);
  if (fd >= 0) close(fd);
}

void serveConnection(int fd, serve::Scheduler& sched,
                     const ServeOptions& opt) {
  std::string buffer;
  char chunk[4096];
  std::size_t index = 0;
  const auto handleLine = [&](const std::string& line) {
    if (line.empty()) return;
    serve::MapRequest req;
    serve::MapResponse resp;
    try {
      req = serve::parseMapRequestLine(line);
      resp = submitWithRetry(sched, req).response.get();
    } catch (const std::exception& e) {
      resp = serve::parseFailureResponse(e);
    }
    writeMapfileFor(opt, req, resp, index++);
    std::ostringstream os;
    serve::writeMapResponseJson(os, resp, opt.includeMapping);
    os << "\n";
    const std::string out = os.str();
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = write(fd, out.data() + sent, out.size() - sent);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  };
  for (;;) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      handleLine(buffer.substr(start, nl - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  if (!buffer.empty()) handleLine(buffer);
  close(fd);
}

int runSocket(const std::string& path, serve::Scheduler& sched,
              const ServeOptions& opt) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "cannot create socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "socket path too long\n";
    close(fd);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  unlink(path.c_str());
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 16) != 0) {
    std::cerr << "cannot listen on " << path << ": " << std::strerror(errno)
              << "\n";
    close(fd);
    return 1;
  }
  g_listenFd.store(fd);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // A client that hangs up before its response must cost one EPIPE'd
  // write, not the whole daemon.
  std::signal(SIGPIPE, SIG_IGN);
  std::cerr << "rahtm_serve: listening on " << path << "\n";
  std::vector<std::thread> sessions;
  for (;;) {
    const int conn = accept(fd, nullptr, nullptr);
    if (conn < 0) break;  // listener closed by the signal handler
    sessions.emplace_back(
        [conn, &sched, &opt] { serveConnection(conn, sched, opt); });
  }
  for (std::thread& t : sessions) t.join();
  unlink(path.c_str());
  std::cerr << "rahtm_serve: shut down\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Pin the memory registry's RSS baseline before any subsystem allocates.
    obs::MemRegistry::instance();

    std::optional<CliArgs> parsed;
    try {
      parsed.emplace(argc, argv, kFlags);
    } catch (const ParseError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return usage(argv[0]);
    }
    const CliArgs& args = *parsed;
    const bool stdinMode = args.getBool("stdin");
    const std::string socketPath = args.getString("socket", "");
    if (args.has("help") || (stdinMode == !socketPath.empty())) {
      return usage(argv[0]);
    }
    if (args.getBool("verbose")) setLogLevel(LogLevel::Info);

    obs::TelemetryConfig tele = obs::telemetryConfigFromEnv();
    if (args.has("trace-out")) {
      tele.traceOutPath = args.getString("trace-out", "");
    }
    if (args.has("trace-summary")) {
      tele.traceSummaryPath = args.getString("trace-summary", "");
    }
    if (args.has("metrics-out")) {
      tele.metricsOutPath = args.getString("metrics-out", "");
    }
    obs::TelemetrySession telemetry(tele);

    if (args.has("mem-budget-mb")) {
      obs::MemRegistry::instance().setBudgetMb(
          args.getInt("mem-budget-mb", 0), "--mem-budget-mb");
    }

    serve::ArtifactCache cache;
    serve::MapService service(&cache);

    ServeOptions opt;
    opt.sched.threads =
        exec::parseThreads(args.getString("threads", "0"), "--threads");
    opt.sched.maxQueueDepth = parseQueueDepth(args);
    opt.includeMapping = !args.getBool("no-mapping");
    opt.mapOutDir = args.getString("map-out-dir", "");
    if (!opt.mapOutDir.empty()) {
      // Fail fast: a mistyped directory should not turn into a run that
      // solves everything and silently writes no mapfiles.
      std::error_code ec;
      std::filesystem::create_directories(opt.mapOutDir, ec);
      if (ec) {
        throw Error("cannot create --map-out-dir " + opt.mapOutDir + ": " +
                    ec.message());
      }
    }
    serve::Scheduler sched(service, opt.sched);

    int rc;
    if (stdinMode) {
      rc = runStdinBatch(sched, opt);
    } else {
      rc = runSocket(socketPath, sched, opt);
    }
    sched.shutdown();
    telemetry.flush();
    if (args.getBool("mem-report")) {
      obs::MemRegistry::instance().sampleRss();
      obs::MemRegistry::instance().writeReport(std::cerr);
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
