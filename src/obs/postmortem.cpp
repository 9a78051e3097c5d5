#include "obs/postmortem.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace rahtm::obs {

namespace {

/// Most-recent events serialized per thread ring (bounds the artifact and
/// the pre-reserved serialization buffer whatever RAHTM_RECORDER_CAPACITY
/// says).
constexpr std::size_t kMaxEventsPerThread = 512;

/// Bounded append-only character buffer over pre-reserved storage. All
/// writes are plain byte stores + snprintf; nothing allocates.
class Buf {
 public:
  Buf(char* data, std::size_t cap) : data_(data), cap_(cap) {}

  void ch(char c) {
    if (len_ + 1 >= cap_) { overflow_ = true; return; }
    data_[len_++] = c;
  }
  void raw(const char* s) {
    while (*s != '\0') ch(*s++);
  }
  /// JSON string literal (quotes included) with escaping.
  void esc(const char* s) {
    ch('"');
    for (; s != nullptr && *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') { ch('\\'); ch(static_cast<char>(c)); }
      else if (c == '\n') raw("\\n");
      else if (c == '\t') raw("\\t");
      else if (c == '\r') raw("\\r");
      else if (c < 0x20) {
        char tmp[8];
        std::snprintf(tmp, sizeof(tmp), "\\u%04x", c);
        raw(tmp);
      } else {
        ch(static_cast<char>(c));
      }
    }
    ch('"');
  }
  void i64(long long v) {
    char tmp[24];
    std::snprintf(tmp, sizeof(tmp), "%lld", v);
    raw(tmp);
  }
  void u64(unsigned long long v) {
    char tmp[24];
    std::snprintf(tmp, sizeof(tmp), "%llu", v);
    raw(tmp);
  }
  void dbl(double v) {
    if (!std::isfinite(v)) { raw("0"); return; }
    char tmp[40];
    std::snprintf(tmp, sizeof(tmp), "%.17g", v);
    raw(tmp);
  }

  const char* data() const { return data_; }
  std::size_t size() const { return len_; }
  bool overflow() const { return overflow_; }

 private:
  char* data_;
  std::size_t cap_;
  std::size_t len_ = 0;
  bool overflow_ = false;
};

/// All crash-path state, pre-reserved in normal context. Leaked singleton.
struct PmState {
  char dir[512] = ".";
  char envStatic[4096] = "";  ///< pre-rendered static env members
  std::vector<char> buf;      ///< serialization buffer
  std::vector<FlightEventRecord> ringCopy;  ///< one slot's newest events
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::atomic<bool> writing{false};
  bool handlersInstalled = false;
  std::vector<char> altstack;
};

std::atomic<PmState*> gState{nullptr};
std::mutex gInitMu;

/// /proc/self/status VmHWM in bytes via raw syscalls (the ifstream-based
/// obs/process.hpp reader allocates and is off-limits in a handler).
long long rawPeakRssBytes() {
  const int fd = ::open("/proc/self/status", O_RDONLY);
  if (fd < 0) return 0;
  char buf[8192];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* p = std::strstr(buf, "VmHWM:");
  if (p == nullptr) return 0;
  p += 6;
  while (*p == ' ' || *p == '\t') ++p;
  long long kb = 0;
  while (*p >= '0' && *p <= '9') kb = kb * 10 + (*p++ - '0');
  return kb * 1024;
}

void renderEnvStatic(PmState& st) {
  // Pre-render the members of "environment" that cannot change after
  // startup; wall_seconds/peak_rss_bytes are appended at crash time. The
  // scale fields are zero — a post-mortem is not a ledger and carries no
  // experiment scale.
  const EnvFingerprint env = currentEnvFingerprint();
  std::ostringstream os;
  os << "    \"git_sha\": " << jsonString(env.gitSha) << ",\n"
     << "    \"compiler\": " << jsonString(env.compiler) << ",\n"
     << "    \"build_type\": " << jsonString(env.buildType) << ",\n"
     << "    \"os\": " << jsonString(env.os) << ",\n"
     << "    \"nodes\": 0,\n"
     << "    \"concentration\": 0,\n"
     << "    \"message_bytes\": 0,\n"
     << "    \"sim_iterations\": 0,\n"
     << "    \"threads\": "
     << static_cast<long long>(std::thread::hardware_concurrency()) << ",\n";
  const std::string s = os.str();
  std::snprintf(st.envStatic, sizeof(st.envStatic), "%s", s.c_str());
}

void captureMetrics(PmState& st) {
  st.counters.clear();
  st.gauges.clear();
  if (MetricsRegistry* m = metrics()) {
    st.counters = m->counterRefs();
    st.gauges = m->gaugeRefs();
  }
}

PmState& stateLocked() {
  // Callers hold gInitMu (normal context only).
  PmState* st = gState.load(std::memory_order_acquire);
  if (st != nullptr) return *st;
  st = new PmState();  // leaked: must outlive every possible crash
  const FlightRecorder& fr = FlightRecorder::instance();
  const std::size_t perThread =
      fr.capacity() < kMaxEventsPerThread ? fr.capacity()
                                          : kMaxEventsPerThread;
  st->ringCopy.resize(perThread);
  st->buf.resize((1u << 20) + static_cast<std::size_t>(
                                  FlightRecorder::kMaxThreads) *
                                  perThread * 96);
  std::snprintf(st->dir, sizeof(st->dir), "%s",
                postmortemDirFromEnv().c_str());
  renderEnvStatic(*st);
  captureMetrics(*st);
  // Charge the pre-reserved crash buffers to the obs account, and force the
  // memory registry into existence here, in normal context — the crash-time
  // memory section must only read already-constructed atomics.
  track(MemAccountId::Obs,
        static_cast<std::int64_t>(
            st->buf.capacity() +
            st->ringCopy.capacity() * sizeof(FlightEventRecord)));
  gState.store(st, std::memory_order_release);
  return *st;
}

struct SpanVisitCtx {
  Buf* b = nullptr;
  bool first = true;
};

void visitOpenSpan(void* ctxRaw, const TraceEvent& e) {
  auto* ctx = static_cast<SpanVisitCtx*>(ctxRaw);
  if (!ctx->first) ctx->b->raw(",\n");
  ctx->first = false;
  ctx->b->raw("    {\"name\": ");
  ctx->b->esc(e.name.c_str());
  ctx->b->raw(", \"category\": ");
  ctx->b->esc(e.category.c_str());
  ctx->b->raw(", \"start_us\": ");
  ctx->b->i64(e.startUs);
  ctx->b->raw(", \"tid\": ");
  ctx->b->i64(e.tid);
  ctx->b->ch('}');
}

void buildJson(PmState& st, Buf& b, const char* reason, int signo) {
  FlightRecorder& fr = FlightRecorder::instance();
  Heartbeats& hb = Heartbeats::instance();

  b.raw("{\n  \"schema\": \"");
  b.raw(kPostmortemSchema);
  b.raw("\",\n  \"reason\": ");
  b.esc(reason);
  b.raw(",\n  \"signal\": ");
  b.i64(signo);
  b.raw(",\n  \"t_us\": ");
  b.i64(fr.nowUs());

  // Phase stack, outermost first.
  b.raw(",\n  \"phase\": ");
  if (const char* phase = hb.currentPhase()) b.esc(phase);
  else b.raw("null");
  b.raw(",\n  \"phase_start_us\": ");
  b.i64(hb.currentPhaseStartUs());
  b.raw(",\n  \"phase_stack\": [");
  int depth = hb.phaseDepth();
  if (depth > Heartbeats::kMaxPhaseDepth) depth = Heartbeats::kMaxPhaseDepth;
  for (int i = 0; i < depth; ++i) {
    if (i != 0) b.raw(", ");
    const char* name = hb.phaseAt(i);
    b.esc(name != nullptr ? name : "?");
  }
  b.raw("]");

  b.raw(",\n  \"heartbeats\": {");
  for (int p = 0; p < kPulseCount; ++p) {
    if (p != 0) b.raw(", ");
    b.esc(pulseName(static_cast<Pulse>(p)));
    b.raw(": ");
    b.u64(hb.value(static_cast<Pulse>(p)));
  }
  b.raw("}");

  b.raw(",\n  \"recorder\": {\n    \"capacity\": ");
  b.u64(fr.capacity());
  b.raw(",\n    \"dropped_events\": ");
  b.i64(fr.droppedEvents());
  b.raw(",\n    \"total_recorded\": ");
  b.u64(fr.totalRecorded());
  b.raw(",\n    \"threads\": [");
  const int slots = fr.threadSlots();
  for (int s = 0; s < slots; ++s) {
    std::uint64_t total = 0;
    const std::size_t got =
        fr.copySlot(s, st.ringCopy.data(), st.ringCopy.size(), &total);
    b.raw(s == 0 ? "\n" : ",\n");
    b.raw("      {\"slot\": ");
    b.i64(s);
    b.raw(", \"total\": ");
    b.u64(total);
    b.raw(", \"events\": [");
    for (std::size_t k = 0; k < got; ++k) {
      const FlightEventRecord& e = st.ringCopy[k];
      if (k != 0) b.raw(",");
      b.raw("\n        {\"t_us\": ");
      b.i64(e.tUs);
      b.raw(", \"code\": ");
      b.esc(frEventName(static_cast<FrEvent>(e.code)));
      b.raw(", \"a\": ");
      b.i64(e.a);
      b.raw(", \"b\": ");
      b.i64(e.b);
      b.ch('}');
    }
    if (got != 0) b.raw("\n      ");
    b.raw("]}");
  }
  if (slots != 0) b.raw("\n    ");
  b.raw("]\n  }");

  b.raw(",\n  \"open_spans\": [");
  {
    SpanVisitCtx ctx;
    ctx.b = &b;
    if (Tracer* t = tracer()) {
      if (t->tryVisitOpenSpans(&visitOpenSpan, &ctx)) {
        if (!ctx.first) b.raw("\n  ");
      }
    }
  }
  b.raw("]");

  b.raw(",\n  \"metrics\": {\n    \"counters\": {");
  for (std::size_t i = 0; i < st.counters.size(); ++i) {
    if (i != 0) b.raw(", ");
    b.esc(st.counters[i].first.c_str());
    b.raw(": ");
    b.i64(st.counters[i].second->value());
  }
  b.raw("},\n    \"gauges\": {");
  for (std::size_t i = 0; i < st.gauges.size(); ++i) {
    if (i != 0) b.raw(", ");
    b.esc(st.gauges[i].first.c_str());
    b.raw(": ");
    b.dbl(st.gauges[i].second->value());
  }
  b.raw("}\n  }");

  // Memory section: everything here is a relaxed atomic load from the
  // (leaked, already-constructed) registry — no locks, no allocation, so
  // it is as signal-safe as the heartbeat block above. An OOM-adjacent
  // crash is precisely when the per-subsystem breakdown matters most.
  {
    MemRegistry& mem = MemRegistry::instance();
    b.raw(",\n  \"memory\": {\n    \"accounts\": {");
    for (int i = 0; i < kMemAccountCount; ++i) {
      const auto id = static_cast<MemAccountId>(i);
      if (i != 0) b.raw(", ");
      b.esc(memAccountName(id));
      b.raw(": {\"current_bytes\": ");
      b.i64(mem.currentBytes(id));
      b.raw(", \"peak_bytes\": ");
      b.i64(mem.peakBytes(id));
      b.ch('}');
    }
    b.raw("},\n    \"accounted_current_bytes\": ");
    b.i64(mem.totalCurrentBytes());
    b.raw(",\n    \"accounted_peak_bytes\": ");
    b.i64(mem.totalPeakBytes());
    b.raw(",\n    \"baseline_rss_bytes\": ");
    b.i64(mem.baselineRssBytes());
    b.raw(",\n    \"sampled_rss_bytes\": ");
    b.i64(mem.sampledRssBytes());
    b.raw(",\n    \"sampled_rss_peak_bytes\": ");
    b.i64(mem.sampledRssPeakBytes());
    b.raw(",\n    \"budget_bytes\": ");
    b.i64(mem.budgetBytes());
    b.raw(",\n    \"budget_stage\": ");
    b.i64(mem.budgetStage());
    b.raw("\n  }");
  }

  b.raw(",\n  \"environment\": {\n");
  b.raw(st.envStatic);
  b.raw("    \"wall_seconds\": ");
  b.dbl(static_cast<double>(fr.nowUs()) * 1e-6);
  b.raw(",\n    \"peak_rss_bytes\": ");
  b.i64(rawPeakRssBytes());
  b.raw("\n  }\n}\n");
}

/// The core writer: safe from signal context once the state exists.
/// Returns true when the artifact was fully written.
bool writeArtifact(PmState& st, const char* reason, int signo,
                   const char* dirOverride) {
  bool expected = false;
  if (!st.writing.compare_exchange_strong(expected, true)) return false;

  char path[640];
  const char* dir = (dirOverride != nullptr && dirOverride[0] != '\0')
                        ? dirOverride
                        : st.dir;
  std::snprintf(path, sizeof(path), "%s/postmortem.%s.json", dir, reason);

  Buf b(st.buf.data(), st.buf.size());
  buildJson(st, b, reason, signo);

  bool ok = false;
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    std::size_t off = 0;
    ok = true;
    while (off < b.size()) {
      const ssize_t n = ::write(fd, b.data() + off, b.size() - off);
      if (n <= 0) { ok = false; break; }
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }
  ok = ok && !b.overflow();
  st.writing.store(false, std::memory_order_release);
  return ok;
}

const char* reasonForSignal(int signo) {
  switch (signo) {
    case SIGSEGV: return "sigsegv";
    case SIGABRT: return "sigabrt";
    case SIGBUS: return "sigbus";
    case SIGFPE: return "sigfpe";
    default: return "signal";
  }
}

void onFatalSignal(int signo) {
  if (PmState* st = gState.load(std::memory_order_acquire)) {
    writeArtifact(*st, reasonForSignal(signo), signo, nullptr);
  }
  // SA_RESETHAND restored the default disposition on entry; re-raising
  // terminates with the original signal's wait status and core behavior.
  ::raise(signo);
}

[[noreturn]] void onTerminate() {
  if (PmState* st = gState.load(std::memory_order_acquire)) {
    writeArtifact(*st, "terminate", 0, nullptr);
  }
  // abort() raises SIGABRT, which writes postmortem.sigabrt.json too —
  // distinct artifacts, deliberate.
  std::abort();
}

void installHandlers(PmState& st) {
  if (st.handlersInstalled) return;
  st.handlersInstalled = true;

  st.altstack.resize(static_cast<std::size_t>(SIGSTKSZ) * 4);
  stack_t ss;
  std::memset(&ss, 0, sizeof(ss));
  ss.ss_sp = st.altstack.data();
  ss.ss_size = st.altstack.size();
  ::sigaltstack(&ss, nullptr);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &onFatalSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_ONSTACK | SA_RESETHAND;
  for (const int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(signo, &sa, nullptr);
  }
  std::set_terminate(&onTerminate);
}

}  // namespace

std::string postmortemDirFromEnv() {
  const char* v = std::getenv("RAHTM_POSTMORTEM_DIR");
  if (v == nullptr || *v == '\0') return ".";
  return v;
}

void installPostmortem(const std::string& dir) {
  std::lock_guard<std::mutex> lock(gInitMu);
  PmState& st = stateLocked();
  if (!dir.empty()) {
    std::snprintf(st.dir, sizeof(st.dir), "%s", dir.c_str());
  }
  captureMetrics(st);
  installHandlers(st);
}

bool writePostmortemNow(const char* reason, const char* dirOverride) {
  PmState* st = nullptr;
  {
    std::lock_guard<std::mutex> lock(gInitMu);
    st = &stateLocked();
    captureMetrics(*st);  // normal context: pick up late-registered metrics
  }
  return writeArtifact(*st, reason != nullptr ? reason : "manual", 0,
                       dirOverride);
}

std::string postmortemPathFor(const char* reason, const std::string& dir) {
  const std::string d = dir.empty() ? postmortemDirFromEnv() : dir;
  return d + "/postmortem." + (reason != nullptr ? reason : "manual") +
         ".json";
}

std::vector<std::string> validatePostmortemJson(const JsonValue& doc) {
  std::vector<std::string> problems;
  const auto problem = [&](const std::string& p) { problems.push_back(p); };
  if (!doc.isObject()) {
    problem("document is not a JSON object");
    return problems;
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString()) {
    problem("missing string key 'schema'");
  } else if (schema->str != kPostmortemSchema) {
    problem("unknown schema '" + schema->str + "' (expected " +
            std::string(kPostmortemSchema) + ")");
  }
  const JsonValue* reason = doc.find("reason");
  if (reason == nullptr || !reason->isString() || reason->str.empty()) {
    problem("missing non-empty string key 'reason'");
  }
  for (const char* key : {"signal", "t_us", "phase_start_us"}) {
    const JsonValue* v = doc.find(key);
    if (v == nullptr || !v->isNumber()) {
      problem(std::string("missing number key '") + key + "'");
    }
  }
  const JsonValue* stack = doc.find("phase_stack");
  if (stack == nullptr || !stack->isArray()) {
    problem("missing array key 'phase_stack'");
  } else {
    for (const JsonValue& p : stack->array) {
      if (!p.isString()) problem("phase_stack: entry is not a string");
    }
  }
  const JsonValue* hb = doc.find("heartbeats");
  if (hb == nullptr || !hb->isObject()) {
    problem("missing object key 'heartbeats'");
  } else {
    for (const auto& [name, v] : hb->object) {
      if (!v.isNumber()) {
        problem("heartbeats: '" + name + "' is not a number");
      }
    }
  }
  const JsonValue* rec = doc.find("recorder");
  if (rec == nullptr || !rec->isObject()) {
    problem("missing object key 'recorder'");
  } else {
    for (const char* key : {"capacity", "dropped_events", "total_recorded"}) {
      const JsonValue* v = rec->find(key);
      if (v == nullptr || !v->isNumber()) {
        problem(std::string("recorder: missing number '") + key + "'");
      }
    }
    const JsonValue* threads = rec->find("threads");
    if (threads == nullptr || !threads->isArray()) {
      problem("recorder: missing array 'threads'");
    } else {
      for (std::size_t i = 0; i < threads->array.size(); ++i) {
        const JsonValue& t = threads->array[i];
        const std::string where = "recorder.threads[" + std::to_string(i) + "]";
        if (!t.isObject()) {
          problem(where + ": not an object");
          continue;
        }
        for (const char* key : {"slot", "total"}) {
          const JsonValue* v = t.find(key);
          if (v == nullptr || !v->isNumber()) {
            problem(where + ": missing number '" + std::string(key) + "'");
          }
        }
        const JsonValue* events = t.find("events");
        if (events == nullptr || !events->isArray()) {
          problem(where + ": missing array 'events'");
          continue;
        }
        for (const JsonValue& e : events->array) {
          if (!e.isObject() || e.find("t_us") == nullptr ||
              e.find("code") == nullptr || !e.at("code").isString()) {
            problem(where + ": malformed event entry");
            break;
          }
        }
      }
    }
  }
  const JsonValue* spans = doc.find("open_spans");
  if (spans == nullptr || !spans->isArray()) {
    problem("missing array key 'open_spans'");
  }
  const JsonValue* met = doc.find("metrics");
  if (met == nullptr || !met->isObject()) {
    problem("missing object key 'metrics'");
  } else {
    for (const char* key : {"counters", "gauges"}) {
      const JsonValue* v = met->find(key);
      if (v == nullptr || !v->isObject()) {
        problem(std::string("metrics: missing object '") + key + "'");
      }
    }
  }
  const JsonValue* memv = doc.find("memory");
  if (memv == nullptr || !memv->isObject()) {
    problem("missing object key 'memory'");
  } else {
    const JsonValue* accounts = memv->find("accounts");
    if (accounts == nullptr || !accounts->isObject()) {
      problem("memory: missing object 'accounts'");
    } else {
      for (const auto& [name, v] : accounts->object) {
        if (!v.isObject() || v.find("current_bytes") == nullptr ||
            v.find("peak_bytes") == nullptr) {
          problem("memory.accounts: '" + name +
                  "' missing current_bytes/peak_bytes");
        }
      }
    }
    for (const char* key :
         {"accounted_current_bytes", "accounted_peak_bytes",
          "baseline_rss_bytes", "sampled_rss_bytes", "sampled_rss_peak_bytes",
          "budget_bytes", "budget_stage"}) {
      const JsonValue* v = memv->find(key);
      if (v == nullptr || !v->isNumber()) {
        problem(std::string("memory: missing number '") + key + "'");
      }
    }
  }
  const JsonValue* envv = doc.find("environment");
  if (envv == nullptr || !envv->isObject()) {
    problem("missing object key 'environment'");
  } else {
    for (const char* key : {"git_sha", "compiler", "build_type", "os"}) {
      const JsonValue* v = envv->find(key);
      if (v == nullptr || !v->isString()) {
        problem(std::string("environment: missing string '") + key + "'");
      }
    }
    for (const char* key :
         {"nodes", "concentration", "message_bytes", "sim_iterations",
          "threads", "wall_seconds", "peak_rss_bytes"}) {
      const JsonValue* v = envv->find(key);
      if (v == nullptr || !v->isNumber()) {
        problem(std::string("environment: missing number '") + key + "'");
      }
    }
  }
  return problems;
}

}  // namespace rahtm::obs
