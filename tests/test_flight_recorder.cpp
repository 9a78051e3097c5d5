/// Tests for the run-forensics layer: flight-recorder ring semantics,
/// heartbeat monotonicity under the thread pool, watchdog escalation on an
/// artificial stall, post-mortem artifact schema, and the tracer event cap.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json_reader.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace rahtm::obs {
namespace {

// ---- Flight recorder ------------------------------------------------------

TEST(FlightRecorder, RingWrapsKeepingNewestEvents) {
  FlightRecorder rec(/*capacityPerThread=*/8, /*maxThreads=*/2);
  for (int i = 0; i < 20; ++i) {
    rec.record(FrEvent::Custom, i, 100 + i);
  }
  EXPECT_EQ(rec.droppedEvents(), 0);  // overwrites are not drops
  EXPECT_EQ(rec.totalRecorded(), 20u);

  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].total, 20u);
  ASSERT_EQ(snap[0].events.size(), 8u);  // ring capacity
  for (std::size_t i = 0; i < snap[0].events.size(); ++i) {
    // Newest 8 of 20, oldest first: a = 12..19.
    EXPECT_EQ(snap[0].events[i].a, static_cast<std::int64_t>(12 + i));
    EXPECT_EQ(snap[0].events[i].code,
              static_cast<std::uint16_t>(FrEvent::Custom));
  }
}

TEST(FlightRecorder, CopySlotReturnsNewestBoundedByMax) {
  FlightRecorder rec(8, 1);
  for (int i = 0; i < 20; ++i) rec.record(FrEvent::Custom, i);
  FlightEventRecord out[4];
  std::uint64_t total = 0;
  const std::size_t n = rec.copySlot(0, out, 4, &total);
  ASSERT_EQ(n, 4u);
  EXPECT_EQ(total, 20u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].a, static_cast<std::int64_t>(16 + i));
  }
}

TEST(FlightRecorder, SlotExhaustionCountsDrops) {
  FlightRecorder rec(8, /*maxThreads=*/1);
  rec.record(FrEvent::Custom, 1);  // this thread claims the only slot
  std::thread other([&] {
    for (int i = 0; i < 3; ++i) rec.record(FrEvent::Custom, i);
  });
  other.join();
  EXPECT_EQ(rec.droppedEvents(), 3);
  EXPECT_EQ(rec.totalRecorded(), 1u);
  EXPECT_EQ(rec.threadSlots(), 1);
}

// glibc hands a joined thread's std::thread::id to a later thread. Each
// thread must still get its own slot, so no ring mixes two threads' events.
TEST(FlightRecorder, RecycledThreadIdGetsItsOwnSlot) {
  FlightRecorder rec(/*capacityPerThread=*/8, /*maxThreads=*/16);
  std::vector<std::thread::id> ids;
  bool reused = false;
  for (int i = 0; i < 16 && !reused; ++i) {
    std::thread t([&rec, i] { rec.record(FrEvent::Custom, i); });
    const std::thread::id id = t.get_id();
    t.join();
    reused = std::find(ids.begin(), ids.end(), id) != ids.end();
    ids.push_back(id);
  }
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), ids.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    ASSERT_EQ(snap[i].events.size(), 1u) << "slot " << i;
    EXPECT_EQ(snap[i].events[0].a, static_cast<std::int64_t>(i));
  }
}

// Ring pages are not charged (nor touched) until a thread registers its
// slot; each registered slot then adds exactly one ring to the obs account,
// and the recorder's destruction returns them.
TEST(FlightRecorder, ChargesEachRingWhenItsSlotRegisters) {
  MemRegistry& mem = MemRegistry::instance();
  constexpr std::size_t kCapacity = 16;
  const auto ring =
      static_cast<std::int64_t>(kCapacity * sizeof(FlightEventRecord));
  const std::int64_t before = mem.currentBytes(MemAccountId::Obs);
  {
    FlightRecorder rec(kCapacity, /*maxThreads=*/2);
    EXPECT_EQ(mem.currentBytes(MemAccountId::Obs), before);
    rec.record(FrEvent::Custom, 1);
    rec.record(FrEvent::Custom, 2);  // same slot, no second charge
    EXPECT_EQ(mem.currentBytes(MemAccountId::Obs), before + ring);
    // The second thread holds the last slot while the third records.
    std::atomic<bool> release{false};
    std::thread second([&] {
      rec.record(FrEvent::Custom, 3);
      while (!release.load()) std::this_thread::yield();
    });
    while (rec.threadSlots() < 2) std::this_thread::yield();
    EXPECT_EQ(mem.currentBytes(MemAccountId::Obs), before + 2 * ring);
    std::thread third([&] { rec.record(FrEvent::Custom, 4); });  // table full
    third.join();
    release = true;
    second.join();
    EXPECT_EQ(rec.threadSlots(), 2);
    EXPECT_EQ(rec.droppedEvents(), 1);
    EXPECT_EQ(mem.currentBytes(MemAccountId::Obs),
              before + rec.threadSlots() * ring);
  }
  EXPECT_EQ(mem.currentBytes(MemAccountId::Obs), before);
}

// A ring the memory budget refuses leaves its thread without a slot: the
// thread's events drop and count as drops, and record() does not throw.
TEST(FlightRecorder, BudgetRefusedRingDropsEventsInsteadOfThrowing) {
  MemRegistry& mem = MemRegistry::instance();
  FlightRecorder rec(/*capacityPerThread=*/1024, /*maxThreads=*/2);
  const std::int64_t ring = 1024 * sizeof(FlightEventRecord);
  const std::int64_t obsBefore = mem.currentBytes(MemAccountId::Obs);
  mem.setBudgetBytes(mem.totalCurrentBytes() + ring - 1);
  EXPECT_NO_THROW(rec.record(FrEvent::Custom, 1));
  mem.setBudgetBytes(0);
  EXPECT_EQ(rec.threadSlots(), 0);
  EXPECT_EQ(rec.droppedEvents(), 1);
  EXPECT_EQ(mem.currentBytes(MemAccountId::Obs), obsBefore);
}

TEST(FlightRecorder, DisabledRecorderIsSilent) {
  FlightRecorder rec(8, 2);
  rec.setEnabled(false);
  for (int i = 0; i < 5; ++i) rec.record(FrEvent::Custom, i);
  EXPECT_EQ(rec.totalRecorded(), 0u);
  EXPECT_EQ(rec.droppedEvents(), 0);  // off is off, not dropping
  rec.setEnabled(true);
  rec.record(FrEvent::Custom, 42);
  EXPECT_EQ(rec.totalRecorded(), 1u);
}

TEST(FlightRecorder, EventNamesCoverAllCodes) {
  for (int c = 0; c < static_cast<int>(FrEvent::kCount); ++c) {
    EXPECT_STRNE(frEventName(static_cast<FrEvent>(c)), "unknown");
  }
}

// ---- Heartbeats -----------------------------------------------------------

TEST(Heartbeats, MonotoneUnderThreadPool) {
  Heartbeats& hb = Heartbeats::instance();
  const std::uint64_t pulseBefore = hb.value(Pulse::AnnealIterations);
  const std::uint64_t poolBefore = hb.value(Pulse::PoolTasks);

  exec::ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  pool.parallelFor(kTasks, [&](std::size_t) {
    hb.beat(Pulse::AnnealIterations);
  });

  // Each task beats once, and the pool itself beats PoolTasks per task.
  EXPECT_EQ(hb.value(Pulse::AnnealIterations), pulseBefore + kTasks);
  EXPECT_GE(hb.value(Pulse::PoolTasks), poolBefore + kTasks);

  // Successive reads never go backwards.
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = hb.value(Pulse::AnnealIterations);
    EXPECT_GE(v, last);
    last = v;
  }
}

TEST(Heartbeats, PhaseStackNestsAndUnwinds) {
  Heartbeats& hb = Heartbeats::instance();
  const int base = hb.phaseDepth();
  {
    PhaseScope outer("test.outer");
    EXPECT_EQ(hb.phaseDepth(), base + 1);
    EXPECT_STREQ(hb.currentPhase(), "test.outer");
    EXPECT_GT(hb.currentPhaseStartUs(), 0);
    {
      PhaseScope inner("test.inner");
      EXPECT_EQ(hb.phaseDepth(), base + 2);
      EXPECT_STREQ(hb.currentPhase(), "test.inner");
      EXPECT_STREQ(hb.phaseAt(base), "test.outer");
    }
    EXPECT_STREQ(hb.currentPhase(), "test.outer");
  }
  EXPECT_EQ(hb.phaseDepth(), base);
}

// ---- Watchdog -------------------------------------------------------------

TEST(Watchdog, ParsePhaseDeadlines) {
  const auto d = parsePhaseDeadlines("rahtm.map=120,simnet=30.5");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, "rahtm.map");
  EXPECT_DOUBLE_EQ(d[0].second, 120.0);
  EXPECT_EQ(d[1].first, "simnet");
  EXPECT_DOUBLE_EQ(d[1].second, 30.5);
  EXPECT_TRUE(parsePhaseDeadlines("").empty());
  EXPECT_THROW(parsePhaseDeadlines("oops"), ParseError);
  EXPECT_THROW(parsePhaseDeadlines("a=notanumber"), ParseError);
}

TEST(Watchdog, DeadlineForUsesLongestApplicablePrefix) {
  WatchdogConfig cfg;
  cfg.defaultDeadlineSec = 60.0;
  cfg.phaseDeadlines = {{"rahtm.phase", 5.0}, {"simnet", 7.0}};
  Watchdog wd(cfg);
  EXPECT_DOUBLE_EQ(wd.deadlineFor("rahtm.phase.cluster"), 5.0);
  EXPECT_DOUBLE_EQ(wd.deadlineFor("simnet.run"), 7.0);
  EXPECT_DOUBLE_EQ(wd.deadlineFor("rahtm.map"), 60.0);
  EXPECT_DOUBLE_EQ(wd.deadlineFor(nullptr), 60.0);
}

TEST(Watchdog, QuietOutsideAnyPhase) {
  WatchdogConfig cfg;
  cfg.pollMs = 5;
  cfg.defaultDeadlineSec = 0.02;
  cfg.action = WatchdogAction::Log;
  Watchdog wd(cfg);
  wd.start();
  ASSERT_TRUE(wd.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  wd.stop();
  EXPECT_EQ(wd.stallsDetected(), 0);
}

TEST(Watchdog, EscalatesOnArtificialStallAndDumpsArtifact) {
  const std::string dir = ::testing::TempDir();
  WatchdogConfig cfg;
  cfg.pollMs = 5;
  cfg.defaultDeadlineSec = 0.03;
  cfg.action = WatchdogAction::Abort;  // hook below replaces the abort
  cfg.postmortemDir = dir;

  std::atomic<int> maxStage{0};
  std::string stalledPhase;
  std::mutex mu;
  Watchdog wd(cfg);
  wd.setOnStall([&](int stage, const std::string& phase, double) {
    std::lock_guard<std::mutex> lock(mu);
    maxStage.store(stage);
    stalledPhase = phase;
  });
  wd.start();

  {
    PhaseScope phase("test.stall");
    const auto start = std::chrono::steady_clock::now();
    while (maxStage.load() < 3 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  wd.stop();

  EXPECT_GE(wd.stallsDetected(), 1);
  EXPECT_EQ(maxStage.load(), 3);
  EXPECT_EQ(wd.lastStage(), 3);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(stalledPhase, "test.stall");
  }

  // The stage-2 escalation wrote a stall artifact; it must parse and
  // validate as rahtm.postmortem/v1.
  const std::string path = postmortemPathFor("stall", dir);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = parseJson(ss.str());
  const std::vector<std::string> problems = validatePostmortemJson(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
  EXPECT_EQ(doc.stringOr("reason", ""), "stall");
}

TEST(Watchdog, ProgressSuppressesEscalation) {
  WatchdogConfig cfg;
  cfg.pollMs = 5;
  cfg.defaultDeadlineSec = 0.05;
  cfg.action = WatchdogAction::Log;
  Watchdog wd(cfg);
  wd.start();
  {
    PhaseScope phase("test.live");
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(200)) {
      Heartbeats::instance().beat(Pulse::RefineProbes);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  wd.stop();
  EXPECT_EQ(wd.stallsDetected(), 0);
}

// ---- Post-mortem artifact schema ------------------------------------------

TEST(Postmortem, ManualDumpMatchesSchema) {
  // Make sure there is traffic to capture: a metrics registry, recorder
  // events, heartbeats and an open phase.
  MetricsRegistry reg;
  registerStandardMetrics(reg);
  MetricsRegistry* prev = metrics();
  setMetrics(&reg);
  reg.counter("rahtm.subproblems").add(3);
  FlightRecorder::instance().record(FrEvent::Custom, 7, 9);
  Heartbeats::instance().beat(Pulse::SimplexPivots, 11);
  Heartbeats::instance().beat(Pulse::MergeCandidates, 5);
  PhaseScope phase("test.postmortem");

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(writePostmortemNow("manual", dir.c_str()));
  setMetrics(prev);

  const std::string path = postmortemPathFor("manual", dir);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = parseJson(ss.str());

  const std::vector<std::string> problems = validatePostmortemJson(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());

  // Golden structural expectations, test_report_ledger style.
  EXPECT_EQ(doc.stringOr("schema", ""), kPostmortemSchema);
  EXPECT_EQ(doc.stringOr("reason", ""), "manual");
  const JsonValue* hb = doc.find("heartbeats");
  ASSERT_NE(hb, nullptr);
  EXPECT_GE(hb->numberOr("simplex_pivots", 0), 11.0);
  EXPECT_GE(hb->numberOr("merge_candidates", 0), 5.0);
  const JsonValue* rec = doc.find("recorder");
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->numberOr("capacity", 0), 0.0);
  ASSERT_NE(rec->find("threads"), nullptr);
  const JsonValue* env = doc.find("environment");
  ASSERT_NE(env, nullptr);
  EXPECT_FALSE(env->stringOr("os", "").empty());
  const JsonValue* met = doc.find("metrics");
  ASSERT_NE(met, nullptr);
  const JsonValue* counters = met->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->numberOr("rahtm.subproblems", 0), 3.0);
  const JsonValue* stack = doc.find("phase_stack");
  ASSERT_NE(stack, nullptr);
  // The memory section: per-account counters from the MemRegistry plus the
  // budget state, written from relaxed atomics (signal-safe path).
  const JsonValue* mem = doc.find("memory");
  ASSERT_NE(mem, nullptr);
  const JsonValue* accounts = mem->find("accounts");
  ASSERT_NE(accounts, nullptr);
  const JsonValue* obsAccount = accounts->find("obs");
  ASSERT_NE(obsAccount, nullptr);
  // stateLocked() tracks the post-mortem buffers under "obs" before the
  // dump, so this account is live by construction.
  EXPECT_GT(obsAccount->numberOr("peak_bytes", 0), 0.0);
  EXPECT_GE(mem->numberOr("accounted_peak_bytes", -1), 0.0);
  EXPECT_GE(mem->numberOr("budget_stage", -1), 0.0);
}

TEST(Postmortem, ValidatorRejectsWrongSchema) {
  const JsonValue doc = parseJson("{\"schema\": \"bogus/v9\"}");
  EXPECT_FALSE(validatePostmortemJson(doc).empty());
}

TEST(Postmortem, PathNaming) {
  EXPECT_EQ(postmortemPathFor("sigsegv", "/tmp/x"),
            "/tmp/x/postmortem.sigsegv.json");
  EXPECT_EQ(postmortemPathFor("stall", ""), "./postmortem.stall.json");
}

// ---- Tracer event cap -----------------------------------------------------

TEST(TraceCap, DropsBeyondCapAndCountsThem) {
  Tracer t;
  t.setEventCap(4);
  for (int i = 0; i < 4; ++i) {
    t.instant("burst", "test");
  }
  EXPECT_EQ(t.droppedEvents(), 0);
  t.instant("overflow", "test");
  EXPECT_EQ(t.droppedEvents(), 1);
  const SpanId id = t.beginSpan("late", "test");
  EXPECT_EQ(id, kNoSpan);
  EXPECT_EQ(t.droppedEvents(), 2);
  // endSpan/attr tolerate the sentinel.
  EXPECT_EQ(t.endSpan(kNoSpan), 0);
  t.attr(kNoSpan, "k", "1");

  std::ostringstream os;
  t.writeSummary(os);
  EXPECT_NE(os.str().find("\"dropped_events\":2"), std::string::npos)
      << os.str();
}

TEST(TraceCap, ScopedSpanStillTimesWhenDropped) {
  Tracer t;
  t.setEventCap(0);  // everything drops
  ScopedSpan span(&t, "work", "test");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double sec = span.close();
  EXPECT_GE(sec, 0.004);  // steady-clock fallback still measured the span
  EXPECT_GE(t.droppedEvents(), 1);
}

}  // namespace
}  // namespace rahtm::obs
