// Tests for the subsystem-attributed memory accounting layer (obs/mem.*):
// registry counter semantics, MemAccount RAII ownership transfer, the
// two-rung budget (warn, then refuse every addition past it) alone and
// under concurrent accounts, phase high-water marks, RSS sampling, and the
// /proc/self/status parser the samplers are built on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "obs/mem.hpp"
#include "obs/process.hpp"

namespace rahtm::obs {
namespace {

constexpr std::int64_t kMb = 1024 * 1024;

// All tests share the process-global registry; reset around each one so a
// throwing budget test cannot pollute its neighbors.
class MemTest : public ::testing::Test {
 protected:
  void SetUp() override { MemRegistry::instance().resetForTest(); }
  void TearDown() override { MemRegistry::instance().resetForTest(); }
};

TEST_F(MemTest, AccountNamesAreStable) {
  // Ledger keys: renaming one is a schema change and must be deliberate.
  EXPECT_STREQ(memAccountName(MemAccountId::RouteTable), "route_table");
  EXPECT_STREQ(memAccountName(MemAccountId::FlowIncidence), "flow_incidence");
  EXPECT_STREQ(memAccountName(MemAccountId::Simnet), "simnet");
  EXPECT_STREQ(memAccountName(MemAccountId::Lp), "lp");
  EXPECT_STREQ(memAccountName(MemAccountId::Mapper), "mapper");
  EXPECT_STREQ(memAccountName(MemAccountId::Obs), "obs");
  EXPECT_STREQ(memAccountName(MemAccountId::Other), "other");
}

TEST_F(MemTest, TrackUntrackDrivesCurrentAndPeak) {
  MemRegistry& reg = MemRegistry::instance();
  reg.track(MemAccountId::RouteTable, 100);
  reg.track(MemAccountId::Simnet, 50);
  EXPECT_EQ(reg.currentBytes(MemAccountId::RouteTable), 100);
  EXPECT_EQ(reg.currentBytes(MemAccountId::Simnet), 50);
  EXPECT_EQ(reg.totalCurrentBytes(), 150);
  EXPECT_EQ(reg.totalPeakBytes(), 150);

  reg.untrack(MemAccountId::RouteTable, 60);
  EXPECT_EQ(reg.currentBytes(MemAccountId::RouteTable), 40);
  EXPECT_EQ(reg.totalCurrentBytes(), 90);
  // Peaks are monotone.
  EXPECT_EQ(reg.peakBytes(MemAccountId::RouteTable), 100);
  EXPECT_EQ(reg.totalPeakBytes(), 150);

  // Zero/negative amounts are ignored, not tallied.
  reg.track(MemAccountId::RouteTable, 0);
  reg.track(MemAccountId::RouteTable, -5);
  EXPECT_EQ(reg.currentBytes(MemAccountId::RouteTable), 40);
}

TEST_F(MemTest, DisabledRegistryIsANoOp) {
  MemRegistry& reg = MemRegistry::instance();
  reg.setEnabled(false);
  reg.track(MemAccountId::Lp, 1000);
  EXPECT_EQ(reg.totalCurrentBytes(), 0);
  reg.setEnabled(true);
  reg.track(MemAccountId::Lp, 10);
  EXPECT_EQ(reg.totalCurrentBytes(), 10);
}

TEST_F(MemTest, PhasePeakResetsToCurrent) {
  MemRegistry& reg = MemRegistry::instance();
  reg.track(MemAccountId::Mapper, 100);
  reg.untrack(MemAccountId::Mapper, 80);
  EXPECT_EQ(reg.phasePeakBytes(), 100);
  // The next phase starts from the live total, not from zero: bytes still
  // resident are part of that phase's high-water mark too.
  reg.resetPhasePeak();
  EXPECT_EQ(reg.phasePeakBytes(), 20);
  reg.track(MemAccountId::Mapper, 30);
  EXPECT_EQ(reg.phasePeakBytes(), 50);
}

// ---- MemAccount RAII ------------------------------------------------------

TEST_F(MemTest, AccountScopeReleasesOnDestruction) {
  MemRegistry& reg = MemRegistry::instance();
  {
    MemAccount a(MemAccountId::Simnet, 64);
    EXPECT_EQ(reg.currentBytes(MemAccountId::Simnet), 64);
    a.set(200);  // grow: tracks the delta
    EXPECT_EQ(reg.currentBytes(MemAccountId::Simnet), 200);
    a.set(150);  // shrink: untracks the delta
    EXPECT_EQ(reg.currentBytes(MemAccountId::Simnet), 150);
    EXPECT_EQ(a.bytes(), 150);
  }
  EXPECT_EQ(reg.currentBytes(MemAccountId::Simnet), 0);
  EXPECT_EQ(reg.peakBytes(MemAccountId::Simnet), 200);
}

TEST_F(MemTest, AccountCopyTracksTwiceMoveTransfers) {
  MemRegistry& reg = MemRegistry::instance();
  MemAccount a(MemAccountId::Lp, 100);
  MemAccount b(a);  // two live copies => two tallies
  EXPECT_EQ(reg.currentBytes(MemAccountId::Lp), 200);

  MemAccount c(std::move(b));  // move transfers the tally
  EXPECT_EQ(reg.currentBytes(MemAccountId::Lp), 200);
  EXPECT_EQ(b.bytes(), 0);
  EXPECT_EQ(c.bytes(), 100);
}

TEST_F(MemTest, AccountCopyAssignAcrossAccountsMovesTheTally) {
  MemRegistry& reg = MemRegistry::instance();
  MemAccount lp(MemAccountId::Lp, 100);
  MemAccount rt(MemAccountId::RouteTable, 40);
  // The old tally must return to the *old* account before the id changes.
  rt = lp;
  EXPECT_EQ(reg.currentBytes(MemAccountId::RouteTable), 0);
  EXPECT_EQ(reg.currentBytes(MemAccountId::Lp), 200);
  EXPECT_EQ(rt.account(), MemAccountId::Lp);
  EXPECT_EQ(rt.bytes(), 100);
}

// ---- Budget escalation ----------------------------------------------------

TEST_F(MemTest, BudgetEscalatesWarnThenFail) {
  MemRegistry& reg = MemRegistry::instance();
  reg.setBudgetBytes(10 * kMb);  // warn past 8 MB, fail past 10 MB
  EXPECT_EQ(reg.budgetStage(), 0);

  MemAccount work(MemAccountId::Mapper);
  work.add(8 * kMb);  // exactly 80%: not past it
  EXPECT_EQ(reg.budgetStage(), 0);
  work.add(1 * kMb);  // 9 MB: crosses 80%
  EXPECT_EQ(reg.budgetStage(), 1);
  work.add(1 * kMb);  // 10 MB: the budget itself is admitted
  EXPECT_EQ(reg.budgetStage(), 1);
  EXPECT_EQ(work.bytes(), 10 * kMb);

  EXPECT_THROW(work.add(1), MemBudgetError);
  EXPECT_EQ(reg.budgetStage(), 2);
  EXPECT_EQ(work.bytes(), 10 * kMb);

  // A new budget re-arms the ladder from stage 0.
  reg.setBudgetBytes(100 * kMb);
  EXPECT_EQ(reg.budgetStage(), 0);
  work.add(1 * kMb);
  EXPECT_EQ(reg.budgetStage(), 0);
}

TEST_F(MemTest, RefusedAdditionLeavesEveryTallyAsItWas) {
  MemRegistry& reg = MemRegistry::instance();
  reg.setBudgetBytes(10 * kMb);
  MemAccount held(MemAccountId::Mapper, 5 * kMb);
  MemAccount lp(MemAccountId::Lp);

  EXPECT_THROW(lp.add(10 * kMb), MemBudgetError);
  EXPECT_EQ(lp.bytes(), 0);
  EXPECT_EQ(reg.currentBytes(MemAccountId::Lp), 0);
  EXPECT_EQ(reg.peakBytes(MemAccountId::Lp), 0);
  EXPECT_EQ(reg.currentBytes(MemAccountId::Mapper), 5 * kMb);
  EXPECT_EQ(reg.peakBytes(MemAccountId::Mapper), 5 * kMb);
  EXPECT_EQ(reg.totalCurrentBytes(), 5 * kMb);
  EXPECT_EQ(reg.totalPeakBytes(), 5 * kMb);
  EXPECT_EQ(reg.phasePeakBytes(), 5 * kMb);

  // Every addition past the budget is refused, not only the first.
  EXPECT_THROW(lp.add(100 * kMb), MemBudgetError);
  EXPECT_EQ(reg.totalCurrentBytes(), 5 * kMb);
  EXPECT_EQ(reg.totalPeakBytes(), 5 * kMb);
  // One that fits is admitted.
  lp.add(5 * kMb);
  EXPECT_EQ(reg.currentBytes(MemAccountId::Lp), 5 * kMb);
  EXPECT_EQ(reg.totalPeakBytes(), 10 * kMb);
  EXPECT_THROW(held.add(1), MemBudgetError);

  held.set(0);
  lp.set(0);
  EXPECT_EQ(reg.totalCurrentBytes(), 0);
  EXPECT_EQ(reg.currentBytes(MemAccountId::Mapper), 0);
  EXPECT_EQ(reg.currentBytes(MemAccountId::Lp), 0);
}

TEST_F(MemTest, FailErrorCarriesTheBreakdown) {
  MemRegistry& reg = MemRegistry::instance();
  reg.setBudgetBytes(1 * kMb);
  try {
    reg.track(MemAccountId::RouteTable, 2 * kMb);
    FAIL() << "expected MemBudgetError";
  } catch (const MemBudgetError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("route_table"), std::string::npos) << what;
    EXPECT_NE(what.find("RAHTM_MEM_BUDGET_MB"), std::string::npos) << what;
  }
}

TEST_F(MemTest, UnlimitedBudgetNeverEscalates) {
  MemRegistry& reg = MemRegistry::instance();
  MemAccount work(MemAccountId::Mapper);
  work.add(64 * kMb);
  EXPECT_EQ(reg.budgetStage(), 0);
}

TEST_F(MemTest, BudgetInMibIsBounded) {
  MemRegistry& reg = MemRegistry::instance();
  EXPECT_THROW(reg.setBudgetMb(-1, "--mem-budget-mb"), ParseError);
  EXPECT_EQ(reg.budgetBytes(), 0);

  reg.setBudgetMb(0, "--mem-budget-mb");  // unlimited
  EXPECT_EQ(reg.budgetBytes(), 0);

  reg.setBudgetMb(MemRegistry::kMaxBudgetMb, "--mem-budget-mb");
  EXPECT_EQ(reg.budgetBytes(), MemRegistry::kMaxBudgetMb * kMb);
  EXPECT_GT(reg.budgetBytes(), 0);

  try {
    reg.setBudgetMb(MemRegistry::kMaxBudgetMb + 1, "--mem-budget-mb");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("--mem-budget-mb"),
              std::string::npos)
        << e.what();
  }
  // A refused value leaves the previous budget armed.
  EXPECT_EQ(reg.budgetBytes(), MemRegistry::kMaxBudgetMb * kMb);
}

// Four threads hold and release accounts of seeded sizes against a budget
// their combined demand exceeds: every refusal is a MemBudgetError, no
// admitted total passes the budget, and the tallies return to zero.
TEST_F(MemTest, BudgetHoldsUnderConcurrentAccounts) {
  MemRegistry& reg = MemRegistry::instance();
  constexpr std::int64_t kBudget = 16 * kMb;
  reg.setBudgetBytes(kBudget);
  const LogLevel level = logLevel();
  setLogLevel(LogLevel::Off);  // each refusal logs its breakdown

  constexpr int kThreads = 4;
  constexpr MemAccountId kAccounts[kThreads] = {
      MemAccountId::Mapper, MemAccountId::Lp, MemAccountId::Simnet,
      MemAccountId::Mapper};
  std::atomic<bool> go{false};
  std::atomic<int> refusals{0};
  std::atomic<int> otherErrors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(977 + static_cast<unsigned>(t));
      std::uniform_int_distribution<std::int64_t> size(1, 8 * kMb);
      while (!go.load()) std::this_thread::yield();
      std::vector<MemAccount> held;
      for (int round = 0; round < 500; ++round) {
        try {
          held.emplace_back(kAccounts[t], size(rng));
        } catch (const MemBudgetError&) {
          refusals.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          otherErrors.fetch_add(1, std::memory_order_relaxed);
        }
        if (held.size() > 3 || (!held.empty() && rng() % 4 == 0)) {
          held.erase(held.begin());
        }
      }
    });
  }
  go.store(true);
  for (std::thread& th : threads) th.join();
  setLogLevel(level);

  EXPECT_EQ(otherErrors.load(), 0);
  EXPECT_GT(refusals.load(), 0);
  EXPECT_LE(reg.totalPeakBytes(), kBudget);
  EXPECT_EQ(reg.budgetStage(), 2);
  EXPECT_EQ(reg.totalCurrentBytes(), 0);
  for (const MemAccountId id : kAccounts) EXPECT_EQ(reg.currentBytes(id), 0);
}

// A refused addition never reaches the total, so it cannot crowd out a
// concurrent one that fits: one thread keeps asking for more than the
// budget while another adds and releases an amount that always fits.
TEST_F(MemTest, RefusedAdditionNeverRefusesAConcurrentOneThatFits) {
  MemRegistry& reg = MemRegistry::instance();
  constexpr std::int64_t kBudget = 16 * kMb;
  reg.setBudgetBytes(kBudget);
  MemAccount held(MemAccountId::Mapper, 8 * kMb);
  const LogLevel level = logLevel();
  setLogLevel(LogLevel::Off);  // each refusal logs its breakdown

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::atomic<int> largeRefusals{0};
  std::thread large([&] {
    while (!go.load()) std::this_thread::yield();
    while (!done.load()) {
      try {
        MemAccount a(MemAccountId::Lp, kBudget);
      } catch (const MemBudgetError&) {
        largeRefusals.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  int smallRefusals = 0;
  go.store(true);
  while (largeRefusals.load() == 0) std::this_thread::yield();
  for (int round = 0; round < 20000; ++round) {
    try {
      MemAccount a(MemAccountId::Simnet, 4 * kMb);  // 12 MB: fits
    } catch (const MemBudgetError&) {
      ++smallRefusals;
    }
  }
  done.store(true);
  large.join();
  setLogLevel(level);

  EXPECT_EQ(smallRefusals, 0);
  EXPECT_GT(largeRefusals.load(), 0);
  EXPECT_EQ(reg.peakBytes(MemAccountId::Lp), 0);
  EXPECT_EQ(reg.totalPeakBytes(), 12 * kMb);
  EXPECT_EQ(reg.totalCurrentBytes(), 8 * kMb);
}

// ---- RSS sampling + report ------------------------------------------------

TEST_F(MemTest, SampleRssFoldsIntoPeak) {
  MemRegistry& reg = MemRegistry::instance();
  reg.sampleRss();
#if defined(__linux__)
  EXPECT_GT(reg.sampledRssBytes(), 0);
  EXPECT_GE(reg.sampledRssPeakBytes(), reg.sampledRssBytes());
  EXPECT_GT(reg.baselineRssBytes(), 0);
#endif
}

TEST_F(MemTest, WriteReportNamesEveryAccount) {
  MemRegistry& reg = MemRegistry::instance();
  reg.track(MemAccountId::RouteTable, 3 * kMb);
  std::ostringstream os;
  reg.writeReport(os);
  const std::string text = os.str();
  for (int i = 0; i < kMemAccountCount; ++i) {
    EXPECT_NE(text.find(memAccountName(static_cast<MemAccountId>(i))),
              std::string::npos)
        << text;
  }
  EXPECT_NE(text.find("accounted total"), std::string::npos);
  EXPECT_NE(text.find("VmHWM"), std::string::npos);
}

// ---- /proc/self/status parsing (obs/process) ------------------------------

TEST(ProcessStatus, ParsesKbLinesFromFixture) {
  const char* fixture =
      "Name:\trahtm_map\n"
      "VmPeak:\t  123456 kB\n"
      "VmHWM:\t   98304 kB\n"
      "VmRSS:\t    65536 kB\n"
      "Threads:\t4\n";
  EXPECT_EQ(parseStatusKb(fixture, "VmHWM:"), 98304LL * 1024);
  EXPECT_EQ(parseStatusKb(fixture, "VmRSS:"), 65536LL * 1024);
}

TEST(ProcessStatus, MissingKeyReadsZero) {
  EXPECT_EQ(parseStatusKb("VmRSS:\t 12 kB\n", "VmHWM:"), 0);
  EXPECT_EQ(parseStatusKb("", "VmHWM:"), 0);
  EXPECT_EQ(parseStatusKb("VmRSS:\t 12 kB\n", ""), 0);
}

TEST(ProcessStatus, KeyMatchesOnlyAtLineStart) {
  // "HWM:" is a suffix of the VmHWM line, not a key of its own.
  EXPECT_EQ(parseStatusKb("VmHWM:\t 8 kB\n", "HWM:"), 0);
  // A key buried mid-line must not match either.
  EXPECT_EQ(parseStatusKb("Note: VmRSS: 9 kB here\nVmRSS:\t 4 kB\n",
                          "VmRSS:"),
            4 * 1024);
}

TEST(ProcessStatus, MalformedValuesReadZero) {
  EXPECT_EQ(parseStatusKb("VmHWM:\tlots kB\n", "VmHWM:"), 0);
  EXPECT_EQ(parseStatusKb("VmHWM:\n", "VmHWM:"), 0);
  EXPECT_EQ(parseStatusKb("VmHWM:\t-32 kB\n", "VmHWM:"), 0);
}

TEST(ProcessStatus, LiveReadersAgreeWithProc) {
#if defined(__linux__)
  // A running gtest binary has a nonzero footprint, and the high-water
  // mark can never be below the current residency.
  EXPECT_GT(currentRssBytes(), 0);
  EXPECT_GE(peakRssBytes(), currentRssBytes());
#endif
}

}  // namespace
}  // namespace rahtm::obs
