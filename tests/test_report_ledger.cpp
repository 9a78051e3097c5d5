// Tests for the benchmark ledger and regression gate (obs/report.*), plus
// the satellites that feed it: the stable golden-file JSON layout, schema
// round-trip, compareReports pass/regression/structural-failure semantics,
// the geomean degenerate-input guard, histogram quantile estimation,
// process-level wall/RSS observations, the simulator's link-load capture,
// and the per-phase quality attribution recorded by the RAHTM pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/experiment.hpp"
#include "bench/suites.hpp"
#include "common/error.hpp"
#include "core/rahtm.hpp"
#include "obs/json_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/report.hpp"
#include "simnet/simulator.hpp"
#include "topology/torus.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

using obs::CheckResult;
using obs::EnvFingerprint;
using obs::JsonValue;
using obs::RunRecord;
using obs::RunReport;

RunReport sampleReport() {
  RunReport report;
  report.suite = "golden";
  report.env.gitSha = "abc123";
  report.env.compiler = "testcc 1.0";
  report.env.buildType = "Release";
  report.env.os = "linux";
  report.env.nodes = 32;
  report.env.concentration = 2;
  report.env.messageBytes = 4096;
  report.env.simIterations = 4;
  report.env.threads = 1;
  report.env.wallSeconds = 1.5;
  report.env.peakRssBytes = 1048576;

  RunRecord a;
  a.benchmark = "CG";
  a.mapper = "RAHTM";
  a.add("comm_cycles", 1000);
  a.add("mcl", 12.5);
  a.add("hop_bytes", 4096);
  a.add("map_seconds", 0.25);
  report.records.push_back(a);

  RunRecord b;
  b.benchmark = "CG";
  b.mapper = "ABCDET";
  b.add("comm_cycles", 2000);
  b.add("mcl", 25);
  b.add("hop_bytes", 8192);
  b.add("map_seconds", 0);
  report.records.push_back(b);
  return report;
}

std::string toJson(const RunReport& r) {
  std::ostringstream os;
  r.writeJson(os);
  return os.str();
}

// ---- Golden file: the exact canonical serialization ----------------------
// Ledgers are committed to git (bench/baseline/) and diffed across commits;
// any change to key order or layout is a schema change and must be
// deliberate (bump kReportSchema).

TEST(ReportLedger, GoldenSerialization) {
  const char* expected = R"({
  "schema": "rahtm.bench.report/v1",
  "suite": "golden",
  "environment": {
    "git_sha": "abc123",
    "compiler": "testcc 1.0",
    "build_type": "Release",
    "os": "linux",
    "nodes": 32,
    "concentration": 2,
    "message_bytes": 4096,
    "sim_iterations": 4,
    "threads": 1,
    "wall_seconds": 1.5,
    "peak_rss_bytes": 1048576
  },
  "records": [
    {"benchmark": "CG", "mapper": "RAHTM", "metrics": {"comm_cycles": 1000, "mcl": 12.5, "hop_bytes": 4096, "map_seconds": 0.25}},
    {"benchmark": "CG", "mapper": "ABCDET", "metrics": {"comm_cycles": 2000, "mcl": 25, "hop_bytes": 8192, "map_seconds": 0}}
  ]
}
)";
  EXPECT_EQ(toJson(sampleReport()), expected);
}

// The optional "mem" section (accounted-memory peaks next to VmHWM) sits
// between "environment" and "records"; accounts serialize on one line in
// the fixed MemAccountId order.
TEST(ReportLedger, GoldenSerializationWithMemSection) {
  RunReport report = sampleReport();
  report.mem.present = true;
  report.mem.accounts = {{"route_table", 1048576}, {"simnet", 524288}};
  report.mem.accountedPeakBytes = 1572864;
  report.mem.baselineRssBytes = 524288;
  report.mem.peakRssBytes = 2621440;
  report.mem.rssCoverage = 0.75;
  const std::string text = toJson(report);
  const char* expected = R"(  "mem": {
    "accounts": {"route_table": 1048576, "simnet": 524288},
    "accounted_peak_bytes": 1572864,
    "baseline_rss_bytes": 524288,
    "peak_rss_bytes": 2621440,
    "rss_coverage": 0.75
  },
  "records": [)";
  EXPECT_NE(text.find(expected), std::string::npos) << text;

  // Schema-valid, and the section survives a parse → re-serialize cycle
  // byte-for-byte (the reader preserves account order).
  const JsonValue doc = obs::parseJson(text);
  EXPECT_TRUE(obs::validateReportJson(doc).empty());
  std::istringstream in(text);
  const RunReport parsed = obs::readReport(in);
  ASSERT_TRUE(parsed.mem.present);
  ASSERT_EQ(parsed.mem.accounts.size(), 2u);
  EXPECT_EQ(parsed.mem.accounts[0].first, "route_table");
  EXPECT_EQ(parsed.mem.accounts[0].second, 1048576);
  EXPECT_EQ(parsed.mem.accountedPeakBytes, 1572864);
  EXPECT_EQ(parsed.mem.baselineRssBytes, 524288);
  EXPECT_EQ(parsed.mem.peakRssBytes, 2621440);
  EXPECT_DOUBLE_EQ(parsed.mem.rssCoverage, 0.75);
  EXPECT_EQ(toJson(parsed), text);
}

TEST(ReportLedger, ValidatorRejectsMalformedMemSection) {
  RunReport report = sampleReport();
  report.mem.present = true;
  report.mem.accounts = {{"route_table", 1}};
  std::string text = toJson(report);
  const std::string from = "\"accounted_peak_bytes\"";
  text.replace(text.find(from), from.size(), "\"wrong_key\"");
  const std::vector<std::string> problems =
      obs::validateReportJson(obs::parseJson(text));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("accounted_peak_bytes"), std::string::npos);
}

TEST(ReportLedger, RoundTrip) {
  const RunReport original = sampleReport();
  std::istringstream in(toJson(original));
  const RunReport parsed = obs::readReport(in);

  EXPECT_EQ(parsed.suite, original.suite);
  EXPECT_EQ(parsed.env.gitSha, original.env.gitSha);
  EXPECT_EQ(parsed.env.compiler, original.env.compiler);
  EXPECT_EQ(parsed.env.buildType, original.env.buildType);
  EXPECT_EQ(parsed.env.nodes, original.env.nodes);
  EXPECT_EQ(parsed.env.concentration, original.env.concentration);
  EXPECT_EQ(parsed.env.messageBytes, original.env.messageBytes);
  EXPECT_EQ(parsed.env.simIterations, original.env.simIterations);
  EXPECT_EQ(parsed.env.threads, original.env.threads);
  EXPECT_DOUBLE_EQ(parsed.env.wallSeconds, original.env.wallSeconds);
  EXPECT_EQ(parsed.env.peakRssBytes, original.env.peakRssBytes);
  ASSERT_EQ(parsed.records.size(), original.records.size());
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    EXPECT_EQ(parsed.records[i].benchmark, original.records[i].benchmark);
    EXPECT_EQ(parsed.records[i].mapper, original.records[i].mapper);
    // Metric order must survive the round trip too (key-order-preserving
    // parser), so a re-serialized ledger is byte-identical.
    ASSERT_EQ(parsed.records[i].metrics.size(),
              original.records[i].metrics.size());
    for (std::size_t m = 0; m < parsed.records[i].metrics.size(); ++m) {
      EXPECT_EQ(parsed.records[i].metrics[m].first,
                original.records[i].metrics[m].first);
      EXPECT_DOUBLE_EQ(parsed.records[i].metrics[m].second,
                       original.records[i].metrics[m].second);
    }
  }
  EXPECT_EQ(toJson(parsed), toJson(original));
}

TEST(ReportLedger, ValidatorRejectsWrongSchema) {
  std::string text = toJson(sampleReport());
  const std::string from = "rahtm.bench.report/v1";
  text.replace(text.find(from), from.size(), "rahtm.bench.report/v999");
  const JsonValue doc = obs::parseJson(text);
  const std::vector<std::string> problems = obs::validateReportJson(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown schema"), std::string::npos);

  std::istringstream in(text);
  EXPECT_THROW(obs::readReport(in), ParseError);
}

TEST(ReportLedger, ValidatorReportsMissingKeys) {
  const JsonValue doc = obs::parseJson(R"({"schema": "rahtm.bench.report/v1",
    "records": [{"benchmark": "CG", "metrics": {"mcl": "oops"}}]})");
  const std::vector<std::string> problems = obs::validateReportJson(doc);
  // Missing suite, missing environment, record missing 'mapper', metric of
  // the wrong type — all reported in one pass.
  EXPECT_GE(problems.size(), 4u);
}

TEST(ReportLedger, ReaderRejectsMalformedJson) {
  std::istringstream in("{\"schema\": ");
  EXPECT_THROW(obs::readReport(in), ParseError);
}

// The parser consumes the whole input: a valid document followed by
// anything but whitespace is an error, so a truncated/concatenated ledger
// can never half-parse into a plausible-looking report.
TEST(JsonReader, RejectsTrailingGarbage) {
  EXPECT_THROW(obs::parseJson("{} x"), ParseError);
  EXPECT_THROW(obs::parseJson("{\"a\": 1}{\"a\": 2}"), ParseError);
  EXPECT_THROW(obs::parseJson("[1, 2],"), ParseError);
  EXPECT_THROW(obs::parseJson("42 43"), ParseError);
  EXPECT_NO_THROW(obs::parseJson(" {\"a\": 1} \n\t"));
}

// Every committed baseline must parse, and a parse → encode → parse cycle
// must reach a fixed point: the second encode is byte-identical to the
// first (double formatting may legitimately differ from the committed
// bytes, but the reader and canonical writer must agree with each other on
// the files CI actually gates on). Each reparse must also pass the gate
// against its own source, so the round trip loses no metric precision.
TEST(ReportLedger, CommittedBaselinesRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::path(RAHTM_SOURCE_DIR) / "bench" / "baseline";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++checked;
    const RunReport parsed = obs::readReportFile(entry.path().string());
    const std::string encoded = toJson(parsed);
    std::istringstream again(encoded);
    const RunReport reparsed = obs::readReport(again);
    EXPECT_EQ(toJson(reparsed), encoded) << entry.path();
    EXPECT_TRUE(obs::validateReportJson(obs::parseJson(encoded)).empty())
        << entry.path();
    EXPECT_TRUE(
        obs::compareReports(parsed, reparsed, obs::defaultThresholds()).pass())
        << entry.path();
  }
  EXPECT_GE(checked, 4u);
}

// ---- Regression gate ------------------------------------------------------

TEST(ReportCheck, IdenticalReportsPass) {
  const RunReport r = sampleReport();
  const CheckResult result =
      obs::compareReports(r, r, obs::defaultThresholds());
  EXPECT_TRUE(result.pass());
  EXPECT_EQ(result.regressions(), 0u);
  EXPECT_TRUE(result.problems.empty());
  // 2 records x 4 metrics + the synthetic per-suite peak_rss_mb check.
  EXPECT_EQ(result.checks.size(), 9u);
}

// The synthetic peak_rss_mb column gates process RSS from the environment
// fingerprint, so it works against baselines that predate the mem section.
TEST(ReportCheck, PeakRssRegressionTripsTheGate) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  cand.env.peakRssBytes =
      static_cast<std::int64_t>(static_cast<double>(base.env.peakRssBytes) * 1.5);
  const CheckResult result =
      obs::compareReports(base, cand, obs::defaultThresholds());
  EXPECT_FALSE(result.pass());
  const auto& bad = *std::find_if(
      result.checks.begin(), result.checks.end(),
      [](const obs::MetricCheck& c) { return c.regression; });
  EXPECT_EQ(bad.metric, "peak_rss_mb");
  EXPECT_NEAR(bad.relDelta, 0.50, 1e-9);

  // Within the 25% envelope: allocator/host noise passes.
  cand.env.peakRssBytes =
      static_cast<std::int64_t>(static_cast<double>(base.env.peakRssBytes) * 1.2);
  EXPECT_TRUE(
      obs::compareReports(base, cand, obs::defaultThresholds()).pass());
}

TEST(ReportCheck, PerturbationBeyondThresholdFails) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  // mcl threshold is 2%; +10% must trip the gate.
  cand.records[0].metrics[1].second *= 1.10;
  const CheckResult result =
      obs::compareReports(base, cand, obs::defaultThresholds());
  EXPECT_FALSE(result.pass());
  EXPECT_EQ(result.regressions(), 1u);
  const auto& bad = *std::find_if(
      result.checks.begin(), result.checks.end(),
      [](const obs::MetricCheck& c) { return c.regression; });
  EXPECT_EQ(bad.metric, "mcl");
  EXPECT_EQ(bad.mapper, "RAHTM");
  EXPECT_NEAR(bad.relDelta, 0.10, 1e-9);
}

TEST(ReportCheck, PerturbationWithinThresholdPasses) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  cand.records[0].metrics[1].second *= 1.01;  // +1% < 2% mcl threshold
  EXPECT_TRUE(
      obs::compareReports(base, cand, obs::defaultThresholds()).pass());
}

TEST(ReportCheck, ImprovementPassesButIsFlagged) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  cand.records[0].metrics[1].second *= 0.80;  // 20% better
  const CheckResult result =
      obs::compareReports(base, cand, obs::defaultThresholds());
  EXPECT_TRUE(result.pass());
  bool flagged = false;
  for (const auto& c : result.checks) flagged |= c.improvement;
  EXPECT_TRUE(flagged);
}

TEST(ReportCheck, MapSecondsIsNeverGated) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  cand.records[0].metrics[3].second *= 100;  // map_seconds blows up 100x
  EXPECT_TRUE(
      obs::compareReports(base, cand, obs::defaultThresholds()).pass());
}

TEST(ReportCheck, MissingRecordIsStructuralFailure) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  cand.records.pop_back();
  const CheckResult result =
      obs::compareReports(base, cand, obs::defaultThresholds());
  EXPECT_FALSE(result.pass());
  ASSERT_EQ(result.problems.size(), 1u);
  EXPECT_NE(result.problems[0].find("missing record"), std::string::npos);
}

TEST(ReportCheck, ExtraCandidateRecordsAreIgnored) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  RunRecord extra;
  extra.benchmark = "MG";
  extra.mapper = "RAHTM";
  extra.add("mcl", 1);
  cand.records.push_back(extra);
  EXPECT_TRUE(
      obs::compareReports(base, cand, obs::defaultThresholds()).pass());
}

TEST(ReportCheck, ScaleMismatchIsStructuralFailure) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  cand.env.nodes = 128;
  const CheckResult result =
      obs::compareReports(base, cand, obs::defaultThresholds());
  EXPECT_FALSE(result.pass());
  ASSERT_GE(result.problems.size(), 1u);
  EXPECT_NE(result.problems[0].find("environment mismatch"),
            std::string::npos);
}

TEST(ReportCheck, PrintedSummaryNamesTheVerdict) {
  const RunReport base = sampleReport();
  RunReport cand = sampleReport();
  cand.records[0].metrics[1].second *= 2;
  const CheckResult result =
      obs::compareReports(base, cand, obs::defaultThresholds());
  std::ostringstream os;
  obs::printCheckResult(os, result);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(os.str().find("CHECK FAILED"), std::string::npos);
}

// ---- Suites ---------------------------------------------------------------

TEST(Suites, SmokeSuiteProducesSchemaValidLedger) {
  const bench::ExperimentScale scale =
      bench::ExperimentScale::fromSpec(32, 2, 1024, 1);
  const RunReport report = bench::runSuite("smoke", scale);
  EXPECT_EQ(report.suite, "smoke");
  EXPECT_EQ(report.env.nodes, 32);
  EXPECT_EQ(report.env.concentration, 2);
  EXPECT_FALSE(report.records.empty());
  // The roster's RAHTM row must be present with the standard metrics.
  const RunRecord* rahtm = report.find("CG", "RAHTM");
  ASSERT_NE(rahtm, nullptr);
  EXPECT_TRUE(rahtm->has("comm_cycles"));
  EXPECT_TRUE(rahtm->has("mcl"));
  EXPECT_TRUE(rahtm->has("hop_bytes"));
  EXPECT_TRUE(rahtm->has("map_seconds"));

  // Every suite ledger now carries the accounted-memory section, and by
  // smoke time the heavy owners have all reported something.
  EXPECT_TRUE(report.mem.present);
  EXPECT_GT(report.mem.accountedPeakBytes, 0);

  const JsonValue doc = obs::parseJson(toJson(report));
  EXPECT_TRUE(obs::validateReportJson(doc).empty());

  // A self-check of a fresh ledger passes trivially.
  EXPECT_TRUE(
      obs::compareReports(report, report, obs::defaultThresholds()).pass());
}

TEST(Suites, ScaleFromFingerprintRoundTrips) {
  const bench::ExperimentScale scale =
      bench::ExperimentScale::fromSpec(32, 2, 1024, 2);
  EnvFingerprint env;
  env.nodes = scale.machine.numNodes();
  env.concentration = scale.concentration;
  env.messageBytes = scale.params.messageBytes;
  env.simIterations = scale.simIterations;
  const bench::ExperimentScale back = bench::scaleFromFingerprint(env);
  EXPECT_EQ(back.machine.numNodes(), 32);
  EXPECT_EQ(back.concentration, 2);
  EXPECT_EQ(back.params.messageBytes, 1024);
  EXPECT_EQ(back.simIterations, 2);
}

TEST(Suites, UnknownSuiteThrows) {
  const bench::ExperimentScale scale =
      bench::ExperimentScale::fromSpec(32, 2, 1024, 1);
  EXPECT_THROW(bench::runSuite("fig99", scale), ParseError);
}

TEST(Suites, MalformedScaleEnvironmentNamesTheVariable) {
  // A malformed or out-of-range value is an error naming its variable, not
  // a silent 0 (RAHTM_SIM_ITERS once ledgered comm_cycles 0), a wrapped
  // int, or "all hardware threads".
  using Case = std::pair<const char*, const char*>;
  for (const auto& [name, value] : std::vector<Case>{
           {"RAHTM_SIM_ITERS", "abc"},
           {"RAHTM_CONC", "abc"},
           {"RAHTM_CONC", "4294967298"},
           {"RAHTM_SIM_THREADS", "abc"},
           {"RAHTM_SIM_THREADS", "300"},
       }) {
    const char* old = std::getenv(name);
    const std::string saved = old == nullptr ? "" : old;
    ::setenv(name, value, 1);
    try {
      bench::ExperimentScale::fromEnv();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    if (old != nullptr) {
      ::setenv(name, saved.c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }
}

// ---- geomean guard --------------------------------------------------------

TEST(Geomean, PositiveValues) {
  EXPECT_DOUBLE_EQ(bench::geomean({2, 8}), 4);
  EXPECT_DOUBLE_EQ(bench::geomean({5}), 5);
}

TEST(Geomean, DegenerateInputReturnsZero) {
  EXPECT_EQ(bench::geomean({}), 0);
  EXPECT_EQ(bench::geomean({1, 0, 4}), 0);
  EXPECT_EQ(bench::geomean({1, -2}), 0);
}

// ---- Histogram quantiles --------------------------------------------------

TEST(HistogramQuantile, UniformValuesInterpolate) {
  obs::MetricsRegistry reg;
  obs::Histogram& h =
      reg.histogram("q", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.observe(v);
  // Uniform 1..100: the q-quantile estimate must land within one bucket
  // width of the exact value.
  EXPECT_NEAR(h.quantile(0.50), 50, 10);
  EXPECT_NEAR(h.quantile(0.95), 95, 10);
  EXPECT_NEAR(h.quantile(0.99), 99, 10);
  // Quantiles never leave the observed range.
  EXPECT_GE(h.quantile(0.0), 1);
  EXPECT_LE(h.quantile(1.0), 100);
  // Monotone in q.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.histogram("empty", {1, 2}).quantile(0.5), 0);
}

// The overflow bucket has no upper edge, so estimates for mass beyond the
// last bound must clamp to the observed max rather than extrapolate. Pins
// the clamp so a histogram of (say) stall latencies can never report a p99
// beyond anything it actually saw.
TEST(HistogramQuantile, OverflowBucketClampsToObservedMax) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("ovf", {10, 20});
  h.observe(5);
  h.observe(1e9);  // far past the last bound
  EXPECT_LE(h.quantile(0.99), 1e9);
  EXPECT_LE(h.quantile(1.0), 1e9);
  EXPECT_GE(h.quantile(0.99), 5);
  EXPECT_LE(h.quantile(0.25), 10);  // low mass stays in its finite bucket

  // Every observation in the overflow bucket: all quantiles live inside
  // the observed [min, max], never at the (infinite) bucket edge.
  obs::Histogram& h2 = reg.histogram("ovf_only", {1});
  h2.observe(500);
  h2.observe(700);
  EXPECT_GE(h2.quantile(0.01), 500);
  EXPECT_LE(h2.quantile(0.99), 700);
  EXPECT_LE(h2.quantile(0.5), h2.quantile(0.95));
}

TEST(HistogramQuantile, SnapshotCarriesQuantilesAndProcessBlock) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {1, 2, 4, 8});
  for (int i = 0; i < 16; ++i) h.observe(i % 8);
  std::ostringstream os;
  reg.writeJson(os);
  const JsonValue doc = obs::parseJson(os.str());
  const JsonValue& hist = doc.at("histograms").at("lat");
  EXPECT_NE(hist.find("p50"), nullptr);
  EXPECT_NE(hist.find("p95"), nullptr);
  EXPECT_NE(hist.find("p99"), nullptr);
  const JsonValue& process = doc.at("process");
  EXPECT_GE(process.at("wall_seconds").number, 0);
  EXPECT_GE(process.at("peak_rss_bytes").number, 0);
}

// ---- Process observations -------------------------------------------------

TEST(Process, WallAndRssAreSane) {
  EXPECT_GE(obs::processWallSeconds(), 0);
#if defined(__linux__)
  // A running gtest binary has certainly touched > 1 MB.
  EXPECT_GT(obs::peakRssBytes(), 1 << 20);
#else
  EXPECT_GE(obs::peakRssBytes(), 0);
#endif
}

// ---- Simulator link-load capture ------------------------------------------

TEST(LinkCapture, CapturesChannelsAndOccupancy) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  Mapping m(static_cast<RankId>(t.numNodes()));
  for (RankId r = 0; r < m.numRanks(); ++r) m.assign(r, r, 0);
  simnet::Phase phase;
  for (RankId r = 0; r < 8; ++r) {
    phase.push_back({r, static_cast<RankId>((r + 1) % 8), 256});
  }
  simnet::SimConfig cfg;
  cfg.statSampleCycles = 16;
  simnet::LinkLoadCapture capture;
  cfg.linkCapture = &capture;
  const simnet::PhaseResult r = simnet::simulatePhase(t, m, phase, cfg);

  ASSERT_FALSE(capture.channels.empty());
  EXPECT_EQ(capture.sampleCycles, 16);
  ASSERT_FALSE(capture.samples.empty());
  // Per-channel flit totals are exactly the simulated link traversals.
  std::int64_t totalFlits = 0;
  for (const simnet::ChannelLoad& c : capture.channels) {
    EXPECT_GE(c.flits, 0);
    EXPECT_GE(c.dim, 0);
    EXPECT_LT(c.dim, static_cast<std::int32_t>(t.ndims()));
    EXPECT_TRUE(c.dir == 0 || c.dir == 1);
    totalFlits += c.flits;
  }
  EXPECT_EQ(totalFlits, r.flitHops);

  std::ostringstream os;
  simnet::writeLinkHeatmapJson(os, t, capture);
  const JsonValue doc = obs::parseJson(os.str());
  EXPECT_EQ(doc.at("schema").str, "rahtm.simnet.link_heatmap/v1");
  EXPECT_EQ(doc.at("channels").array.size(), capture.channels.size());
  EXPECT_EQ(doc.at("occupancy").array.size(), capture.samples.size());
  EXPECT_EQ(doc.at("shape").array.size(), t.ndims());
}

TEST(LinkCapture, ClearedBetweenRuns) {
  const Torus t = Torus::torus(Shape{2, 2});
  Mapping m(static_cast<RankId>(t.numNodes()));
  for (RankId r = 0; r < m.numRanks(); ++r) m.assign(r, r, 0);
  simnet::SimConfig cfg;
  cfg.statSampleCycles = 8;
  simnet::LinkLoadCapture capture;
  cfg.linkCapture = &capture;
  simnet::simulatePhase(t, m, {{0, 3, 512}}, cfg);
  const std::size_t channelsFirst = capture.channels.size();
  // An empty second run must not accumulate onto the first run's data.
  simnet::simulatePhase(t, m, {}, cfg);
  EXPECT_EQ(capture.channels.size(), channelsFirst);
  EXPECT_TRUE(capture.samples.empty() || capture.samples.size() <= 1);
  std::int64_t total = 0;
  for (const auto& c : capture.channels) total += c.flits;
  EXPECT_EQ(total, 0);
}

// ---- Per-phase quality attribution ----------------------------------------

TEST(PhaseQuality, PipelineRecordsAllFourPhases) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const Workload w = makeNasByName("CG", 16);
  RahtmConfig cfg;
  cfg.subproblem.milpMaxVerts = 0;
  RahtmMapper mapper(cfg);
  mapper.mapWorkload(w, t, 2);
  const std::vector<PhaseQuality>& pq = mapper.stats().phaseQuality;
  ASSERT_EQ(pq.size(), 4u);
  EXPECT_EQ(pq[0].phase, "cluster");
  EXPECT_EQ(pq[1].phase, "pin");
  EXPECT_EQ(pq[2].phase, "merge");
  EXPECT_EQ(pq[3].phase, "refine");
  // Memory high-water marks are armed at each phase boundary; the pipeline
  // builds tracked structures (route table, delta-eval state), so at least
  // one phase must have recorded a nonzero accounted peak.
  std::int64_t maxMemPeak = 0;
  for (const PhaseQuality& q : pq) {
    EXPECT_TRUE(std::isfinite(q.mcl));
    EXPECT_TRUE(std::isfinite(q.hopBytes));
    EXPECT_GE(q.mcl, 0);
    EXPECT_GE(q.hopBytes, 0);
    EXPECT_GE(q.memPeakBytes, 0);
    maxMemPeak = std::max(maxMemPeak, q.memPeakBytes);
  }
  EXPECT_GT(maxMemPeak, 0);
  // Refinement only accepts improving swaps under the MCL objective, so the
  // final placement can never be worse than the merge incumbent.
  EXPECT_LE(pq[3].mcl, pq[2].mcl * (1 + 1e-9));
}

TEST(PhaseQuality, RefineDisabledRecordsThreePhases) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const Workload w = makeNasByName("CG", 16);
  RahtmConfig cfg;
  cfg.subproblem.milpMaxVerts = 0;
  cfg.finalRefinement = false;
  RahtmMapper mapper(cfg);
  mapper.mapWorkload(w, t, 2);
  const std::vector<PhaseQuality>& pq = mapper.stats().phaseQuality;
  ASSERT_EQ(pq.size(), 3u);
  EXPECT_EQ(pq[2].phase, "merge");
}

}  // namespace
}  // namespace rahtm
