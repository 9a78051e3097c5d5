#include "obs/mem.hpp"

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"

namespace rahtm::obs {

namespace {

constexpr const char* kAccountNames[kMemAccountCount] = {
    "route_table", "flow_incidence", "simnet", "lp", "mapper", "obs", "other"};

constexpr std::int64_t kNoLimit = INT64_MAX;

// WARN fires at this fraction of the budget; FAIL at the budget itself.
constexpr double kWarnFrac = 0.80;

std::int64_t warnLimit(std::int64_t budget) {
  return static_cast<std::int64_t>(static_cast<double>(budget) * kWarnFrac);
}

double toMb(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

const char* memAccountName(MemAccountId id) {
  const int i = static_cast<int>(id);
  return (i >= 0 && i < kMemAccountCount) ? kAccountNames[i] : "other";
}

MemRegistry::MemRegistry() {
  nextLimit_.store(kNoLimit, std::memory_order_relaxed);
  baselineRss_.store(currentRssBytes(), std::memory_order_relaxed);
}

MemRegistry& MemRegistry::instance() {
  // Leaked so post-mortem handlers can read the counters during process
  // teardown (same lifetime discipline as the PmState buffers).
  static MemRegistry* g = [] {
    auto* r = new MemRegistry();
    if (const char* v = std::getenv("RAHTM_MEM_TRACK")) {
      if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) {
        r->setEnabled(false);
      }
    }
    if (const char* v = std::getenv("RAHTM_MEM_BUDGET_MB")) {
      try {
        r->setBudgetMb(parseInt(v), "RAHTM_MEM_BUDGET_MB");
      } catch (const ParseError& e) {
        RAHTM_LOG(Warn) << "RAHTM_MEM_BUDGET_MB=" << v << " ignored: "
                        << e.what() << "; no memory budget armed";
      }
    }
    return r;
  }();
  return *g;
}

void MemRegistry::track(MemAccountId id, std::int64_t bytes) {
  if (bytes <= 0 || !enabled_.load(std::memory_order_relaxed)) return;
  // Admission: the total only ever moves to a value that was checked
  // against the next budget rung (INT64_MAX when unlimited), so a refused
  // addition is never counted, not even for a concurrent track() to see.
  std::int64_t total = totalCurrent_.load(std::memory_order_relaxed);
  do {
    if (total + bytes > nextLimit_.load(std::memory_order_relaxed)) {
      escalate(id, bytes, total + bytes);  // throws past the budget
    }
  } while (!totalCurrent_.compare_exchange_weak(total, total + bytes,
                                                std::memory_order_relaxed));
  total += bytes;
  Slot& s = slots_[static_cast<int>(id)];
  const std::int64_t cur =
      s.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = s.peak.load(std::memory_order_relaxed);
  while (cur > peak &&
         !s.peak.compare_exchange_weak(peak, cur, std::memory_order_relaxed)) {
  }
  std::int64_t tpeak = totalPeak_.load(std::memory_order_relaxed);
  while (total > tpeak && !totalPeak_.compare_exchange_weak(
                              tpeak, total, std::memory_order_relaxed)) {
  }
  std::int64_t ppeak = phasePeak_.load(std::memory_order_relaxed);
  while (total > ppeak && !phasePeak_.compare_exchange_weak(
                              ppeak, total, std::memory_order_relaxed)) {
  }
}

void MemRegistry::untrack(MemAccountId id, std::int64_t bytes) noexcept {
  if (bytes <= 0 || !enabled_.load(std::memory_order_relaxed)) return;
  slots_[static_cast<int>(id)].current.fetch_sub(bytes,
                                                 std::memory_order_relaxed);
  totalCurrent_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::int64_t MemRegistry::currentBytes(MemAccountId id) const {
  return slots_[static_cast<int>(id)].current.load(std::memory_order_relaxed);
}

std::int64_t MemRegistry::peakBytes(MemAccountId id) const {
  return slots_[static_cast<int>(id)].peak.load(std::memory_order_relaxed);
}

void MemRegistry::setBudgetBytes(std::int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budgetBytes_.store(bytes > 0 ? bytes : 0, std::memory_order_relaxed);
  stage_.store(0, std::memory_order_relaxed);
  nextLimit_.store(bytes > 0 ? warnLimit(bytes) : kNoLimit,
                   std::memory_order_relaxed);
}

void MemRegistry::setBudgetMb(std::int64_t mb, const std::string& source) {
  if (mb < 0 || mb > kMaxBudgetMb) {
    throw ParseError(source + " must be between 0 and " +
                     std::to_string(kMaxBudgetMb) + " MiB, got " +
                     std::to_string(mb));
  }
  setBudgetBytes(mb << 20);
}

void MemRegistry::escalate(MemAccountId id, std::int64_t bytes,
                           std::int64_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t budget = budgetBytes_.load(std::memory_order_relaxed);
  if (budget <= 0) return;
  if (total > budget) {
    stage_.store(2, std::memory_order_relaxed);
    const std::string msg =
        "memory budget exceeded: accounted " + breakdown(total, id, bytes) +
        " passed RAHTM_MEM_BUDGET_MB (" +
        std::to_string(static_cast<long long>(toMb(budget))) + " MB)";
    RAHTM_LOG(Error) << msg;
    throw MemBudgetError(msg);
  }
  if (nextLimit_.load(std::memory_order_relaxed) < budget) {
    if (stage_.load(std::memory_order_relaxed) == 0) {
      stage_.store(1, std::memory_order_relaxed);
    }
    nextLimit_.store(budget, std::memory_order_relaxed);
    RAHTM_LOG(Warn) << "mem budget: accounted bytes at "
                    << breakdown(total, id, bytes) << " crossed 80% of budget ("
                    << toMb(budget) << " MB); WARN stage";
  }
}

std::string MemRegistry::breakdown(std::int64_t total, MemAccountId id,
                                   std::int64_t bytes) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << toMb(total) << " MB [";
  bool first = true;
  for (int i = 0; i < kMemAccountCount; ++i) {
    std::int64_t cur = slots_[i].current.load(std::memory_order_relaxed);
    if (i == static_cast<int>(id)) cur += bytes;
    if (cur <= 0) continue;
    if (!first) os << ' ';
    os << kAccountNames[i] << '=' << toMb(cur) << "MB";
    first = false;
  }
  os << ']';
  return os.str();
}

void MemRegistry::sampleRss() {
  const std::int64_t rss = currentRssBytes();
  if (rss <= 0) return;
  sampledRss_.store(rss, std::memory_order_relaxed);
  std::int64_t peak = sampledRssPeak_.load(std::memory_order_relaxed);
  while (rss > peak && !sampledRssPeak_.compare_exchange_weak(
                           peak, rss, std::memory_order_relaxed)) {
  }
  if (MetricsRegistry* m = metrics()) {
    m->gauge("mem.sampled_rss_bytes")
        .set(static_cast<double>(rss));
    m->gauge("mem.accounted_bytes")
        .set(static_cast<double>(totalCurrent_.load(std::memory_order_relaxed)));
  }
}

void MemRegistry::writeReport(std::ostream& os) const {
  const std::int64_t totalPeak = totalPeakBytes();
  const std::int64_t rssPeak = peakRssBytes();
  os << "memory report (accounted bytes by subsystem)\n";
  os << "  account          current_mb    peak_mb\n";
  for (int i = 0; i < kMemAccountCount; ++i) {
    const std::int64_t cur = slots_[i].current.load(std::memory_order_relaxed);
    const std::int64_t peak = slots_[i].peak.load(std::memory_order_relaxed);
    os << "  " << std::left << std::setw(15) << kAccountNames[i] << std::right
       << std::fixed << std::setprecision(2) << std::setw(12) << toMb(cur)
       << std::setw(11) << toMb(peak) << "\n";
  }
  os << "  accounted total: " << std::fixed << std::setprecision(2)
     << toMb(totalCurrentBytes()) << " MB current, " << toMb(totalPeak)
     << " MB peak\n";
  const std::int64_t baseline = baselineRss_.load(std::memory_order_relaxed);
  os << "  process VmHWM:   " << toMb(rssPeak) << " MB (baseline "
     << toMb(baseline) << " MB at registry init)";
  if (rssPeak > baseline) {
    os << "; accounted peak covers " << std::setprecision(1)
       << (100.0 * static_cast<double>(totalPeak) /
           static_cast<double>(rssPeak - baseline))
       << "% of growth";
  }
  os << "\n";
  if (sampledRssPeak_.load(std::memory_order_relaxed) > 0) {
    os << "  sampled VmRSS:   " << std::setprecision(2)
       << toMb(sampledRss_.load(std::memory_order_relaxed)) << " MB current, "
       << toMb(sampledRssPeak_.load(std::memory_order_relaxed))
       << " MB peak\n";
  }
  const std::int64_t budget = budgetBytes_.load(std::memory_order_relaxed);
  if (budget > 0) {
    os << "  budget:          " << toMb(budget) << " MB, stage "
       << stage_.load(std::memory_order_relaxed)
       << " (0=ok 1=warn 2=fail)\n";
  }
}

void MemRegistry::resetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : slots_) {
    s.current.store(0, std::memory_order_relaxed);
    s.peak.store(0, std::memory_order_relaxed);
  }
  totalCurrent_.store(0, std::memory_order_relaxed);
  totalPeak_.store(0, std::memory_order_relaxed);
  phasePeak_.store(0, std::memory_order_relaxed);
  budgetBytes_.store(0, std::memory_order_relaxed);
  nextLimit_.store(kNoLimit, std::memory_order_relaxed);
  stage_.store(0, std::memory_order_relaxed);
  sampledRss_.store(0, std::memory_order_relaxed);
  sampledRssPeak_.store(0, std::memory_order_relaxed);
  baselineRss_.store(currentRssBytes(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

}  // namespace rahtm::obs
