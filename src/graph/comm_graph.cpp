#include "graph/comm_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace rahtm {

namespace {

/// Index slots for \p flows flows at most half full: a power of two >= 16.
std::size_t capacityFor(std::size_t flows) {
  std::size_t cap = 16;
  while (cap < 2 * flows) cap *= 2;
  return cap;
}

}  // namespace

CommGraph::CommGraph(RankId numRanks) : numRanks_(numRanks) {
  RAHTM_REQUIRE(numRanks >= 0, "CommGraph: negative rank count");
}

void CommGraph::ensureRanks(RankId numRanks) {
  numRanks_ = std::max(numRanks_, numRanks);
}

std::size_t CommGraph::findSlot(std::uint64_t k) const {
  const std::size_t mask = slotKey_.size() - 1;
  const int shift = 64 - std::countr_zero(slotKey_.size());
  auto i = static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >> shift);
  while (slotKey_[i] != k && slotKey_[i] != kEmptyKey) i = (i + 1) & mask;
  return i;
}

void CommGraph::rehash(std::size_t capacity) {
  RAHTM_REQUIRE(capacity / 2 <= (std::size_t{1} << 32),
                "CommGraph: more than 2^32 flows");
  slotKey_.assign(capacity, kEmptyKey);
  slotFlow_.assign(capacity, 0);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const std::uint64_t k = key(flows_[i].src, flows_[i].dst);
    const std::size_t s = findSlot(k);
    slotKey_[s] = k;
    slotFlow_[s] = static_cast<std::uint32_t>(i);
  }
}

void CommGraph::reserve(std::size_t flows) {
  flows_.reserve(flows);
  if (capacityFor(flows) > slotKey_.size()) rehash(capacityFor(flows));
}

void CommGraph::addFlow(RankId src, RankId dst, Volume bytes) {
  RAHTM_REQUIRE(src >= 0 && dst >= 0, "addFlow: negative rank id");
  RAHTM_REQUIRE(std::isfinite(bytes) && bytes >= 0,
                "addFlow: volume must be finite and >= 0");
  ensureRanks(std::max(src, dst) + 1);
  if (src == dst || bytes == 0) return;
  if (2 * (flows_.size() + 1) > slotKey_.size()) {
    rehash(capacityFor(flows_.size() + 1));
  }
  const std::uint64_t k = key(src, dst);
  const std::size_t s = findSlot(k);
  if (slotKey_[s] == k) {
    flows_[slotFlow_[s]].bytes += bytes;
    return;
  }
  slotKey_[s] = k;
  slotFlow_[s] = static_cast<std::uint32_t>(flows_.size());
  flows_.push_back(Flow{src, dst, bytes});
}

void CommGraph::addExchange(RankId a, RankId b, Volume bytes) {
  addFlow(a, b, bytes);
  addFlow(b, a, bytes);
}

Volume CommGraph::volume(RankId src, RankId dst) const {
  // A negative id has no flow, and its key could equal kEmptyKey.
  if (src < 0 || dst < 0 || slotKey_.empty()) return 0;
  const std::uint64_t k = key(src, dst);
  const std::size_t s = findSlot(k);
  return slotKey_[s] == k ? flows_[slotFlow_[s]].bytes : 0;
}

Volume CommGraph::totalVolume() const {
  Volume v = 0;
  for (const Flow& f : flows_) v += f.bytes;
  return v;
}

int CommGraph::maxDegree() const {
  std::vector<int> degree(static_cast<std::size_t>(numRanks_), 0);
  int best = 0;
  for (const Flow& f : undirectedFlows()) {
    best = std::max({best, ++degree[static_cast<std::size_t>(f.src)],
                     ++degree[static_cast<std::size_t>(f.dst)]});
  }
  return best;
}

std::vector<Flow> CommGraph::undirectedFlows() const {
  // (unordered pair key, flow index), sorted: each pair is one run, its
  // flows in flow order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto [lo, hi] = std::minmax(flows_[i].src, flows_[i].dst);
    order[i] = {key(lo, hi), static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end());
  std::vector<Flow> out;
  out.reserve(order.size());
  for (std::size_t i = 0; i < order.size();) {
    const std::uint64_t k = order[i].first;
    Volume vol = 0;
    for (; i < order.size() && order[i].first == k; ++i) {
      vol += flows_[order[i].second].bytes;
    }
    out.push_back(Flow{static_cast<RankId>(k >> 32),
                       static_cast<RankId>(k & 0xffffffffu), vol});
  }
  return out;
}

CommGraph CommGraph::relabeled(const std::vector<RankId>& perm) const {
  RAHTM_REQUIRE(perm.size() == static_cast<std::size_t>(numRanks_),
                "relabeled: permutation size mismatch");
  std::vector<bool> seen(perm.size(), false);
  for (const RankId p : perm) {
    RAHTM_REQUIRE(p >= 0 && p < numRanks_ && !seen[static_cast<std::size_t>(p)],
                  "relabeled: not a bijection");
    seen[static_cast<std::size_t>(p)] = true;
  }
  CommGraph out(numRanks_);
  for (const Flow& f : flows_) {
    out.addFlow(perm[static_cast<std::size_t>(f.src)],
                perm[static_cast<std::size_t>(f.dst)], f.bytes);
  }
  return out;
}

bool operator==(const CommGraph& a, const CommGraph& b) {
  if (a.numRanks_ != b.numRanks_ || a.flows_.size() != b.flows_.size())
    return false;
  for (const Flow& f : a.flows_) {
    if (b.volume(f.src, f.dst) != f.bytes) return false;
  }
  return true;
}

FlowIncidence buildFlowIncidence(const CommGraph& g) {
  const auto& flows = g.flows();
  return FlowIncidence::build(
      flows.size(), static_cast<std::size_t>(g.numRanks()),
      [&flows](std::size_t i) {
        return std::pair<std::size_t, std::size_t>{
            static_cast<std::size_t>(flows[i].src),
            static_cast<std::size_t>(flows[i].dst)};
      });
}

ContractionResult contract(const CommGraph& g,
                           const std::vector<ClusterId>& clusterOf,
                           ClusterId numClusters) {
  RAHTM_REQUIRE(clusterOf.size() == static_cast<std::size_t>(g.numRanks()),
                "contract: assignment size mismatch");
  for (const ClusterId c : clusterOf) {
    RAHTM_REQUIRE(c >= 0 && c < numClusters, "contract: cluster id out of range");
  }
  ContractionResult r;
  r.clusterGraph = CommGraph(numClusters);
  r.intraClusterVolume = 0;
  r.interClusterVolume = 0;
  for (const Flow& f : g.flows()) {
    const ClusterId cs = clusterOf[static_cast<std::size_t>(f.src)];
    const ClusterId cd = clusterOf[static_cast<std::size_t>(f.dst)];
    if (cs == cd) {
      r.intraClusterVolume += f.bytes;
    } else {
      r.interClusterVolume += f.bytes;
      r.clusterGraph.addFlow(cs, cd, f.bytes);
    }
  }
  return r;
}

void writeCommGraph(std::ostream& os, const CommGraph& g) {
  os << "ranks " << g.numRanks() << "\n";
  for (const Flow& f : g.flows()) {
    os << f.src << ' ' << f.dst << ' ' << f.bytes << "\n";
  }
}

RankId parseRankCount(const std::string& text, const std::string& where) {
  std::int64_t ranks = 0;
  try {
    ranks = parseInt(text);
  } catch (const ParseError& e) {
    throw ParseError(where + ": " + e.what());
  }
  if (ranks < 0 || ranks > std::numeric_limits<RankId>::max()) {
    throw ParseError(where + ": rank count must be in [0, " +
                     std::to_string(std::numeric_limits<RankId>::max()) +
                     "], got " + text);
  }
  return static_cast<RankId>(ranks);
}

Flow parseFlowLine(const std::vector<std::string>& fields, RankId ranks,
                   const std::string& where) {
  if (fields.size() != 3) {
    throw ParseError(where + ": expected '<src> <dst> <bytes>'");
  }
  const auto rankId = [&](const std::string& text, const char* what) {
    std::int64_t id = 0;
    try {
      id = parseInt(text);
    } catch (const ParseError& e) {
      throw ParseError(where + ": " + e.what());
    }
    if (id < 0 || id >= ranks) {
      throw ParseError(where + ": " + what + " must be in [0, " +
                       std::to_string(ranks) + "), got " + text);
    }
    return static_cast<RankId>(id);
  };
  Flow f;
  f.src = rankId(fields[0], "src");
  f.dst = rankId(fields[1], "dst");
  try {
    f.bytes = parseDouble(fields[2]);
  } catch (const ParseError& e) {
    throw ParseError(where + ": " + e.what());
  }
  if (!std::isfinite(f.bytes) || f.bytes < 0) {
    throw ParseError(where + ": bytes must be a finite number >= 0, got " +
                     fields[2]);
  }
  return f;
}

CommGraph readCommGraph(std::istream& is) {
  std::string line;
  CommGraph g;
  bool sawHeader = false;
  int lineNo = 0;
  while (std::getline(is, line)) {
    ++lineNo;
    const auto t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    const auto fields = splitWhitespace(t);
    const std::string where = "comm graph line " + std::to_string(lineNo);
    if (!sawHeader) {
      if (fields.size() != 2 || fields[0] != "ranks") {
        throw ParseError(where + ": expected 'ranks <N>'");
      }
      g = CommGraph(parseRankCount(fields[1], where));
      sawHeader = true;
      continue;
    }
    const Flow f = parseFlowLine(fields, g.numRanks(), where);
    g.addFlow(f.src, f.dst, f.bytes);
  }
  if (!sawHeader) throw ParseError("comm graph: missing 'ranks' header");
  return g;
}

}  // namespace rahtm
