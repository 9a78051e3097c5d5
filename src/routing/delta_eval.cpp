#include "routing/delta_eval.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "routing/oblivious.hpp"

namespace rahtm {

namespace {

/// Advance a row-major mixed-radix counter (last digit fastest).
void advanceDigits(Coord& digit, const Coord& extent) {
  for (std::size_t d = digit.size(); d-- > 0;) {
    if (++digit[d] < extent[d]) return;
    digit[d] = 0;
  }
}

/// Cancellation-residue scrub threshold, relative to the channel's peak
/// applied load. An absolute cutoff (the old -1e-7) misclassifies
/// legitimately tiny loads on low-volume workloads and misses residue on
/// large-volume ones; a few-ulp remainder of +/- cancellation is always
/// tiny *relative to what the channel has carried*.
constexpr double kResidueRelEps = 1e-12;

inline double scrubResidue(double v, double peak) {
  return std::abs(v) < kResidueRelEps * peak ? 0.0 : v;
}

}  // namespace

// ---- RouteTable -----------------------------------------------------------

RouteTable::RouteTable(const Torus& topo) : topo_(topo) {
  const std::size_t n = topo.ndims();
  Coord vext(n, 0);
  SmallVec<std::int64_t, kMaxDims> vstride(n, 0);
  std::int64_t cells = 1;
  for (std::size_t d = n; d-- > 0;) {
    vext[d] = 2 * topo.extent(d) - 1;
    vstride[d] = cells;
    cells *= vext[d];
  }
  RAHTM_REQUIRE(cells <= std::numeric_limits<std::int32_t>::max(),
                "RouteTable: topology too large");
  const auto virtualIndex = [&](const Coord& digit) {
    std::int64_t v = 0;
    for (std::size_t d = 0; d < n; ++d) v += digit[d] * vstride[d];
    return static_cast<std::int32_t>(v);
  };
  const auto nodes = static_cast<std::size_t>(topo.numNodes());
  virtOf_.resize(nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    virtOf_[node] = virtualIndex(topo.coordOf(static_cast<NodeId>(node)));
  }
  for (std::size_t d = 0; d < n; ++d) {
    center_ += static_cast<std::int32_t>((topo.extent(d) - 1) * vstride[d]);
  }

  // A route entry's node sits at virtual digit (source + rel) per
  // dimension, where rel is the node's coordinate offset from the class
  // representative's source: taken modulo k in a wrapping dimension, and
  // shifted by k-1 in a mesh dimension so that it is never negative.
  const auto relDigit = [&](std::size_t d, std::int32_t offset) {
    const std::int32_t k = topo.extent(d);
    return topo.wraps(d) ? (offset + k) % k : offset + k - 1;
  };
  base_.assign(static_cast<std::size_t>(cells), -1);
  Coord digit(n, 0);
  for (std::int64_t v = 0; v < cells; ++v, advanceDigits(digit, vext)) {
    Coord node(n, 0);
    bool inside = true;
    for (std::size_t d = 0; d < n; ++d) {
      const std::int32_t k = topo.extent(d);
      node[d] = topo.wraps(d) ? digit[d] % k : digit[d] - (k - 1);
      inside = inside && node[d] >= 0;
    }
    if (inside) {
      base_[static_cast<std::size_t>(v)] =
          topo.channelId(topo.nodeId(node), 0, Dir::Plus);
    }
  }

  // One route per offset class. An offset digit is d - s + k - 1; a
  // wrapping dimension's negative offsets alias offset + k, whose route is
  // built first and then shared.
  routeOf_.assign(static_cast<std::size_t>(cells), -1);
  channelStart_.push_back(0);
  fracStart_.push_back(0);
  std::vector<std::int32_t> groupOf(
      static_cast<std::size_t>(topo.numChannelSlots()), -1);
  std::vector<ChannelId> channels;  // the route's, in first-appearance order
  std::vector<std::pair<std::int32_t, double>> entries;  // (group, frac)
  std::vector<std::uint32_t> next;  // counting-sort cursor per group
  digit = Coord(n, 0);
  for (std::int64_t v = 0; v < cells; ++v, advanceDigits(digit, vext)) {
    Coord src(n, 0);
    Coord dst(n, 0);
    bool canonical = true;
    for (std::size_t d = 0; d < n; ++d) {
      const std::int32_t offset = digit[d] - (topo.extent(d) - 1);
      canonical = canonical && (offset >= 0 || !topo.wraps(d));
      src[d] = offset < 0 ? -offset : 0;
      dst[d] = src[d] + offset;
    }
    if (!canonical) continue;
    routeOf_[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(fracStart_.size() - 1);
    channels.clear();
    entries.clear();
    forEachUniformMinimalLoad(topo, src, dst, 1.0, [&](ChannelId c, double f) {
      std::int32_t& group = groupOf[static_cast<std::size_t>(c)];
      if (group < 0) {
        group = static_cast<std::int32_t>(channels.size());
        channels.push_back(c);
      }
      entries.emplace_back(group, f);
    });
    // Stable counting sort of the fractions by channel.
    next.assign(channels.size() + 1, 0);
    for (const auto& e : entries) ++next[static_cast<std::size_t>(e.first) + 1];
    for (std::size_t k = 0; k < channels.size(); ++k) {
      next[k + 1] += next[k];
      const ChannelId c = channels[k];
      groupOf[static_cast<std::size_t>(c)] = -1;
      const Torus::ChannelRef ref = topo.channelRef(c);
      const Coord at = topo.coordOf(ref.node);
      Coord rel(n, 0);
      for (std::size_t d = 0; d < n; ++d) rel[d] = relDigit(d, at[d] - src[d]);
      rel_.push_back(virtualIndex(rel));
      slot_.push_back(static_cast<std::uint8_t>(
          ref.dim * 2 + static_cast<std::size_t>(ref.dir)));
      end_.push_back(next[k + 1]);
    }
    const std::size_t first = fracs_.size();
    fracs_.resize(first + entries.size());
    for (const auto& [group, f] : entries) {
      fracs_[first + next[static_cast<std::size_t>(group)]++] = f;
    }
    channelStart_.push_back(static_cast<std::int64_t>(rel_.size()));
    fracStart_.push_back(static_cast<std::int64_t>(fracs_.size()));
  }
  digit = Coord(n, 0);
  for (std::int64_t v = 0; v < cells; ++v, advanceDigits(digit, vext)) {
    if (routeOf_[static_cast<std::size_t>(v)] >= 0) continue;
    std::int64_t alias = v;
    for (std::size_t d = 0; d < n; ++d) {
      if (topo.wraps(d) && digit[d] < topo.extent(d) - 1) {
        alias += topo.extent(d) * vstride[d];
      }
    }
    routeOf_[static_cast<std::size_t>(v)] =
        routeOf_[static_cast<std::size_t>(alias)];
  }

  // The arenas grew by doubling; the table is immutable from here on.
  channelStart_.shrink_to_fit();
  fracStart_.shrink_to_fit();
  rel_.shrink_to_fit();
  slot_.shrink_to_fit();
  end_.shrink_to_fit();
  fracs_.shrink_to_fit();
  mem_.set(static_cast<std::int64_t>(
      (virtOf_.capacity() + routeOf_.capacity() + rel_.capacity()) *
          sizeof(std::int32_t) +
      base_.capacity() * sizeof(ChannelId) +
      (channelStart_.capacity() + fracStart_.capacity()) *
          sizeof(std::int64_t) +
      slot_.capacity() * sizeof(std::uint8_t) +
      end_.capacity() * sizeof(std::uint32_t) +
      fracs_.capacity() * sizeof(double)));
}

RouteTable::Span RouteTable::find(NodeId src, NodeId dst) const {
  RAHTM_REQUIRE(static_cast<std::size_t>(src) < virtOf_.size() &&
                    static_cast<std::size_t>(dst) < virtOf_.size(),
                "RouteTable::find: node out of range");
  const std::int32_t from = virtOf_[static_cast<std::size_t>(src)];
  const auto route = static_cast<std::size_t>(routeOf_[static_cast<std::size_t>(
      center_ + virtOf_[static_cast<std::size_t>(dst)] - from)]);
  const auto channels = static_cast<std::size_t>(channelStart_[route]);
  const auto fracs = static_cast<std::size_t>(fracStart_[route]);
  Span s;
  s.fracs = fracs_.data() + fracs;
  s.size = static_cast<std::size_t>(fracStart_[route + 1]) - fracs;
  s.channels_ = static_cast<std::size_t>(channelStart_[route + 1]) - channels;
  s.base_ = base_.data() + from;
  s.rel_ = rel_.data() + channels;
  s.slot_ = slot_.data() + channels;
  s.end_ = end_.data() + channels;
  return s;
}

std::shared_ptr<const RouteTable> RouteTable::buildFull(const Torus& topo) {
  return std::make_shared<const RouteTable>(topo);
}

std::shared_ptr<const RouteTable> routeTableFor(const Torus& topo,
                                                ArtifactSource* artifacts) {
  return artifacts != nullptr ? artifacts->routeTable(topo)
                              : RouteTable::buildFull(topo);
}

// ---- DeltaPlacementEval ---------------------------------------------------

DeltaPlacementEval::DeltaPlacementEval(
    const Torus& topo, const CommGraph& graph, std::vector<NodeId> placement,
    Config cfg, std::shared_ptr<const RouteTable> routes,
    std::shared_ptr<const FlowIncidence> incidence)
    : topo_(&topo),
      graph_(&graph),
      cfg_(cfg),
      placement_(std::move(placement)),
      sharedIncidence_(std::move(incidence)),
      routes_(std::move(routes)) {
  if (sharedIncidence_ != nullptr) {
    incidence_ = sharedIncidence_.get();
  } else {
    ownIncidence_ = buildFlowIncidence(graph);
    incidence_ = &ownIncidence_;
  }
  RAHTM_REQUIRE(
      placement_.size() >= static_cast<std::size_t>(graph.numRanks()),
      "DeltaPlacementEval: placement too small");
  if (routes_ != nullptr) {
    RAHTM_REQUIRE(routes_->topology() == topo,
                  "DeltaPlacementEval: route table of another topology");
  } else if (cfg_.trackLoads) {
    routes_ = RouteTable::buildFull(topo);
  }
  if (cfg_.trackLoads) {
    const auto slots = static_cast<std::size_t>(topo.numChannelSlots());
    loads_.assign(slots, 0.0);
    peak_.assign(slots, 0.0);
    delta_.assign(slots, 0.0);
    mark_.assign(slots, 0);
    touched_.reserve(slots);  // a probe touches each channel at most once
  }
  rebuild();
  // The footprint is fixed from here on; capacity based like RouteTable's.
  mem_.set(static_cast<std::int64_t>(
      placement_.capacity() * sizeof(NodeId) +
      (loads_.capacity() + peak_.capacity() + delta_.capacity()) *
          sizeof(double) +
      mark_.capacity() * sizeof(std::uint32_t) +
      touched_.capacity() * sizeof(ChannelId)));
}

void DeltaPlacementEval::rebuild() {
  pending_ = Pending::None;
  if (cfg_.trackLoads) {
    std::fill(loads_.begin(), loads_.end(), 0.0);
    for (const Flow& f : graph_->flows()) {
      const NodeId u = placement_[static_cast<std::size_t>(f.src)];
      const NodeId v = placement_[static_cast<std::size_t>(f.dst)];
      RAHTM_REQUIRE(u >= 0 && v >= 0, "DeltaPlacementEval: unmapped vertex");
      if (u == v || f.bytes == 0) continue;
      routes_->find(u, v).forEachChannel(
          [&](ChannelId c, const double* first, const double* last) {
            double& load = loads_[static_cast<std::size_t>(c)];
            load = addFractions(load, first, last, f.bytes);
          });
    }
    for (std::size_t c = 0; c < loads_.size(); ++c) {
      peak_[c] = std::max(peak_[c], std::abs(loads_[c]));
    }
    sweepStats();
  }
  if (cfg_.trackHopBytes) {
    double hb = 0;
    for (const Flow& f : graph_->flows()) {
      const NodeId u = placement_[static_cast<std::size_t>(f.src)];
      const NodeId v = placement_[static_cast<std::size_t>(f.dst)];
      RAHTM_REQUIRE(u >= 0 && v >= 0, "DeltaPlacementEval: unmapped vertex");
      hb += f.bytes * static_cast<double>(topo_->distance(u, v));
    }
    cur_.hopBytes = hb;
  }
  ++denseSweeps_;
}

void DeltaPlacementEval::reset(const std::vector<NodeId>& placement) {
  RAHTM_REQUIRE(placement.size() == placement_.size(),
                "DeltaPlacementEval::reset: placement size changed");
  placement_ = placement;  // same size: reuses the storage
  rebuild();
}

void DeltaPlacementEval::sweepStats() {
  double mx = 0;
  double sq = 0;
  maxChannel_ = kInvalidChannel;
  for (std::size_t c = 0; c < loads_.size(); ++c) {
    const double v = loads_[c];
    if (v > mx) {
      mx = v;
      maxChannel_ = static_cast<ChannelId>(c);
    }
    sq += v * v;
  }
  cur_.mcl = mx;
  cur_.sumSquares = sq;
}

void DeltaPlacementEval::beginProbe(Pending kind, RankId a, RankId b,
                                    NodeId node) {
  ++probes_;
  pending_ = kind;
  pendA_ = a;
  pendB_ = b;
  pendNode_ = node;
  touched_.clear();
  if (cfg_.trackLoads && ++epoch_ == 0) {  // epoch wrap: invalidate marks
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
  pendingSummary_ = cur_;
}

void DeltaPlacementEval::touchChannel(ChannelId c) {
  const auto idx = static_cast<std::size_t>(c);
  if (mark_[idx] != epoch_) {
    mark_[idx] = epoch_;
    delta_[idx] = 0.0;
    touched_.push_back(c);
  }
}

void DeltaPlacementEval::probeFlows(RankId a, RankId b, NodeId nodeA,
                                    NodeId nodeB) {
  // Placement of vertex r after the pending move.
  const auto nodeAfter = [&](RankId r) {
    if (r == a) return nodeA;
    if (b != kInvalidRank && r == b) return nodeB;
    return placement_[static_cast<std::size_t>(r)];
  };
  double hbDelta = 0;
  const auto& flows = graph_->flows();
  const auto processFlow = [&](const Flow& f) {
    if (f.bytes == 0) return;
    const NodeId u0 = placement_[static_cast<std::size_t>(f.src)];
    const NodeId v0 = placement_[static_cast<std::size_t>(f.dst)];
    const NodeId u1 = nodeAfter(f.src);
    const NodeId v1 = nodeAfter(f.dst);
    if (u0 == u1 && v0 == v1) return;
    if (cfg_.trackLoads) {
      // Adding f * -bytes is exactly subtracting f * bytes.
      const auto apply = [&](NodeId src, NodeId dst, double bytes) {
        routes_->find(src, dst).forEachChannel(
            [&](ChannelId c, const double* first, const double* last) {
              touchChannel(c);
              double& d = delta_[static_cast<std::size_t>(c)];
              d = addFractions(d, first, last, bytes);
            });
      };
      if (u0 != v0) apply(u0, v0, -f.bytes);
      if (u1 != v1) apply(u1, v1, f.bytes);
    }
    if (cfg_.trackHopBytes) {
      hbDelta += f.bytes * static_cast<double>(topo_->distance(u1, v1)) -
                 f.bytes * static_cast<double>(topo_->distance(u0, v0));
    }
  };
  for (const std::uint32_t fi : incidence_->of(static_cast<std::size_t>(a))) {
    processFlow(flows[fi]);
  }
  if (b != kInvalidRank) {
    for (const std::uint32_t fi : incidence_->of(static_cast<std::size_t>(b))) {
      const Flow& f = flows[fi];
      // Flows between a and b were already handled in a's list.
      if (f.src == a || f.dst == a) continue;
      processFlow(f);
    }
  }
  if (cfg_.trackHopBytes) {
    pendingSummary_.hopBytes = cur_.hopBytes + hbDelta;
  }
  if (cfg_.trackLoads) probeLoadStats();
}

void DeltaPlacementEval::probeLoadStats() {
  // Max over the untouched channels: the current MCL while the channel
  // holding it is untouched, else a sweep that skips the touched ones.
  double mx = cur_.mcl;
  ChannelId at = maxChannel_;
  if (at == kInvalidChannel || mark_[static_cast<std::size_t>(at)] == epoch_) {
    ++maskedSweeps_;
    mx = 0;
    at = kInvalidChannel;
    for (std::size_t c = 0; c < loads_.size(); ++c) {
      if (mark_[c] != epoch_ && loads_[c] > mx) {
        mx = loads_[c];
        at = static_cast<ChannelId>(c);
      }
    }
  }
  double sq = cur_.sumSquares;
  for (const ChannelId c : touched_) {
    const auto idx = static_cast<std::size_t>(c);
    const double oldV = loads_[idx];
    const double newV = scrubResidue(oldV + delta_[idx], peak_[idx]);
    if (newV > mx) {
      mx = newV;
      at = c;
    }
    sq += newV * newV - oldV * oldV;
  }
  pendingSummary_.mcl = mx;
  pendingSummary_.sumSquares = sq;
  pendingMaxChannel_ = at;
}

const DeltaPlacementEval::Summary& DeltaPlacementEval::probeSwap(RankId a,
                                                                 RankId b) {
  RAHTM_REQUIRE(a != b, "probeSwap: identical vertices");
  beginProbe(Pending::Swap, a, b, kInvalidNode);
  probeFlows(a, b, placement_[static_cast<std::size_t>(b)],
             placement_[static_cast<std::size_t>(a)]);
  return pendingSummary_;
}

const DeltaPlacementEval::Summary& DeltaPlacementEval::probeMove(RankId a,
                                                                 NodeId node) {
  beginProbe(Pending::Move, a, kInvalidRank, node);
  probeFlows(a, kInvalidRank, node, kInvalidNode);
  return pendingSummary_;
}

void DeltaPlacementEval::commit() {
  RAHTM_REQUIRE(pending_ != Pending::None, "commit: no pending probe");
  if (cfg_.trackLoads) {
    for (const ChannelId c : touched_) {
      const auto idx = static_cast<std::size_t>(c);
      const double oldV = loads_[idx];
      // Same arithmetic as the probe: commit is bit-identical by
      // construction.
      const double newV = scrubResidue(oldV + delta_[idx], peak_[idx]);
      loads_[idx] = newV;
      peak_[idx] = std::max(peak_[idx], std::abs(newV));
    }
    maxChannel_ = pendingMaxChannel_;
  }
  if (pending_ == Pending::Swap) {
    std::swap(placement_[static_cast<std::size_t>(pendA_)],
              placement_[static_cast<std::size_t>(pendB_)]);
  } else {
    placement_[static_cast<std::size_t>(pendA_)] = pendNode_;
  }
  cur_ = pendingSummary_;
  pending_ = Pending::None;
  ++commits_;
}

}  // namespace rahtm
