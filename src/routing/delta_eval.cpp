#include "routing/delta_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

/// Two double lanes: one SSE2 register on x86-64 (a GCC/Clang vector type,
/// compiled with the baseline flags, so no fused multiply-add).
using LanePair = double __attribute__((vector_size(2 * sizeof(double))));

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
  start_.push_back(0);
  // Entry of each channel in the route being built; -1 when absent.
  std::vector<std::int64_t> entryOf(
      static_cast<std::size_t>(topo.numChannelSlots()), -1);
  std::vector<ChannelId> channels;  // the route's, in first-appearance order
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
        static_cast<std::int32_t>(start_.size() - 1);
    channels.clear();
    forEachUniformMinimalLoad(topo, src, dst, 1.0, [&](ChannelId c, double f) {
      std::int64_t& entry = entryOf[static_cast<std::size_t>(c)];
      if (entry >= 0) {
        const auto e = static_cast<std::size_t>(entry);
        RAHTM_REQUIRE(std::memcmp(&fracs_[e], &f, sizeof f) == 0,
                      "RouteTable: a channel's fractions differ");
        RAHTM_REQUIRE(mult_[e] < std::numeric_limits<std::uint8_t>::max(),
                      "RouteTable: channel multiplicity overflows");
        ++mult_[e];
        return;
      }
      entry = static_cast<std::int64_t>(fracs_.size());
      channels.push_back(c);
      const Torus::ChannelRef ref = topo.channelRef(c);
      const Coord at = topo.coordOf(ref.node);
      Coord rel(n, 0);
      for (std::size_t d = 0; d < n; ++d) rel[d] = relDigit(d, at[d] - src[d]);
      rel_.push_back(virtualIndex(rel));
      slot_.push_back(static_cast<std::uint8_t>(
          ref.dim * 2 + static_cast<std::size_t>(ref.dir)));
      mult_.push_back(1);
      fracs_.push_back(f);
    });
    start_.push_back(static_cast<std::int64_t>(fracs_.size()));
    for (const ChannelId c : channels) entryOf[static_cast<std::size_t>(c)] = -1;
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
  start_.shrink_to_fit();
  rel_.shrink_to_fit();
  slot_.shrink_to_fit();
  mult_.shrink_to_fit();
  fracs_.shrink_to_fit();
  mem_.set(static_cast<std::int64_t>(
      (virtOf_.capacity() + routeOf_.capacity() + rel_.capacity()) *
          sizeof(std::int32_t) +
      base_.capacity() * sizeof(ChannelId) +
      start_.capacity() * sizeof(std::int64_t) +
      (slot_.capacity() + mult_.capacity()) * sizeof(std::uint8_t) +
      fracs_.capacity() * sizeof(double)));
}

RouteTable::Span RouteTable::find(NodeId src, NodeId dst) const {
  RAHTM_REQUIRE(static_cast<std::size_t>(src) < virtOf_.size() &&
                    static_cast<std::size_t>(dst) < virtOf_.size(),
                "RouteTable::find: node out of range");
  const std::int32_t from = virtOf_[static_cast<std::size_t>(src)];
  const auto route = static_cast<std::size_t>(routeOf_[static_cast<std::size_t>(
      center_ + virtOf_[static_cast<std::size_t>(dst)] - from)]);
  const auto first = static_cast<std::size_t>(start_[route]);
  Span s;
  s.fracs = fracs_.data() + first;
  s.size = static_cast<std::size_t>(start_[route + 1]) - first;
  s.base_ = base_.data() + from;
  s.rel_ = rel_.data() + first;
  s.slot_ = slot_.data() + first;
  s.mult_ = mult_.data() + first;
  return s;
}

void RouteTable::buildLookup() const {
  const std::size_t n = topo_.ndims();
  // Strides of the virtual grid (extent 2k-1) and of the compact relative
  // grid (extent k in a wrapping dimension, 2k-1 in a mesh one).
  SmallVec<std::int64_t, kMaxDims> vext(n, 0);
  SmallVec<std::int64_t, kMaxDims> vstride(n, 0);
  SmallVec<std::int64_t, kMaxDims> rstride(n, 0);
  std::int64_t cells = 1;
  std::int64_t rel = 1;
  for (std::size_t d = n; d-- > 0;) {
    const std::int32_t k = topo_.extent(d);
    vext[d] = 2 * k - 1;
    vstride[d] = cells;
    cells *= vext[d];
    rstride[d] = rel;
    rel *= topo_.wraps(d) ? k : 2 * k - 1;
  }
  relNodes_ = static_cast<std::int32_t>(rel);
  const auto slots = static_cast<std::int64_t>(2 * n);
  const auto routes = static_cast<std::int64_t>(start_.size() - 1);
  RAHTM_REQUIRE(
      routes * rel * slots <= std::numeric_limits<std::int32_t>::max(),
      "RouteTable: entry lookup too large");
  // A stored relative digit (rel_) is already in the compact range.
  const auto compact = [&](std::int64_t v, bool offset) {
    std::int64_t out = 0;
    for (std::size_t d = 0; d < n; ++d) {
      std::int64_t digit = v / vstride[d] % vext[d];
      const std::int32_t k = topo_.extent(d);
      if (offset && topo_.wraps(d)) digit = (digit + 1) % k;  // (o + k) % k
      out += digit * rstride[d];
    }
    return static_cast<std::int32_t>(out);
  };
  // relIndex_[center_ + virt(node) - virt(src)]: the node's relative
  // position from src. Offset digit o + k - 1 maps to (o + k) % k in a
  // wrapping dimension and stays as is in a mesh one.
  relIndex_.resize(static_cast<std::size_t>(cells));
  for (std::int64_t v = 0; v < cells; ++v) {
    relIndex_[static_cast<std::size_t>(v)] = compact(v, true);
  }
  lookup_.assign(static_cast<std::size_t>(routes * rel * slots), -1);
  for (std::int64_t r = 0; r < routes; ++r) {
    for (auto e = start_[static_cast<std::size_t>(r)];
         e < start_[static_cast<std::size_t>(r) + 1]; ++e) {
      const auto i = static_cast<std::size_t>(e);
      lookup_[static_cast<std::size_t>((r * rel + compact(rel_[i], false)) *
                                           slots +
                                       slot_[i])] =
          static_cast<std::int32_t>(e);
    }
  }
  lookupMem_.set(static_cast<std::int64_t>(
      (relIndex_.capacity() + lookup_.capacity()) * sizeof(std::int32_t)));
}

RouteTable::Locator RouteTable::locate(ChannelId c) const {
  RAHTM_REQUIRE(c >= 0 && c < topo_.numChannelSlots(),
                "RouteTable::locate: channel out of range");
  std::call_once(lookupOnce_, [this] { buildLookup(); });
  const Torus::ChannelRef ref = topo_.channelRef(c);
  Locator at;
  at.table_ = this;
  at.virt_ = virtOf_[static_cast<std::size_t>(ref.node)];
  at.slot_ = static_cast<std::int32_t>(ref.dim * 2 +
                                       static_cast<std::size_t>(ref.dir));
  return at;
}

bool RouteTable::Locator::addRoute(NodeId src, NodeId dst, double bytes,
                                   double& cell) const {
  const RouteTable& t = *table_;
  const std::int32_t from = t.virtOf_[static_cast<std::size_t>(src)];
  const std::int32_t route = t.routeOf_[static_cast<std::size_t>(
      t.center_ + t.virtOf_[static_cast<std::size_t>(dst)] - from)];
  const std::int32_t rel =
      t.relIndex_[static_cast<std::size_t>(t.center_ + virt_ - from)];
  const auto slots = static_cast<std::int32_t>(2 * t.topo_.ndims());
  const std::int32_t e = t.lookup_[static_cast<std::size_t>(
      (route * t.relNodes_ + rel) * slots + slot_)];
  if (e < 0) return false;
  // The kernel's own operands and order (see addRoute below).
  const double add = t.fracs_[static_cast<std::size_t>(e)] * bytes;
  for (unsigned j = 0; j < t.mult_[static_cast<std::size_t>(e)]; ++j) {
    cell += add;
  }
  return true;
}

void addRoute(const RouteTable::Span& r, double bytes, double* cells) {
  // Eight channels at a time in four lane pairs: each lane repeats its own
  // channel's addition, and the eight chains of additions run side by side
  // instead of one after another. Every lane adds for the block's smallest
  // multiplicity, then a lane with a larger one finishes alone (a 2-ary
  // cube's routes have one multiplicity throughout). Entries past the last
  // full block are added one at a time.
  constexpr std::size_t kLanes = 8;
  const LanePair scale = {bytes, bytes};
  std::size_t k = 0;
  for (; k + kLanes <= r.size; k += kLanes) {
    ChannelId c[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) c[i] = r.channel(k + i);
    LanePair acc[kLanes / 2];
    LanePair add[kLanes / 2];
    for (std::size_t p = 0; p < kLanes / 2; ++p) {
      acc[p] = LanePair{cells[static_cast<std::size_t>(c[2 * p])],
                        cells[static_cast<std::size_t>(c[2 * p + 1])]};
      LanePair f;
      std::memcpy(&f, r.fracs + k + 2 * p, sizeof f);
      add[p] = f * scale;
    }
    const std::uint8_t* mult = r.mult_ + k;
    std::uint64_t packed = 0;
    static_assert(sizeof packed == kLanes);
    std::memcpy(&packed, mult, sizeof packed);
    unsigned lo = mult[0];
    const bool uniform = packed == lo * 0x0101010101010101ull;
    if (!uniform) lo = *std::min_element(mult, mult + kLanes);
    for (unsigned j = 0; j < lo; ++j) {
      for (std::size_t p = 0; p < kLanes / 2; ++p) acc[p] += add[p];
    }
    for (std::size_t p = 0; p < kLanes / 2; ++p) {
      double even = acc[p][0];
      double odd = acc[p][1];
      if (!uniform) {
        for (unsigned j = lo; j < mult[2 * p]; ++j) even += add[p][0];
        for (unsigned j = lo; j < mult[2 * p + 1]; ++j) odd += add[p][1];
      }
      cells[static_cast<std::size_t>(c[2 * p])] = even;
      cells[static_cast<std::size_t>(c[2 * p + 1])] = odd;
    }
  }
  for (; k < r.size; ++k) {
    const ChannelId c = r.channel(k);
    const double add = r.fracs[k] * bytes;
    double& cell = cells[static_cast<std::size_t>(c)];
    for (unsigned j = 0; j < r.mult_[k]; ++j) cell += add;
  }
}

void addPlacementRoutes(const RouteTable& routes, const CommGraph& graph,
                        const std::vector<NodeId>& placement, double* cells) {
  RAHTM_REQUIRE(placement.size() >= static_cast<std::size_t>(graph.numRanks()),
                "addPlacementRoutes: placement too small");
  for (const Flow& f : graph.flows()) {
    const NodeId u = placement[static_cast<std::size_t>(f.src)];
    const NodeId v = placement[static_cast<std::size_t>(f.dst)];
    RAHTM_REQUIRE(u >= 0 && v >= 0, "addPlacementRoutes: unmapped vertex");
    if (u == v || f.bytes == 0) continue;
    addRoute(routes.find(u, v), f.bytes, cells);
  }
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
    // A probe routes each flow of its two vertices at most twice.
    std::size_t maxIncident = 0;
    for (std::size_t v = 0; v < incidence_->numBuckets(); ++v) {
      maxIncident = std::max(maxIncident, incidence_->of(v).size);
    }
    probeRoutes_.resize(4 * maxIncident);
    // The first-touch pass writes one slot past the distinct channels.
    touched_.resize(slots + 1);
    newLoads_.resize(slots);
  }
  rebuild();
  // The footprint is fixed from here on; capacity based like RouteTable's.
  mem_.set(static_cast<std::int64_t>(
      placement_.capacity() * sizeof(NodeId) +
      (loads_.capacity() + peak_.capacity() + delta_.capacity() +
       newLoads_.capacity()) *
          sizeof(double) +
      mark_.capacity() * sizeof(std::uint32_t) +
      probeRoutes_.capacity() * sizeof(RouteTable::Span) +
      touched_.capacity() * sizeof(ChannelId)));
}

void DeltaPlacementEval::rebuild() {
  pending_ = Pending::None;
  if (cfg_.trackLoads) {
    std::fill(loads_.begin(), loads_.end(), 0.0);
    addPlacementRoutes(*routes_, *graph_, placement_, loads_.data());
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

void DeltaPlacementEval::accumulateRoute(NodeId src, NodeId dst,
                                         double bytes) {
  const RouteTable::Span& r = probeRoutes_[routeCount_++] =
      routes_->find(src, dst);
  addRoute(r, bytes, delta_.data());
}

void DeltaPlacementEval::markTouched() {
  if (++epoch_ == 0) {  // epoch wrap: invalidate marks
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
  // Branch-free first-touch order: every route channel is written at the
  // end of the touched list, which advances only past a channel not yet
  // marked. (Locals: a store to mark_ could otherwise alias epoch_.)
  const std::uint32_t epoch = epoch_;
  const std::size_t routes = routeCount_;
  const RouteTable::Span* logged = probeRoutes_.data();
  std::uint32_t* mark = mark_.data();
  ChannelId* touched = touched_.data();
  std::size_t count = 0;
  std::size_t visits = 0;
  for (std::size_t i = 0; i < routes; ++i) {
    const RouteTable::Span r = logged[i];
    for (std::size_t k = 0; k < r.size; ++k) {
      const ChannelId c = r.channel(k);
      touched[count] = c;
      count += mark[static_cast<std::size_t>(c)] != epoch ? 1 : 0;
      mark[static_cast<std::size_t>(c)] = epoch;
    }
    visits += r.size;
  }
  touchedCount_ = count;
  channelVisits_ += visits;
}

template <typename Visit>
void DeltaPlacementEval::forEachMovedFlow(RankId a, RankId b, NodeId nodeA,
                                          NodeId nodeB, Visit&& visit) const {
  // Placement of vertex r after the pending move.
  const auto nodeAfter = [&](RankId r) {
    if (r == a) return nodeA;
    if (b != kInvalidRank && r == b) return nodeB;
    return placement_[static_cast<std::size_t>(r)];
  };
  const auto& flows = graph_->flows();
  const auto processFlow = [&](const Flow& f) {
    if (f.bytes == 0) return;
    const NodeId u0 = placement_[static_cast<std::size_t>(f.src)];
    const NodeId v0 = placement_[static_cast<std::size_t>(f.dst)];
    const NodeId u1 = nodeAfter(f.src);
    const NodeId v1 = nodeAfter(f.dst);
    if (u0 == u1 && v0 == v1) return;
    visit(f, u0, v0, u1, v1);
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
}

bool DeltaPlacementEval::witnessAbove(ChannelId w, double bar, RankId a,
                                      RankId b, NodeId nodeA,
                                      NodeId nodeB) const {
  // The full probe's cell for w: from zero, each route in probe order adds
  // its additions for w, then the same scrub against the current load.
  const RouteTable::Locator at = routes_->locate(w);
  double d = 0.0;
  bool crossed = false;
  const auto visit = [&](const Flow& f, NodeId u0, NodeId v0, NodeId u1,
                         NodeId v1) {
    if (u0 != v0 && at.addRoute(u0, v0, -f.bytes, d)) crossed = true;
    if (u1 != v1 && at.addRoute(u1, v1, f.bytes, d)) crossed = true;
  };
  forEachMovedFlow(a, b, nodeA, nodeB, visit);
  const auto idx = static_cast<std::size_t>(w);
  return crossed && scrubResidue(loads_[idx] + d, peak_[idx]) > bar;
}

void DeltaPlacementEval::probeFlows(RankId a, RankId b, NodeId nodeA,
                                    NodeId nodeB) {
  double hbDelta = 0;
  const auto visit = [&](const Flow& f, NodeId u0, NodeId v0, NodeId u1,
                         NodeId v1) {
    if (cfg_.trackLoads) {
      // Adding f * -bytes is exactly subtracting f * bytes.
      if (u0 != v0) accumulateRoute(u0, v0, -f.bytes);
      if (u1 != v1) accumulateRoute(u1, v1, f.bytes);
    }
    if (cfg_.trackHopBytes) {
      hbDelta += f.bytes * static_cast<double>(topo_->distance(u1, v1)) -
                 f.bytes * static_cast<double>(topo_->distance(u0, v0));
    }
  };
  forEachMovedFlow(a, b, nodeA, nodeB, visit);
  if (cfg_.trackHopBytes) {
    pendingSummary_.hopBytes = cur_.hopBytes + hbDelta;
  }
  if (cfg_.trackLoads) {
    markTouched();
    probeLoadStats();
  }
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
  // Touched channels in first-touch order; reading a delta clears it.
  double sq = cur_.sumSquares;
  for (std::size_t i = 0; i < touchedCount_; ++i) {
    const ChannelId c = touched_[i];
    const auto idx = static_cast<std::size_t>(c);
    const double oldV = loads_[idx];
    const double newV = scrubResidue(oldV + delta_[idx], peak_[idx]);
    delta_[idx] = 0.0;
    newLoads_[i] = newV;
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

const DeltaPlacementEval::Summary& DeltaPlacementEval::probe(
    Pending kind, RankId a, RankId b, NodeId node, NodeId nodeA, NodeId nodeB,
    double bar, ChannelId witness) {
  ++probes_;
  // The witness first, then the channel holding the current MCL; a channel
  // on none of the probe's routes does not cut.
  if (cfg_.trackLoads && witness != kInvalidChannel && bar < kNoBar &&
      (witnessAbove(witness, bar, a, b, nodeA, nodeB) ||
       (maxChannel_ != kInvalidChannel && maxChannel_ != witness &&
        witnessAbove(maxChannel_, bar, a, b, nodeA, nodeB)))) {
    ++cuts_;
    pending_ = Pending::None;
    pendingSummary_ = {kNoBar, kNoBar, kNoBar};
    return pendingSummary_;
  }
  pending_ = kind;
  pendA_ = a;
  pendB_ = b;
  pendNode_ = node;
  routeCount_ = 0;
  pendingSummary_ = cur_;
  probeFlows(a, b, nodeA, nodeB);
  return pendingSummary_;
}

const DeltaPlacementEval::Summary& DeltaPlacementEval::probeSwap(
    RankId a, RankId b, double bar, ChannelId witness) {
  RAHTM_REQUIRE(a != b, "probeSwap: identical vertices");
  return probe(Pending::Swap, a, b, kInvalidNode,
               placement_[static_cast<std::size_t>(b)],
               placement_[static_cast<std::size_t>(a)], bar, witness);
}

const DeltaPlacementEval::Summary& DeltaPlacementEval::probeMove(
    RankId a, NodeId node, double bar, ChannelId witness) {
  RAHTM_REQUIRE(node >= 0 && node < topo_->numNodes(),
                "probeMove: node out of range");
  return probe(Pending::Move, a, kInvalidRank, node, node, kInvalidNode, bar,
               witness);
}

void DeltaPlacementEval::commit() {
  RAHTM_REQUIRE(pending_ != Pending::None, "commit: no pending probe");
  if (cfg_.trackLoads) {
    // The probe's own loads: commit is bit-identical by construction.
    for (std::size_t i = 0; i < touchedCount_; ++i) {
      const auto idx = static_cast<std::size_t>(touched_[i]);
      loads_[idx] = newLoads_[i];
      peak_[idx] = std::max(peak_[idx], std::abs(newLoads_[i]));
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
