#include "core/merge.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/delta_eval.hpp"

namespace rahtm {

namespace {

/// A flow restricted to the merge region, in local cluster indices.
struct FlowRef {
  std::size_t a;  ///< local cluster index of src
  std::size_t b;  ///< local cluster index of dst
  double bytes;
};

struct BeamEntry {
  /// Local node of each region cluster (kInvalidNode while unplaced).
  std::vector<NodeId> localNode;
  /// Dense channel loads of all placed flows (Mcl objective only).
  std::vector<double> loads;
  double maxLoad = 0;   ///< objective so far (Mcl) ...
  double hopBytes = 0;  ///< ... or running sum (HopBytes)
  std::vector<Orientation> orientationOfChild;
  std::vector<Coord> slotOfChild;
  SmallVec<std::uint8_t, 64> slotUsed;  ///< per slot id
};

double entryObjective(const BeamEntry& e, MapObjective obj) {
  return obj == MapObjective::Mcl ? e.maxLoad : e.hopBytes;
}

}  // namespace

MergeResult mergeChildren(const Torus& regionTopo, const Shape& childShape,
                          const Shape& childGrid,
                          const std::vector<MergeChild>& children,
                          const CommGraph& clusterGraph,
                          const MergeConfig& cfg) {
  obs::ScopedSpan span(obs::tracer(), "rahtm.merge.region", "rahtm");
  span.attr("children", static_cast<std::int64_t>(children.size()));
  span.attr("beam_width", static_cast<std::int64_t>(cfg.beamWidth));
  std::int64_t candidatesEvaluated = 0;
  std::int64_t candidatesScored = 0;
  std::int64_t candidatesCut = 0;
  RAHTM_REQUIRE(cfg.beamWidth >= 1, "mergeChildren: beam width must be >= 1");
  RAHTM_REQUIRE(!children.empty(), "mergeChildren: no children");
  RAHTM_REQUIRE(childShape.size() == regionTopo.ndims() &&
                    childGrid.size() == regionTopo.ndims(),
                "mergeChildren: dimension mismatch");
  for (std::size_t d = 0; d < childShape.size(); ++d) {
    RAHTM_REQUIRE(childShape[d] * childGrid[d] == regionTopo.extent(d),
                  "mergeChildren: childShape * childGrid != region extent");
  }
  const Torus slotGrid = Torus::mesh(childGrid);
  RAHTM_REQUIRE(static_cast<std::int64_t>(children.size()) <=
                    slotGrid.numNodes(),
                "mergeChildren: more children than slots");

  // ---- Local cluster indexing -------------------------------------------
  std::unordered_map<ClusterId, std::size_t> localIdx;
  std::vector<ClusterId> regionClusters;
  for (const MergeChild& ch : children) {
    RAHTM_REQUIRE(ch.clusters.size() == ch.localPos.size(),
                  "mergeChildren: clusters/localPos size mismatch");
    for (const ClusterId c : ch.clusters) {
      RAHTM_REQUIRE(localIdx.emplace(c, regionClusters.size()).second,
                    "mergeChildren: cluster appears in two children");
      regionClusters.push_back(c);
    }
  }

  // Flows with both endpoints inside the region, as local indices.
  std::vector<FlowRef> flows;
  for (const Flow& f : clusterGraph.flows()) {
    const auto sa = localIdx.find(f.src);
    const auto sb = localIdx.find(f.dst);
    if (sa == localIdx.end() || sb == localIdx.end()) continue;
    flows.push_back({sa->second, sb->second, f.bytes});
  }
  // Flows grouped by child pair for fast incremental evaluation.
  std::vector<std::size_t> childOfCluster(regionClusters.size());
  std::vector<std::size_t> clusterBase(children.size(), 0);
  {
    std::size_t idx = 0;
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      clusterBase[ci] = idx;
      for (std::size_t k = 0; k < children[ci].clusters.size(); ++k) {
        childOfCluster[idx++] = ci;
      }
    }
  }
  // flowsTouching.of(ci) = flows with at least one endpoint in child ci.
  const FlowIncidence flowsTouching = FlowIncidence::build(
      flows.size(), children.size(), [&](std::size_t fi) {
        return std::pair<std::size_t, std::size_t>{childOfCluster[flows[fi].a],
                                                   childOfCluster[flows[fi].b]};
      });

  // ---- Orientations ------------------------------------------------------
  std::vector<Orientation> orients = enumerateOrientations(childShape);
  if (static_cast<long>(orients.size()) > cfg.maxOrientations) {
    // Deterministic stride subsample, always keeping the identity.
    std::vector<Orientation> kept;
    const double stride = static_cast<double>(orients.size()) /
                          static_cast<double>(cfg.maxOrientations);
    for (long i = 0; i < cfg.maxOrientations; ++i) {
      kept.push_back(orients[static_cast<std::size_t>(
          static_cast<double>(i) * stride)]);
    }
    orients = std::move(kept);
  }

  // Position of child ci's clusters under (orientation o, slot s).
  const auto placeChild = [&](std::size_t ci, const Orientation& o,
                              const Coord& slot, std::vector<NodeId>& out) {
    const MergeChild& ch = children[ci];
    out.resize(ch.clusters.size());
    Coord origin(childShape.size(), 0);
    for (std::size_t d = 0; d < childShape.size(); ++d) {
      origin[d] = slot[d] * childShape[d];
    }
    for (std::size_t k = 0; k < ch.clusters.size(); ++k) {
      Coord p = o.apply(ch.localPos[k], childShape);
      for (std::size_t d = 0; d < p.size(); ++d) p[d] += origin[d];
      out[k] = regionTopo.nodeId(p);
    }
  };

  // Pin-only placement of child ci: its pin layout (pinPos, falling back to
  // localPos) at its pinned slot, identity orientation.
  const auto placeChildPin = [&](std::size_t ci, std::vector<NodeId>& out) {
    const MergeChild& ch = children[ci];
    const auto& layout = ch.pinPos.empty() ? ch.localPos : ch.pinPos;
    out.resize(ch.clusters.size());
    Coord origin(childShape.size(), 0);
    for (std::size_t d = 0; d < childShape.size(); ++d) {
      origin[d] = ch.slot[d] * childShape[d];
    }
    for (std::size_t k = 0; k < ch.clusters.size(); ++k) {
      Coord p = layout[k];
      for (std::size_t d = 0; d < p.size(); ++d) p[d] += origin[d];
      out[k] = regionTopo.nodeId(p);
    }
  };

  const bool useLoads = cfg.objective == MapObjective::Mcl;
  const std::shared_ptr<const RouteTable> routes =
      useLoads ? routeTableFor(regionTopo, cfg.artifacts) : nullptr;
  const auto loadSlots = static_cast<std::size_t>(regionTopo.numChannelSlots());

  // A candidate's loads accumulate into a dense per-channel array that is
  // zero at rest; the routes added say which cells to read back and clear.
  std::vector<double> childLoads(useLoads ? loadSlots : 0, 0.0);
  std::vector<RouteTable::Span> added;
  const auto addChildRoute = [&](NodeId na, NodeId nb, double bytes) {
    added.push_back(routes->find(na, nb));
    addRoute(added.back(), bytes, childLoads.data());
  };

  // ---- Merge order: decreasing average pairwise interaction --------------
  // Interaction(i,j): objective of just the i<->j flows with both children
  // at their pinned slots, identity orientation (a cheap proxy for the
  // paper's pairwise-best MCL table). Under Mcl each flow contributes the
  // largest load it puts on any one channel.
  std::vector<double> avgInteraction(children.size(), 0.0);
  {
    const Orientation ident = Orientation::identity(childShape.size());
    std::vector<std::vector<NodeId>> identPos(children.size());
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      placeChild(ci, ident, children[ci].slot, identPos[ci]);
    }
    std::vector<NodeId> clusterNode(regionClusters.size());
    {
      std::size_t idx = 0;
      for (std::size_t ci = 0; ci < children.size(); ++ci) {
        for (const NodeId n : identPos[ci]) clusterNode[idx++] = n;
      }
    }
    std::vector<std::vector<double>> pairVol(
        children.size(), std::vector<double>(children.size(), 0.0));
    for (const FlowRef& f : flows) {
      const std::size_t ca = childOfCluster[f.a];
      const std::size_t cb = childOfCluster[f.b];
      if (ca == cb) continue;
      const NodeId na = clusterNode[f.a];
      const NodeId nb = clusterNode[f.b];
      double v = 0;
      if (useLoads) {
        const RouteTable::Span r = routes->find(na, nb);
        addRoute(r, f.bytes, childLoads.data());
        for (std::size_t k = 0; k < r.size; ++k) {
          double& load = childLoads[static_cast<std::size_t>(r.channel(k))];
          v = std::max(v, load);
          load = 0.0;
        }
      } else {
        v = f.bytes * regionTopo.distance(na, nb);
      }
      pairVol[ca][cb] += v;
      pairVol[cb][ca] += v;
    }
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      double sum = 0;
      for (std::size_t cj = 0; cj < children.size(); ++cj) {
        sum += pairVol[ci][cj];
      }
      avgInteraction[ci] =
          children.size() > 1
              ? sum / static_cast<double>(children.size() - 1)
              : 0;
    }
  }
  std::vector<std::size_t> order(children.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return avgInteraction[a] > avgInteraction[b];
                   });

  // ---- Beam search --------------------------------------------------------
  const std::size_t slotCount = static_cast<std::size_t>(slotGrid.numNodes());

  BeamEntry seed;
  seed.localNode.assign(regionClusters.size(), kInvalidNode);
  if (useLoads) seed.loads.assign(loadSlots, 0.0);
  seed.orientationOfChild.assign(children.size(),
                                 Orientation::identity(childShape.size()));
  seed.slotOfChild.assign(children.size(), Coord(childShape.size(), 0));
  seed.slotUsed.resize(slotCount, 0);
  std::vector<BeamEntry> beam{seed};

  // Anytime guarantee: the lineage that keeps every child at its phase-2
  // pinned slot with identity orientation always survives pruning, so the
  // merge result is never worse than the pseudo-pins it refines.
  std::size_t pinnedLineage = 0;

  std::vector<NodeId> childPos;

  // Visit (na, nb, bytes) for every flow of child ci that connects two
  // distinct placed nodes once ci sits at childPos on top of entry
  // (co-located flows add neither load nor hop-bytes), until visit returns
  // false.
  const auto forPlacedFlows = [&](const BeamEntry& entry, std::size_t ci,
                                  auto&& visit) {
    const auto nodeOf = [&](std::size_t cluster) {
      return childOfCluster[cluster] == ci
                 ? childPos[cluster - clusterBase[ci]]
                 : entry.localNode[cluster];
    };
    for (const std::uint32_t fi : flowsTouching.of(ci)) {
      const FlowRef& f = flows[fi];
      const NodeId na = nodeOf(f.a);
      const NodeId nb = nodeOf(f.b);
      if (na == kInvalidNode || nb == kInvalidNode || na == nb) continue;
      if (!visit(na, nb, f.bytes)) return;
    }
  };
  // Objective of placing child ci at childPos on top of entry, or +inf
  // once it provably exceeds \p bar. Loads only grow as routes are added
  // (bytes >= 0, and rounded addition is monotone), so a channel of the
  // candidate above the bar puts its final objective above the bar too.
  constexpr double kNoBar = std::numeric_limits<double>::infinity();
  const auto scoreChild = [&](const BeamEntry& entry, std::size_t ci,
                              double bar) {
    ++candidatesScored;
    if (!useLoads) {
      double hb = entry.hopBytes;
      forPlacedFlows(entry, ci, [&](NodeId na, NodeId nb, double bytes) {
        hb += bytes * regionTopo.distance(na, nb);
        return true;
      });
      return hb;
    }
    if (entry.maxLoad > bar) {
      ++candidatesCut;
      return kNoBar;
    }
    added.clear();
    bool over = false;
    forPlacedFlows(entry, ci, [&](NodeId na, NodeId nb, double bytes) {
      addChildRoute(na, nb, bytes);
      if (bar == kNoBar) return true;
      // Only channels the child loads count (see below): an entry load can
      // exceed entry.maxLoad by a few ulps.
      const RouteTable::Span& r = added.back();
      for (std::size_t k = 0; k < r.size; ++k) {
        const auto c = static_cast<std::size_t>(r.channel(k));
        if (childLoads[c] != 0.0 && entry.loads[c] + childLoads[c] > bar) {
          over = true;
          return false;
        }
      }
      return true;
    });
    // max(partial + delta) == max(partialMax, max over the channels the
    // child's flows load). A channel on several routes reads the cleared
    // zero after its first and is skipped, as is a channel whose added
    // loads all underflowed to zero.
    double m = entry.maxLoad;
    for (const RouteTable::Span& r : added) {
      for (std::size_t k = 0; k < r.size; ++k) {
        const auto c = static_cast<std::size_t>(r.channel(k));
        if (childLoads[c] != 0.0) {
          m = std::max(m, entry.loads[c] + childLoads[c]);
        }
        childLoads[c] = 0.0;
      }
    }
    if (over) {
      ++candidatesCut;
      return kNoBar;
    }
    return m;
  };

  struct Candidate {
    std::size_t parent;
    std::size_t orient;  ///< index into orients, or kPinOrient
    std::size_t slotId;
    double objective;
  };
  constexpr std::size_t kPinOrient = SIZE_MAX;

  std::vector<NodeId> layout;
  std::vector<std::size_t> firstOfLayout(orients.size());
  std::vector<double> layoutScore(orients.size());
  for (const std::size_t ci : order) {
    // Orientations that put ci's clusters at the same places (all of them,
    // for a single-cluster child) score alike against any entry, so each
    // layout is scored once, on its first orientation.
    {
      std::map<std::vector<NodeId>, std::size_t> seen;
      const Coord origin(childShape.size(), 0);
      for (std::size_t oi = 0; oi < orients.size(); ++oi) {
        placeChild(ci, orients[oi], origin, layout);
        firstOfLayout[oi] = seen.emplace(layout, oi).first->second;
      }
    }
    std::vector<Candidate> best;  // kept sorted ascending, max beamWidth
    const auto consider = [&](const Candidate& c) {
      ++candidatesEvaluated;
      const auto pos = std::lower_bound(
          best.begin(), best.end(), c.objective,
          [](const Candidate& x, double v) { return x.objective < v; });
      if (pos == best.end() &&
          best.size() >= static_cast<std::size_t>(cfg.beamWidth)) {
        return;
      }
      best.insert(pos, c);
      if (best.size() > static_cast<std::size_t>(cfg.beamWidth)) {
        best.pop_back();
      }
    };

    const std::size_t pinnedSlot =
        static_cast<std::size_t>(slotGrid.nodeId(children[ci].slot));

    // Slots considered for this child: the pin plus its nearest
    // maxRepositionSlots neighbours in the slot grid.
    std::vector<std::size_t> slotChoices;
    for (std::size_t s = 0; s < slotCount; ++s) {
      if (s != pinnedSlot) slotChoices.push_back(s);
    }
    std::stable_sort(slotChoices.begin(), slotChoices.end(),
                     [&](std::size_t a, std::size_t b) {
                       return slotGrid.distance(static_cast<NodeId>(a),
                                                static_cast<NodeId>(pinnedSlot)) <
                              slotGrid.distance(static_cast<NodeId>(b),
                                                static_cast<NodeId>(pinnedSlot));
                     });
    slotChoices.resize(std::min<std::size_t>(
        slotChoices.size(),
        static_cast<std::size_t>(std::max(0, cfg.maxRepositionSlots))));
    slotChoices.insert(slotChoices.begin(), pinnedSlot);

    for (std::size_t bi = 0; bi < beam.size(); ++bi) {
      const BeamEntry& entry = beam[bi];
      for (const std::size_t slotId : slotChoices) {
        if (entry.slotUsed[slotId]) continue;
        const Coord slot = slotGrid.coordOf(static_cast<NodeId>(slotId));
        for (std::size_t oi = 0; oi < orients.size(); ++oi) {
          const std::size_t first = firstOfLayout[oi];
          if (first == oi) {
            // A full beam rejects only objectives above its worst survivor
            // (a tie is inserted). The bar only falls, so the layout's
            // other orientations reuse a +inf.
            const double bar =
                best.size() >= static_cast<std::size_t>(cfg.beamWidth)
                    ? best.back().objective
                    : kNoBar;
            placeChild(ci, orients[oi], slot, childPos);
            layoutScore[oi] = scoreChild(entry, ci, bar);
          }
          consider({bi, oi, slotId, layoutScore[first]});
        }
        // Batched liveness: one beat per (entry, slot) keeps the watchdog
        // from reading a long root merge as a stall.
        obs::Heartbeats::instance().beat(obs::Pulse::MergeCandidates,
                                         orients.size());
      }
    }
    RAHTM_REQUIRE(!best.empty(), "mergeChildren: no feasible candidate");

    // Force the pinned-lineage extension (pin-only internals at the pinned
    // slot) into the survivor set, guaranteeing the global pseudo-pin
    // solution survives to the end.
    placeChildPin(ci, childPos);
    best.push_back({pinnedLineage, kPinOrient, pinnedSlot,
                    scoreChild(beam[pinnedLineage], ci, kNoBar)});
    ++candidatesEvaluated;

    // Materialize survivors into the next beam.
    std::vector<BeamEntry> next;
    next.reserve(best.size());
    std::size_t nextPinned = SIZE_MAX;
    for (const Candidate& c : best) {
      BeamEntry e = beam[c.parent];
      const Coord slot = slotGrid.coordOf(static_cast<NodeId>(c.slotId));
      if (c.orient == kPinOrient) {
        placeChildPin(ci, childPos);
      } else {
        placeChild(ci, orients[c.orient], slot, childPos);
      }
      const std::size_t base = clusterBase[ci];
      for (std::size_t k = 0; k < childPos.size(); ++k) {
        e.localNode[base + k] = childPos[k];
      }
      if (useLoads) {
        // Only flows fully placed *now* and not counted before: exactly
        // those touching ci with both endpoints placed.
        forPlacedFlows(beam[c.parent], ci,
                       [&](NodeId na, NodeId nb, double bytes) {
                         addRoute(routes->find(na, nb), bytes, e.loads.data());
                         return true;
                       });
        e.maxLoad = c.objective;
      } else {
        e.hopBytes = c.objective;
      }
      e.orientationOfChild[ci] = c.orient == kPinOrient
                                     ? Orientation::identity(childShape.size())
                                     : orients[c.orient];
      e.slotOfChild[ci] = slot;
      e.slotUsed[c.slotId] = 1;
      if (c.parent == pinnedLineage && c.orient == kPinOrient &&
          nextPinned == SIZE_MAX) {
        nextPinned = next.size();
      }
      next.push_back(std::move(e));
    }
    RAHTM_REQUIRE(nextPinned != SIZE_MAX,
                  "mergeChildren: pinned lineage lost");
    pinnedLineage = nextPinned;
    beam = std::move(next);
  }

  // Best entry is the lowest-objective member of the beam (the survivor
  // list is sorted, but the appended pinned candidate may sit anywhere).
  std::size_t winnerIdx = 0;
  for (std::size_t i = 1; i < beam.size(); ++i) {
    if (entryObjective(beam[i], cfg.objective) <
        entryObjective(beam[winnerIdx], cfg.objective)) {
      winnerIdx = i;
    }
  }
  const BeamEntry& winner = beam[winnerIdx];
  MergeResult result;
  result.clustersInRegion = regionClusters;
  result.localNode = winner.localNode;
  result.objective = entryObjective(winner, cfg.objective);
  result.orientationOfChild = winner.orientationOfChild;
  result.slotOfChild = winner.slotOfChild;
  result.pinLocalNode.resize(regionClusters.size());
  for (std::size_t ci = 0; ci < children.size(); ++ci) {
    placeChildPin(ci, childPos);
    for (std::size_t k = 0; k < childPos.size(); ++k) {
      result.pinLocalNode[clusterBase[ci] + k] = childPos[k];
    }
  }
  span.attr("candidates", candidatesEvaluated);
  span.attr("scored", candidatesScored);
  span.attr("cut", candidatesCut);
  span.attr("objective", result.objective);
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("rahtm.merge.regions").add(1);
    reg->counter("rahtm.merge.candidates").add(candidatesEvaluated);
    reg->counter("rahtm.merge.scored").add(candidatesScored);
    reg->counter("rahtm.merge.cut").add(candidatesCut);
  }
  return result;
}

}  // namespace rahtm
