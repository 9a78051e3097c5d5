#pragma once
/// \file delta_eval.hpp
/// Incremental (delta-evaluated) placement evaluation for the local-search
/// phases.
///
/// The refine and anneal hot loops evaluate millions of candidate moves that
/// each touch only two vertices. Re-deriving the full channel-load vector —
/// or even re-scanning it for the maximum — per candidate makes every trial
/// O(#channels); this engine makes both the *probe* (evaluate a candidate)
/// and the *commit* (adopt it) O(degree of the moved vertices):
///
///  * `RouteTable` — the uniform-minimal route of every (src,dst) pair,
///    stored once per offset class and translated to the source on read
///    (torus/mesh translation symmetry). Built once per topology, immutable,
///    and shared read-only across annealing restarts and exec::ThreadPool
///    workers.
///
///  * `DeltaPlacementEval` — probe-then-commit evaluation of swap and
///    relocation moves. Channel loads live in a dense vector; the sum of
///    squared loads (the MCL plateau tie-breaker) and hop-bytes are
///    maintained as running values with O(touched)/O(degree) deltas.
///
/// Route kernel: addRoute() adds one route into a dense per-channel array.
/// It runs several channels side by side in independent lanes, each lane
/// repeating its channel's one fraction·bytes addition multiplicity times,
/// so every cell receives exactly the additions of the enumeration.
///
/// A probe accumulates its flows' old routes (negated) and new routes into
/// a delta array that is zero at rest, with no per-channel test, and logs
/// the routes in order. One branch-free pass over the logged routes'
/// channels then marks each channel with the probe's epoch and recovers
/// the touched channels in first-touch order: flows in incidence order,
/// old route before new. The statistics pass reads and clears each touched
/// delta in that order, which fixes the order of the sum of squares'
/// additions, and commit writes the probe's new loads back.
///
/// Acceptance bar: a probe may carry a bar and a witness channel. Before
/// routing anything it folds the witness's candidate load alone — the
/// additions the full probe would make to that cell, found through the
/// table's O(1) entry lookup (RouteTable::locate()) — and when that load
/// exceeds the bar, the candidate's MCL (a max over cells) does too: the
/// probe returns +inf and leaves nothing pending. Otherwise, or without a
/// witness, the full probe runs.
///
/// Exact probe max: a probe's MCL is the max of its touched channels' new
/// loads and the max over the untouched ones. The engine remembers one
/// channel holding the current MCL; when the probe leaves that channel
/// untouched, the untouched max is the current MCL in O(1). Otherwise one
/// masked sweep of the dense loads skips the probe's epoch-marked channels.
/// The probe carries the new max channel and commit adopts it. On a 2-ary
/// cube a probe touches ~251 of 320 channels, so a sweep costs about what
/// the probe already did; at 5,120 slots 79% of probes take the O(1) path.
///
/// Determinism: all updates are value-deterministic functions of the move
/// sequence, so searches driven by pre-split RNG streams stay bit-identical
/// for any thread count. Incrementally maintained stats can drift from a
/// from-scratch evaluation by a few ulps (floating-point addition is not
/// associative); `rebuild()` resynchronizes exactly, and commit adopts its
/// probe's statistics bit for bit.

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/comm_graph.hpp"
#include "obs/mem.hpp"
#include "topology/torus.hpp"

namespace rahtm {

/// Every uniform-minimal route of a torus or mesh, from one route per
/// offset class.
///
/// A route depends only on the per-dimension offset from source to
/// destination: route(s, d) is route(0, d - s) shifted by s. The table
/// stores one route per offset class — the offset taken modulo the extent
/// in a wrapping dimension and signed in a mesh dimension, so at most N
/// classes on a torus and prod(2k-1) on a mesh — and find() translates the
/// channel ids by the source node. Memory is O(N), not O(N^2).
///
/// A route is the unit-volume output of forEachUniformMinimalLoad() with
/// one entry per channel, in first-appearance order: the channel's fraction
/// and its multiplicity, the number of times the enumeration reports it.
/// The enumeration reports a channel once per tie-direction combo crossing
/// it, always from the same lattice position, and its fraction is a
/// function of that position alone, so every repeat carries the same
/// fraction bit for bit; the build checks this. Adding fraction·bytes
/// multiplicity times (addRoute()) therefore performs exactly the additions
/// of the enumeration, and table-based loads are bit-identical to
/// placementLoads(). The fractions are deliberately not summed: a summed
/// fraction regroups the floating-point sum, and ulp-level differences flip
/// ties in the searches built on these loads.
class RouteTable {
 public:
  /// Builds every offset class of \p topo.
  explicit RouteTable(const Torus& topo);

  const Torus& topology() const { return topo_; }

  /// One route, translated to its source.
  class Span {
   public:
    const double* fracs = nullptr;  ///< each channel's fraction
    std::size_t size = 0;           ///< number of channels

    ChannelId channel(std::size_t k) const { return base_[rel_[k]] + slot_[k]; }
    /// Times the enumeration reports channel k, each time with fracs[k].
    unsigned multiplicity(std::size_t k) const { return mult_[k]; }

   private:
    friend class RouteTable;
    friend void addRoute(const Span& r, double bytes, double* cells);
    const ChannelId* base_ = nullptr;     ///< channel bases, at the source
    const std::int32_t* rel_ = nullptr;   ///< node offset from the source
    const std::uint8_t* slot_ = nullptr;  ///< dim * 2 + dir
    const std::uint8_t* mult_ = nullptr;  ///< multiplicity of each channel
  };

  /// Route of (src,dst). Thread-safe: takes no lock and allocates nothing.
  Span find(NodeId src, NodeId dst) const;

  /// One channel, found in any route in O(1).
  class Locator {
   public:
    /// Adds what addRoute(find(src, dst), bytes, cells) adds to the
    /// located channel's cell — fraction·bytes, multiplicity times — to
    /// \p cell. Returns whether the route crosses the channel.
    bool addRoute(NodeId src, NodeId dst, double bytes, double& cell) const;

   private:
    friend class RouteTable;
    const RouteTable* table_ = nullptr;
    std::int32_t virt_ = 0;  ///< virtual index of the channel's node
    std::int32_t slot_ = 0;  ///< dim * 2 + dir
  };

  /// Locator of channel \p c. The first call on a table builds its entry
  /// lookup, (route, relative node, channel slot) -> entry: routes x nodes x
  /// 2·ndims cells on a torus, charged to the route_table account. Tables
  /// that are never asked (no barred probe reads them) never build it.
  /// Thread-safe: the build runs once and the lookup is read-only after.
  Locator locate(ChannelId c) const;

  /// Convenience: a table ready for read-only sharing.
  static std::shared_ptr<const RouteTable> buildFull(const Torus& topo);

  /// (channel, fraction, multiplicity) entries over all offset classes.
  std::size_t entryCount() const { return fracs_.size(); }

  /// Bytes charged to the route_table account for this table.
  std::int64_t footprintBytes() const { return mem_.bytes(); }

 private:
  /// Owned copy: a shared table (artifact cache) must stay valid after the
  /// caller's topology object is gone.
  Torus topo_;
  // Offsets live in a virtual grid of extent 2k-1 per dimension, wide
  // enough that neither d - s nor (route node - source) ever wraps, so a
  // sum of virtual indices is the virtual index of the sum.
  std::vector<std::int32_t> virtOf_;   ///< virtual index of each node
  std::int32_t center_ = 0;            ///< virtual index of offset zero
  std::vector<std::int32_t> routeOf_;  ///< offset class -> route
  std::vector<ChannelId> base_;        ///< virtual node -> first channel id
  // Route r owns entries [start_[r], start_[r+1]) of the arenas below
  // (structure of arrays, one entry per channel).
  std::vector<std::int64_t> start_;
  std::vector<std::int32_t> rel_;
  std::vector<std::uint8_t> slot_;
  std::vector<std::uint8_t> mult_;
  std::vector<double> fracs_;
  obs::MemAccount mem_{obs::MemAccountId::RouteTable};

  // Entry lookup (locate()), built on first use. A route node's relative
  // position is indexed compactly: offset mod k in a wrapping dimension,
  // offset + k - 1 in a mesh one.
  void buildLookup() const;
  mutable std::once_flag lookupOnce_;
  mutable std::vector<std::int32_t> relIndex_;  ///< offset -> relative node
  mutable std::vector<std::int32_t> lookup_;    ///< -> entry, -1 when absent
  mutable std::int32_t relNodes_ = 0;
  mutable obs::MemAccount lookupMem_{obs::MemAccountId::RouteTable};
};

/// Adds route \p r carrying \p bytes into the dense per-channel array
/// \p cells: `r.fracs[k] * bytes`, added r.multiplicity(k) times to cell
/// r.channel(k) — the enumeration's own additions for each cell.
void addRoute(const RouteTable::Span& r, double bytes, double* cells);

/// Adds the flows of \p graph, placed by \p placement (vertex -> node of
/// the table's topology), into \p cells: addRoute() of each flow's route
/// in flow order, skipping co-located and zero-byte flows. Every cell
/// receives placementLoads()'s additions in its order, so the loads, and
/// their max, are bit-identical to it.
void addPlacementRoutes(const RouteTable& routes, const CommGraph& graph,
                        const std::vector<NodeId>& placement, double* cells);

/// Provider of immutable, shareable per-topology / per-graph artifacts.
/// The solver phases take a non-owning pointer (null = build locally, the
/// historical behavior); a cross-request cache implements this to amortize
/// `RouteTable::buildFull` and `buildFlowIncidence` across solves. Returned
/// objects are complete and read-only, so sharing them across threads is
/// safe and the consumer's arithmetic is bit-identical to a local build.
class ArtifactSource {
 public:
  virtual ~ArtifactSource() = default;
  /// The route table of \p topo; never returns null.
  virtual std::shared_ptr<const RouteTable> routeTable(const Torus& topo) = 0;
  /// The per-vertex flow incidence of \p graph; never returns null.
  virtual std::shared_ptr<const FlowIncidence> flowIncidence(
      const CommGraph& graph) = 0;
};

/// The route table of \p topo: from \p artifacts when given, else built.
std::shared_ptr<const RouteTable> routeTableFor(const Torus& topo,
                                                ArtifactSource* artifacts);

/// Mapping objective. The paper argues MCL is the right metric under
/// adaptive routing (§III-A, Fig. 1); hop-bytes is kept as the
/// routing-unaware ablation.
enum class MapObjective { Mcl, HopBytes };

/// Probe-then-commit incremental evaluation of one placement.
///
/// The engine owns a placement of `graph`'s vertices onto nodes of `topo`
/// (several vertices may share a node; co-located flows add no load) and
/// maintains what its objective reads: under Mcl the dense channel loads
/// with their maximum (MCL) and sum of squares, under HopBytes the
/// hop-bytes total (the other fields stay 0). `probeSwap` /
/// `probeMove` return the statistics the placement WOULD have after the
/// move without observably changing any state; `commit()` adopts the most
/// recent probe in O(touched channels). A probe that is not committed costs
/// nothing further: it leaves the delta array zero, and the next probe
/// overwrites the pending candidate loads.
class DeltaPlacementEval {
 public:
  struct Summary {
    double mcl = 0;
    double sumSquares = 0;
    double hopBytes = 0;
  };

  /// The bar of an unbarred probe.
  static constexpr double kNoBar = std::numeric_limits<double>::infinity();

  /// \p routes: the route table of \p topo, shared read-only (e.g. across
  /// annealing restarts); the engine builds its own when null.
  /// \p incidence: optional pre-built incidence of \p graph's flows over its
  /// vertices, shared read-only; the engine builds its own when null.
  DeltaPlacementEval(const Torus& topo, const CommGraph& graph,
                     std::vector<NodeId> placement,
                     MapObjective objective = MapObjective::Mcl,
                     std::shared_ptr<const RouteTable> routes = nullptr,
                     std::shared_ptr<const FlowIncidence> incidence = nullptr);

  const Torus& topology() const { return *topo_; }
  const std::vector<NodeId>& placement() const { return placement_; }
  const Summary& current() const { return cur_; }
  double mcl() const { return cur_.mcl; }
  double sumSquares() const { return cur_.sumSquares; }
  double hopBytes() const { return cur_.hopBytes; }

  /// Candidate statistics if vertices a and b exchanged nodes.
  ///
  /// Acceptance bar (Mcl only): when \p witness names a channel and
  /// the candidate load of that channel, or else of the channel holding the
  /// current MCL, is above \p bar, the candidate's MCL is too. The probe
  /// then routes nothing, changes no state, leaves nothing pending and
  /// returns +inf in every field (a cut, counted in cuts()). Any other probe
  /// returns exactly the unbarred statistics.
  const Summary& probeSwap(RankId a, RankId b, double bar = kNoBar,
                           ChannelId witness = kInvalidChannel);
  /// Candidate statistics if vertex a relocated to \p node (which must not
  /// host any other vertex — the caller tracks empty nodes). \p bar and
  /// \p witness as for probeSwap().
  const Summary& probeMove(RankId a, NodeId node, double bar = kNoBar,
                           ChannelId witness = kInvalidChannel);
  /// Whether a probe awaits commit(): true after a full probe, false after
  /// a cut, a commit or a rebuild.
  bool hasPending() const { return pending_ != Pending::None; }
  /// A channel holding the pending probe's candidate MCL (kInvalidChannel
  /// when no channel carries a positive load).
  ChannelId probeMaxChannel() const { return pendingMaxChannel_; }
  /// Adopt the most recent probe. Requires a pending probe.
  void commit();

  /// From-scratch reconstruction of loads and statistics (the dense
  /// sweep). Resynchronizes any accumulated floating-point drift; the
  /// resulting loads are bit-identical to placementLoads().
  void rebuild();

  /// Replace the placement with \p placement (same size) and rebuild():
  /// whole-placement evaluation, e.g. per permutation of an exhaustive
  /// search.
  void reset(const std::vector<NodeId>& placement);

  /// Debug/test view of the dense channel loads (Mcl only).
  const std::vector<double>& loads() const { return loads_; }

  // ---- Instrumentation ----------------------------------------------------
  std::uint64_t probes() const { return probes_; }
  /// Probes stopped at their bar (also counted in probes()).
  std::uint64_t cuts() const { return cuts_; }
  std::uint64_t commits() const { return commits_; }
  /// From-scratch rebuilds performed (construction + rebuild() calls).
  std::uint64_t denseSweeps() const { return denseSweeps_; }
  /// Probes that touched the remembered max channel and so swept the
  /// untouched loads for their max.
  std::uint64_t maskedSweeps() const { return maskedSweeps_; }
  /// Route channels accumulated by probes (a channel counts once per route
  /// that crosses it).
  std::uint64_t channelVisits() const { return channelVisits_; }

 private:
  enum class Pending { None, Swap, Move };

  const Summary& probe(Pending kind, RankId a, RankId b, NodeId node,
                       NodeId nodeA, NodeId nodeB, double bar,
                       ChannelId witness);
  template <typename Visit>
  void forEachMovedFlow(RankId a, RankId b, NodeId nodeA, NodeId nodeB,
                        Visit&& visit) const;
  bool witnessAbove(ChannelId w, double bar, RankId a, RankId b, NodeId nodeA,
                    NodeId nodeB) const;
  void probeFlows(RankId a, RankId b, NodeId nodeA, NodeId nodeB);
  void accumulateRoute(NodeId src, NodeId dst, double bytes);
  void markTouched();
  void probeLoadStats();
  void sweepStats();

  const Torus* topo_;
  const CommGraph* graph_;
  MapObjective objective_;
  std::vector<NodeId> placement_;
  FlowIncidence ownIncidence_;  ///< built locally when no shared incidence
  std::shared_ptr<const FlowIncidence> sharedIncidence_;
  const FlowIncidence* incidence_ = nullptr;  ///< shared or own

  std::shared_ptr<const RouteTable> routes_;  ///< null under HopBytes

  // Dense loads (Mcl).
  std::vector<double> loads_;
  std::vector<double> peak_;  ///< per-channel peak |load| ever applied
  /// A channel whose load is cur_.mcl; kInvalidChannel when no channel
  /// carries a positive load.
  ChannelId maxChannel_ = kInvalidChannel;

  // Pending probe: the routes it added to delta_ (zero at rest), in order,
  // then the touched channels in first-touch order with their candidate
  // loads.
  std::vector<double> delta_;                 ///< dense per-channel delta
  std::vector<RouteTable::Span> probeRoutes_;  ///< [0, routeCount_)
  std::size_t routeCount_ = 0;
  std::vector<ChannelId> touched_;  ///< [0, touchedCount_): distinct
  std::vector<double> newLoads_;    ///< candidate load of each touched
  std::size_t touchedCount_ = 0;
  std::vector<std::uint32_t> mark_;  ///< epoch stamp per channel
  std::uint32_t epoch_ = 0;
  Pending pending_ = Pending::None;
  RankId pendA_ = kInvalidRank;
  RankId pendB_ = kInvalidRank;  ///< swap partner
  NodeId pendNode_ = kInvalidNode;  ///< move target
  Summary pendingSummary_;
  ChannelId pendingMaxChannel_ = kInvalidChannel;

  Summary cur_;
  std::uint64_t probes_ = 0;
  std::uint64_t cuts_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t denseSweeps_ = 0;
  std::uint64_t maskedSweeps_ = 0;
  std::uint64_t channelVisits_ = 0;
  obs::MemAccount mem_{obs::MemAccountId::Mapper};
};

}  // namespace rahtm
