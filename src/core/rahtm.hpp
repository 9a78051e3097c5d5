#pragma once
/// \file rahtm.hpp
/// The RAHTM pipeline (§III): clustering → hierarchical MILP pseudo-pinning
/// → bottom-up beam merging. This is the public entry point of the library.

#include <map>
#include <string>
#include <vector>

#include "core/clustering.hpp"
#include "core/hierarchy.hpp"
#include "core/merge.hpp"
#include "core/refine.hpp"
#include "core/subproblem.hpp"
#include "mapping/mapping.hpp"
#include "workloads/workload.hpp"

namespace rahtm {

struct RahtmConfig {
  SubproblemConfig subproblem;  ///< phase-2 solver portfolio
  MergeConfig merge;            ///< phase-3 beam parameters (N = 64)
  /// Search tile shapes during clustering (Fig. 2). When off, the first
  /// usable factorization is taken (ablation).
  bool tileSearch = true;
  /// Run phase 3. When off, the phase-2 pseudo-pins are final (ablation).
  bool enableMerge = true;
  /// Run the final pairwise-swap refinement over the merged placement
  /// (an extension past the paper's three phases — see refine.hpp).
  bool finalRefinement = true;
  RefineConfig refine;
  /// Also refine from the canonical dimension-order cluster placement and
  /// keep the better of the two refined placements. Guards against regimes
  /// (e.g. bisection-bound patterns) where the hierarchical search space
  /// cannot reach the trivial mapping's quality.
  bool canonicalSeed = true;
  /// Logical process-grid shape (product == rank count). Empty: 1D.
  Shape logicalGrid;
  /// Worker threads for the compute phases: phase-2 subproblem waves,
  /// annealing restarts, and the final-refinement seed pair. 1 (default)
  /// runs fully serial; 0 uses every hardware thread; at most
  /// exec::kMaxThreads. The mapping is bit-identical for every value (see
  /// exec/thread_pool.hpp for the determinism contract).
  int numThreads = 1;
  /// Optional provider of shared per-topology artifacts (route tables, flow
  /// incidences), propagated into every phase config. Non-owning; must
  /// outlive map(). Null = each phase builds its own (the one-shot CLI
  /// behavior). Shared artifacts are content-identical to local builds, so
  /// mappings stay bit-identical.
  ArtifactSource* artifacts = nullptr;
};

/// Timing and accounting for the §V-B optimization-time experiment.
///
/// Phase timings are the durations of the pipeline's tracer spans
/// ("rahtm.phase.cluster" / ".pin" / ".merge" / ".refine" and "rahtm.map"
/// for the total), so when a trace is captured (obs::setTracer /
/// --trace-out) these numbers match the trace file exactly.
/// Quality of the incumbent node-cluster placement at the end of one
/// pipeline phase, under the oblivious MAR model (placementMcl) and the
/// hop-bytes baseline metric. The sequence cluster → pin → merge → refine
/// attributes the final mapping quality to the phase that bought it: the
/// "cluster" entry evaluates the canonical (identity) cluster placement —
/// the state before any placement optimization — and each later entry the
/// placement that phase produced.
struct PhaseQuality {
  std::string phase;
  double mcl = 0;
  double hopBytes = 0;
  /// High-water mark of total accounted bytes (obs/mem.hpp) while this
  /// phase ran — which phase's working set sizes the run's memory budget.
  std::int64_t memPeakBytes = 0;
};

struct RahtmStats {
  double clusterSeconds = 0;
  double pinSeconds = 0;
  double mergeSeconds = 0;
  double refineSeconds = 0;
  double totalSeconds = 0;
  int refineSwaps = 0;
  int subproblemsSolved = 0;
  std::map<std::string, int> solverMethodCounts;
  /// Region objective achieved by the root merge (the mapping's MCL under
  /// the oblivious model, at node-cluster granularity).
  double rootObjective = 0;
  /// Volume absorbed inside nodes by the concentration clustering.
  Volume intraNodeVolume = 0;
  Volume interNodeVolume = 0;
  /// Per-phase incumbent quality, in pipeline order (cluster, pin, merge,
  /// refine — refine only when final refinement ran). Mirrored into the
  /// trace as "rahtm.quality" instant events and into the metrics registry
  /// as "rahtm.quality.<phase>.{mcl,hop_bytes}" gauges.
  std::vector<PhaseQuality> phaseQuality;
};

class RahtmMapper final : public TaskMapper {
 public:
  explicit RahtmMapper(RahtmConfig config = {});

  /// Map using the configured logical grid (or a 1D grid when unset).
  Mapping map(const CommGraph& graph, const Torus& topo,
              int concentration) override;

  /// Convenience: pull the logical grid from the workload, then map its
  /// communication graph.
  Mapping mapWorkload(const Workload& workload, const Torus& topo,
                      int concentration);

  std::string name() const override { return "RAHTM"; }

  const RahtmStats& stats() const { return stats_; }
  const RahtmConfig& config() const { return config_; }
  RahtmConfig& config() { return config_; }

 private:
  RahtmConfig config_;
  RahtmStats stats_;
};

}  // namespace rahtm
