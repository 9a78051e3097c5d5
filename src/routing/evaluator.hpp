#pragma once
/// \file evaluator.hpp
/// Fast repeated MCL evaluation of placements on a fixed topology.
///
/// The search-based mappers (exhaustive permutation search, the merge beam)
/// evaluate many placements of the same communication graph. This evaluator
/// reads routes from a RouteTable, turning each evaluation into a short
/// accumulate-and-max scan. (The refine/anneal hot loops go further and use
/// routing/delta_eval.hpp, which shares the same RouteTable.)
///
/// Thread safety: NONE. Every method except hopBytesOf() mutates internal
/// state (the scratch load vector, the touched-channel epoch marks), so an
/// instance must be owned by a single thread at a time. Parallel searches
/// construct one evaluator per task over one shared RouteTable.

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/comm_graph.hpp"
#include "routing/delta_eval.hpp"
#include "topology/torus.hpp"

namespace rahtm {

class MclEvaluator {
 public:
  /// Evaluator over its own route table of \p topo.
  explicit MclEvaluator(const Torus& topo);

  /// Evaluator over a shared route table of \p topo (e.g. one built once
  /// and handed to every exec::ThreadPool worker).
  MclEvaluator(const Torus& topo, std::shared_ptr<const RouteTable> routes);

  const Torus& topology() const { return *topo_; }

  /// MCL of \p graph under \p nodeOfVertex (uniform-minimal model).
  /// Identical in value to placementMcl(), but amortized much faster.
  double mcl(const CommGraph& graph, const std::vector<NodeId>& nodeOfVertex);

  /// MCL together with the sum of squared channel loads. The quadratic term
  /// is the tie-breaker local searches need on the MCL plateau: most swaps
  /// leave the maximum untouched, but draining load off busy channels
  /// (lower sum of squares) opens the path to a lower maximum later.
  struct LoadSummary {
    double mcl = 0;
    double sumSquares = 0;
  };
  LoadSummary summarize(const CommGraph& graph,
                        const std::vector<NodeId>& nodeOfVertex);

  /// Hop-bytes under the same placement (for the routing-unaware ablation).
  double hopBytesOf(const CommGraph& graph,
                    const std::vector<NodeId>& nodeOfVertex) const;

 private:
  /// Accumulate the channel loads of \p graph under \p nodeOfVertex into
  /// scratch_, recording each loaded channel in touched_ exactly once.
  void accumulate(const CommGraph& graph,
                  const std::vector<NodeId>& nodeOfVertex);

  const Torus* topo_;
  std::shared_ptr<const RouteTable> routes_;
  std::vector<double> scratch_;           // dense channel loads
  std::vector<ChannelId> touched_;        // channels written this eval
  /// Per-channel "was touched this evaluation" stamp. An epoch counter
  /// (rather than testing scratch_ == 0.0) keeps touched_ duplicate-free
  /// even when a flow's contribution rounds to zero load.
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
};

}  // namespace rahtm
