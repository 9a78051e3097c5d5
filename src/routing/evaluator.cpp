#include "routing/evaluator.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rahtm {

MclEvaluator::MclEvaluator(const Torus& topo)
    : MclEvaluator(topo, RouteTable::buildFull(topo)) {}

MclEvaluator::MclEvaluator(const Torus& topo,
                           std::shared_ptr<const RouteTable> routes)
    : topo_(&topo),
      routes_(std::move(routes)),
      scratch_(static_cast<std::size_t>(topo.numChannelSlots()), 0.0),
      mark_(static_cast<std::size_t>(topo.numChannelSlots()), 0) {
  RAHTM_REQUIRE(routes_ != nullptr && routes_->topology() == topo,
                "MclEvaluator: route table of another topology");
}

void MclEvaluator::accumulate(const CommGraph& graph,
                              const std::vector<NodeId>& nodeOfVertex) {
  RAHTM_REQUIRE(
      nodeOfVertex.size() >= static_cast<std::size_t>(graph.numRanks()),
      "MclEvaluator: placement too small");
  touched_.clear();
  if (++epoch_ == 0) {  // epoch wrap: invalidate all stale marks
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
  for (const Flow& f : graph.flows()) {
    const NodeId u = nodeOfVertex[static_cast<std::size_t>(f.src)];
    const NodeId v = nodeOfVertex[static_cast<std::size_t>(f.dst)];
    RAHTM_REQUIRE(u >= 0 && v >= 0, "MclEvaluator: unmapped vertex");
    if (u == v) continue;
    // Zero-volume flows add no load; skipping them also keeps them from
    // registering channels in touched_ (the former `cell == 0.0` test
    // pushed such channels once per flow that grazed them).
    if (f.bytes == 0) continue;
    routes_->find(u, v).forEachChannel(
        [&](ChannelId c, const double* first, const double* last) {
          const auto idx = static_cast<std::size_t>(c);
          if (mark_[idx] != epoch_) {
            mark_[idx] = epoch_;
            scratch_[idx] = 0;
            touched_.push_back(c);
          }
          scratch_[idx] = addFractions(scratch_[idx], first, last, f.bytes);
        });
  }
}

MclEvaluator::LoadSummary MclEvaluator::summarize(
    const CommGraph& graph, const std::vector<NodeId>& nodeOfVertex) {
  accumulate(graph, nodeOfVertex);
  LoadSummary s;
  for (const ChannelId c : touched_) {
    const double v = scratch_[static_cast<std::size_t>(c)];
    s.mcl = std::max(s.mcl, v);
    s.sumSquares += v * v;
  }
  return s;
}

double MclEvaluator::mcl(const CommGraph& graph,
                         const std::vector<NodeId>& nodeOfVertex) {
  accumulate(graph, nodeOfVertex);
  double best = 0;
  for (const ChannelId c : touched_) {
    best = std::max(best, scratch_[static_cast<std::size_t>(c)]);
  }
  return best;
}

double MclEvaluator::hopBytesOf(
    const CommGraph& graph, const std::vector<NodeId>& nodeOfVertex) const {
  double hb = 0;
  for (const Flow& f : graph.flows()) {
    const NodeId u = nodeOfVertex[static_cast<std::size_t>(f.src)];
    const NodeId v = nodeOfVertex[static_cast<std::size_t>(f.dst)];
    hb += f.bytes * static_cast<double>(topo_->distance(u, v));
  }
  return hb;
}

}  // namespace rahtm
