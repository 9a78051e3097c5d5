#include "routing/lp_routing.hpp"

#include <map>
#include <set>
#include <string>

#include "common/error.hpp"
#include "lp/model.hpp"

namespace rahtm {

namespace {

/// A directed channel usable by a flow on some minimal path.
struct FlowChannel {
  ChannelId channel;
  NodeId from;
  NodeId to;
};

/// All channels lying on a minimal path from \p src to \p dst: channel
/// (u -> v along dim) qualifies iff dist(s,u) + 1 + dist(v,d) == dist(s,d).
std::vector<FlowChannel> minimalChannels(const Torus& topo, NodeId src,
                                         NodeId dst) {
  std::vector<FlowChannel> out;
  const std::int32_t total = topo.distance(src, dst);
  for (NodeId u = 0; u < topo.numNodes(); ++u) {
    const std::int32_t toU = topo.distance(src, u);
    if (toU >= total) continue;  // u cannot be an interior hop start
    const Coord cu = topo.coordOf(u);
    for (std::size_t d = 0; d < topo.ndims(); ++d) {
      for (const Dir dir : {Dir::Plus, Dir::Minus}) {
        const auto nb = topo.neighbor(cu, d, dir);
        if (!nb) continue;
        const NodeId v = topo.nodeId(*nb);
        if (toU + 1 + topo.distance(v, dst) == total) {
          out.push_back({topo.channelId(u, d, dir), u, v});
        }
      }
    }
  }
  return out;
}

}  // namespace

LpRoutingResult optimalMinimalMcl(const Torus& topo, const CommGraph& graph,
                                  const std::vector<NodeId>& nodeOfVertex) {
  using lp::Term;
  lp::Model model;
  model.setObjective(lp::Objective::Minimize);
  const lp::VarId z = model.addContinuous("z", 0, lp::infinity(), 1.0);

  // Per channel: the flow variables crossing it (for the z rows).
  std::map<ChannelId, std::vector<lp::VarId>> byChannel;

  int flowIdx = 0;
  for (const Flow& f : graph.flows()) {
    const NodeId s = nodeOfVertex.at(static_cast<std::size_t>(f.src));
    const NodeId t = nodeOfVertex.at(static_cast<std::size_t>(f.dst));
    RAHTM_REQUIRE(s >= 0 && t >= 0, "optimalMinimalMcl: unmapped vertex");
    if (s == t) {
      ++flowIdx;
      continue;
    }
    const auto channels = minimalChannels(topo, s, t);
    const std::string id = std::to_string(flowIdx);
    // Flow variables and per-node incident lists.
    std::map<NodeId, std::vector<Term>> nodeBalance;  // out +1 / in -1
    for (const FlowChannel& fc : channels) {
      const lp::VarId v = model.addContinuous(
          "f" + id + "_c" + std::to_string(fc.channel), 0, f.bytes);
      byChannel[fc.channel].push_back(v);
      nodeBalance[fc.from].push_back(Term{v, 1.0});
      nodeBalance[fc.to].push_back(Term{v, -1.0});
    }
    for (auto& [node, terms] : nodeBalance) {
      double rhs = 0;
      if (node == s) rhs = f.bytes;
      else if (node == t) rhs = -f.bytes;
      model.addConstraint("bal_f" + id + "_n" + std::to_string(node), terms,
                          lp::Sense::Equal, rhs);
    }
    ++flowIdx;
  }

  for (const auto& [channel, vars] : byChannel) {
    std::vector<Term> terms;
    terms.reserve(vars.size() + 1);
    for (const lp::VarId v : vars) terms.push_back(Term{v, 1.0});
    terms.push_back(Term{z, -1.0});
    model.addConstraint("cap_c" + std::to_string(channel), terms,
                        lp::Sense::LessEq, 0.0);
  }

  const lp::LpSolution sol = lp::solveLp(model);
  LpRoutingResult r;
  r.status = sol.status;
  if (sol.status == lp::SolveStatus::Optimal) r.mcl = sol.objective;
  return r;
}

}  // namespace rahtm
