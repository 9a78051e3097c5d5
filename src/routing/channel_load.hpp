#pragma once
/// \file channel_load.hpp
/// Per-channel load accounting. The maximum channel load (MCL) is the
/// paper's optimization metric: minimizing it load-balances the network and
/// maximizes achievable throughput for bandwidth-bound applications (§II-B).

#include <vector>

#include "topology/torus.hpp"

namespace rahtm {

/// Dense per-directed-channel load map over a fixed topology.
class ChannelLoadMap {
 public:
  explicit ChannelLoadMap(const Torus& topo);

  const Torus& topology() const { return *topo_; }

  void add(ChannelId c, double load);
  double load(ChannelId c) const;
  void clear();

  /// Maximum channel load across all channels.
  double maxLoad() const;
  /// Sum of all channel loads (== Σ_flows volume · mean hops).
  double totalLoad() const;

  const std::vector<double>& raw() const { return loads_; }

 private:
  const Torus* topo_;
  std::vector<double> loads_;
};

}  // namespace rahtm
