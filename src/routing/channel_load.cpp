#include "routing/channel_load.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rahtm {

ChannelLoadMap::ChannelLoadMap(const Torus& topo)
    : topo_(&topo),
      loads_(static_cast<std::size_t>(topo.numChannelSlots()), 0.0) {}

void ChannelLoadMap::add(ChannelId c, double load) {
  RAHTM_REQUIRE(c >= 0 && c < static_cast<ChannelId>(loads_.size()),
                "ChannelLoadMap::add: bad channel");
  loads_[static_cast<std::size_t>(c)] += load;
}

double ChannelLoadMap::load(ChannelId c) const {
  RAHTM_REQUIRE(c >= 0 && c < static_cast<ChannelId>(loads_.size()),
                "ChannelLoadMap::load: bad channel");
  return loads_[static_cast<std::size_t>(c)];
}

void ChannelLoadMap::clear() { std::fill(loads_.begin(), loads_.end(), 0.0); }

double ChannelLoadMap::maxLoad() const {
  double mx = 0;
  for (const double v : loads_) mx = std::max(mx, v);
  return mx;
}

double ChannelLoadMap::totalLoad() const {
  double s = 0;
  for (const double v : loads_) s += v;
  return s;
}

}  // namespace rahtm
