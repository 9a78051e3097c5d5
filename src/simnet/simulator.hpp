#pragma once
/// \file simulator.hpp
/// Cycle-level packet-switched torus network simulator.
///
/// This is the stand-in for the Mira BG/Q testbed (see DESIGN.md §1): a
/// k-ary n-torus with one router per node, per-output FIFO queues, links
/// transmitting one flit per cycle, and per-packet **minimal adaptive
/// routing** (each hop picks the least-occupied productive output, using
/// both directions of a dimension when the remaining offset is exactly half
/// the ring — the behaviour RAHTM's MAR approximation models). Processes
/// share their node's single injection link, so the concentration factor
/// creates realistic NIC contention; intra-node messages bypass the network
/// through a local port of 8 flits per cycle.
///
/// Simplifications (documented, deliberate):
///  * store-and-forward at packet granularity (bandwidth/contention faithful,
///    per-hop latency slightly pessimistic),
///  * unbounded router queues (ideal flow control — no deadlock machinery;
///    adaptivity senses congestion through queue occupancy).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "mapping/mapping.hpp"
#include "simnet/message.hpp"
#include "topology/torus.hpp"

namespace rahtm::simnet {

/// Total traffic carried by one directed physical channel over a run.
struct ChannelLoad {
  NodeId src = kInvalidNode;      ///< upstream node
  NodeId dst = kInvalidNode;      ///< downstream node
  std::int32_t dim = 0;           ///< torus dimension of the link
  std::int32_t dir = 0;           ///< 0 = plus, 1 = minus
  std::int64_t flits = 0;         ///< flits transmitted
};

/// One time-bucketed observation of global queue occupancy.
struct LinkLoadSample {
  std::int64_t cycle = 0;
  std::int64_t queuedFlits = 0;     ///< flits waiting across all link queues
  std::int64_t maxQueueFlits = 0;   ///< deepest single link queue
  std::int32_t activeLinks = 0;     ///< link queues with packets waiting
};

/// Per-channel load matrix plus a time-bucketed occupancy series, captured
/// when SimConfig::linkCapture points here. This is the raw material behind
/// `--link-heatmap`: contention hot-spots become inspectable per link and
/// over time instead of only summarized as MCL / histogram aggregates.
struct LinkLoadCapture {
  std::vector<ChannelLoad> channels;    ///< every valid directed channel
  std::vector<LinkLoadSample> samples;  ///< one per statSampleCycles tick
  std::int64_t sampleCycles = 0;        ///< sampling period actually used
};

/// Serialize a capture as JSON (schema "rahtm.simnet.link_heatmap/v1"):
/// topology shape, per-channel load matrix (src/dst node + coordinates,
/// dimension, direction, flits), occupancy time series.
void writeLinkHeatmapJson(std::ostream& os, const Torus& topo,
                          const LinkLoadCapture& capture);

enum class RoutingMode {
  /// Per-hop least-occupied minimal output, ties broken uniformly at random
  /// (BG/Q-like dynamic routing; without random tie-breaking every packet
  /// herds onto the same dimension while queues are still empty).
  MinimalAdaptive,
  /// Per-hop random minimal output, chosen with probability proportional to
  /// the number of minimal paths continuing through it — samples minimal
  /// Manhattan paths uniformly, i.e. exactly the paper's MAR approximation.
  UniformMinimal,
  /// Deterministic e-cube routing.
  DimensionOrder,
};

/// The fidelity ladder (DESIGN.md §12). `Cycle` is the packet-switched
/// cycle-level simulation — the measurement of record. `Flow` is a
/// flow-level analytic estimate: messages are routed through the
/// uniform-minimal path weights (the same RouteTable decomposition the
/// mapper optimizes against) and the makespan is estimated from the
/// binding bottleneck (busiest channel, NIC injection, local port, or the
/// longest store-and-forward message latency) per stage — no per-cycle
/// stepping, so it is orders of magnitude cheaper. Conservation quantities
/// (networkFlits, localFlits, flitHops, dimFlits) are exact under any
/// minimal routing; cycles and per-channel loads are estimates whose error
/// against the cycle sim is bounded by the `simnet_micro` ledger gate.
enum class SimFidelity {
  Cycle,
  Flow,
};

struct SimConfig {
  std::int32_t bytesPerFlit = 32;
  std::int32_t packetFlits = 16;        ///< message segmentation unit
  /// NIC injection bandwidth in flits/cycle. BG/Q nodes feed 10 torus links
  /// from wide injection FIFOs, so experiments model injection faster than
  /// a single link (the default 1 keeps unit tests easy to hand-analyze).
  std::int32_t injectionBandwidth = 1;
  RoutingMode routing = RoutingMode::MinimalAdaptive;
  std::uint64_t seed = 0xbadc0ffee;     ///< adaptive tie-break randomness
  /// Telemetry sampling period: every this many cycles, the occupancy of
  /// each valid link queue is observed into the
  /// "simnet.link_queue_flits" histogram (when a metrics registry is
  /// installed, obs::setMetrics) and into linkCapture's occupancy series
  /// (when set); zero disables sampling.
  std::int64_t statSampleCycles = 1024;
  /// When non-null, the simulator fills this with the per-channel load
  /// matrix and the time-bucketed occupancy series (see LinkLoadCapture).
  /// The pointer must stay valid for the whole simulate* call; repeated
  /// runs overwrite the capture. Flow mode fills the channel matrix with
  /// the analytic expected loads and leaves the time series empty.
  LinkLoadCapture* linkCapture = nullptr;
  /// Which rung of the fidelity ladder to run (see SimFidelity).
  SimFidelity fidelity = SimFidelity::Cycle;
  /// Cycle-mode worker threads (0 = all hardware threads; at most
  /// exec::kMaxThreads). The queue array is sharded by node partition with
  /// a fixed shard count, cross-shard packet handoffs travel through
  /// per-(src,dst)-shard mailboxes merged in index order, and each shard
  /// owns a pre-split RNG stream — the PhaseResult is bit-identical for
  /// every thread count, including 1. With more than one worker the run
  /// starts its own pool; a run started inside a pool task runs on one.
  int threads = 1;
};

struct PhaseResult {
  std::int64_t cycles = 0;        ///< phase makespan
  std::int64_t networkFlits = 0;  ///< flits that crossed at least one link
  std::int64_t localFlits = 0;    ///< flits delivered via the local port
  std::int64_t flitHops = 0;      ///< total link traversals
  double maxChannelFlits = 0;     ///< busiest link's traffic (measured MCL)
  double avgChannelFlits = 0;     ///< mean traffic over valid links
  /// Link traffic summed per torus dimension (dimFlits[d] is the total
  /// flit-hops carried by dimension-d links) — the final load distribution.
  std::vector<double> dimFlits;
};

/// Simulate one communication phase to completion.
/// \p mapping must be complete and valid for \p topo.
PhaseResult simulatePhase(const Torus& topo, const Mapping& mapping,
                          const Phase& phase, const SimConfig& config);

/// Simulate a full iteration of multi-stage communication with *per-rank*
/// dependencies (MPI semantics): rank r may post its stage-s messages once
/// all of its own stage-(s-1) sends and receives have completed. There is
/// no global barrier, so ranks skew and stages overlap in the network —
/// the behaviour that makes optimizing the aggregate communication matrix
/// (as RAHTM and IPM-based profiling do) meaningful. Compare with calling
/// simulatePhase per stage and summing, which models hard barriers.
PhaseResult simulateIteration(const Torus& topo, const Mapping& mapping,
                              const std::vector<Phase>& stages,
                              const SimConfig& config);

}  // namespace rahtm::simnet
