#include "simnet/simulator.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/spin_barrier.hpp"
#include "exec/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/delta_eval.hpp"
#include "topology/offset_table.hpp"

namespace rahtm::simnet {

namespace {

/// Flits per cycle through a node's local port (intra-node messages).
constexpr std::int32_t kLocalBandwidth = 8;
/// Livelock guard: no run of the cycle engine may reach this many cycles.
constexpr std::int64_t kMaxCycles = 500'000'000;

struct Packet {
  std::int32_t flits;
  NodeId dst;
  std::int32_t msgId;  ///< owning message (for dependency tracking)
};

enum class QueueKind : std::uint8_t { Link, Injection, Local };

/// No queue: the end of a timing-wheel slot's list.
constexpr std::int32_t kNoQueue = -1;

struct Queue {
  std::deque<Packet> packets;
  std::int64_t flitsCarried = 0;  ///< stats: flits transmitted on this queue
  // While it holds packets, the queue waits in its shard's timing wheel for
  // the cycle in which its head packet completes (see drainShard).
  std::int64_t due = 0;    ///< cycle whose drain sends the head's last flit
  std::int64_t stamp = 0;  ///< activation order within the owning shard
  std::int32_t spare = 0;  ///< bandwidth left in cycle `due` after the head
  std::int32_t nextInSlot = kNoQueue;  ///< next queue in the same slot
  NodeId node = kInvalidNode;     ///< owning node (Injection/Local) ...
  NodeId linkDst = kInvalidNode;  ///< ... or downstream node (Link)
  QueueKind kind = QueueKind::Link;
};

struct MessageState {
  RankId src;
  RankId dst;
  std::int32_t stage;
  std::int64_t flitsLeft;
  bool local;
};

/// A packet that completed its current queue and needs a routing decision
/// at node `at` (Injection/Link handoff). Produced by the drain phase,
/// consumed by the destination shard's route phase.
struct Handoff {
  Packet pkt;
  NodeId at;
};

/// A message's flits arriving at their destination this cycle. Produced by
/// the drain phase, consumed serially so rank advancement stays in one
/// deterministic global order.
struct Delivery {
  std::int32_t msgId;
  std::int32_t flits;
};

/// Slots of a shard's timing wheel. A head packet completes at most its
/// size in cycles after it is scheduled, so with packets of up to this many
/// flits (SimConfig's default packet size) every queue sits in the slot
/// drained in its due cycle; a queue with a longer head waits out whole
/// turns of the wheel in its slot.
constexpr std::size_t kWheelSlots = 16;
static_assert((kWheelSlots & (kWheelSlots - 1)) == 0, "power of two");

/// Per-shard mutable state, cache-line separated so neighbouring shards
/// driven by different workers do not false-share.
struct alignas(64) Shard {
  /// Slot i heads a list, linked through Queue::nextInSlot, of this
  /// shard's non-empty queues due in a cycle congruent to i modulo
  /// kWheelSlots.
  std::array<std::int32_t, kWheelSlots> wheel = [] {
    std::array<std::int32_t, kWheelSlots> empty{};
    empty.fill(kNoQueue);
    return empty;
  }();
  /// (stamp, queue) of the queues due this cycle, in stamp order.
  std::vector<std::pair<std::int64_t, std::int32_t>> due;
  std::vector<Delivery> deliveries;  ///< this cycle's arrivals, drain order
  Rng rng{0};                        ///< pre-split adaptive tie-break stream
  std::int64_t nextStamp = 0;
  std::int64_t networkFlits = 0;
  std::int64_t localFlits = 0;
  std::int64_t flitHops = 0;
};

/// One (src shard -> dst shard) mailbox, padded like Shard: during the
/// route phase adjacent boxes are drained by different workers.
struct alignas(64) Mailbox {
  std::vector<Handoff> box;
};

/// Multi-stage network simulation with per-rank stage dependencies.
/// A single stage degenerates to barrier semantics (simulatePhase).
///
/// Parallel cycle stepping (DESIGN.md §12): the queue array is sharded by a
/// contiguous node partition whose shard count depends only on the topology
/// — never on the thread count — and every simulated cycle runs as three
/// phases separated by spin barriers:
///
///   A. drain   (parallel, shard-local): each shard visits the queues whose
///      head packet completes this cycle, in the order the queues became
///      non-empty (its timing wheel; see drainShard). Completed packets
///      become Handoffs in per-(src,dst)-shard mailboxes or Deliveries in
///      the shard's arrival list; no queue outside the shard is read or
///      written.
///   B. route   (parallel, shard-local): each shard consumes its non-empty
///      incoming mailboxes in source-shard index order, making routing
///      decisions (which read only this shard's queue occupancies and
///      consume only this shard's pre-split RNG stream) and enqueueing
///      locally.
///   C. deliver (serial): arrivals are applied in shard index order — rank
///      stage advancement and the resulting injections happen in one global
///      deterministic order.
///
/// Work only moves across shards through the index-order-merged mailboxes
/// and the serial delivery phase, so the PhaseResult is bit-identical for
/// every worker count, including 1 (where the barriers degenerate to a few
/// uncontended atomic operations).
///
/// Deliberate semantic refinement over the old single-pass loop: adaptive
/// routing decisions for packets handed off in cycle t observe queue
/// occupancies after cycle t's drain (phase B follows phase A) instead of a
/// processing-order-dependent mid-drain snapshot, and a message's packets
/// released at phase start are interleaved round-robin with co-located
/// ranks' packets at the shared NIC (see loadStages).
class IterationSim {
 public:
  IterationSim(const Torus& topo, const Mapping& mapping,
               const SimConfig& config)
      : topo_(topo), mapping_(mapping), cfg_(config), offsets_(topo) {
    const std::size_t slots = static_cast<std::size_t>(topo.numChannelSlots());
    const std::size_t nodes = static_cast<std::size_t>(topo.numNodes());
    const std::size_t ndims = topo.ndims();
    queues_.resize(slots + 2 * nodes);
    RAHTM_REQUIRE(queues_.size() <= static_cast<std::size_t>(INT32_MAX),
                  "simulate: topology too large");
    occupancy_.assign(queues_.size(), 0);
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
      const Coord c = topo.coordOf(n);
      for (std::size_t d = 0; d < ndims; ++d) {
        for (const Dir dir : {Dir::Plus, Dir::Minus}) {
          const auto nb = topo.neighbor(c, d, dir);
          if (!nb) continue;
          Queue& q = queues_[static_cast<std::size_t>(topo.channelId(n, d, dir))];
          q.kind = QueueKind::Link;
          q.node = n;
          q.linkDst = topo.nodeId(*nb);
        }
      }
      queues_[slots + static_cast<std::size_t>(n)].kind = QueueKind::Injection;
      queues_[slots + static_cast<std::size_t>(n)].node = n;
      queues_[slots + nodes + static_cast<std::size_t>(n)].kind = QueueKind::Local;
      queues_[slots + nodes + static_cast<std::size_t>(n)].node = n;
    }
    slots_ = slots;
    nodes_ = nodes;

    // Shard layout: a balanced contiguous node partition. The shard count
    // is a pure function of the topology — thread counts only decide how
    // shards are distributed over workers, never where state lives or in
    // which order it merges.
    shardCount_ = static_cast<int>(std::min<std::size_t>(kMaxShards, nodes));
    shardCount_ = std::max(shardCount_, 1);
    shardOfNode_.resize(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
      shardOfNode_[n] = static_cast<std::int32_t>(
          n * static_cast<std::size_t>(shardCount_) / nodes);
    }
    shardOfQueue_.resize(queues_.size());
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      const std::size_t owner =
          i < slots_ ? i / (topo_.ndims() * 2)
                     : (i < slots_ + nodes_ ? i - slots_ : i - slots_ - nodes_);
      shardOfQueue_[i] = shardOfNode_[owner];
    }
    shards_.resize(static_cast<std::size_t>(shardCount_));
    mail_.resize(static_cast<std::size_t>(shardCount_) *
                 static_cast<std::size_t>(shardCount_));
    // Pre-split one RNG stream per shard: shard s's draws are consumed only
    // by routing decisions made at shard s's nodes, in mailbox merge order.
    Rng root(cfg_.seed);
    for (Shard& s : shards_) s.rng = root.split();

    // Telemetry hooks are resolved once here: sampling inside the cycle
    // loop must not pay the registry lookup per cycle.
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      hQueue_ = &reg->histogram("simnet.link_queue_flits",
                                obs::expBuckets(1, 2, 16));
      hChan_ = &reg->histogram("simnet.link_channel_flits",
                               obs::expBuckets(16, 2, 24));
    }
    accountBytes();
  }

  PhaseResult run(const std::vector<Phase>& stages) {
    obs::ScopedSpan span(obs::tracer(), "simnet.run", "simnet");
    obs::PhaseScope phase("simnet.run");
    span.attr("stages", static_cast<std::int64_t>(stages.size()));
    loadStages(stages);
    if (cfg_.linkCapture != nullptr) {
      cfg_.linkCapture->channels.clear();
      cfg_.linkCapture->samples.clear();
      cfg_.linkCapture->sampleCycles = cfg_.statSampleCycles;
    }
    sampling_ = (hQueue_ != nullptr || cfg_.linkCapture != nullptr) &&
                cfg_.statSampleCycles > 0;

    // Worker count: bounded by the shard count, and forced to 1 when we are
    // already inside a pool region (a nested parallelFor runs inline on one
    // thread, which would deadlock the barrier).
    int requested = exec::ThreadPool::resolveThreads(cfg_.threads);
    if (exec::ThreadPool::inParallelRegion()) requested = 1;
    workers_ = std::max(1, std::min(requested, shardCount_));
    barrier_.emplace(workers_);

    cycle_ = 0;
    done_ = false;
    if (remaining_ <= 0) {
      done_ = true;
    } else {
      if (sampling_) sampleQueueOccupancy(0);
      liveness(0);
    }
    const auto body = [this](std::size_t w) { workerBody(static_cast<int>(w)); };
    if (workers_ > 1) {
      exec::ThreadPool own(workers_);
      own.parallelFor(static_cast<std::size_t>(workers_), body);
    } else {
      workerBody(0);
    }
    span.attr("sim_workers", static_cast<std::int64_t>(workers_));
    if (error_) std::rethrow_exception(error_);
    accountBytes();  // mailbox / wheel growth during the run

    PhaseResult result;
    result.cycles = cycle_;
    for (const Shard& s : shards_) {
      result.networkFlits += s.networkFlits;
      result.localFlits += s.localFlits;
      result.flitHops += s.flitHops;
    }
    // Closing occupancy sample: the loop samples only on statSampleCycles
    // boundaries, which misses the endgame drain (and leaves sub-period
    // runs with just the cycle-0 point). One final observation at the
    // makespan closes the series before stats are finalized.
    if (sampling_) sampleQueueOccupancy(cycle_);
    double maxCh = 0;
    double sumCh = 0;
    std::int64_t validCh = 0;
    result.dimFlits.assign(topo_.ndims(), 0.0);
    for (std::size_t i = 0; i < slots_; ++i) {
      const Queue& q = queues_[i];
      if (q.linkDst == kInvalidNode) continue;
      ++validCh;
      sumCh += static_cast<double>(q.flitsCarried);
      maxCh = std::max(maxCh, static_cast<double>(q.flitsCarried));
      // Channel ids are laid out (node * ndims + dim) * 2 + dir.
      result.dimFlits[(i >> 1) % topo_.ndims()] +=
          static_cast<double>(q.flitsCarried);
      if (hChan_) hChan_->observe(static_cast<double>(q.flitsCarried));
      if (cfg_.linkCapture != nullptr) {
        ChannelLoad cl;
        cl.src = q.node;
        cl.dst = q.linkDst;
        cl.dim = static_cast<std::int32_t>((i >> 1) % topo_.ndims());
        cl.dir = static_cast<std::int32_t>(i & 1);
        cl.flits = q.flitsCarried;
        cfg_.linkCapture->channels.push_back(cl);
      }
    }
    result.maxChannelFlits = maxCh;
    result.avgChannelFlits = validCh ? sumCh / static_cast<double>(validCh) : 0;
    span.attr("cycles", result.cycles);
    span.attr("network_flits", result.networkFlits);
    span.attr("max_channel_flits", result.maxChannelFlits);
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      reg->counter("simnet.runs").add(1);
      reg->counter("simnet.cycles").add(result.cycles);
      reg->counter("simnet.network_flits").add(result.networkFlits);
      reg->counter("simnet.local_flits").add(result.localFlits);
      reg->counter("simnet.flit_hops").add(result.flitHops);
      for (std::size_t d = 0; d < result.dimFlits.size(); ++d) {
        reg->gauge("simnet.dim_flits." + std::to_string(d))
            .set(result.dimFlits[d]);
      }
    }
    return result;
  }

 private:
  static constexpr std::size_t kMaxShards = 16;
  static_assert(kMaxShards <= 32, "mailMask_ holds a shard per bit");

  /// A packet staged during the phase-0 release, before the per-queue
  /// round-robin merge (see loadStages).
  struct StagedPacket {
    std::ptrdiff_t queue;  ///< target queue index
    std::int32_t seq;      ///< position within its rank's train for `queue`
    Packet pkt;
  };

  void loadStages(const std::vector<Phase>& stages) {
    const auto ranks = static_cast<std::size_t>(mapping_.numRanks());
    numStages_ = static_cast<std::int32_t>(stages.size());
    messages_.clear();
    sentBy_.assign(ranks, {});
    nextSend_.assign(ranks, 0);
    pendingSend_.assign(ranks, std::vector<std::int32_t>(stages.size(), 0));
    pendingRecv_.assign(ranks, std::vector<std::int32_t>(stages.size(), 0));
    rankStage_.assign(ranks, -1);
    remaining_ = 0;

    for (std::size_t s = 0; s < stages.size(); ++s) {
      for (const Message& msg : stages[s]) {
        RAHTM_REQUIRE(msg.src >= 0 && msg.src < mapping_.numRanks() &&
                          msg.dst >= 0 && msg.dst < mapping_.numRanks(),
                      "simulate: message rank out of range");
        RAHTM_REQUIRE(msg.bytes >= 0, "simulate: negative message size");
        const NodeId srcNode = mapping_.nodeOf(msg.src);
        const NodeId dstNode = mapping_.nodeOf(msg.dst);
        RAHTM_REQUIRE(srcNode >= 0 && srcNode < static_cast<NodeId>(nodes_) &&
                          dstNode >= 0 && dstNode < static_cast<NodeId>(nodes_),
                      "simulate: rank mapped off-topology");
        MessageState m;
        m.src = msg.src;
        m.dst = msg.dst;
        m.stage = static_cast<std::int32_t>(s);
        m.flitsLeft = std::max<std::int64_t>(
            1, (msg.bytes + cfg_.bytesPerFlit - 1) / cfg_.bytesPerFlit);
        m.local = (srcNode == dstNode);
        const auto id = static_cast<std::int32_t>(messages_.size());
        messages_.push_back(m);
        sentBy_[static_cast<std::size_t>(msg.src)].push_back(id);
        ++pendingSend_[static_cast<std::size_t>(msg.src)][s];
        ++pendingRecv_[static_cast<std::size_t>(msg.dst)][s];
        remaining_ += m.flitsLeft;  // counted in flits for simplicity
      }
    }

    // Release stage 0 for every rank (cascades past empty stages). The
    // packets are first staged per rank, then co-located ranks' trains are
    // merged round-robin per shared queue — packet k of every rank before
    // packet k+1 of any — so ranks sharing a node share the NIC fairly
    // instead of rank r's entire train queueing ahead of rank r+1's.
    loading_ = true;
    staged_.clear();
    for (std::size_t r = 0; r < ranks; ++r) {
      stagedSeqInj_ = 0;
      stagedSeqLoc_ = 0;
      advanceRank(static_cast<RankId>(r), -1);
    }
    loading_ = false;
    std::stable_sort(staged_.begin(), staged_.end(),
                     [](const StagedPacket& a, const StagedPacket& b) {
                       if (a.queue != b.queue) return a.queue < b.queue;
                       return a.seq < b.seq;
                     });
    for (const StagedPacket& sp : staged_) enqueue(sp.queue, sp.pkt, -1);
    staged_.clear();
    // Post-load is the queue population's high-water mark for typical
    // phases (every released packet is enqueued, nothing has drained yet).
    accountBytes();
  }

  /// Recompute the footprint charged to the simnet account: the sharded
  /// queue array with its live packets and occupancies, the offset table,
  /// mailboxes, message table and per-rank dependency state. Called at
  /// construction, after stage loading and at end-of-run — never inside
  /// the cycle loop.
  void accountBytes() {
    std::size_t b = queues_.capacity() * sizeof(Queue) +
                    occupancy_.capacity() * sizeof(std::int64_t) +
                    static_cast<std::size_t>(offsets_.footprintBytes());
    for (const Queue& q : queues_) b += q.packets.size() * sizeof(Packet);
    b += shardOfNode_.capacity() * sizeof(std::int32_t) +
         shardOfQueue_.capacity() * sizeof(std::int32_t) +
         shards_.capacity() * sizeof(Shard) + mail_.capacity() * sizeof(Mailbox);
    for (const Shard& s : shards_) {
      b += s.due.capacity() * sizeof(s.due[0]) +
           s.deliveries.capacity() * sizeof(Delivery);
    }
    for (const Mailbox& mb : mail_) b += mb.box.capacity() * sizeof(Handoff);
    b += nextSend_.capacity() * sizeof(std::size_t);
    b += messages_.capacity() * sizeof(MessageState) +
         rankStage_.capacity() * sizeof(std::int32_t) +
         staged_.capacity() * sizeof(StagedPacket);
    for (const auto& v : sentBy_) b += v.capacity() * sizeof(std::int32_t);
    for (const auto& v : pendingSend_) b += v.capacity() * sizeof(std::int32_t);
    for (const auto& v : pendingRecv_) b += v.capacity() * sizeof(std::int32_t);
    b += (sentBy_.capacity() + pendingSend_.capacity() +
          pendingRecv_.capacity()) *
         sizeof(std::vector<std::int32_t>);
    mem_.set(static_cast<std::int64_t>(b));
  }

  /// Inject every stage-\p s message of \p rank. sentBy_[rank] lists the
  /// rank's messages in stage order and advanceRank injects stages in
  /// increasing order, so they are the run starting at the rank's cursor.
  void injectRank(RankId rank, std::int32_t s, std::int64_t cycle) {
    const NodeId node = mapping_.nodeOf(rank);
    const auto r = static_cast<std::size_t>(rank);
    const std::vector<std::int32_t>& ids = sentBy_[r];
    std::size_t& next = nextSend_[r];
    for (; next < ids.size() &&
           messages_[static_cast<std::size_t>(ids[next])].stage == s;
         ++next) {
      const std::int32_t id = ids[next];
      const MessageState& m = messages_[static_cast<std::size_t>(id)];
      const std::ptrdiff_t qIdx =
          m.local ? static_cast<std::ptrdiff_t>(slots_ + nodes_ +
                                                static_cast<std::size_t>(node))
                  : static_cast<std::ptrdiff_t>(slots_ +
                                                static_cast<std::size_t>(node));
      std::int64_t flits = m.flitsLeft;
      const NodeId dstNode = mapping_.nodeOf(m.dst);
      while (flits > 0) {
        const auto p = static_cast<std::int32_t>(
            std::min<std::int64_t>(flits, cfg_.packetFlits));
        if (loading_) {
          std::int32_t& seq = m.local ? stagedSeqLoc_ : stagedSeqInj_;
          staged_.push_back(StagedPacket{qIdx, seq++, Packet{p, dstNode, id}});
        } else {
          enqueue(qIdx, Packet{p, dstNode, id}, cycle);
        }
        flits -= p;
      }
    }
  }

  /// Advance \p rank past every stage whose sends and receives are done.
  void advanceRank(RankId rank, std::int64_t cycle) {
    auto& stage = rankStage_[static_cast<std::size_t>(rank)];
    while (stage + 1 < numStages_) {
      if (stage >= 0) {
        const auto s = static_cast<std::size_t>(stage);
        if (pendingSend_[static_cast<std::size_t>(rank)][s] > 0 ||
            pendingRecv_[static_cast<std::size_t>(rank)][s] > 0) {
          return;
        }
      }
      ++stage;
      injectRank(rank, stage, cycle);
    }
  }

  std::int32_t bandwidth(const Queue& q) const {
    switch (q.kind) {
      case QueueKind::Local: return kLocalBandwidth;
      case QueueKind::Injection: return cfg_.injectionBandwidth;
      case QueueKind::Link: break;
    }
    return 1;
  }

  /// Put queue \p qIdx into the wheel for the completion of its head
  /// packet, of which \p left flits are unsent at the end of \p cycle: the
  /// queue sends its bandwidth every cycle, so the head completes
  /// n = ceil(left / bw) cycles later with n·bw − left of that cycle's
  /// bandwidth to spare.
  void schedule(Shard& shard, std::size_t qIdx, std::int64_t cycle,
                std::int32_t left) {
    Queue& q = queues_[qIdx];
    const std::int64_t bw = bandwidth(q);
    const std::int64_t n = (left + bw - 1) / bw;
    q.due = cycle + n;
    q.spare = static_cast<std::int32_t>(n * bw - left);
    std::int32_t& slot =
        shard.wheel[static_cast<std::size_t>(q.due) & (kWheelSlots - 1)];
    q.nextInSlot = slot;
    slot = static_cast<std::int32_t>(qIdx);
  }

  /// Append \p pkt to a queue in \p cycle. Enqueues happen after the
  /// cycle's drain (or before the first), so a queue that becomes non-empty
  /// starts sending its head in the next cycle.
  void enqueue(std::ptrdiff_t qIdx, const Packet& pkt, std::int64_t cycle) {
    const auto i = static_cast<std::size_t>(qIdx);
    Queue& q = queues_[i];
    occupancy_[i] += pkt.flits;
    q.packets.push_back(pkt);
    if (q.packets.size() == 1) {
      Shard& shard = shards_[static_cast<std::size_t>(shardOfQueue_[i])];
      q.stamp = shard.nextStamp++;
      schedule(shard, i, cycle, pkt.flits);
    }
  }

  /// Pick the output channel queue at \p at for a packet headed to \p dst,
  /// drawing tie-break randomness from \p rng (the owning shard's stream).
  /// Every routing mode reads the one list of minimal outputs of the
  /// (at, dst) offset class, in its order: dimensions ascending, each
  /// canonical direction before its tie partner.
  std::size_t chooseOutput(NodeId at, NodeId dst, Rng& rng) {
    const std::span<const OffsetTable::Output> outs = offsets_.outputs(at, dst);
    RAHTM_REQUIRE(!outs.empty(), "chooseOutput: no productive channel");
    // Channel ids are laid out (node * ndims + dim) * 2 + dir.
    const std::size_t base = static_cast<std::size_t>(at) * topo_.ndims() * 2;
    if (cfg_.routing == RoutingMode::DimensionOrder) return base + outs[0].slot;

    if (cfg_.routing == RoutingMode::UniformMinimal) {
      // Sample the next hop with probability proportional to the number of
      // minimal paths continuing through it; tie directions split their
      // dimension's weight evenly.
      const auto weight = [](const OffsetTable::Output& o) {
        return static_cast<double>(o.steps) / (o.tie ? 2 : 1);
      };
      double weightSum = 0;
      for (const OffsetTable::Output& o : outs) weightSum += weight(o);
      double pick = rng.nextDouble() * weightSum;
      for (const OffsetTable::Output& o : outs) {
        pick -= weight(o);
        if (pick <= 0) return base + o.slot;
      }
      return base + outs.back().slot;
    }

    // MinimalAdaptive: least-occupied candidate, uniform random tie-break
    // (without it every packet herds onto the first dimension while queues
    // are still empty).
    std::size_t best = SIZE_MAX;
    std::int64_t bestOcc = 0;
    std::size_t tieCount = 0;
    for (const OffsetTable::Output& o : outs) {
      const std::size_t idx = base + o.slot;
      const std::int64_t occ = occupancy_[idx];
      if (best == SIZE_MAX || occ < bestOcc) {
        best = idx;
        bestOcc = occ;
        tieCount = 1;
      } else if (occ == bestOcc) {
        ++tieCount;
        if (rng.nextBounded(tieCount) == 0) best = idx;  // reservoir pick
      }
    }
    return best;
  }

  void deliverFlits(std::int32_t msgId, std::int32_t flits,
                    std::int64_t cycle) {
    remaining_ -= flits;
    MessageState& m = messages_[static_cast<std::size_t>(msgId)];
    m.flitsLeft -= flits;
    RAHTM_REQUIRE(m.flitsLeft >= 0, "simulate: over-delivered message");
    if (m.flitsLeft == 0) {
      const auto s = static_cast<std::size_t>(m.stage);
      --pendingSend_[static_cast<std::size_t>(m.src)][s];
      --pendingRecv_[static_cast<std::size_t>(m.dst)][s];
      advanceRank(m.src, cycle);
      if (m.dst != m.src) advanceRank(m.dst, cycle);
    }
  }

  /// Observe the occupancy of every valid link queue (telemetry sample),
  /// into the histogram and/or the link-capture time series.
  void sampleQueueOccupancy(std::int64_t cycle) {
    LinkLoadSample sample;
    sample.cycle = cycle;
    for (std::size_t i = 0; i < slots_; ++i) {
      const Queue& q = queues_[i];
      if (q.linkDst == kInvalidNode) continue;
      const std::int64_t queued = occupancy_[i];
      if (hQueue_ != nullptr) hQueue_->observe(static_cast<double>(queued));
      sample.queuedFlits += queued;
      sample.maxQueueFlits = std::max(sample.maxQueueFlits, queued);
      if (!q.packets.empty()) ++sample.activeLinks;
    }
    if (cfg_.linkCapture != nullptr) cfg_.linkCapture->samples.push_back(sample);
  }

  void liveness(std::int64_t c) {
    // Batched: one striped fetch_add per 64 cycles, a ring event per 4096.
    if ((c & 63) == 0) {
      obs::Heartbeats::instance().beat(obs::Pulse::SimnetCycles, 64);
      if ((c & 4095) == 0) {
        obs::FlightRecorder::instance().record(obs::FrEvent::SimnetEpoch, c,
                                               remaining_);
      }
    }
  }

  /// Phase A: complete this shard's head packets due this cycle. A queue's
  /// observable state (its occupancy, deliveries and handoffs) changes only
  /// when a packet completes, so only queues whose head completes this
  /// cycle are visited, in the order they became non-empty — the order a
  /// list of non-empty queues, appended on activation, would visit them.
  /// Completed packets become mailbox handoffs or deliveries; no other
  /// shard's state is touched, so all shards drain concurrently.
  void drainShard(int s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::int64_t cycle = cycle_;
    std::int32_t* link =
        &shard.wheel[static_cast<std::size_t>(cycle) & (kWheelSlots - 1)];
    if (*link == kNoQueue) {  // nothing completes, so nothing is mailed
      mailMask_[static_cast<std::size_t>(s)] = 0;
      return;
    }
    // Unlink the queues due this cycle before visiting them: a visit may
    // put its queue back into this same slot.
    shard.due.clear();
    while (*link != kNoQueue) {
      Queue& q = queues_[static_cast<std::size_t>(*link)];
      if (q.due == cycle) {
        shard.due.emplace_back(q.stamp, *link);
        *link = q.nextInSlot;
      } else {
        link = &q.nextInSlot;
      }
    }
    std::sort(shard.due.begin(), shard.due.end());

    std::uint32_t mailed = 0;
    for (const auto& [stamp, qIdx] : shard.due) {
      Queue& q = queues_[static_cast<std::size_t>(qIdx)];
      // The head completes with q.spare of this cycle's bandwidth left;
      // later packets that fit in it complete too, and the first that does
      // not starts sending with what remains.
      std::int32_t budget = q.spare;
      for (;;) {
        const Packet done = q.packets.front();
        q.packets.pop_front();
        occupancy_[static_cast<std::size_t>(qIdx)] -= done.flits;
        q.flitsCarried += done.flits;
        switch (q.kind) {
          case QueueKind::Local:
            shard.localFlits += done.flits;
            shard.deliveries.push_back(Delivery{done.msgId, done.flits});
            break;
          case QueueKind::Injection:
          case QueueKind::Link: {
            const NodeId here =
                q.kind == QueueKind::Injection ? q.node : q.linkDst;
            if (q.kind == QueueKind::Link) {
              shard.flitHops += done.flits;
            } else {
              shard.networkFlits += done.flits;
            }
            if (here == done.dst) {
              shard.deliveries.push_back(Delivery{done.msgId, done.flits});
            } else {
              const auto t = static_cast<std::size_t>(
                  shardOfNode_[static_cast<std::size_t>(here)]);
              mail_[static_cast<std::size_t>(s) *
                        static_cast<std::size_t>(shardCount_) +
                    t]
                  .box.push_back(Handoff{done, here});
              mailed |= 1u << t;
            }
            break;
          }
        }
        if (q.packets.empty()) break;
        const std::int32_t next = q.packets.front().flits;
        if (next > budget) {
          schedule(shard, static_cast<std::size_t>(qIdx), cycle,
                   next - budget);
          break;
        }
        budget -= next;
      }
    }
    mailMask_[static_cast<std::size_t>(s)] = mailed;
  }

  /// Phase B: consume this shard's incoming mailboxes in source-shard index
  /// order, routing each packet at its arrival node. Occupancy reads, RNG
  /// draws and enqueues all stay within this shard.
  void routeShard(int t) {
    Shard& shard = shards_[static_cast<std::size_t>(t)];
    const std::int64_t cycle = cycle_;
    // Bit s: mailbox (s, t) has handoffs. Gathered without a branch per
    // source shard, then visited in ascending s.
    std::uint32_t from = 0;
    for (int s = 0; s < shardCount_; ++s) {
      from |= (mailMask_[static_cast<std::size_t>(s)] >> t & 1u) << s;
    }
    for (; from != 0; from &= from - 1) {
      const int s = std::countr_zero(from);
      auto& box = mail_[static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(shardCount_) +
                        static_cast<std::size_t>(t)]
                      .box;
      for (const Handoff& h : box) {
        const std::size_t out = chooseOutput(h.at, h.pkt.dst, shard.rng);
        enqueue(static_cast<std::ptrdiff_t>(out), h.pkt, cycle);
      }
      box.clear();
    }
  }

  /// Phase C (worker 0 only): apply arrivals in shard index order, advance
  /// the cycle, and prepare the next cycle's bookkeeping.
  void serialTail() {
    if (!aborted_.load(std::memory_order_relaxed)) {
      try {
        for (Shard& s : shards_) {
          for (const Delivery& d : s.deliveries) {
            deliverFlits(d.msgId, d.flits, cycle_);
          }
          s.deliveries.clear();
        }
      } catch (...) {
        recordError();
      }
    }
    ++cycle_;
    if (aborted_.load(std::memory_order_relaxed) || remaining_ <= 0) {
      done_ = true;
      return;
    }
    try {
      RAHTM_REQUIRE(cycle_ < kMaxCycles,
                    "simulate: cycle guard exceeded (livelock?)");
    } catch (...) {
      recordError();
      done_ = true;
      return;
    }
    if (sampling_ && cycle_ % cfg_.statSampleCycles == 0) {
      sampleQueueOccupancy(cycle_);
    }
    liveness(cycle_);
  }

  void recordError() {
    std::lock_guard<std::mutex> lk(errMu_);
    if (!error_) error_ = std::current_exception();
    aborted_.store(true, std::memory_order_relaxed);
  }

  /// The per-worker cycle loop. Worker w owns shards {w, w+W, w+2W, ...};
  /// `done_`/`cycle_` are written only in the serial phase and every read
  /// is separated from that write by a barrier crossing.
  void workerBody(int w) {
    for (;;) {
      barrier_->arriveAndWait();
      if (done_) break;
      if (!aborted_.load(std::memory_order_relaxed)) {
        try {
          for (int s = w; s < shardCount_; s += workers_) drainShard(s);
        } catch (...) {
          recordError();
        }
      }
      barrier_->arriveAndWait();
      if (!aborted_.load(std::memory_order_relaxed)) {
        try {
          for (int t = w; t < shardCount_; t += workers_) routeShard(t);
        } catch (...) {
          recordError();
        }
      }
      barrier_->arriveAndWait();
      if (w == 0) serialTail();
    }
  }

  const Torus& topo_;
  const Mapping& mapping_;
  SimConfig cfg_;
  const OffsetTable offsets_;
  std::vector<Queue> queues_;
  /// Flits waiting in each queue (the adaptive-routing signal), indexed
  /// like queues_. Written wherever the queue itself is: by its owning
  /// shard in phases A and B, and by phase C's injections.
  std::vector<std::int64_t> occupancy_;
  std::size_t slots_ = 0;
  std::size_t nodes_ = 0;

  int shardCount_ = 1;
  std::vector<std::int32_t> shardOfNode_;
  std::vector<std::int32_t> shardOfQueue_;
  std::vector<Shard> shards_;
  std::vector<Mailbox> mail_;  ///< [srcShard * shardCount_ + dstShard]
  /// Bit t of entry s: mailbox (s, t) got handoffs in this cycle's drain.
  /// Written by shard s in phase A, read by every shard in phase B.
  std::array<std::uint32_t, kMaxShards> mailMask_{};

  std::vector<MessageState> messages_;
  std::vector<std::vector<std::int32_t>> sentBy_;
  std::vector<std::size_t> nextSend_;  ///< per rank: next sentBy_ entry
  std::vector<std::vector<std::int32_t>> pendingSend_;
  std::vector<std::vector<std::int32_t>> pendingRecv_;
  std::vector<std::int32_t> rankStage_;
  std::int32_t numStages_ = 0;
  std::int64_t remaining_ = 0;  ///< undelivered flits

  bool loading_ = false;  ///< stage-0 release: defer enqueues into staged_
  std::vector<StagedPacket> staged_;
  obs::MemAccount mem_{obs::MemAccountId::Simnet};
  std::int32_t stagedSeqInj_ = 0;
  std::int32_t stagedSeqLoc_ = 0;

  // Cycle-loop state. Written by worker 0's serial phase, read by every
  // worker strictly after a barrier crossing.
  std::int64_t cycle_ = 0;
  bool done_ = false;
  bool sampling_ = false;
  int workers_ = 1;
  std::optional<exec::SpinBarrier> barrier_;
  std::atomic<bool> aborted_{false};
  std::mutex errMu_;
  std::exception_ptr error_;

  // Telemetry (null when no metrics registry is installed).
  obs::Histogram* hQueue_ = nullptr;
  obs::Histogram* hChan_ = nullptr;
};

/// Flow-level analytic estimate (SimFidelity::Flow): route every message
/// through the uniform-minimal RouteTable decomposition — the same MAR path
/// weights the mapper optimizes against — and charge each stage the binding
/// bottleneck instead of stepping cycles:
///
///   stage cycles = max( busiest channel's expected flits,
///                       busiest NIC's injected flits / injectionBandwidth,
///                       busiest local port's flits / kLocalBandwidth,
///                       longest single-message store-and-forward latency )
///
/// Stages are summed (barrier semantics): the per-rank pipelining the cycle
/// sim models across stages is deliberately ignored, which biases the
/// estimate high on multi-stage runs. Conservation quantities
/// (networkFlits, localFlits, flitHops, dimFlits) are exact because every
/// minimal route crosses the same per-dimension hop counts; cycles and
/// per-channel loads are estimates gated against the cycle sim by the
/// `simnet_micro` ledger.
PhaseResult runFlow(const Torus& topo, const Mapping& mapping,
                    const std::vector<Phase>& stages, const SimConfig& cfg) {
  obs::ScopedSpan span(obs::tracer(), "simnet.flow", "simnet");
  obs::PhaseScope phase("simnet.flow");
  span.attr("stages", static_cast<std::int64_t>(stages.size()));

  const auto nodes = static_cast<std::size_t>(topo.numNodes());
  const auto slots = static_cast<std::size_t>(topo.numChannelSlots());
  const RouteTable routes(topo);
  const OffsetTable offsets(topo);
  std::vector<double> total(slots, 0.0);
  std::vector<double> stage(slots, 0.0);
  std::vector<std::int64_t> inj(nodes, 0);
  std::vector<std::int64_t> loc(nodes, 0);
  const auto ceilDiv = [](std::int64_t a, std::int64_t b) {
    return (a + b - 1) / b;
  };

  PhaseResult r;
  r.dimFlits.assign(topo.ndims(), 0.0);
  for (const Phase& ph : stages) {
    std::fill(inj.begin(), inj.end(), 0);
    std::fill(loc.begin(), loc.end(), 0);
    std::int64_t maxLat = 0;
    for (const Message& msg : ph) {
      RAHTM_REQUIRE(msg.src >= 0 && msg.src < mapping.numRanks() &&
                        msg.dst >= 0 && msg.dst < mapping.numRanks(),
                    "simulate: message rank out of range");
      RAHTM_REQUIRE(msg.bytes >= 0, "simulate: negative message size");
      const NodeId srcNode = mapping.nodeOf(msg.src);
      const NodeId dstNode = mapping.nodeOf(msg.dst);
      RAHTM_REQUIRE(srcNode >= 0 && srcNode < static_cast<NodeId>(nodes) &&
                        dstNode >= 0 && dstNode < static_cast<NodeId>(nodes),
                    "simulate: rank mapped off-topology");
      const std::int64_t flits = std::max<std::int64_t>(
          1, (msg.bytes + cfg.bytesPerFlit - 1) / cfg.bytesPerFlit);
      if (srcNode == dstNode) {
        loc[static_cast<std::size_t>(srcNode)] += flits;
        r.localFlits += flits;
        maxLat = std::max(maxLat, ceilDiv(flits, kLocalBandwidth));
        continue;
      }
      inj[static_cast<std::size_t>(srcNode)] += flits;
      r.networkFlits += flits;
      const std::int32_t dist = offsets.distance(srcNode, dstNode);
      r.flitHops += flits * dist;
      addRoute(routes.find(srcNode, dstNode), static_cast<double>(flits),
               stage.data());
      // Store-and-forward critical path of the message alone: full
      // serialization through the NIC, then the trailing packet crosses
      // dist links at one flit per cycle per link.
      maxLat = std::max(maxLat,
                        ceilDiv(flits, cfg.injectionBandwidth) +
                            static_cast<std::int64_t>(dist) *
                                std::min<std::int64_t>(cfg.packetFlits, flits));
    }
    // One dense pass closes the stage: a channel no message crossed holds
    // zero, which moves neither the bound nor its running total.
    double chBound = 0;
    for (std::size_t c = 0; c < slots; ++c) {
      chBound = std::max(chBound, stage[c]);
      total[c] += stage[c];
      stage[c] = 0.0;
    }
    std::int64_t injBound = 0;
    std::int64_t locBound = 0;
    for (std::size_t n = 0; n < nodes; ++n) {
      if (inj[n] > 0) {
        injBound = std::max(injBound, ceilDiv(inj[n], cfg.injectionBandwidth));
      }
      if (loc[n] > 0) {
        locBound = std::max(locBound, ceilDiv(loc[n], kLocalBandwidth));
      }
    }
    std::int64_t stageCycles =
        static_cast<std::int64_t>(std::ceil(chBound));
    stageCycles = std::max({stageCycles, injBound, locBound, maxLat});
    r.cycles += stageCycles;
  }

  if (cfg.linkCapture != nullptr) {
    cfg.linkCapture->channels.clear();
    cfg.linkCapture->samples.clear();  // no time series without cycles
    cfg.linkCapture->sampleCycles = 0;
  }
  double maxCh = 0;
  double sumCh = 0;
  std::int64_t validCh = 0;
  for (NodeId n = 0; n < topo.numNodes(); ++n) {
    for (std::size_t d = 0; d < topo.ndims(); ++d) {
      for (const Dir dir : {Dir::Plus, Dir::Minus}) {
        if (!topo.channelValid(n, d, dir)) continue;
        const ChannelId id = topo.channelId(n, d, dir);
        const double load = total[static_cast<std::size_t>(id)];
        ++validCh;
        sumCh += load;
        maxCh = std::max(maxCh, load);
        r.dimFlits[d] += load;
        if (cfg.linkCapture != nullptr) {
          ChannelLoad cl;
          cl.src = n;
          cl.dst = topo.channelDst(id);
          cl.dim = static_cast<std::int32_t>(d);
          cl.dir = dir == Dir::Plus ? 0 : 1;
          cl.flits = static_cast<std::int64_t>(std::llround(load));
          cfg.linkCapture->channels.push_back(cl);
        }
      }
    }
  }
  r.maxChannelFlits = maxCh;
  r.avgChannelFlits = validCh ? sumCh / static_cast<double>(validCh) : 0;
  span.attr("cycles", r.cycles);
  span.attr("max_channel_flits", r.maxChannelFlits);
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("simnet.flow_runs").add(1);
    reg->counter("simnet.flow_cycles").add(r.cycles);
    // Conservation quantities are exact in flow mode (only cycle counts
    // are approximate), so record them under the same names the cycle
    // engine uses — telemetry consumers need not care about fidelity.
    reg->counter("simnet.network_flits").add(r.networkFlits);
    reg->counter("simnet.local_flits").add(r.localFlits);
    reg->counter("simnet.flit_hops").add(r.flitHops);
    for (std::size_t d = 0; d < r.dimFlits.size(); ++d) {
      reg->gauge("simnet.dim_flits." + std::to_string(d))
          .set(r.dimFlits[d]);
    }
  }
  return r;
}

}  // namespace

void writeLinkHeatmapJson(std::ostream& os, const Torus& topo,
                          const LinkLoadCapture& capture) {
  os << "{\n";
  os << "  \"schema\": \"rahtm.simnet.link_heatmap/v1\",\n";
  os << "  \"topology\": " << obs::jsonString(topo.describe()) << ",\n";
  os << "  \"shape\": [";
  for (std::size_t d = 0; d < topo.ndims(); ++d) {
    if (d != 0) os << ", ";
    os << topo.extent(d);
  }
  os << "],\n";
  os << "  \"sample_cycles\": " << obs::jsonInt(capture.sampleCycles) << ",\n";
  os << "  \"channels\": [";
  for (std::size_t i = 0; i < capture.channels.size(); ++i) {
    const ChannelLoad& c = capture.channels[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"src\": " << obs::jsonInt(c.src) << ", \"src_coord\": [";
    const Coord sc = topo.coordOf(c.src);
    for (std::size_t d = 0; d < sc.size(); ++d) {
      if (d != 0) os << ", ";
      os << static_cast<int>(sc[d]);
    }
    os << "], \"dst\": " << obs::jsonInt(c.dst)
       << ", \"dim\": " << obs::jsonInt(c.dim)
       << ", \"dir\": " << obs::jsonString(c.dir == 0 ? "+" : "-")
       << ", \"flits\": " << obs::jsonInt(c.flits) << "}";
  }
  os << "\n  ],\n";
  os << "  \"occupancy\": [";
  for (std::size_t i = 0; i < capture.samples.size(); ++i) {
    const LinkLoadSample& s = capture.samples[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"cycle\": " << obs::jsonInt(s.cycle)
       << ", \"queued_flits\": " << obs::jsonInt(s.queuedFlits)
       << ", \"max_queue_flits\": " << obs::jsonInt(s.maxQueueFlits)
       << ", \"active_links\": " << obs::jsonInt(s.activeLinks) << "}";
  }
  os << "\n  ]\n}\n";
}

PhaseResult simulatePhase(const Torus& topo, const Mapping& mapping,
                          const Phase& phase, const SimConfig& config) {
  return simulateIteration(topo, mapping, {phase}, config);
}

PhaseResult simulateIteration(const Torus& topo, const Mapping& mapping,
                              const std::vector<Phase>& stages,
                              const SimConfig& config) {
  RAHTM_REQUIRE(mapping.complete(), "simulate: incomplete mapping");
  RAHTM_REQUIRE(config.bytesPerFlit > 0 && config.packetFlits > 0 &&
                    config.injectionBandwidth > 0,
                "SimConfig: parameters must be positive");
  if (config.fidelity == SimFidelity::Flow) {
    return runFlow(topo, mapping, stages, config);
  }
  IterationSim sim(topo, mapping, config);
  return sim.run(stages);
}

}  // namespace rahtm::simnet
