#pragma once
/// \file comm_graph.hpp
/// The application communication graph: vertices are MPI ranks (or clusters
/// of ranks after contraction) and directed weighted edges are point-to-point
/// communication flows. This is the sole application-side input RAHTM needs
/// (§III-A): who talks to whom, and how much.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/mem.hpp"

namespace rahtm {

/// One directed point-to-point flow.
struct Flow {
  RankId src = kInvalidRank;
  RankId dst = kInvalidRank;
  Volume bytes = 0;

  friend bool operator==(const Flow& a, const Flow& b) {
    return a.src == b.src && a.dst == b.dst && a.bytes == b.bytes;
  }
};

/// A directed, weighted communication graph over dense rank ids.
/// Parallel edges are coalesced; self-flows are dropped (a rank talking to
/// itself never touches the network). Flows are kept in order of first
/// appearance, and repeated bytes are added onto a flow in call order, so
/// every volume is the same sum of the same terms however the graph is
/// indexed.
class CommGraph {
 public:
  CommGraph() = default;
  explicit CommGraph(RankId numRanks);

  RankId numRanks() const { return numRanks_; }
  /// Grow the vertex set (never shrinks).
  void ensureRanks(RankId numRanks);

  /// Accumulate \p bytes (finite, >= 0) onto the (src,dst) flow.
  /// Self-flows and zero volumes are ignored.
  void addFlow(RankId src, RankId dst, Volume bytes);

  /// Make room for \p flows distinct flows without regrowing the index.
  void reserve(std::size_t flows);

  /// Add \p bytes in both directions (convenience for symmetric exchanges).
  void addExchange(RankId a, RankId b, Volume bytes);

  const std::vector<Flow>& flows() const { return flows_; }
  std::size_t numFlows() const { return flows_.size(); }

  /// Volume currently recorded from \p src to \p dst (0 if absent).
  Volume volume(RankId src, RankId dst) const;

  /// Sum of all flow volumes.
  Volume totalVolume() const;

  /// Max over ranks of (number of distinct peers, in + out).
  int maxDegree() const;

  /// Undirected view: sum of both directions per unordered pair, each pair
  /// reported once with src < dst, in ascending (src, dst) order. A pair's
  /// volume adds its flows onto 0 in flow order.
  std::vector<Flow> undirectedFlows() const;

  /// Returns a graph with vertex ids renumbered by \p perm
  /// (new id = perm[old id]); perm must be a bijection.
  CommGraph relabeled(const std::vector<RankId>& perm) const;

  friend bool operator==(const CommGraph& a, const CommGraph& b);

 private:
  RankId numRanks_ = 0;
  std::vector<Flow> flows_;
  /// Open-addressing index of flows_ (linear probing, Fibonacci hash):
  /// slot i holds key(src, dst) in slotKey_[i] and its flows_ index in
  /// slotFlow_[i]. The capacity is 0 or a power of two, at most half full.
  std::vector<std::uint64_t> slotKey_;
  std::vector<std::uint32_t> slotFlow_;

  /// Marks an empty slot. Ids are >= 0, so bit 63 of a valid key is 0.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  static std::uint64_t key(RankId src, RankId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }
  /// The slot holding \p k, or the empty slot where it would go.
  std::size_t findSlot(std::uint64_t k) const;
  /// Rebuild the index with \p capacity slots, inserting in flow order.
  void rehash(std::size_t capacity);
};

/// CSR incidence lists over a flow array: for each bucket (vertex, child
/// block, ...), the indices of the flows with at least one endpoint in the
/// bucket, in ascending flow order. A flow whose endpoints map to the same
/// bucket is listed once. This is the shared building block of every
/// incremental evaluator (delta_eval, the merge beam): "which flows must be
/// re-routed when this bucket moves?" answered in O(degree).
class FlowIncidence {
 public:
  FlowIncidence() = default;

  std::size_t numBuckets() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Flow indices touching \p bucket (ascending).
  struct Span {
    const std::uint32_t* data = nullptr;
    std::size_t size = 0;
    const std::uint32_t* begin() const { return data; }
    const std::uint32_t* end() const { return data + size; }
  };
  Span of(std::size_t bucket) const {
    const std::size_t lo = offsets_[bucket];
    return {flowIds_.data() + lo, offsets_[bucket + 1] - lo};
  }

  /// Build incidence of \p numFlows flows over \p buckets buckets.
  /// \p endpoints(i) returns the (bucketA, bucketB) pair of flow i.
  template <typename EndpointsFn>
  static FlowIncidence build(std::size_t numFlows, std::size_t buckets,
                             EndpointsFn&& endpoints) {
    FlowIncidence inc;
    inc.offsets_.assign(buckets + 1, 0);
    for (std::size_t i = 0; i < numFlows; ++i) {
      const auto [a, b] = endpoints(i);
      ++inc.offsets_[a + 1];
      if (b != a) ++inc.offsets_[b + 1];
    }
    for (std::size_t k = 1; k <= buckets; ++k) {
      inc.offsets_[k] += inc.offsets_[k - 1];
    }
    inc.flowIds_.resize(inc.offsets_[buckets]);
    std::vector<std::size_t> cursor(inc.offsets_.begin(),
                                    inc.offsets_.end() - 1);
    for (std::size_t i = 0; i < numFlows; ++i) {
      const auto [a, b] = endpoints(i);
      inc.flowIds_[cursor[a]++] = static_cast<std::uint32_t>(i);
      if (b != a) inc.flowIds_[cursor[b]++] = static_cast<std::uint32_t>(i);
    }
    inc.mem_.set(static_cast<std::int64_t>(
        inc.offsets_.capacity() * sizeof(std::size_t) +
        inc.flowIds_.capacity() * sizeof(std::uint32_t)));
    return inc;
  }

  /// Bytes currently charged to the flow_incidence account for this CSR.
  std::int64_t footprintBytes() const { return mem_.bytes(); }

 private:
  std::vector<std::size_t> offsets_;     ///< size numBuckets + 1
  std::vector<std::uint32_t> flowIds_;
  /// CSR footprint, charged to the flow_incidence account; copies of the
  /// incidence (delta_eval holds one by value) each carry their own tally.
  obs::MemAccount mem_{obs::MemAccountId::FlowIncidence};
};

/// Incidence of \p g's flows over its vertices: of(v) = indices into
/// g.flows() of the flows with src == v or dst == v.
FlowIncidence buildFlowIncidence(const CommGraph& g);

/// Result of contracting a graph by a cluster assignment.
struct ContractionResult {
  CommGraph clusterGraph;     ///< flows between distinct clusters
  Volume intraClusterVolume;  ///< volume absorbed inside clusters
  Volume interClusterVolume;  ///< volume remaining between clusters
};

/// Contract \p g by \p clusterOf (size = numRanks, values in
/// [0, numClusters)). Intra-cluster flows are absorbed (they become
/// intra-node traffic after mapping); inter-cluster flows are accumulated.
ContractionResult contract(const CommGraph& g,
                           const std::vector<ClusterId>& clusterOf,
                           ClusterId numClusters);

/// Serialize / parse a simple line-oriented text format:
///   ranks <N>
///   <src> <dst> <bytes>   (one line per flow)
void writeCommGraph(std::ostream& os, const CommGraph& g);
CommGraph readCommGraph(std::istream& is);

/// The pieces of the text formats (readCommGraph, readProfile), checked
/// before use: a rank count in [0, 2^31), and a "<src> <dst> <bytes>" line
/// with ids in [0, ranks) and bytes finite and >= 0. Ids are read as 64-bit
/// integers, so no value wraps. Errors are ParseErrors that begin with
/// \p where (e.g. "profile line 7").
RankId parseRankCount(const std::string& text, const std::string& where);
Flow parseFlowLine(const std::vector<std::string>& fields, RankId ranks,
                   const std::string& where);

}  // namespace rahtm
