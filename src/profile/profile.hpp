#pragma once
/// \file profile.hpp
/// IPM-style communication profiling (§II-A: the paper profiles its
/// benchmarks with the IPM tool to obtain per-rank point-to-point
/// communication volumes and the comm/compute time split).
///
/// Here the "machine" is the simulator, so profiling a run means recording
/// every message the workload posts plus the simulated communication and
/// (calibrated) computation time. The resulting profile is the input RAHTM
/// consumes offline — exactly the paper's methodology, with the simulator
/// standing in for Mira.

#include <iosfwd>
#include <string>

#include "graph/comm_graph.hpp"
#include "mapping/mapping.hpp"
#include "simnet/simulator.hpp"
#include "workloads/workload.hpp"

namespace rahtm {

/// A recorded application profile.
struct Profile {
  std::string benchmark;
  RankId ranks = 0;
  CommGraph matrix;            ///< aggregated p2p volumes per iteration
  double commTimePerIter = 0;  ///< simulated cycles
  double computeTimePerIter = 0;
  int iterations = 1;

  double totalTime() const {
    return (commTimePerIter + computeTimePerIter) * iterations;
  }
  double commFraction() const {
    const double t = commTimePerIter + computeTimePerIter;
    return t == 0 ? 0 : commTimePerIter / t;
  }
};

/// Record one event per send (the raw IPM-like event stream).
class CommRecorder {
 public:
  explicit CommRecorder(RankId ranks) : matrix_(ranks) {}

  void recordSend(RankId src, RankId dst, double bytes) {
    matrix_.addFlow(src, dst, bytes);
  }
  const CommGraph& matrix() const { return matrix_; }

 private:
  CommGraph matrix_;
};

/// Simulated communication time of one iteration of \p workload under
/// \p mapping, with MPI semantics: per-rank stage dependencies, so stages
/// overlap in the network as ranks skew (simnet::simulateIteration) — the
/// regime where optimizing the aggregate communication matrix (IPM
/// profile) is meaningful. With \p simIterations > 1 that many iterations
/// run back-to-back and the mean per-iteration time is returned: rank skew
/// accumulates across iterations exactly as in a real run, so steady-state
/// network behaviour — not the synchronized-start transient — is measured.
std::int64_t commCyclesPerIteration(const Workload& workload,
                                    const Torus& topo, const Mapping& mapping,
                                    const simnet::SimConfig& simConfig,
                                    int simIterations = 1);

/// Compute-phase calibration (DESIGN.md §1): pick the constant compute time
/// that makes the *baseline* run match the target communication fraction
/// (paper Fig. 9). computeTime = commTime * (1 - f) / f.
double calibrateComputeCycles(double baselineCommCycles, double commFraction);

/// Profile a run: simulate every phase, record the communication matrix,
/// and combine with the given per-iteration compute time.
Profile profileRun(const Workload& workload, const Torus& topo,
                   const Mapping& mapping, const simnet::SimConfig& simConfig,
                   double computeCyclesPerIter);

/// Serialize / parse a profile (line-oriented text; see implementation).
void writeProfile(std::ostream& os, const Profile& p);
Profile readProfile(std::istream& is);

}  // namespace rahtm
