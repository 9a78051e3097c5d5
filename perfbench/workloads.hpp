#pragma once
/// \file workloads.hpp
/// The benchmark's workloads (README.md explains why each was chosen and
/// which layer it is home to). Each fills \p result with the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run) and counts
/// every operation it checks.

#include "harness.hpp"

namespace perfbench {

/// NAS CG, 64 ranks on 2x2x2x2x2, concentration 2: closed-loop RAHTM
/// solves at 1 and min(4, nproc) threads.
void runCg64(const Options& opt, Telemetry& tel, Result& result);

/// Open-loop request stream through serve::Scheduler over a cold
/// ArtifactCache.
void runServeMix(const Options& opt, Telemetry& tel, Result& result);

/// The paper's Fig. 10 evaluation loop: cycle- and flow-fidelity
/// simulation of baseline mappings of BT/SP/CG at 1024 ranks.
void runSimEval(const Options& opt, Telemetry& tel, Result& result);

}  // namespace perfbench
