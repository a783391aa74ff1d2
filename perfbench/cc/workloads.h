// The four benchmark workloads. Each boots the product (DashDbLocal::Deploy
// or MppDatabase), fronts it with the real Server, drives it with
// WireClient connections in a closed loop, checks every result against a
// reference run outside the timed phase, and reports metrics.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Workload names in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. With opt.trace the run reports the per-layer
/// breakdown (and the tracing overhead) instead of the end-to-end metrics.
RunResult RunWorkload(const Options& opt);

}  // namespace perfbench
