// The benchmark's workloads: paper-incr, alldirty-sharded, history-read.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace e2e {

const std::vector<std::string>& workload_names();

/// Run one workload closed-loop for opts.seconds and check every result.
/// Untraced runs report their raw samples as details; traced runs
/// (opts.trace) report the per-layer metrics and write the spans to
/// opts.dir.
Outcome run_workload(const RunOptions& opts);

}  // namespace e2e
