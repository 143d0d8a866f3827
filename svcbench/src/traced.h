#ifndef SVCBENCH_TRACED_H_
#define SVCBENCH_TRACED_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "inputs.h"
#include "spans.h"

namespace svcbench {

struct TracedReport {
  /// Every per-layer metric by name; 0 where the layer does not run on
  /// this workload (see README.md).
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;
  size_t attempted = 0;
  size_t failed = 0;
};

/// The traced run: replays round 0 of `w` through each layer's public entry
/// point (QueryEngine construction, ReplicatedGraph::Build, RunFilterStage,
/// RunJoinStage, QueryEngine::Execute, QueryService Submit / FetchPage /
/// Wait) under the benchmark's own spans, and derives the per-layer metrics
/// from the spans and the counters the API exposes at those boundaries.
TracedReport RunTracedReplay(const Workload& w, const RowChecker& checker,
                             SpanLog& log);

/// Every per-layer metric RunTracedReplay reports, as (name, unit).
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();

}  // namespace svcbench

#endif  // SVCBENCH_TRACED_H_
