#ifndef SVCBENCH_LOAD_H_
#define SVCBENCH_LOAD_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "check.h"
#include "inputs.h"
#include "service/query_service.h"
#include "spans.h"

namespace svcbench {

struct LoadOptions {
  /// Keep starting rounds until this much wall time has passed; a started
  /// round always runs to its end.
  double seconds = 0;
  /// Stop after this many rounds even if time remains. Rounds past
  /// Workload::rounds.size() cycle through it again.
  size_t max_rounds = SIZE_MAX;
  /// Traced replay only: spans around Submit / FetchPage / Wait.
  SpanLog* spans = nullptr;
  int parent_span = -1;
  /// Collect results with Wait instead of FetchPage (traced replay only:
  /// Wait hands back QueryStats::wall_ms, which service.wait_ms needs).
  bool use_wait = false;
  /// Overwrite one value of the first returned row before checking, to
  /// show that the checks catch a wrong row.
  bool corrupt_first_row = false;
  /// Round the dispenser starts at (a warm-up pass takes round 0).
  size_t first_round = 0;
  /// Row digests by position in the round, 0 = not yet checked; only for
  /// workloads whose rounds repeat exactly. Results are deterministic, so a
  /// position's rows are checked in full once; later results there only
  /// have to hash to the same digest, which keeps the full check out of
  /// the measured loop. Null: check every result in full.
  std::vector<uint64_t>* digests = nullptr;
};

/// What the clients saw. Times are host wall clock.
struct LoadResult {
  double wall_s = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t rounds = 0;
  /// Submit to last FetchPage (or Wait), per completed query.
  std::vector<double> latency_ms;
  /// Rows each submission delivered, by submission index (-1 = failed).
  std::vector<int64_t> rows_by_index;
  uint64_t rows = 0;
  uint64_t pages = 0;
  uint64_t page_bytes = 0;
  double submit_ms = 0;  ///< summed over submissions
  double fetch_ms = 0;   ///< summed over FetchPage calls
  /// Wait mode: client latency minus QueryStats::wall_ms, per query.
  std::vector<double> wait_ms;
  /// Output-check failures (empty = every row passed).
  std::vector<std::string> errors;
};

/// Closed loop: `w.clients` threads, each submitting its next query only
/// after the previous one's last page arrived, through `w.rounds` in order
/// until LoadOptions::seconds have passed at a round boundary. Every result
/// is checked by `checker` (after its latency is taken), and every page
/// against the service's page budget.
LoadResult RunClosedLoop(gsi::QueryService& service, const Workload& w,
                         const RowChecker& checker, const LoadOptions& opt);

}  // namespace svcbench

#endif  // SVCBENCH_LOAD_H_
