// The query-service benchmark binary: builds one named workload from a
// seed, serves it through QueryService in a closed loop (untraced) or
// replays it through every layer under spans (traced), checks every
// returned row, and prints one JSON line of metrics.
//
//   svcbench --workload selective_repeat --seed 1 --seconds 20 --trace 0
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// JSON line is still printed, with "correct": false), 2 on bad arguments
// or unbuildable inputs.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "check.h"
#include "inputs.h"
#include "load.h"
#include "service/query_service.h"
#include "spans.h"
#include "traced.h"

namespace svcbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Ullmann reference counts computed at once.
constexpr int kReferenceThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool corrupt_row = false;
};

/// Where the traced run writes its spans, relative to the checkout root.
constexpr char kSpanDir[] = ".bench_out";

bool Parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-row") {
      a.corrupt_row = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double Seconds(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Nearest-rank percentile of an ascending sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

using Metric = std::tuple<std::string, double, std::string>;

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", name.c_str(), std::isfinite(value) ? value : 0,
                unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run(const Args& args) {
  const Clock::time_point inputs_start = Clock::now();
  gsi::Result<Workload> made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "svcbench: %s\n", made.status().ToString().c_str());
    return 2;
  }
  Workload& w = made.value();
  const double inputs_s = Seconds(inputs_start);
  const Clock::time_point ref_start = Clock::now();
  const size_t referenced = ComputeReferenceCounts(w, kReferenceThreads);
  std::fprintf(stderr,
               "%s seed %llu: %s\ninputs built in %.1f s; reference counts "
               "for %zu of %zu shapes (%.1f s)\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               w.summary.c_str(), inputs_s, referenced, w.shapes.size(),
               Seconds(ref_start));
  const RowChecker checker(w.data);

  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  if (!args.trace) {
    const Clock::time_point setup_start = Clock::now();
    auto service =
        std::make_unique<gsi::QueryService>(w.data, w.gsi, w.service);
    const double setup_s = Seconds(setup_start);
    if (!service->init_status().ok()) {
      std::fprintf(stderr, "svcbench: service init: %s\n",
                   service->init_status().ToString().c_str());
      return 2;
    }
    // Warm-up: round 0, every result checked in full (and its digest kept
    // where rounds repeat exactly; see LoadOptions::digests). The measured
    // rounds start at round 1.
    std::vector<uint64_t> digests(w.round.size());
    LoadOptions warm;
    warm.max_rounds = 1;
    warm.seconds = 1e9;  // the round bound ends the pass
    warm.digests = w.renumber_rounds ? nullptr : &digests;
    const LoadResult warm_r = RunClosedLoop(*service, w, checker, warm);
    const gsi::ServiceStats before = service->stats();
    LoadOptions opt;
    opt.seconds = args.seconds;
    opt.first_round = 1;
    opt.digests = warm.digests;
    opt.corrupt_first_row = args.corrupt_row;
    LoadResult r = RunClosedLoop(*service, w, checker, opt);
    const gsi::ServiceStats st = service->stats();
    errors = warm_r.errors;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    attempted = warm_r.attempted + r.attempted;
    failed = warm_r.failed + r.failed;
    const size_t completed = r.latency_ms.size();
    const uint64_t service_ok = st.completed_ok - before.completed_ok;
    if (service_ok != completed) {
      errors.push_back("ServiceStats::completed_ok grew by " +
                       std::to_string(service_ok) + ", clients completed " +
                       std::to_string(completed));
    }
    const uint64_t page_bytes =
        st.result_page_bytes - before.result_page_bytes;
    if (page_bytes != r.page_bytes) {
      errors.push_back("client page bytes " + std::to_string(r.page_bytes) +
                       " != ServiceStats::result_page_bytes growth " +
                       std::to_string(page_bytes));
    }
    std::sort(r.latency_ms.begin(), r.latency_ms.end());
    if (completed < 200) {
      std::fprintf(stderr,
                   "warning: %zu queries: fewer than 10 lie beyond p95\n",
                   completed);
    }
    const uint64_t hits = st.cache.hits - before.cache.hits;
    const uint64_t lookups = hits + st.cache.misses - before.cache.misses;
    std::fprintf(stderr,
                 "warm-up %.2f s, measured %.2f s: %zu rounds, %zu queries "
                 "(%zu failed), %llu rows, %llu pages, cache hits %llu of "
                 "%llu lookups, pool blocked %llu\n",
                 warm_r.wall_s, r.wall_s, r.rounds, r.attempted, r.failed,
                 static_cast<unsigned long long>(r.rows),
                 static_cast<unsigned long long>(r.pages),
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(lookups),
                 static_cast<unsigned long long>(
                     st.pool.blocked + st.pool.group_blocked -
                     before.pool.blocked - before.pool.group_blocked));
    const double done = static_cast<double>(completed);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"queries_per_s", done / r.wall_s, "1/s"},
        {"latency_p50_ms", Percentile(r.latency_ms, 0.50), "ms"},
        {"latency_p95_ms", Percentile(r.latency_ms, 0.95), "ms"},
        {"rows_per_s", static_cast<double>(r.rows) / r.wall_s, "rows/s"},
        {"sim_ms_per_query",
         service_ok ? (st.sum_simulated_ms - before.sum_simulated_ms) /
                          static_cast<double>(service_ok)
                    : 0,
         "sim_ms"},
        {"host_peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    SpanLog log;
    const Clock::time_point traced_start = Clock::now();
    TracedReport rep = RunTracedReplay(w, checker, log);
    errors = rep.errors;
    attempted = rep.attempted;
    failed = rep.failed;
    std::fprintf(stderr, "traced run %.2f s; self time by span:\n",
                 Seconds(traced_start));
    for (const auto& [name, t] : log.TimesByName()) {
      std::fprintf(stderr, "  %-28s n=%-6zu total %10.2f ms  self %10.2f ms\n",
                   name.c_str(), t.count, t.total_ms, t.self_ms);
    }
    std::error_code ec;
    std::filesystem::create_directories(kSpanDir, ec);
    const std::string path = std::string(kSpanDir) + "/spans-" + w.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!log.WriteJson(path)) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
    for (const auto& [name, unit] : PerLayerMetrics()) {
      metrics.emplace_back(name, rep.metrics[name], unit);
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  PrintResult(errors.empty(), attempted, failed, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  svcbench::Args args;
  if (!svcbench::Parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: svcbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--corrupt-row]\n");
    return 2;
  }
  return svcbench::Run(args);
}
