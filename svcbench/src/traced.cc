#include "traced.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "gpusim/device.h"
#include "gsi/query_engine.h"
#include "gsi/replication.h"
#include "load.h"
#include "service/query_service.h"

namespace svcbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Runs fn(span) under a span named `name` and returns its host ms.
template <typename Fn>
double Timed(SpanLog& log, const char* name, int parent, Fn&& fn) {
  ScopedSpan span(&log, name, parent);
  const Clock::time_point t0 = Clock::now();
  fn(span);
  return MsSince(t0);
}

struct Mean {
  double sum = 0;
  size_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double value() const { return n ? sum / static_cast<double>(n) : 0; }
};

uint64_t Transactions(const gsi::gpusim::MemStats& s) {
  return s.gld + s.gst + s.remote_transactions;
}

std::vector<std::unique_ptr<gsi::gpusim::Device>> MakeDevices(
    size_t n, const gsi::GsiOptions& options) {
  std::vector<std::unique_ptr<gsi::gpusim::Device>> devs;
  for (size_t i = 0; i < n; ++i) {
    devs.push_back(std::make_unique<gsi::gpusim::Device>(options.device));
    devs.back()->set_ordinal(static_cast<int>(i));
  }
  return devs;
}

std::vector<gsi::gpusim::Device*> Pointers(
    const std::vector<std::unique_ptr<gsi::gpusim::Device>>& devs) {
  std::vector<gsi::gpusim::Device*> out;
  for (const auto& d : devs) out.push_back(d.get());
  return out;
}

/// The replicated placement of partitioned_halo at one halo budget, plus
/// the engine whose options it was built with.
struct Placement {
  std::unique_ptr<gsi::QueryEngine> engine;
  std::vector<std::unique_ptr<gsi::gpusim::Device>> devs;
  std::optional<gsi::ReplicatedGraph> graph;
  gsi::ReplicaSelection selection;
};

std::optional<Placement> BuildPlacement(const Workload& w,
                                        const gsi::GsiOptions& options,
                                        SpanLog& log, const char* span,
                                        int parent, double* build_ms,
                                        std::vector<std::string>& errors) {
  Placement p;
  p.engine = std::make_unique<gsi::QueryEngine>(w.data, options);
  const size_t devices = static_cast<size_t>(w.service.num_devices);
  p.devs = MakeDevices(devices, options);
  const std::vector<gsi::gpusim::Device*> ptrs = Pointers(p.devs);
  const gsi::HashVertexPartitioner partitioner;
  gsi::Result<gsi::ReplicatedGraph> built = gsi::Status::Internal("unset");
  const double ms = Timed(log, span, parent, [&](ScopedSpan&) {
    built = gsi::ReplicatedGraph::Build(
        ptrs, w.data, options, partitioner, devices,
        static_cast<size_t>(w.service.partition_replicas));
  });
  if (build_ms) *build_ms = ms;
  if (!built.ok()) {
    errors.push_back(std::string(span) + ": " + built.status().ToString());
    return std::nullopt;
  }
  p.graph.emplace(std::move(built.value()));
  p.selection = gsi::CompactSelection(*p.graph);
  return p;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  return {{"storage.build_ms", "ms"},
          {"storage.share_build_ms", "ms"},
          {"storage.resident_mb_per_device", "MB"},
          {"gpusim.transactions_per_query", "count"},
          {"gpusim.host_ns_per_transaction", "ns"},
          {"filter.host_ms", "ms"},
          {"filter.sim_ms", "sim_ms"},
          {"filter.gld", "count"},
          {"filter.candidates", "count"},
          {"filter.pruning", "ratio"},
          {"join.host_ms", "ms"},
          {"join.sim_ms", "sim_ms"},
          {"join.gld", "count"},
          {"join.gst", "count"},
          {"join.rows_out", "rows"},
          {"shard.fanout", "count"},
          {"shard.skew", "ratio"},
          {"partition.host_ms", "ms"},
          {"partition.sim_ms", "sim_ms"},
          {"partition.remote_probes", "count"},
          {"partition.co_located_probes", "count"},
          {"partition.halo_hits", "count"},
          {"partition.halo_hit_ratio", "ratio"},
          {"partition.halo_bytes", "bytes"},
          {"page.fetch_ms", "ms"},
          {"page.count", "count"},
          {"page.bytes", "bytes"},
          {"service.submit_ms", "ms"},
          {"service.wait_ms", "ms"},
          {"cache.hits", "count"},
          {"cache.hit_ratio", "ratio"},
          {"pool.blocked", "count"},
          {"trace.overhead_ms", "ms"}};
}

TracedReport RunTracedReplay(const Workload& w, const RowChecker& checker,
                             SpanLog& log) {
  TracedReport rep;
  std::map<std::string, double>& m = rep.metrics;
  for (const auto& [name, unit] : PerLayerMetrics()) m[name] = 0;
  std::vector<std::string>& errors = rep.errors;
  const std::vector<Query>& round = w.round;
  const bool partitioned = w.service.partition_data_graph;
  const bool sharded = w.service.max_shards_per_query > 1;
  const int root = log.Begin("traced_run", -1);

  // --- storage: the shared single-replica structures, and in partitioned
  // mode the K x R share build (plus a budget-0 twin for the halo check).
  std::unique_ptr<gsi::QueryEngine> engine;
  m["storage.build_ms"] = Timed(log, "storage.build", root, [&](ScopedSpan&) {
    engine = std::make_unique<gsi::QueryEngine>(w.data, w.gsi);
  });
  if (!engine->init_status().ok()) {
    errors.push_back("QueryEngine: " + engine->init_status().ToString());
    return rep;
  }
  std::optional<Placement> halo;
  std::optional<Placement> no_halo;
  if (partitioned) {
    halo = BuildPlacement(w, w.gsi, log, "storage.share_build", root,
                          &m["storage.share_build_ms"], errors);
    gsi::GsiOptions zero = w.gsi;
    zero.halo_budget_bytes = 0;
    no_halo = BuildPlacement(w, zero, log, "storage.share_build_budget0",
                             root, nullptr, errors);
    if (!halo || !no_halo) return rep;
    m["storage.resident_mb_per_device"] =
        static_cast<double>(halo->graph->build_stats().max_resident_bytes()) /
        (1 << 20);
  }
  std::vector<std::unique_ptr<gsi::gpusim::Device>> shard_devs =
      MakeDevices(static_cast<size_t>(w.service.max_shards_per_query), w.gsi);
  const std::vector<gsi::gpusim::Device*> shard_ptrs = Pointers(shard_devs);

  // --- layer replay: round 0 through the engine's stage entry points.
  Mean filter_host, filter_sim, filter_gld, filter_cand, join_host, join_sim,
      join_gld, join_gst, join_rows, tx, fanout, skew, part_host, part_sim,
      remote, co_located, halo_hits, halo_bytes;
  double candidates = 0, label_base = 0, tx_total = 0, tx_host_ms = 0;
  std::vector<int64_t> replay_rows(round.size(), -1);
  RowChecker::Scratch scratch;
  const int replay = log.Begin("layer_replay", root);
  for (size_t i = 0; i < round.size(); ++i) {
    const Query& q = round[i];
    const int64_t reference = w.shapes[q.shape].reference;
    ++rep.attempted;
    ScopedSpan query_span(&log, "layer.query", replay);
    auto fail = [&](const char* layer, const gsi::Status& s) {
      ++rep.failed;
      errors.push_back(std::string(layer) + " on round-0 submission " +
                       std::to_string(i) + ": " + s.ToString());
    };
    auto check = [&](const char* layer, const gsi::QueryResult& r) {
      std::string e = checker.Check(q, reference, r.table.data().span(),
                                    r.column_to_query, scratch);
      if (!e.empty()) errors.push_back(std::string(layer) + ": " + e);
    };

    gsi::gpusim::Device dev(w.gsi.device);
    gsi::QueryStats stats;
    gsi::Result<gsi::FilterResult> filtered = gsi::Status::Internal("unset");
    const double fms =
        Timed(log, "filter", query_span.id(), [&](ScopedSpan& s) {
          filtered =
              gsi::RunFilterStage(dev, engine->filter(), q.graph, stats);
          s.Attr("gld", static_cast<double>(stats.filter.gld));
        });
    if (!filtered.ok()) {
      fail("RunFilterStage", filtered.status());
      continue;
    }
    double cand = 0, base = 0;
    for (VertexId u = 0; u < q.graph.num_vertices(); ++u) {
      cand += static_cast<double>(filtered->candidates[u].size());
      base += static_cast<double>(
          w.data.VertexLabelFrequency(q.graph.vertex_label(u)));
    }
    candidates += cand;
    label_base += base;
    gsi::Result<gsi::QueryResult> joined = gsi::Status::Internal("unset");
    const double jms = Timed(log, "join", query_span.id(), [&](ScopedSpan& s) {
      joined = gsi::RunJoinStage(dev, w.data, engine->store(), w.gsi, q.graph,
                                 std::move(filtered.value()), stats);
      if (joined.ok()) {
        s.Attr("rows", static_cast<double>(joined->num_matches()));
        s.Attr("gld", static_cast<double>(joined->stats.join.gld));
      }
    });
    if (!joined.ok()) {
      fail("RunJoinStage", joined.status());
      continue;
    }
    check("RunJoinStage", *joined);
    const gsi::QueryStats& js = joined->stats;
    replay_rows[i] = static_cast<int64_t>(js.num_matches);
    filter_host.Add(fms);
    filter_sim.Add(js.filter_ms);
    filter_gld.Add(static_cast<double>(js.filter.gld));
    filter_cand.Add(cand);
    join_host.Add(jms);
    join_sim.Add(js.join_ms);
    join_gld.Add(static_cast<double>(js.join.gld));
    join_gst.Add(static_cast<double>(js.join.gst));
    join_rows.Add(static_cast<double>(js.num_matches));
    if (!partitioned) {
      const double t = static_cast<double>(Transactions(js.filter) +
                                           Transactions(js.join));
      tx.Add(t);
      tx_total += t;
      tx_host_ms += fms + jms;
    }

    if (sharded) {
      gsi::QueryEngine::ExecRequest req;
      req.query = &q.graph;
      req.devices = shard_ptrs;
      req.shard = w.service.shard;
      gsi::Result<gsi::QueryResult> r = gsi::Status::Internal("unset");
      Timed(log, "shard", query_span.id(), [&](ScopedSpan& s) {
        r = engine->Execute(req);
        if (r.ok()) s.Attr("shards", static_cast<double>(r->stats.shards_used));
      });
      if (!r.ok()) {
        fail("Execute(devices)", r.status());
        continue;
      }
      check("Execute(devices)", *r);
      fanout.Add(static_cast<double>(r->stats.shards_used));
      skew.Add(r->stats.shard_skew);
    }

    if (partitioned) {
      gsi::QueryEngine::ExecRequest req;
      req.query = &q.graph;
      req.replicated = &*halo->graph;
      req.selection = &halo->selection;
      gsi::Result<gsi::QueryResult> r = gsi::Status::Internal("unset");
      const double pms =
          Timed(log, "partition", query_span.id(), [&](ScopedSpan& s) {
            r = halo->engine->Execute(req);
            if (r.ok()) {
              s.Attr("remote_probes",
                     static_cast<double>(r->stats.remote_probes));
              s.Attr("halo_hits",
                     static_cast<double>(r->stats.halo_cache_hits));
            }
          });
      gsi::QueryEngine::ExecRequest req0 = req;
      req0.replicated = &*no_halo->graph;
      req0.selection = &no_halo->selection;
      gsi::Result<gsi::QueryResult> r0 = gsi::Status::Internal("unset");
      Timed(log, "partition_budget0", query_span.id(),
            [&](ScopedSpan&) { r0 = no_halo->engine->Execute(req0); });
      if (!r.ok() || !r0.ok()) {
        fail("Execute(replicated)", r.ok() ? r0.status() : r.status());
        continue;
      }
      check("Execute(replicated)", *r);
      const gsi::QueryStats& ps = r->stats;
      if (ps.remote_probes + ps.halo_cache_hits != r0->stats.remote_probes) {
        errors.push_back(
            "halo conservation on round-0 submission " + std::to_string(i) +
            ": remote " + std::to_string(ps.remote_probes) + " + hits " +
            std::to_string(ps.halo_cache_hits) + " != remote at budget 0 " +
            std::to_string(r0->stats.remote_probes));
      }
      part_host.Add(pms);
      part_sim.Add(ps.total_ms);
      remote.Add(static_cast<double>(ps.remote_probes));
      co_located.Add(static_cast<double>(ps.co_located_probes));
      halo_hits.Add(static_cast<double>(ps.halo_cache_hits));
      halo_bytes.Add(static_cast<double>(ps.halo_bytes));
      const double t =
          static_cast<double>(Transactions(ps.filter) + Transactions(ps.join));
      tx.Add(t);
      tx_total += t;
      tx_host_ms += pms;
    }
  }
  log.End(replay);

  // --- service: passes over round 0, each on a fresh service so every
  // pass starts from the same cold cache: an untraced warm-up (the first
  // pass in a process runs slower and is dropped), an untraced pass (the
  // overhead baseline), a traced FetchPage pass and a traced Wait pass.
  auto fresh_service = [&] {
    ScopedSpan span(&log, "service.setup", root);
    return std::make_unique<gsi::QueryService>(w.data, w.gsi, w.service);
  };
  LoadOptions one_round;
  one_round.max_rounds = 1;
  one_round.seconds = 1e9;  // the round bound ends each pass
  LoadResult a;
  for (int pass = 0; pass < 2; ++pass) {
    std::unique_ptr<gsi::QueryService> untraced = fresh_service();
    a = RunClosedLoop(*untraced, w, checker, one_round);
    rep.attempted += a.attempted;
    rep.failed += a.failed;
    errors.insert(errors.end(), a.errors.begin(), a.errors.end());
  }

  std::unique_ptr<gsi::QueryService> paged = fresh_service();
  LoadOptions traced = one_round;
  traced.spans = &log;
  traced.parent_span = log.Begin("service.fetch_pass", root);
  const LoadResult b = RunClosedLoop(*paged, w, checker, traced);
  log.End(traced.parent_span);
  const gsi::ServiceStats sb = paged->stats();
  log.Attr(traced.parent_span, "cache_hits",
           static_cast<double>(sb.cache.hits));
  log.Attr(traced.parent_span, "pool_blocked",
           static_cast<double>(sb.pool.blocked + sb.pool.group_blocked));
  log.Attr(traced.parent_span, "result_pages",
           static_cast<double>(sb.result_pages));
  paged.reset();
  if (sb.result_page_bytes != b.page_bytes) {
    errors.push_back("client page bytes " + std::to_string(b.page_bytes) +
                     " != ServiceStats::result_page_bytes " +
                     std::to_string(sb.result_page_bytes));
  }

  std::unique_ptr<gsi::QueryService> waited = fresh_service();
  traced.parent_span = log.Begin("service.wait_pass", root);
  traced.use_wait = true;
  const LoadResult c = RunClosedLoop(*waited, w, checker, traced);
  log.End(traced.parent_span);
  waited.reset();

  for (size_t i = 0; i < round.size(); ++i) {
    if (b.rows_by_index[i] != c.rows_by_index[i] ||
        b.rows_by_index[i] != replay_rows[i]) {
      errors.push_back("round-0 submission " + std::to_string(i) +
                       ": page rows " + std::to_string(b.rows_by_index[i]) +
                       ", num_matches via Wait " +
                       std::to_string(c.rows_by_index[i]) +
                       ", via RunJoinStage " + std::to_string(replay_rows[i]));
    }
  }
  for (const LoadResult* pass : {&b, &c}) {
    rep.attempted += pass->attempted;
    rep.failed += pass->failed;
    errors.insert(errors.end(), pass->errors.begin(), pass->errors.end());
  }
  log.End(root);

  m["gpusim.transactions_per_query"] = tx.value();
  m["gpusim.host_ns_per_transaction"] =
      tx_total > 0 ? tx_host_ms * 1e6 / tx_total : 0;
  m["filter.host_ms"] = filter_host.value();
  m["filter.sim_ms"] = filter_sim.value();
  m["filter.gld"] = filter_gld.value();
  m["filter.candidates"] = filter_cand.value();
  m["filter.pruning"] = label_base > 0 ? candidates / label_base : 0;
  m["join.host_ms"] = join_host.value();
  m["join.sim_ms"] = join_sim.value();
  m["join.gld"] = join_gld.value();
  m["join.gst"] = join_gst.value();
  m["join.rows_out"] = join_rows.value();
  m["shard.fanout"] = fanout.value();
  m["shard.skew"] = skew.value();
  m["partition.host_ms"] = part_host.value();
  m["partition.sim_ms"] = part_sim.value();
  m["partition.remote_probes"] = remote.value();
  m["partition.co_located_probes"] = co_located.value();
  m["partition.halo_hits"] = halo_hits.value();
  const double probes = halo_hits.sum + remote.sum;
  m["partition.halo_hit_ratio"] = probes > 0 ? halo_hits.sum / probes : 0;
  m["partition.halo_bytes"] = halo_bytes.value();
  m["page.fetch_ms"] = b.pages ? b.fetch_ms / static_cast<double>(b.pages) : 0;
  const size_t b_done = b.latency_ms.size();
  m["page.count"] =
      b_done ? static_cast<double>(b.pages) / static_cast<double>(b_done) : 0;
  m["page.bytes"] = b.pages ? static_cast<double>(b.page_bytes) /
                                  static_cast<double>(b.pages)
                            : 0;
  m["service.submit_ms"] =
      b.attempted ? b.submit_ms / static_cast<double>(b.attempted) : 0;
  Mean wait;
  for (double v : c.wait_ms) wait.Add(v);
  m["service.wait_ms"] = wait.value();
  m["cache.hits"] = static_cast<double>(sb.cache.hits);
  m["cache.hit_ratio"] = sb.cache.HitRate();
  m["pool.blocked"] =
      static_cast<double>(sb.pool.blocked + sb.pool.group_blocked);
  m["trace.overhead_ms"] = (b.wall_s - a.wall_s) * 1000;

  std::fprintf(stderr,
               "bases: filter.pruning = %.0f candidates / %.0f label-matching "
               "data vertices over %zu queries; partition.halo_hit_ratio = "
               "%.0f hits / %.0f probes\n",
               candidates, label_base, filter_cand.n, halo_hits.sum, probes);
  return rep;
}

}  // namespace svcbench
