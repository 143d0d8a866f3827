#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "baselines/cpu_matcher.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/labeler.h"
#include "util/rng.h"

namespace svcbench {
namespace {

using gsi::EdgeRecord;
using gsi::Label;
using gsi::Result;
using gsi::Status;

// --- selective_repeat / partitioned_halo: enron-like scale-free graph, so
// MakeDataset("enron", 3): |V| = 51K, |E| = 280K, 10 vertex and 25 edge
// labels. The graph is fixed; the seed picks the walks and the stream.
constexpr double kEnronScale = 3.0;
constexpr size_t kSelectiveQueryVertices = 8;
constexpr size_t kSelectiveShapes = 48;
constexpr size_t kSelectiveRoundLength = 96;
constexpr double kSelectiveZipfAlpha = 1.5;
/// Walk seed of the selective shape pool, fixed so that every seed serves
/// the same shapes (one seed's popular shape can carry 10x the rows of
/// another's); the run seed picks the order and the renumberings.
constexpr uint64_t kSelectivePoolSeed = 1;
constexpr size_t kSelectiveMaxRows = 1024;

// --- heavy_stream: hubby scale-free graph with 2 vertex and 2 edge labels,
// generated from the seed.
constexpr size_t kHeavyVertices = 2000;
constexpr size_t kHeavyEdgesPerVertex = 4;
constexpr size_t kHeavyHubs = 8;
constexpr double kHeavyHubFraction = 0.3;
constexpr size_t kHeavyQueryVertices = 4;
/// Class search ends after this many walks in a row find no new class.
constexpr size_t kHeavyStaleWalks = 20000;
constexpr uint64_t kHeavyGraphSeed = 7;
constexpr uint64_t kHeavyWalkSeed = 8;
/// Classes each seed leaves out of its round, so that seeds differ.
constexpr size_t kHeavyDropped = 8;
/// Far below one round's candidate lists, so LRU never keeps a shape
/// until its next submission: the cache is looked up and never hits.
constexpr size_t kHeavyFilterCacheBytes = 64 << 10;
/// Admission window on the row bounds: every intermediate table at most
/// max_rows / 4, the full query's bound at least 10^5.
constexpr double kHeavyRowBoundShare = 0.25;
constexpr double kHeavyMinBound = 1e5;
constexpr size_t kHeavyPageBudget = 16 << 10;

/// Cut-off of one Ullmann reference count, and the wall budget for all of
/// a workload's counts (shapes not started within it go unreferenced).
constexpr double kReferenceCapMs = 2000;
constexpr double kReferenceBudgetMs = 4000;

/// Paper-style walk: continue from a random visited vertex with this
/// probability, so the walk stays local and closes cycles.
constexpr double kRevisitProbability = 0.25;

uint64_t Mix(uint64_t a, uint64_t b) {
  SeededRng r(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
  return r.Next();
}

/// Cuts one connected query of `n` vertices from `data` by random walk.
Result<Shape> CutWalk(const Graph& data, size_t n, SeededRng& rng) {
  const VertexId start = static_cast<VertexId>(rng.Below(data.num_vertices()));
  if (data.degree(start) == 0) return Status::NotFound("isolated start");
  std::unordered_map<VertexId, VertexId> local;  // data -> query id
  std::vector<VertexId> walk{start};
  local[start] = 0;
  std::vector<EdgeRecord> edges;
  VertexId cur = start;
  for (size_t steps = 0; walk.size() < n && steps < 64 * n; ++steps) {
    if (walk.size() > 1 && rng.Unit() < kRevisitProbability) {
      cur = walk[rng.Below(walk.size())];
    }
    std::span<const gsi::Neighbor> nbrs = data.neighbors(cur);
    const gsi::Neighbor step = nbrs[rng.Below(nbrs.size())];
    auto [it, fresh] =
        local.try_emplace(step.v, static_cast<VertexId>(walk.size()));
    if (fresh) walk.push_back(step.v);
    VertexId a = local[cur];
    VertexId b = it->second;
    edges.push_back({std::min(a, b), std::max(a, b), step.elabel});
    cur = step.v;
  }
  if (walk.size() < n) return Status::NotFound("walk stayed too small");
  std::sort(edges.begin(), edges.end(), [](const auto& x, const auto& y) {
    return std::tie(x.src, x.dst, x.label) < std::tie(y.src, y.dst, y.label);
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<Label> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = data.vertex_label(walk[i]);
  Result<Graph> g = Graph::Create(n, std::move(labels), std::move(edges));
  if (!g.ok()) return g.status();
  return Shape{std::move(g.value()), std::move(walk), -1, 0};
}

/// `perm[i]` is the new id of query vertex i.
Query Renumber(const Shape& s, uint32_t shape_index,
               const std::vector<uint32_t>& perm) {
  const size_t n = s.graph.num_vertices();
  std::vector<Label> labels(n);
  std::vector<VertexId> walk(n);
  for (size_t i = 0; i < n; ++i) {
    labels[perm[i]] = s.graph.vertex_label(static_cast<VertexId>(i));
    walk[perm[i]] = s.walk[i];
  }
  std::vector<EdgeRecord> edges;
  for (const EdgeRecord& e : s.graph.UndirectedEdges()) {
    edges.push_back({perm[e.src], perm[e.dst], e.label});
  }
  Result<Graph> g = Graph::Create(n, std::move(labels), std::move(edges));
  return Query{std::move(g.value()), std::move(walk), shape_index};
}

std::vector<uint32_t> RandomPermutation(size_t n, SeededRng& rng) {
  std::vector<uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Below(i)]);
  return p;
}

/// Shape s as round r of a renumbering workload submits it.
Query RoundRenumbering(const Workload& w, size_t r, uint32_t s) {
  const Shape& shape = w.shapes[s];
  SeededRng rng(Mix(Mix(w.seed, 1000 + r), s));
  return Renumber(shape, s,
                  RandomPermutation(shape.graph.num_vertices(), rng));
}

/// The structural key the FilterCache uses: vertex labels plus the sorted
/// labeled edge list, under renumbering `perm`.
std::vector<uint32_t> StructuralKey(const Graph& q,
                                    const std::vector<uint32_t>& perm) {
  const size_t n = q.num_vertices();
  std::vector<uint32_t> key(n);
  for (size_t i = 0; i < n; ++i) {
    key[perm[i]] = q.vertex_label(static_cast<VertexId>(i));
  }
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> edges;
  for (const EdgeRecord& e : q.UndirectedEdges()) {
    uint32_t a = perm[e.src], b = perm[e.dst];
    edges.emplace_back(std::min(a, b), std::max(a, b), e.label);
  }
  std::sort(edges.begin(), edges.end());
  for (const auto& [a, b, l] : edges) key.insert(key.end(), {a, b, l});
  return key;
}

std::vector<std::vector<uint32_t>> AllPermutations(size_t n) {
  std::vector<uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  std::vector<std::vector<uint32_t>> out;
  do out.push_back(p);
  while (std::next_permutation(p.begin(), p.end()));
  return out;
}


/// Homomorphism count of a BFS spanning tree of q[subset] (bitmask): an
/// upper bound on the embeddings of that connected sub-query.
double TreeHomomorphisms(const Graph& data, const Graph& q, uint32_t subset) {
  const size_t n = q.num_vertices();
  VertexId root = 0;
  while (!(subset >> root & 1)) ++root;
  std::vector<VertexId> order{root};
  std::vector<int> parent(n, -1);
  std::vector<Label> up_label(n, 0);
  uint32_t seen = 1u << root;
  for (size_t i = 0; i < order.size(); ++i) {
    for (const gsi::Neighbor& nb : q.neighbors(order[i])) {
      if (!(subset >> nb.v & 1) || (seen >> nb.v & 1)) continue;
      seen |= 1u << nb.v;
      parent[nb.v] = static_cast<int>(order[i]);
      up_label[nb.v] = nb.elabel;
      order.push_back(nb.v);
    }
  }
  if (seen != subset) return 0;  // q[subset] is disconnected
  const size_t nv = data.num_vertices();
  std::vector<std::vector<double>> f(n);
  for (size_t i = order.size(); i-- > 0;) {
    const VertexId u = order[i];
    f[u].assign(nv, 0);
    for (VertexId v = 0; v < nv; ++v) {
      if (data.vertex_label(v) == q.vertex_label(u)) f[u][v] = 1;
    }
    for (size_t j = i + 1; j < order.size(); ++j) {
      const VertexId c = order[j];
      if (parent[c] != static_cast<int>(u)) continue;
      for (VertexId v = 0; v < nv; ++v) {
        if (f[u][v] == 0) continue;
        double sum = 0;
        for (const gsi::Neighbor& nb :
             data.NeighborsWithLabel(v, up_label[c])) {
          sum += f[c][nb.v];
        }
        f[u][v] *= sum;
      }
    }
  }
  return std::accumulate(f[root].begin(), f[root].end(), 0.0);
}

/// The heavy_stream admission rule. Every intermediate table of the join
/// holds embeddings of a connected sub-query, whatever the join order, so
/// the largest spanning-tree homomorphism count over connected vertex
/// subsets bounds every table the query can build.
double IntermediateRowBound(const Graph& data, const Graph& q) {
  double bound = 0;
  const uint32_t all = (1u << q.num_vertices()) - 1;
  for (uint32_t s = 1; s <= all; ++s) {
    if (std::popcount(s) < 2) continue;
    bound = std::max(bound, TreeHomomorphisms(data, q, s));
  }
  return bound;
}

Workload EnronWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.data = std::move(gsi::MakeDataset("enron", kEnronScale).value().graph);
  w.gsi = gsi::GsiOptOptions();
  w.service.num_workers = 2;
  w.service.overload = gsi::OverloadPolicy::kBlock;
  w.clients = 2;

  // Selective shapes: walks whose Ullmann count is known and at most
  // kSelectiveMaxRows (a walk cut at a hub can match 10^5 times).
  SeededRng rng(Mix(kSelectivePoolSeed, 1));
  while (w.shapes.size() < kSelectiveShapes) {
    Result<Shape> s = CutWalk(w.data, kSelectiveQueryVertices, rng);
    if (!s.ok()) continue;
    gsi::CpuMatcherOptions co;
    co.timeout_ms = kReferenceCapMs;
    co.match_limit = kSelectiveMaxRows + 1;
    const gsi::CpuMatchResult r = gsi::UllmannMatch(w.data, s->graph, co);
    if (r.timed_out || r.num_matches > kSelectiveMaxRows) continue;
    s->reference = static_cast<int64_t>(r.num_matches);
    w.shapes.push_back(std::move(s.value()));
  }
  // Skewed repeat popularity: shape k appears ~ L/(k+1)^alpha times per
  // round (largest-remainder rounding to exactly L), in a seeded order.
  // Counts, not draws, so the share of repeats is the same for every seed.
  std::vector<double> weight(kSelectiveShapes);
  for (size_t k = 0; k < kSelectiveShapes; ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), kSelectiveZipfAlpha);
  }
  const double total = std::accumulate(weight.begin(), weight.end(), 0.0);
  std::vector<size_t> count(kSelectiveShapes);
  std::vector<std::pair<double, size_t>> remainder;
  size_t placed = 0;
  for (size_t k = 0; k < kSelectiveShapes; ++k) {
    const double share = weight[k] / total * kSelectiveRoundLength;
    count[k] = static_cast<size_t>(share);
    placed += count[k];
    remainder.emplace_back(share - static_cast<double>(count[k]), k);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t i = 0; placed < kSelectiveRoundLength; ++i, ++placed) {
    ++count[remainder[i].second];
  }
  std::vector<uint32_t> sequence;
  size_t distinct = 0;
  for (size_t k = 0; k < kSelectiveShapes; ++k) {
    sequence.insert(sequence.end(), count[k], static_cast<uint32_t>(k));
    distinct += count[k] > 0;
  }
  SeededRng order_rng(Mix(seed, 1));
  for (size_t i = sequence.size(); i > 1; --i) {
    std::swap(sequence[i - 1], sequence[order_rng.Below(i)]);
  }
  w.seed = seed;
  w.renumber_rounds = true;
  for (uint32_t s : sequence) w.round.push_back(RoundRenumbering(w, 0, s));
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "data %s (MakeDataset enron x%.0f); %zu shapes of %zu "
                "vertices with at most %zu matches; a round submits %zu "
                "queries over %zu distinct shapes, shape k ~ 1/(k+1)^%.1f of "
                "them, in a seeded order, renumbered per round",
                w.data.Summary().c_str(), kEnronScale, kSelectiveShapes,
                kSelectiveQueryVertices, kSelectiveMaxRows,
                kSelectiveRoundLength, distinct, kSelectiveZipfAlpha);
  w.summary = buf;
  return w;
}

Workload HeavyWorkload(uint64_t seed) {
  Workload w;
  w.name = "heavy_stream";
  // The graph and the class search are fixed, so that every seed meets the
  // same shape classes (the hub labels alone would swing match counts
  // between generated graphs).
  gsi::Rng graph_rng(kHeavyGraphSeed);
  std::vector<gsi::RawEdge> raw =
      gsi::GenerateScaleFree(kHeavyVertices, kHeavyEdgesPerVertex, graph_rng,
                             kHeavyHubs, kHeavyHubFraction);
  gsi::LabelConfig lc;
  lc.num_vertex_labels = 2;
  lc.num_edge_labels = 2;
  lc.seed = kHeavyGraphSeed + 1;
  w.data = std::move(gsi::AssignLabels(kHeavyVertices, raw, lc).value());
  w.gsi = gsi::GsiOptOptions();
  w.service.num_workers = 1;
  w.service.num_devices = 4;
  w.service.max_shards_per_query = 2;
  w.service.page_budget_bytes = kHeavyPageBudget;
  w.service.filter_cache_bytes = kHeavyFilterCacheBytes;
  w.service.overload = gsi::OverloadPolicy::kBlock;
  w.clients = 2;

  // Every shape class (canonical key over the 24 renumberings) that walks
  // keep finding and that passes the row rule, one walk per class.
  const std::vector<std::vector<uint32_t>> perms =
      AllPermutations(kHeavyQueryVertices);
  std::map<std::vector<uint32_t>, bool> verdict;  // canonical key -> kept
  SeededRng rng(kHeavyWalkSeed);
  size_t walks = 0;
  for (size_t stale = 0; stale < kHeavyStaleWalks; ++stale) {
    ++walks;
    Result<Shape> s = CutWalk(w.data, kHeavyQueryVertices, rng);
    if (!s.ok()) continue;
    std::vector<uint32_t> canonical = StructuralKey(s->graph, perms[0]);
    for (const auto& p : perms) {
      canonical = std::min(canonical, StructuralKey(s->graph, p));
    }
    if (verdict.count(canonical)) continue;
    stale = 0;
    s->row_bound = IntermediateRowBound(w.data, s->graph);
    const bool kept =
        s->row_bound <= kHeavyRowBoundShare *
                            static_cast<double>(w.gsi.join.max_rows) &&
        TreeHomomorphisms(w.data, s->graph,
                          (1u << kHeavyQueryVertices) - 1) >= kHeavyMinBound;
    verdict[canonical] = kept;
    if (kept) w.shapes.push_back(std::move(s.value()));
  }
  // The seed drops a few classes and orders the rest; each class is
  // submitted in its canonical numbering, so the same class is the same
  // query graph whatever walk found it (the join order follows the
  // numbering).
  SeededRng order_rng(Mix(seed, 4));
  std::vector<uint32_t> order(w.shapes.size());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[order_rng.Below(i)]);
  }
  order.resize(order.size() - std::min(order.size() / 2, kHeavyDropped));
  for (uint32_t s : order) {
    const Shape& shape = w.shapes[s];
    std::vector<uint32_t> best = perms[0];
    for (const auto& p : perms) {
      if (StructuralKey(shape.graph, p) < StructuralKey(shape.graph, best)) {
        best = p;
      }
    }
    w.round.push_back(Renumber(shape, s, best));
  }
  w.seed = seed;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "data %s (scale-free n=%zu, %zu edges/vertex, %zu hubs at "
                "%.0f%% of |V|); %zu of %zu shape classes of %zu vertices "
                "pass the row rule (%zu walks); a round submits %zu of them "
                "once each in canonical numbering, in a seeded order; filter "
                "cache %zu B, page budget %zu B",
                w.data.Summary().c_str(), kHeavyVertices, kHeavyEdgesPerVertex,
                kHeavyHubs, kHeavyHubFraction * 100, w.shapes.size(),
                verdict.size(), kHeavyQueryVertices, walks, w.round.size(),
                kHeavyFilterCacheBytes, kHeavyPageBudget);
  w.summary = buf;
  return w;
}

}  // namespace

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Query Submission(const Workload& w, size_t r, size_t i) {
  if (!w.renumber_rounds || r == 0) return w.round[i];
  return RoundRenumbering(w, r, w.round[i].shape);
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "selective_repeat") return EnronWorkload(name, seed);
  if (name == "heavy_stream") return HeavyWorkload(seed);
  if (name == "partitioned_halo") {
    // The graph family and query seed of selective_repeat, served from a
    // 4-way partitioned, 2-way replicated data graph.
    Workload w = EnronWorkload(name, seed);
    w.service.num_devices = 4;
    w.service.partition_data_graph = true;
    w.service.partition_replicas = 2;
    w.service.halo_budget_bytes = 256 << 10;
    w.gsi.halo_budget_bytes = w.service.halo_budget_bytes;
    w.summary += "; K=4 partitions x R=2 replicas, halo budget 256 KiB";
    return w;
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

size_t ComputeReferenceCounts(Workload& w, int threads) {
  // Shapes in ascending row bound, so the budget goes to the cheap ones.
  std::vector<size_t> order(w.shapes.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return w.shapes[a].row_bound < w.shapes[b].row_bound;
  });
  const auto start = std::chrono::steady_clock::now();
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i; (i = next++) < order.size();) {
      Shape& shape = w.shapes[order[i]];
      const double left_ms =
          kReferenceBudgetMs -
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (shape.reference >= 0 || left_ms <= 0) continue;
      gsi::CpuMatcherOptions co;
      co.timeout_ms = std::min(kReferenceCapMs, left_ms);
      const gsi::CpuMatchResult r = gsi::UllmannMatch(w.data, shape.graph, co);
      if (!r.timed_out) shape.reference = static_cast<int64_t>(r.num_matches);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return static_cast<size_t>(
      std::count_if(w.shapes.begin(), w.shapes.end(),
                    [](const Shape& s) { return s.reference >= 0; }));
}

}  // namespace svcbench
