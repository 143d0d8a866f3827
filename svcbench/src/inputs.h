#ifndef SVCBENCH_INPUTS_H_
#define SVCBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "gsi/matcher.h"
#include "service/query_service.h"
#include "util/status.h"

namespace svcbench {

using gsi::Graph;
using gsi::VertexId;

/// splitmix64: the benchmark's own seeded stream, so its inputs do not move
/// when the program's generators change.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// A query shape cut from the data graph by a seeded random walk: query
/// vertex i was the walk's i-th distinct data vertex, walk[i], so `walk` is
/// an embedding of `graph` by construction and must appear among its rows.
struct Shape {
  Graph graph;
  std::vector<VertexId> walk;
  /// Match count from the src/baselines Ullmann matcher, or -1 when it did
  /// not finish under the cap (the query is then checked without it).
  int64_t reference = -1;
  /// Upper bound on any intermediate join table of the shape (heavy_stream
  /// admission rule; 0 where the rule is not applied).
  double row_bound = 0;
};

/// One submission: a shape, possibly under a vertex renumbering. Renumbered
/// copies are isomorphic (same matches up to column order) but have another
/// structural FilterCache key.
struct Query {
  Graph graph;
  std::vector<VertexId> walk;  ///< query vertex -> data vertex
  uint32_t shape = 0;
};

/// Everything one named workload feeds the program: the data graph, the
/// service configuration, the shapes and the submission rounds.
struct Workload {
  std::string name;
  Graph data;
  gsi::GsiOptions gsi;
  gsi::ServiceOptions service;
  /// Closed-loop clients; clients + service.num_workers <= 4.
  int clients = 2;
  std::vector<Shape> shapes;
  /// Round 0: every round submits these shapes in this order.
  std::vector<Query> round;
  /// Renumber every shape's vertices afresh in each round (a new structural
  /// FilterCache key per round); otherwise every round repeats `round`.
  bool renumber_rounds = false;
  uint64_t seed = 0;
  /// Human-readable make-up of the inputs (printed to stderr).
  std::string summary;
};

/// Submission i of round r.
Query Submission(const Workload& w, size_t r, size_t i);

/// Builds the named workload's inputs from `seed` (same seed, same inputs).
gsi::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Fills the missing Shape::reference values with Ullmann match counts,
/// `threads` shapes at a time in ascending row bound, each cut off after
/// 2 s and all within 4 s of wall time. Returns the number of shapes with a
/// reference count.
size_t ComputeReferenceCounts(Workload& w, int threads);

}  // namespace svcbench

#endif  // SVCBENCH_INPUTS_H_
