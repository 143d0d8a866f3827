#ifndef SVCBENCH_CHECK_H_
#define SVCBENCH_CHECK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "inputs.h"

namespace svcbench {

/// The benchmark's own output check, built from the data graph's edge list
/// and labels alone (no engine structure): every row must be an injective,
/// label- and edge-preserving mapping of the query, rows must be pairwise
/// distinct, the query's walk mapping must be among them, and the row count
/// must equal the CPU reference count when one exists.
class RowChecker {
 public:
  explicit RowChecker(const Graph& data);

  /// Scratch reused across Check calls of one thread.
  struct Scratch {
    std::vector<uint64_t> hashes;
  };

  /// Returns an empty string when `rows` (row-major, `column_to_query.size()`
  /// columns) pass every check, else a description of the first failure.
  std::string Check(const Query& query, int64_t reference,
                    std::span<const VertexId> rows,
                    std::span<const VertexId> column_to_query,
                    Scratch& scratch) const;

 private:
  bool HasEdge(VertexId a, VertexId b, gsi::Label l) const;

  std::vector<gsi::Label> labels_;
  std::vector<uint64_t> edges_;  // open addressing; 0 = empty slot
  uint64_t mask_ = 0;
};

}  // namespace svcbench

#endif  // SVCBENCH_CHECK_H_
