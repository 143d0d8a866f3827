#include "check.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace svcbench {
namespace {

constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;

/// (min, max, label) packed with a +1 so that no key is the empty slot 0.
uint64_t EdgeKey(VertexId a, VertexId b, gsi::Label l) {
  if (a > b) std::swap(a, b);
  return ((uint64_t{a} << 36) | (uint64_t{b} << 8) | l) + 1;
}

uint64_t MixRow(std::span<const VertexId> row) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (VertexId v : row) h = (h ^ v) * kMul + (h >> 29);
  return h | 1;  // never 0 (the empty slot)
}

std::string Describe(size_t r, std::span<const VertexId> row,
                     const char* what) {
  std::string s = "row " + std::to_string(r) + " [";
  for (size_t c = 0; c < row.size(); ++c) {
    if (c > 0) s += ' ';
    s += std::to_string(row[c]);
  }
  s += "]: ";
  return s + what;
}

}  // namespace

RowChecker::RowChecker(const Graph& data)
    : labels_(data.vertex_labels().begin(), data.vertex_labels().end()) {
  const std::vector<gsi::EdgeRecord> edges = data.UndirectedEdges();
  if (data.num_vertices() >= (size_t{1} << 28)) {
    std::fprintf(stderr, "RowChecker: graph too large for 28-bit ids\n");
    std::abort();
  }
  const size_t slots = std::bit_ceil(2 * edges.size() + 2);
  edges_.assign(slots, 0);
  mask_ = slots - 1;
  for (const gsi::EdgeRecord& e : edges) {
    if (e.label > 0xff) {
      std::fprintf(stderr, "RowChecker: edge label above 255\n");
      std::abort();
    }
    const uint64_t key = EdgeKey(e.src, e.dst, e.label);
    uint64_t i = (key * kMul) >> 20 & mask_;
    while (edges_[i] != 0 && edges_[i] != key) i = (i + 1) & mask_;
    edges_[i] = key;
  }
}

bool RowChecker::HasEdge(VertexId a, VertexId b, gsi::Label l) const {
  if (a >= labels_.size() || b >= labels_.size() || l > 0xff) return false;
  const uint64_t key = EdgeKey(a, b, l);
  for (uint64_t i = (key * kMul) >> 20 & mask_;; i = (i + 1) & mask_) {
    if (edges_[i] == key) return true;
    if (edges_[i] == 0) return false;
  }
}

std::string RowChecker::Check(const Query& query, int64_t reference,
                              std::span<const VertexId> rows,
                              std::span<const VertexId> column_to_query,
                              Scratch& scratch) const {
  const Graph& q = query.graph;
  const size_t cols = column_to_query.size();
  if (cols != q.num_vertices()) return "column count differs from |V(Q)|";
  if (rows.size() % cols != 0) return "ragged row buffer";
  std::vector<size_t> col_of(cols, cols);
  for (size_t c = 0; c < cols; ++c) {
    if (column_to_query[c] >= cols || col_of[column_to_query[c]] != cols) {
      return "column_to_query is not a permutation";
    }
    col_of[column_to_query[c]] = c;
  }
  std::vector<gsi::Label> want_label(cols);
  std::vector<VertexId> want_walk(cols);
  for (size_t c = 0; c < cols; ++c) {
    want_label[c] = q.vertex_label(column_to_query[c]);
    want_walk[c] = query.walk[column_to_query[c]];
  }
  struct ColEdge {
    size_t a, b;
    gsi::Label l;
  };
  std::vector<ColEdge> edges;
  for (const gsi::EdgeRecord& e : q.UndirectedEdges()) {
    edges.push_back({col_of[e.src], col_of[e.dst], e.label});
  }

  const size_t num_rows = rows.size() / cols;
  if (reference >= 0 && num_rows != static_cast<size_t>(reference)) {
    return std::to_string(num_rows) + " rows, reference count " +
           std::to_string(reference);
  }
  const size_t slots = std::bit_ceil(2 * num_rows + 2);
  scratch.hashes.assign(slots, 0);
  const uint64_t mask = slots - 1;
  bool hash_collision = false;
  bool walk_found = false;
  for (size_t r = 0; r < num_rows; ++r) {
    std::span<const VertexId> row = rows.subspan(r * cols, cols);
    for (size_t c = 0; c < cols; ++c) {
      if (row[c] >= labels_.size() || labels_[row[c]] != want_label[c]) {
        return Describe(r, row, "vertex label mismatch");
      }
      for (size_t d = 0; d < c; ++d) {
        if (row[c] == row[d]) return Describe(r, row, "not injective");
      }
    }
    for (const ColEdge& e : edges) {
      if (!HasEdge(row[e.a], row[e.b], e.l)) {
        return Describe(r, row, "query edge has no data edge");
      }
    }
    walk_found = walk_found || std::equal(row.begin(), row.end(),
                                          want_walk.begin());
    const uint64_t h = MixRow(row);
    uint64_t i = (h * kMul) >> 17 & mask;
    while (scratch.hashes[i] != 0 && scratch.hashes[i] != h) {
      i = (i + 1) & mask;
    }
    hash_collision = hash_collision || scratch.hashes[i] == h;
    scratch.hashes[i] = h;
  }
  if (!walk_found) return "the walk's own mapping is missing";
  if (hash_collision) {
    // Equal 64-bit row hashes: settle exactly by sorting row indices.
    std::vector<size_t> order(num_rows);
    for (size_t r = 0; r < num_rows; ++r) order[r] = r;
    auto row_at = [&](size_t r) { return rows.subspan(r * cols, cols); };
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      auto x = row_at(a), y = row_at(b);
      return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                          y.end());
    });
    for (size_t k = 1; k < num_rows; ++k) {
      auto x = row_at(order[k - 1]), y = row_at(order[k]);
      if (std::equal(x.begin(), x.end(), y.begin())) {
        return Describe(order[k], y, "duplicate row");
      }
    }
  }
  return "";
}

}  // namespace svcbench
