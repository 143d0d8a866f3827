#include "load.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>

namespace svcbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Order-sensitive digest of a result: its column map and every row value.
class RowDigest {
 public:
  void Add(std::span<const VertexId> values) {
    for (VertexId v : values) h_ = (h_ ^ v) * 0x100000001b3ull;
  }
  uint64_t value() const { return h_ | 1; }  // never 0 (= "unchecked")

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hands out submission indices; stops at the first round boundary after
/// the time is up (or when the rounds run out).
class Dispenser {
 public:
  Dispenser(size_t round_length, const LoadOptions& opt)
      : round_length_(round_length),
        opt_(opt),
        next_(opt.first_round * round_length) {}

  std::optional<size_t> Next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return std::nullopt;
    if (next_ % round_length_ == 0 &&
        (next_ / round_length_ - opt_.first_round >= opt_.max_rounds ||
         MsSince(start_) >= opt_.seconds * 1000)) {
      stopped_ = true;
      return std::nullopt;
    }
    return next_++;
  }

  size_t issued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_ - opt_.first_round * round_length_;
  }

 private:
  const size_t round_length_;
  const LoadOptions& opt_;
  const Clock::time_point start_ = Clock::now();
  mutable std::mutex mu_;
  size_t next_;           // guarded by mu_
  bool stopped_ = false;  // guarded by mu_
};

}  // namespace

LoadResult RunClosedLoop(gsi::QueryService& service, const Workload& w,
                         const RowChecker& checker, const LoadOptions& opt) {
  const size_t round_length = w.round.size();
  const size_t budget = service.options().page_budget_bytes;
  LoadResult out;
  std::mutex out_mu;
  std::atomic<bool> corrupt_pending{opt.corrupt_first_row};
  Dispenser dispenser(round_length, opt);

  auto client = [&] {
    LoadResult mine;
    std::vector<std::pair<size_t, int64_t>> rows_by_index;
    RowChecker::Scratch scratch;
    std::vector<VertexId> rows;
    std::vector<VertexId> column_to_query;
    while (std::optional<size_t> index = dispenser.Next()) {
      const Query q =
          Submission(w, *index / round_length, *index % round_length);
      ScopedSpan query_span(opt.spans, "client.query", opt.parent_span);
      const Clock::time_point t0 = Clock::now();
      gsi::Result<gsi::QueryTicket> ticket = [&] {
        ScopedSpan span(opt.spans, "service.submit", query_span.id());
        return service.Submit(q.graph);
      }();
      mine.submit_ms += MsSince(t0);
      if (!ticket.ok()) {
        ++mine.failed;
        continue;
      }
      const size_t slot = *index % round_length;
      uint64_t known_digest = 0;
      if (opt.digests != nullptr) {
        std::lock_guard<std::mutex> lock(out_mu);
        known_digest = (*opt.digests)[slot];
      }
      const bool full_check = known_digest == 0;
      rows.clear();
      RowDigest digest;
      size_t num_rows = 0;
      std::string page_error;
      bool failed = false;
      double latency_ms = 0;
      if (opt.use_wait) {
        gsi::Result<gsi::QueryResult> r = [&] {
          ScopedSpan span(opt.spans, "service.wait", query_span.id());
          return service.Wait(*ticket);
        }();
        latency_ms = MsSince(t0);
        if (r.ok()) {
          std::span<const VertexId> table = r->table.data().span();
          column_to_query = r->column_to_query;
          digest.Add(column_to_query);
          digest.Add(table);
          if (full_check) rows.assign(table.begin(), table.end());
          num_rows = r->num_matches();
          mine.wait_ms.push_back(latency_ms - r->stats.wall_ms);
        } else {
          failed = true;
        }
      } else {
        for (uint64_t page_index = 0;; ++page_index) {
          const Clock::time_point f0 = Clock::now();
          gsi::Result<gsi::ResultPage> page = [&] {
            ScopedSpan span(opt.spans, "service.fetch_page", query_span.id());
            return service.FetchPage(*ticket);
          }();
          mine.fetch_ms += MsSince(f0);
          if (!page.ok()) {
            failed = true;
            break;
          }
          const size_t bytes = page->rows.size() * sizeof(VertexId);
          if (budget > 0 && bytes > budget) {
            page_error = "page of " + std::to_string(bytes) +
                         " B over the " + std::to_string(budget) +
                         " B budget";
          }
          if (page->rows.size() != page->num_rows * page->cols ||
              page->row_begin != num_rows || page->page_index != page_index) {
            page_error = "page " + std::to_string(page_index) +
                         " out of sequence";
          }
          if (page_index == 0) {
            column_to_query = page->column_to_query;
            digest.Add(column_to_query);
          }
          if (corrupt_pending.load() && page->rows.size() >= 2 &&
              corrupt_pending.exchange(false)) {
            page->rows[1] = page->rows[0];
          }
          digest.Add(page->rows);
          if (full_check) {
            rows.insert(rows.end(), page->rows.begin(), page->rows.end());
          }
          num_rows += page->num_rows;
          ++mine.pages;
          mine.page_bytes += bytes;
          if (page->done) break;
        }
        latency_ms = MsSince(t0);
      }
      if (failed) {
        ++mine.failed;
        continue;
      }
      mine.latency_ms.push_back(latency_ms);
      mine.rows += num_rows;
      rows_by_index.emplace_back(*index - opt.first_round * round_length,
                                 static_cast<int64_t>(num_rows));
      query_span.Attr("rows", static_cast<double>(num_rows));
      if (opt.use_wait && full_check && rows.size() >= 2 &&
          corrupt_pending.exchange(false)) {
        rows[1] = rows[0];
      }
      std::string error = page_error;
      if (error.empty() && full_check) {
        error = checker.Check(q, w.shapes[q.shape].reference, rows,
                              column_to_query, scratch);
        if (error.empty() && opt.digests != nullptr) {
          std::lock_guard<std::mutex> lock(out_mu);
          (*opt.digests)[slot] = digest.value();
        }
      } else if (error.empty() && digest.value() != known_digest) {
        error = "rows differ from the checked result of the same submission";
      }
      if (!error.empty()) {
        mine.errors.push_back(w.name + " submission " +
                              std::to_string(*index) + ": " + error);
      }
    }
    std::lock_guard<std::mutex> lock(out_mu);
    for (const auto& [index, num_rows] : rows_by_index) {
      if (out.rows_by_index.size() <= index) {
        out.rows_by_index.resize(index + 1, -1);
      }
      out.rows_by_index[index] = num_rows;
    }
    out.failed += mine.failed;
    out.latency_ms.insert(out.latency_ms.end(), mine.latency_ms.begin(),
                          mine.latency_ms.end());
    out.rows += mine.rows;
    out.pages += mine.pages;
    out.page_bytes += mine.page_bytes;
    out.submit_ms += mine.submit_ms;
    out.fetch_ms += mine.fetch_ms;
    out.wait_ms.insert(out.wait_ms.end(), mine.wait_ms.begin(),
                       mine.wait_ms.end());
    out.errors.insert(out.errors.end(), mine.errors.begin(),
                      mine.errors.end());
  };

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  out.wall_s = MsSince(start) / 1000;
  out.attempted = dispenser.issued();
  out.rounds = out.attempted / round_length;
  out.rows_by_index.resize(out.attempted, -1);
  return out;
}

}  // namespace svcbench
