#include "store/multi_executor.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "query/parser.h"
#include "util/threads.h"

namespace meetxml {
namespace store {

using util::Result;
using util::Status;

namespace {

// Production proof of the top-k pruning: examined counts answers that
// were actually materialized across fan-outs, pruned counts qualifying
// answers skipped by limit pushdown, per-document heaps, or the shared
// distance ceiling.
obs::Counter* RowsExaminedCounter() {
  static obs::Counter* counter = &obs::MetricsRegistry::Global().counter(
      "meetxml_query_rows_examined_total");
  return counter;
}
obs::Counter* RowsPrunedCounter() {
  static obs::Counter* counter = &obs::MetricsRegistry::Global().counter(
      "meetxml_query_rows_pruned_total");
  return counter;
}

}  // namespace

std::string MultiResult::ToText() const {
  return query::RenderTable(columns, rows, truncated);
}

Result<MultiResult> MultiExecutor::Execute(
    std::string_view scope, const query::Query& query,
    const query::ExecuteOptions& options, obs::QueryTrace* trace) const {
  std::vector<std::string> names;
  {
    obs::TraceSpan route_span(trace, obs::Stage::kRoute);
    names = catalog_->MatchNames(scope);
  }
  if (names.empty()) {
    return Status::NotFound("scope '", scope,
                            "' matches no catalog document");
  }
  if (trace != nullptr) trace->SetDocs(names);

  // Resolve executors first (the catalog's lazy build is race-free),
  // then fan the read-only execution out across documents. First-touch
  // decode and index-build costs are attributed per document here.
  std::vector<const query::Executor*> executors;
  executors.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    MEETXML_ASSIGN_OR_RETURN(
        const query::Executor* executor,
        catalog_->ExecutorFor(names[i], trace,
                              trace != nullptr ? trace->doc(i) : nullptr));
    executors.push_back(executor);
  }

  // MEET rows rank by the paper's witness distance; every other
  // projection ranks all rows at distance 0, so the merge key below
  // degenerates to (document, row) order.
  const bool rank_by_distance =
      !query.projections.empty() &&
      query.projections.front().kind == query::Projection::Kind::kMeet;
  const size_t user_limit =
      query.limit.has_value() ? static_cast<size_t>(*query.limit)
                              : std::numeric_limits<size_t>::max();
  size_t row_cap = std::min(options.max_rows, user_limit);
  if (options.limit_hint > 0) {
    row_cap = std::min(row_cap, options.limit_hint);
  }

  // The global k-bounded heap every fan-out merges through: worst row
  // at the front, ordered by the full key (distance, document index,
  // row index), so the answer is a deterministic function of the
  // per-document answers at any thread count. Each entry owns its row
  // cells, moved out of the per-document result. Below row_cap rows are
  // only collected; the vector is made a heap once the cap binds.
  struct MergeRow {
    int distance;
    size_t doc;
    size_t row;
    std::vector<std::string> cells;
  };
  auto row_before = [](const MergeRow& a, const MergeRow& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    if (a.doc != b.doc) return a.doc < b.doc;
    return a.row < b.row;
  };
  std::vector<MergeRow> heap;
  std::mutex heap_mu;
  // Once the heap is full its worst distance is a shared ceiling that
  // early-terminates the remaining documents' meet enumeration. The
  // relaxed ceiling is a pure pruning hint — a stale read costs work,
  // never rows — so the merged answer stays exact.
  std::atomic<int> ceiling{std::numeric_limits<int>::max()};
  query::ExecuteOptions doc_options = options;
  doc_options.rank_ceiling = &ceiling;

  std::vector<Result<query::QueryResult>> outcomes(
      names.size(), Status::Internal("query did not run"));
  std::vector<uint64_t> examined(names.size(), 0);
  util::ParallelFor(names.size(), options.merge_threads, [&](size_t i) {
    // QueryTrace's stage accumulators are atomic, so concurrent
    // workers may add to kExecute; the per-doc slot is this worker's
    // alone until ParallelFor returns.
    obs::TraceSpan execute_span(
        trace, obs::Stage::kExecute,
        trace != nullptr ? &trace->doc(i)->execute_us : nullptr);
    outcomes[i] = executors[i]->Execute(query, doc_options);
    execute_span.Stop();
    if (!outcomes[i].ok()) return;
    query::QueryResult& result = *outcomes[i];
    examined[i] = rank_by_distance ? result.meet_stats.meets_materialized
                                   : result.rows.size();

    {
      obs::TraceSpan merge_span(trace, obs::Stage::kMerge);
      std::lock_guard<std::mutex> lock(heap_mu);
      for (size_t r = 0; r < result.rows.size() && row_cap > 0; ++r) {
        MergeRow candidate{
            rank_by_distance ? result.meets[r].witness_distance : 0, i, r, {}};
        const bool full = heap.size() >= row_cap;
        if (full) {
          // Rows ascend in (distance, row): once one row loses to the
          // current worst, every later row of this document loses too.
          if (!row_before(candidate, heap.front())) break;
          std::pop_heap(heap.begin(), heap.end(), row_before);
          heap.pop_back();
        }
        candidate.cells = std::move(result.rows[r]);
        heap.push_back(std::move(candidate));
        if (full) {
          std::push_heap(heap.begin(), heap.end(), row_before);
        } else if (heap.size() == row_cap) {
          std::make_heap(heap.begin(), heap.end(), row_before);
        }
      }
      if (row_cap > 0 && heap.size() >= row_cap) {
        ceiling.store(heap.front().distance, std::memory_order_relaxed);
      }
    }
    // Outside the lock: freeing the spent rows and witness lists is
    // per-document work. What stays is counts, stats and flags.
    result.rows.clear();
    result.meets.clear();
  });

  obs::TraceSpan merge_span(trace, obs::Stage::kMerge);
  MultiResult merged;
  for (size_t i = 0; i < names.size(); ++i) {
    MEETXML_RETURN_NOT_OK(outcomes[i].status());
    DocumentResult entry;
    entry.id = catalog_->Find(names[i])->id;
    entry.name = names[i];
    entry.result = std::move(*outcomes[i]);
    merged.per_document.push_back(std::move(entry));
  }

  merged.columns.push_back("doc");
  const query::QueryResult& first = merged.per_document.front().result;
  merged.columns.insert(merged.columns.end(), first.columns.begin(),
                        first.columns.end());

  std::sort(heap.begin(), heap.end(), row_before);
  merged.rows.reserve(heap.size());
  for (MergeRow& ref : heap) {
    std::vector<std::string> row;
    row.reserve(1 + ref.cells.size());
    row.push_back(merged.per_document[ref.doc].name);
    for (std::string& cell : ref.cells) {
      row.push_back(std::move(cell));
    }
    merged.rows.push_back(std::move(row));
  }

  // Truncation means an *incomplete* answer: rows the user asked for
  // were dropped — provably (rows_found exceeds the emitted set) or
  // possibly (an enumeration guard cut counting short, so the row
  // comparison can't be trusted). Either way, an explicit LIMIT
  // satisfied exactly is a complete answer: the user asked for k rows
  // and got k. That also covers LIMIT 0, whose short-circuit skips
  // execution and leaves rows_found a lower bound (rows_found_exact
  // false).
  bool exact = true;
  for (size_t i = 0; i < merged.per_document.size(); ++i) {
    const query::QueryResult& result = merged.per_document[i].result;
    merged.rows_found += result.rows_found;
    exact = exact && result.rows_found_exact;
    merged.rows_examined += examined[i];
  }
  if (merged.rows_found > merged.rows_examined) {
    merged.rows_pruned = merged.rows_found - merged.rows_examined;
  }
  merged.truncated = (!exact || merged.rows_found > merged.rows.size()) &&
                     merged.rows.size() < user_limit;
  RowsExaminedCounter()->Add(merged.rows_examined);
  RowsPrunedCounter()->Add(merged.rows_pruned);
  return merged;
}

Result<MultiResult> MultiExecutor::ExecuteText(
    std::string_view scope, std::string_view query_text,
    const query::ExecuteOptions& options, obs::QueryTrace* trace) const {
  obs::TraceSpan parse_span(trace, obs::Stage::kParse);
  Result<query::Query> query = query::ParseQuery(query_text);
  parse_span.Stop();
  MEETXML_RETURN_NOT_OK(query.status());
  return Execute(scope, *query, options, trace);
}

Result<std::vector<CrossMatch>> MultiExecutor::FindEverywhere(
    std::string_view source, bat::Oid subtree, std::string_view scope,
    const text::CrossFindOptions& options) const {
  const NamedDocument* source_entry = catalog_->Find(source);
  if (source_entry == nullptr) {
    return Status::NotFound("no document named '", source,
                            "' in the catalog");
  }
  // Get() materializes and validates a lazily-opened source before
  // its columns are walked below.
  MEETXML_ASSIGN_OR_RETURN(const model::StoredDocument* source_doc,
                           catalog_->Get(source));
  if (subtree >= source_doc->node_count()) {
    return Status::NotFound("no node with OID ", subtree, " in '",
                            source, "'");
  }

  std::vector<std::string> scoped = catalog_->MatchNames(scope);
  if (scoped.empty()) {
    // Same contract as Execute: an empty scope is almost always a
    // typo'd glob, not "no concepts found". (A scope matching only the
    // source legitimately yields zero targets below.)
    return Status::NotFound("scope '", scope,
                            "' matches no catalog document");
  }
  std::vector<std::string> targets;
  for (std::string& name : scoped) {
    if (name != source_entry->name) targets.push_back(std::move(name));
  }
  std::vector<const query::Executor*> executors;
  executors.reserve(targets.size());
  for (const std::string& name : targets) {
    MEETXML_ASSIGN_OR_RETURN(const query::Executor* executor,
                             catalog_->ExecutorFor(name));
    executors.push_back(executor);
  }

  // The per-target probe forces the target's full-text engine; running
  // it inside the fan-out parallelizes those index builds too (the
  // executor's lazy build is thread-safe).
  std::vector<Result<std::vector<core::GeneralMeet>>> outcomes(
      targets.size(), Status::Internal("probe did not run"));
  util::ParallelFor(targets.size(), 0, [&](size_t i) {
    Result<const text::FullTextSearch*> search =
        executors[i]->TextSearch();
    if (!search.ok()) {
      outcomes[i] = search.status();
      return;
    }
    outcomes[i] = text::FindInOtherDocument(
        *source_doc, subtree, executors[i]->doc(), **search,
        options);
  });

  std::vector<CrossMatch> matches;
  for (size_t i = 0; i < targets.size(); ++i) {
    MEETXML_RETURN_NOT_OK(outcomes[i].status());
    DocId id = catalog_->Find(targets[i])->id;
    for (core::GeneralMeet& meet : *outcomes[i]) {
      matches.push_back(CrossMatch{id, targets[i], std::move(meet)});
    }
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const CrossMatch& a, const CrossMatch& b) {
                     return a.meet.witness_distance <
                            b.meet.witness_distance;
                   });
  return matches;
}

}  // namespace store
}  // namespace meetxml
