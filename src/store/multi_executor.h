// Cross-document query routing over a store::Catalog.
//
// The paper's DBLP case study queries a *collection* of bibliographies;
// pazpar2-style federated metasearch puts many named sources behind one
// query surface and merges their ranked results. MultiExecutor is that
// surface for the catalog: a parsed query is routed to one document, a
// name-glob subset, or all documents; per-document execution fans out
// on a thread pool (reusing query::Executor and the lazy per-document
// text indexes); and the per-document answers merge through one
// k-bounded heap into document-qualified rows — for MEET projections
// ranked globally by the paper's witness-distance heuristic (the
// number of joins, §4), so the best nearest concept wins regardless of
// which document it lives in.

#ifndef MEETXML_STORE_MULTI_EXECUTOR_H_
#define MEETXML_STORE_MULTI_EXECUTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/meet_general.h"
#include "query/executor.h"
#include "store/catalog.h"
#include "text/cross_document.h"

namespace meetxml {
namespace store {

/// \brief One document's share of a fanned-out query.
struct DocumentResult {
  DocId id = kInvalidDocId;
  std::string name;
  query::QueryResult result;
};

/// \brief The merged answer of a multi-document query.
struct MultiResult {
  /// "doc" followed by the per-document result columns.
  std::vector<std::string> columns;
  /// Document-qualified rows: row[0] is the document name. MEET rows
  /// are globally re-ranked by ascending witness distance; other
  /// projections keep (document, row) order.
  std::vector<std::vector<std::string>> rows;
  /// Per-document bookkeeping: columns, counts, meet stats and flags.
  /// The per-document `rows` and `meets` are always empty — their rows
  /// moved into the merged answer.
  std::vector<DocumentResult> per_document;

  /// Exact total of answer rows the query implies across all scoped
  /// documents, before any cap (meaningful when every per-document
  /// rows_found_exact was true).
  uint64_t rows_found = 0;
  /// Rows actually materialized across the fan-out (for MEET: meets
  /// whose witnesses were built). rows_found - rows_examined is the
  /// early-termination win.
  uint64_t rows_examined = 0;
  /// Qualifying answers pruned before materialization by limit
  /// pushdown, the per-document heaps, or the shared distance ceiling.
  uint64_t rows_pruned = 0;

  /// True only when the merged answer is *incomplete*: rows were
  /// dropped by the max_rows safety valve or the server's byte-cap
  /// limit hint, or an enumeration guard cut counting short before the
  /// user's bound was reached. An explicit LIMIT k satisfied with k
  /// rows (including LIMIT 0) is a complete answer, not a truncated
  /// one.
  bool truncated = false;

  /// \brief Renders an aligned ASCII table, like QueryResult::ToText.
  std::string ToText() const;
};

/// \brief One cross-document hit of FindEverywhere: the nearest concept
/// a foreign document has for the probed item.
struct CrossMatch {
  DocId id = kInvalidDocId;
  std::string name;
  core::GeneralMeet meet;
};

/// \brief Executes queries against a set of catalog documents.
///
/// The catalog must outlive the MultiExecutor. Execution is logically
/// const end to end: missing per-document executors build through the
/// catalog's race-free lazy path, the fan-out is read-only, and the
/// merged answer is deterministic — byte-identical however many
/// threads (or concurrent MultiExecutors, e.g. the meetxmld worker
/// pool) are involved. Safe to share one instance across threads.
class MultiExecutor {
 public:
  explicit MultiExecutor(const Catalog* catalog) : catalog_(catalog) {}

  /// \brief Routes a parsed query to every document whose name matches
  /// `scope` ("*" = all, "dblp*" = subset, exact name = one document)
  /// and merges the answers. An empty match set is an error — it
  /// almost always means a typo'd scope. When `trace` is non-null the
  /// stages land on it: route (scope matching), per-document decode /
  /// index build (the catalog's first-touch costs), per-document
  /// execute, and the global merge (obs/trace.h).
  ///
  /// Every query takes one merge. Each document's answer drains into
  /// one global heap keyed (distance, document index, row index) and
  /// capped at k = min(max_rows, LIMIT, limit_hint); MEET rows carry
  /// their witness distance, all other rows rank at 0, so they keep
  /// (document, row) order. Once the heap is full its worst distance
  /// becomes a shared ceiling that early-terminates the remaining
  /// documents' meet enumeration — for unbounded queries too, where it
  /// only engages once an answer exceeds max_rows. Memory is O(k); the
  /// merged rows are byte-identical at any thread count.
  util::Result<MultiResult> Execute(
      std::string_view scope, const query::Query& query,
      const query::ExecuteOptions& options = {},
      obs::QueryTrace* trace = nullptr) const;

  /// \brief Parses and routes query text; the parse lands on
  /// Stage::kParse of the trace.
  util::Result<MultiResult> ExecuteText(
      std::string_view scope, std::string_view query_text,
      const query::ExecuteOptions& options = {},
      obs::QueryTrace* trace = nullptr) const;

  /// \brief Cross-document meet (paper §4 / text/cross_document.h) over
  /// the whole store: extracts probe strings from the subtree rooted at
  /// `subtree` in `source`, full-text searches them in every *other*
  /// scoped document, and returns each document's nearest concepts,
  /// globally ordered by ascending witness distance. A scope matching
  /// no document at all is an error (like Execute); a scope matching
  /// only the source returns an empty list.
  util::Result<std::vector<CrossMatch>> FindEverywhere(
      std::string_view source, bat::Oid subtree,
      std::string_view scope = "*",
      const text::CrossFindOptions& options = {}) const;

 private:
  const Catalog* catalog_;
};

}  // namespace store
}  // namespace meetxml

#endif  // MEETXML_STORE_MULTI_EXECUTOR_H_
