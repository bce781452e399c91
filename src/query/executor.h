// Query executor: binds FROM patterns against the stored document,
// applies WHERE predicates, and evaluates the projection — either the
// paper's meet aggregation (§3) or the regular-path-expression baseline
// with ancestor implication (§1).

#ifndef MEETXML_QUERY_EXECUTOR_H_
#define MEETXML_QUERY_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/idref.h"
#include "core/meet_general.h"
#include "model/document.h"
#include "query/ast.h"
#include "text/search.h"
#include "text/thesaurus.h"
#include "util/result.h"

namespace meetxml {
namespace query {

/// \brief Execution limits.
struct ExecuteOptions {
  /// Hard cap on materialized result rows (safety valve; LIMIT is the
  /// user-facing knob).
  size_t max_rows = 100000;

  /// Caller-supplied bound on useful rows (0 = none): the server maps
  /// its wire-protocol result-byte cap to a row count here so daemon
  /// queries without an explicit LIMIT still get limit pushdown.
  /// Rows past the hint mark the answer truncated.
  size_t limit_hint = 0;

  /// Worker threads for the multi-document fan-out (0 = hardware).
  unsigned merge_threads = 0;

  /// Shared witness-distance ceiling for cross-document early
  /// termination; installed by store::MultiExecutor, not by end users.
  const std::atomic<int>* rank_ceiling = nullptr;
};

/// \brief Renders columns + rows as an aligned ASCII table — the one
/// formatter behind QueryResult::ToText and store::MultiResult::ToText.
std::string RenderTable(const std::vector<std::string>& columns,
                        const std::vector<std::vector<std::string>>& rows,
                        bool truncated);

/// \brief A query result: a small relational table, plus structured
/// access to meet results for programmatic callers.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;

  /// Filled for MEET projections.
  std::vector<core::GeneralMeet> meets;
  core::MeetGeneralStats meet_stats;

  /// For ANCESTORS projections: the exact total number of answer rows
  /// the baseline semantics implies, even when `rows` was truncated by
  /// LIMIT/max_rows. This is the cardinality Figure/Table comparisons
  /// use ("in larger databases the computation might cause a
  /// combinatorial explosion of the result size", §1).
  uint64_t total_ancestor_rows = 0;

  /// Exact number of answer rows the query implies before any cap
  /// (LIMIT, max_rows, limit_hint) — for MEET the qualifying-meet
  /// count, for other projections the full enumeration count. Valid
  /// only when rows_found_exact is true.
  uint64_t rows_found = 0;

  /// False when an enumeration guard (ancestor-tuple or graph-pair
  /// cap) cut counting short, so rows_found is a lower bound only.
  bool rows_found_exact = true;

  /// True when qualifying rows beyond `rows` exist — the row set was
  /// cut by *any* cap: explicit LIMIT, limit_hint, or max_rows. This is
  /// a per-document "more rows exist" flag; it deliberately does NOT
  /// distinguish a satisfied explicit LIMIT from the other caps. The
  /// merged store::MultiResult::truncated refines it to answer
  /// completeness, where a LIMIT satisfied exactly is complete.
  bool truncated = false;

  /// \brief Renders an aligned ASCII table.
  std::string ToText() const;
};

/// \brief Executes queries against one stored document.
///
/// The full-text indexes are built lazily, on the first query with a
/// predicate the index can answer (see EvaluateBinding) — structural
/// and scan-only queries never pay the index tax — or installed up
/// front from a persisted MXM2 image. Execute() can be
/// called any number of times (laziness is thread-safe). The document
/// must outlive the executor.
class Executor {
 public:
  static util::Result<Executor> Build(const model::StoredDocument& doc);

  /// \brief Builds an executor around a pre-built full-text engine,
  /// e.g. `text::FullTextSearch::WithIndex(doc, *store.index)` after
  /// `text::LoadStoreFromBytes` — no index construction happens.
  static util::Result<Executor> Build(const model::StoredDocument& doc,
                                      text::FullTextSearch search);

  /// \brief Executes a parsed query. MEET rows (and their parallel
  /// `meets`) ascend in (witness_distance, meet OID) — the order the
  /// store::MultiExecutor merge relies on; other projections keep
  /// enumeration order. Carries the "query.execute" failpoint so fault
  /// injection can fail one document mid-fan-out.
  util::Result<QueryResult> Execute(const Query& query,
                                    const ExecuteOptions& options = {}) const;

  /// \brief Parses and executes query text.
  util::Result<QueryResult> ExecuteText(
      std::string_view text, const ExecuteOptions& options = {}) const;

  /// \brief Explains a query without running its projection: per
  /// binding the matched schema paths and their cardinalities before
  /// and after predicate filtering, and which conjuncts the index
  /// answered and which were filters (or `scan`); then the resolved
  /// restriction clauses and the projection plan.
  util::Result<std::string> Explain(const Query& query) const;
  util::Result<std::string> ExplainText(std::string_view text) const;

  const model::StoredDocument& doc() const { return *doc_; }
  const core::IdrefGraph& idref_graph() const { return idrefs_; }

  /// \brief True once the full-text engine exists (installed at Build
  /// or forced by an indexable predicate). Structural and scan-only
  /// queries leave it false.
  bool text_index_built() const;

  /// \brief The built inverted index, or nullptr when none exists yet.
  /// Lets store::Catalog persist an index this executor built lazily
  /// without rebuilding it. The pointer stays valid for the executor's
  /// lifetime (the engine, once built, is never torn down).
  const text::InvertedIndex* text_index() const;

  /// \brief The full-text engine, built on first use — the handle
  /// cross-document probes (text/cross_document.h) take per target.
  util::Result<const text::FullTextSearch*> TextSearch() const {
    return EnsureSearch();
  }

  /// \brief Installs a pre-built engine after construction; no-op when
  /// one already exists. Lets store::Catalog build the executor first
  /// (the fallible step) and hand over a persisted index only once the
  /// build has succeeded — a failed Build never consumes the index.
  void InstallTextSearch(text::FullTextSearch search);

  /// \brief Installs the thesaurus backing SYNONYM predicates (paper
  /// §4's search broadening). Without one, SYNONYM behaves like
  /// ICONTAINS of the literal alone.
  void SetThesaurus(text::Thesaurus thesaurus) {
    thesaurus_ = std::move(thesaurus);
  }
  const text::Thesaurus& thesaurus() const { return thesaurus_; }

 private:
  // Lazily constructed full-text engine. Behind a unique_ptr so the
  // executor stays movable (std::mutex is not), and mutex-guarded so
  // concurrent Execute() calls race safely to the one build.
  struct LazySearch {
    std::mutex mu;
    std::optional<text::FullTextSearch> search;
  };

  Executor(const model::StoredDocument* doc, core::IdrefGraph idrefs,
           std::unique_ptr<LazySearch> lazy)
      : doc_(doc), idrefs_(std::move(idrefs)), lazy_(std::move(lazy)) {}

  /// How EvaluateBinding answered one binding's WHERE conjuncts, for
  /// Explain: each conjunct is answered from the index, checked as a
  /// filter on the index's candidates, or both (an AND whose index set
  /// is only a superset); with no indexed conjunct, every path scans.
  struct BindingPlan {
    std::vector<const BoolExpr*> indexed;
    std::vector<const BoolExpr*> filters;
    /// Bound string paths that scanned although others used the index:
    /// their relation is unsorted or holds several values per owner.
    size_t scanned_paths = 0;
  };

  /// Evaluates one binding: the pattern's paths, then the WHERE
  /// conjuncts on the binding's variable, as set algebra over the
  /// full-text postings of those paths (paper §3.2: match sets grouped
  /// by relation). A CONTAINS of at least 3 bytes, WORD and PHRASE
  /// become their path-restricted posting sets (text::FullTextSearch::
  /// SearchOn); OR is their union when every child has one, AND the
  /// intersection of the children that do. Conjuncts without an index
  /// path (ICONTAINS, =, SYNONYM, NOT, short CONTAINS, an OR over any
  /// of these) and inexact ones are checked per value on the surviving
  /// candidates. With no indexed conjunct — or on a relation that is
  /// unsorted or multi-valued per owner — binding scans every value of
  /// the path, and a binding that never could use the index never
  /// builds it. Either way the sets follow the pattern's path order,
  /// their nodes sorted and unique on every sorted relation; element
  /// paths contribute nothing once a string predicate applies. Fills
  /// `plan` when non-null.
  util::Result<std::vector<core::AssocSet>> EvaluateBinding(
      const Query& query, const Binding& binding,
      BindingPlan* plan = nullptr) const;

  /// The full-text engine, building it on first use.
  util::Result<const text::FullTextSearch*> EnsureSearch() const;

  const model::StoredDocument* doc_;
  core::IdrefGraph idrefs_;
  std::unique_ptr<LazySearch> lazy_;
  text::Thesaurus thesaurus_;
};

}  // namespace query
}  // namespace meetxml

#endif  // MEETXML_QUERY_EXECUTOR_H_
