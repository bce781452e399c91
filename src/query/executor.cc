#include "query/executor.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "core/meet_pair.h"
#include "core/restrictions.h"
#include "model/reassembly.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "query/path_match.h"
#include "text/tokenizer.h"
#include "util/failpoint.h"
#include "util/strings.h"
#include "util/timer.h"

namespace meetxml {
namespace query {

using bat::Oid;
using bat::PathId;
using core::Assoc;
using core::AssocSet;
using model::StepKind;
using model::StoredDocument;
using util::Result;
using util::Status;

namespace {

// Tuple-enumeration guard for the ANCESTORS baseline: beyond this many
// combinations the executor reports truncation instead of spinning —
// which is itself the point the paper makes about the baseline.
constexpr uint64_t kMaxAncestorTuples = 1000000;

// Pair cap for GMEET (each pair runs a bounded bidirectional BFS).
constexpr uint64_t kMaxGraphMeetPairs = 10000;

// Default reach of the GMEET BFS when no WITHIN/DISTANCE bound is set.
constexpr int kDefaultGraphMeetReach = 64;

// One predicate tree prepared for per-value tests: the literal-derived
// match data (SYNONYM expansions, PHRASE tokens) is computed once per
// binding, not once per value.
struct ValueTest {
  const BoolExpr* expr = nullptr;
  std::vector<std::string> terms;
  std::vector<ValueTest> children;
};

ValueTest PrepareValueTest(const BoolExpr& expr,
                           const text::Thesaurus& thesaurus) {
  ValueTest test;
  test.expr = &expr;
  if (expr.op == BoolExpr::Op::kLeaf) {
    if (expr.leaf.kind == Predicate::Kind::kSynonym) {
      test.terms = thesaurus.Expand(expr.leaf.literal);
    } else if (expr.leaf.kind == Predicate::Kind::kPhrase) {
      test.terms = text::Tokenize(expr.leaf.literal);
    }
  }
  for (const BoolExpr& child : expr.children) {
    test.children.push_back(PrepareValueTest(child, thesaurus));
  }
  return test;
}

bool ValueSatisfies(const ValueTest& test, std::string_view value) {
  const Predicate& predicate = test.expr->leaf;
  switch (predicate.kind) {
    case Predicate::Kind::kSynonym:
      for (const std::string& synonym : test.terms) {
        if (util::ContainsIgnoreCase(value, synonym)) return true;
      }
      return false;
    case Predicate::Kind::kContains:
      return util::Contains(value, predicate.literal);
    case Predicate::Kind::kIcontains:
      return util::ContainsIgnoreCase(value, predicate.literal);
    case Predicate::Kind::kEquals:
      return value == predicate.literal;
    case Predicate::Kind::kWord:
      return text::MatchesWord(value, predicate.literal);
    case Predicate::Kind::kPhrase:
      return text::MatchesPhrase(value, test.terms);
    case Predicate::Kind::kDistanceLe:
      return true;  // handled at projection level
  }
  return false;
}

// Evaluates a single-variable boolean predicate tree on one string
// value.
bool ExprSatisfies(const ValueTest& test, std::string_view value) {
  switch (test.expr->op) {
    case BoolExpr::Op::kLeaf:
      return ValueSatisfies(test, value);
    case BoolExpr::Op::kNot:
      return !ExprSatisfies(test.children.front(), value);
    case BoolExpr::Op::kAnd:
      for (const ValueTest& child : test.children) {
        if (!ExprSatisfies(child, value)) return false;
      }
      return true;
    case BoolExpr::Op::kOr:
      for (const ValueTest& child : test.children) {
        if (ExprSatisfies(child, value)) return true;
      }
      return false;
  }
  return false;
}

// The index mode of a leaf, if the index can answer that kind at all.
std::optional<text::MatchMode> IndexMode(const Predicate& predicate) {
  switch (predicate.kind) {
    case Predicate::Kind::kContains:
      if (predicate.literal.size() < 3) return std::nullopt;
      return text::MatchMode::kContains;
    case Predicate::Kind::kWord:
      return text::MatchMode::kWord;
    case Predicate::Kind::kPhrase:
      return text::MatchMode::kPhrase;
    default:
      return std::nullopt;
  }
}

// Whether `expr` can have an index path at all — decided before the
// index exists, so a binding that cannot use it never builds it.
bool MayUseIndex(const BoolExpr& expr) {
  switch (expr.op) {
    case BoolExpr::Op::kLeaf:
      return IndexMode(expr.leaf).has_value();
    case BoolExpr::Op::kNot:
      return false;
    case BoolExpr::Op::kAnd:
      return std::any_of(expr.children.begin(), expr.children.end(),
                         MayUseIndex);
    case BoolExpr::Op::kOr:
      return std::all_of(expr.children.begin(), expr.children.end(),
                         MayUseIndex);
  }
  return false;
}

// A predicate tree as set algebra over the postings of `paths`: the
// postings whose value satisfies it, or nullopt when it has no index
// path. Clears `*exact` when the set is only a superset — an AND with a
// child that has no index path — so the caller still filters it.
std::optional<std::vector<text::Posting>> IndexSet(
    const BoolExpr& expr, const text::FullTextSearch& search,
    const std::vector<PathId>& paths, size_t* postings_read, bool* exact) {
  switch (expr.op) {
    case BoolExpr::Op::kLeaf: {
      std::optional<text::MatchMode> mode = IndexMode(expr.leaf);
      if (!mode.has_value()) return std::nullopt;
      return search.SearchOn(expr.leaf.literal, *mode, paths,
                             postings_read);
    }
    case BoolExpr::Op::kNot:
      return std::nullopt;
    case BoolExpr::Op::kOr: {
      std::vector<text::Posting> out;
      for (const BoolExpr& child : expr.children) {
        std::optional<std::vector<text::Posting>> set =
            IndexSet(child, search, paths, postings_read, exact);
        if (!set.has_value()) return std::nullopt;
        std::vector<text::Posting> merged;
        std::set_union(out.begin(), out.end(), set->begin(), set->end(),
                       std::back_inserter(merged));
        out = std::move(merged);
      }
      return out;
    }
    case BoolExpr::Op::kAnd: {
      std::optional<std::vector<text::Posting>> out;
      for (const BoolExpr& child : expr.children) {
        std::optional<std::vector<text::Posting>> set =
            IndexSet(child, search, paths, postings_read, exact);
        if (!set.has_value()) {
          *exact = false;
          continue;
        }
        out = out.has_value() ? text::IntersectPostings({&*out, &*set})
                              : std::move(*set);
      }
      return out;
    }
  }
  return std::nullopt;
}

// Binding work counters: string values a filter or scan tested, and
// postings read from the index.
obs::Counter* ValuesScannedCounter() {
  static obs::Counter* counter = &obs::MetricsRegistry::Global().counter(
      "meetxml_query_bind_values_scanned_total");
  return counter;
}
obs::Counter* PostingsReadCounter() {
  static obs::Counter* counter = &obs::MetricsRegistry::Global().counter(
      "meetxml_query_bind_postings_total");
  return counter;
}

// The variable a (checked, single-variable) conjunct tree tests.
const std::string& ConjunctVariable(const BoolExpr& expr) {
  const BoolExpr* cur = &expr;
  while (cur->op != BoolExpr::Op::kLeaf) cur = &cur->children.front();
  return cur->leaf.var;
}

bool IsDistanceConjunct(const BoolExpr& expr) {
  return expr.op == BoolExpr::Op::kLeaf &&
         expr.leaf.kind == Predicate::Kind::kDistanceLe;
}

std::string FormatOid(Oid oid) {
  // append instead of operator+("o", ...): the rvalue-string overload
  // trips a GCC 12 -Wrestrict false positive under heavy inlining.
  std::string out = "o";
  out += std::to_string(oid);
  return out;
}

}  // namespace

std::string RenderTable(const std::vector<std::string>& columns,
                        const std::vector<std::vector<std::string>>& rows,
                        bool truncated) {
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += "  ";
      out += row[c];
      out.append(widths[c] - row[c].size(), ' ');
    }
    out += "\n";
  };
  emit_row(columns);
  std::string rule;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) rule += "  ";
    rule.append(widths[c], '-');
  }
  out += rule + "\n";
  for (const auto& row : rows) emit_row(row);
  if (truncated) out += "(truncated)\n";
  return out;
}

std::string QueryResult::ToText() const {
  return RenderTable(columns, rows, truncated);
}

Result<Executor> Executor::Build(const StoredDocument& doc) {
  // Deep validation latches once per document here — the single gate
  // every deferred-validation load (lazy catalog open) funnels
  // through before query code walks the columns.
  MEETXML_RETURN_NOT_OK(doc.EnsureValidated());
  MEETXML_ASSIGN_OR_RETURN(core::IdrefGraph idrefs,
                           core::IdrefGraph::Build(doc));
  return Executor(&doc, std::move(idrefs), std::make_unique<LazySearch>());
}

Result<Executor> Executor::Build(const StoredDocument& doc,
                                 text::FullTextSearch search) {
  MEETXML_RETURN_NOT_OK(doc.EnsureValidated());
  MEETXML_ASSIGN_OR_RETURN(core::IdrefGraph idrefs,
                           core::IdrefGraph::Build(doc));
  auto lazy = std::make_unique<LazySearch>();
  lazy->search = std::move(search);
  return Executor(&doc, std::move(idrefs), std::move(lazy));
}

Result<const text::FullTextSearch*> Executor::EnsureSearch() const {
  std::lock_guard<std::mutex> lock(lazy_->mu);
  if (!lazy_->search.has_value()) {
    // First-touch index build — worth a series of its own: the cost
    // hides inside whichever query happens to hit the cold index.
    static obs::Histogram* build_us = &obs::MetricsRegistry::Global()
                                           .histogram(
                                               "meetxml_text_index_build_us");
    static obs::Counter* builds =
        &obs::MetricsRegistry::Global().counter(
            "meetxml_text_index_builds_total");
    util::Timer build_timer;
    MEETXML_ASSIGN_OR_RETURN(text::FullTextSearch built,
                             text::FullTextSearch::Build(*doc_));
    lazy_->search = std::move(built);
    builds->Add(1);
    build_us->Record(static_cast<uint64_t>(build_timer.ElapsedMicros()));
  }
  return &*lazy_->search;
}

bool Executor::text_index_built() const {
  std::lock_guard<std::mutex> lock(lazy_->mu);
  return lazy_->search.has_value();
}

const text::InvertedIndex* Executor::text_index() const {
  std::lock_guard<std::mutex> lock(lazy_->mu);
  return lazy_->search.has_value() ? &lazy_->search->index() : nullptr;
}

void Executor::InstallTextSearch(text::FullTextSearch search) {
  std::lock_guard<std::mutex> lock(lazy_->mu);
  if (!lazy_->search.has_value()) lazy_->search = std::move(search);
}

Result<std::vector<AssocSet>> Executor::EvaluateBinding(
    const Query& query, const Binding& binding, BindingPlan* plan) const {
  const StoredDocument& doc = *doc_;
  MEETXML_ASSIGN_OR_RETURN(std::vector<PathId> paths,
                           MatchPattern(doc.paths(), binding.pattern));

  // String-predicate trees bound to this variable.
  std::vector<const BoolExpr*> string_preds;
  for (const BoolExpr& conjunct : query.where) {
    if (IsDistanceConjunct(conjunct)) continue;
    if (ConjunctVariable(conjunct) == binding.var) {
      string_preds.push_back(&conjunct);
    }
  }

  // Paths the index can answer: sorted relations with one value per
  // owner (always so for cdata, checked for attributes), where a
  // posting stands for exactly one value. Ascending, as MatchPattern
  // returns them.
  std::vector<PathId> index_paths;
  if (std::any_of(string_preds.begin(), string_preds.end(),
                  [](const BoolExpr* conjunct) {
                    return MayUseIndex(*conjunct);
                  })) {
    for (PathId path : paths) {
      StepKind kind = doc.paths().kind(path);
      if (kind == StepKind::kElement || !doc.StringRelationSorted(path)) {
        continue;
      }
      std::span<const Oid> heads = doc.StringsAt(path).heads();
      if (kind == StepKind::kAttribute &&
          std::adjacent_find(heads.begin(), heads.end()) != heads.end()) {
        continue;
      }
      index_paths.push_back(path);
    }
  }

  // Set algebra over postings: the candidates every indexed conjunct
  // admits; the rest become per-value filters on them.
  BindingPlan local_plan;
  BindingPlan& chosen = plan != nullptr ? *plan : local_plan;
  chosen = BindingPlan{};
  std::optional<std::vector<text::Posting>> candidates;
  size_t postings_read = 0;
  if (!index_paths.empty()) {
    MEETXML_ASSIGN_OR_RETURN(const text::FullTextSearch* search,
                             EnsureSearch());
    for (const BoolExpr* conjunct : string_preds) {
      bool exact = true;
      std::optional<std::vector<text::Posting>> set =
          IndexSet(*conjunct, *search, index_paths, &postings_read, &exact);
      if (!set.has_value() || !exact) chosen.filters.push_back(conjunct);
      if (!set.has_value()) continue;
      chosen.indexed.push_back(conjunct);
      candidates = candidates.has_value()
                       ? text::IntersectPostings({&*candidates, &*set})
                       : std::move(*set);
    }
  }
  if (!candidates.has_value()) {
    chosen.filters = string_preds;
    index_paths.clear();
  }

  // Per-value tests: the filters on the index's candidates, and every
  // conjunct on the paths that scan.
  auto prepare = [this](const std::vector<const BoolExpr*>& conjuncts) {
    std::vector<ValueTest> tests;
    for (const BoolExpr* conjunct : conjuncts) {
      tests.push_back(PrepareValueTest(*conjunct, thesaurus_));
    }
    return tests;
  };
  const std::vector<ValueTest> filters = candidates.has_value()
                                             ? prepare(chosen.filters)
                                             : std::vector<ValueTest>();
  const std::vector<ValueTest> scans = prepare(string_preds);
  size_t values_scanned = 0;
  auto passes = [&values_scanned](const std::vector<ValueTest>& tests,
                                  std::string_view value) {
    if (tests.empty()) return true;
    ++values_scanned;
    for (const ValueTest& test : tests) {
      if (!ExprSatisfies(test, value)) return false;
    }
    return true;
  };

  if (candidates.has_value() && !filters.empty()) {
    text::RetainMatchingPostings(
        doc, [&](std::string_view value) { return passes(filters, value); },
        &*candidates);
  }

  std::vector<AssocSet> sets;
  for (PathId path : paths) {
    StepKind kind = doc.paths().kind(path);
    AssocSet set;
    set.path = path;
    if (kind == StepKind::kElement) {
      // String predicates apply to string-valued associations; element
      // paths in the pattern's match set simply contribute nothing
      // (bind //cdata or @attr to search text).
      if (!string_preds.empty()) continue;
      const model::OidOidBat& edges = doc.EdgesAt(path);
      for (size_t row = 0; row < edges.size(); ++row) {
        set.nodes.push_back(edges.tail(row));
      }
    } else if (std::binary_search(index_paths.begin(), index_paths.end(),
                                  path)) {
      auto begin = std::lower_bound(
          candidates->begin(), candidates->end(), path,
          [](const text::Posting& p, PathId v) { return p.path < v; });
      for (auto it = begin; it != candidates->end() && it->path == path;
           ++it) {
        set.nodes.push_back(it->owner);
      }
    } else {
      if (!index_paths.empty()) ++chosen.scanned_paths;
      const model::OidStrBat& table = doc.StringsAt(path);
      for (size_t row = 0; row < table.size(); ++row) {
        if (passes(scans, table.tail(row))) {
          set.nodes.push_back(table.head(row));
        }
      }
      if (kind == StepKind::kAttribute) {
        std::sort(set.nodes.begin(), set.nodes.end());
        set.nodes.erase(std::unique(set.nodes.begin(), set.nodes.end()),
                        set.nodes.end());
      }
    }
    if (!set.nodes.empty()) sets.push_back(std::move(set));
  }
  ValuesScannedCounter()->Add(values_scanned);
  PostingsReadCounter()->Add(postings_read);
  return sets;
}

Result<QueryResult> Executor::Execute(const Query& query,
                                      const ExecuteOptions& options) const {
  // Wall-clock per-document execute latency, recorded on every exit
  // path (errors included — a failing query still costs its time).
  struct ExecuteRecord {
    util::Timer timer;
    ~ExecuteRecord() {
      static obs::Histogram* execute_us =
          &obs::MetricsRegistry::Global().histogram(
              "meetxml_query_execute_us");
      execute_us->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
    }
  } record;
  // Fault-injection site: one document of a fan-out failing must
  // surface as a clean error for the whole merge, never a partial
  // answer.
  MEETXML_FAILPOINT("query.execute");
  const StoredDocument& doc = *doc_;
  if (query.projections.size() != 1) {
    return Status::NotImplemented(
        "exactly one projection per query is supported");
  }
  const Projection& projection = query.projections.front();

  // Evaluate every binding once.
  std::unordered_map<std::string, std::vector<AssocSet>> bound;
  for (const Binding& binding : query.bindings) {
    MEETXML_ASSIGN_OR_RETURN(bound[binding.var],
                             EvaluateBinding(query, binding));
  }

  // Distance predicates: translated to the d-meet bound for MEET, and
  // to per-tuple filters for ANCESTORS.
  std::vector<const Predicate*> distance_preds;
  for (const BoolExpr& conjunct : query.where) {
    if (IsDistanceConjunct(conjunct)) {
      distance_preds.push_back(&conjunct.leaf);
    }
  }

  size_t row_cap = options.max_rows;
  if (query.limit.has_value()) {
    row_cap = std::min(row_cap, static_cast<size_t>(*query.limit));
  }
  if (options.limit_hint > 0) {
    row_cap = std::min(row_cap, options.limit_hint);
  }

  QueryResult result;
  switch (projection.kind) {
    case Projection::Kind::kMeet: {
      core::MeetOptions meet_options;
      for (const PathPattern& exclude : query.excludes) {
        MEETXML_ASSIGN_OR_RETURN(std::vector<PathId> excluded,
                                 MatchPattern(doc.paths(), exclude));
        meet_options.excluded_paths.insert(excluded.begin(),
                                           excluded.end());
      }
      if (query.within.has_value()) {
        meet_options.max_distance = *query.within;
      }
      for (const Predicate* predicate : distance_preds) {
        meet_options.max_distance =
            std::min(meet_options.max_distance, predicate->bound);
      }
      result.columns = {"meet", "path", "oid", "distance", "witnesses"};
      // LIMIT 0 is an empty answer, not "unlimited" — max_results uses
      // 0 as the no-bound sentinel, so short-circuit before it would be
      // misread. MeetGeneral never runs, so the pre-cap answer count is
      // unknown: rows_found stays 0 as a lower bound only.
      if (row_cap == 0) {
        result.rows_found_exact = false;
        break;
      }
      meet_options.max_results = row_cap;
      meet_options.shared_max_distance = options.rank_ceiling;

      std::vector<AssocSet> inputs;
      for (const std::string& var : projection.vars) {
        for (const AssocSet& set : bound[var]) inputs.push_back(set);
      }
      MEETXML_ASSIGN_OR_RETURN(
          result.meets,
          core::MeetGeneral(doc, inputs, meet_options,
                            &result.meet_stats));
      result.rows.reserve(result.meets.size());
      for (const core::GeneralMeet& meet : result.meets) {
        result.rows.push_back(
            {doc.tag(meet.meet), doc.paths().ToString(meet.meet_path),
             FormatOid(meet.meet), std::to_string(meet.witness_distance),
             std::to_string(meet.witnesses.size())});
      }
      result.rows_found = result.meet_stats.meets_found;
      result.truncated = result.rows_found > result.rows.size();
      break;
    }

    case Projection::Kind::kGraphMeet: {
      // Reference-aware proximity meet over the tree + IDREF graph
      // (paper §7 future work). Pairwise over the two bindings' match
      // sets, deduplicated by meet node keeping the tightest distance.
      int reach = kDefaultGraphMeetReach;
      if (query.within.has_value()) reach = *query.within;
      for (const Predicate* predicate : distance_preds) {
        reach = std::min(reach, predicate->bound);
      }
      std::vector<Assoc> left;
      std::vector<Assoc> right;
      for (const AssocSet& set : bound[projection.vars[0]]) {
        for (Oid node : set.nodes) left.push_back(Assoc{set.path, node});
      }
      for (const AssocSet& set : bound[projection.vars[1]]) {
        for (Oid node : set.nodes) right.push_back(Assoc{set.path, node});
      }
      std::unordered_map<Oid, int> best;
      uint64_t pairs = 0;
      for (const Assoc& a : left) {
        for (const Assoc& b : right) {
          if (++pairs > kMaxGraphMeetPairs) {
            result.truncated = true;
            result.rows_found_exact = false;
            break;
          }
          auto meet = core::GraphMeet(doc, idrefs_, a.node, b.node, reach);
          if (!meet.ok()) continue;  // out of reach
          int distance = meet->distance_a + meet->distance_b;
          auto it = best.find(meet->meet);
          if (it == best.end() || distance < it->second) {
            best[meet->meet] = distance;
          }
        }
        if (result.truncated) break;
      }
      std::vector<std::pair<int, Oid>> ordered;
      ordered.reserve(best.size());
      for (const auto& [node, distance] : best) {
        ordered.emplace_back(distance, node);
      }
      std::sort(ordered.begin(), ordered.end());
      result.columns = {"meet", "path", "oid", "distance"};
      result.rows_found = ordered.size();
      for (const auto& [distance, node] : ordered) {
        if (result.rows.size() >= row_cap) {
          result.truncated = true;
          break;
        }
        result.rows.push_back(
            {doc.tag(node), doc.paths().ToString(doc.path(node)),
             FormatOid(node), std::to_string(distance)});
      }
      break;
    }

    case Projection::Kind::kAncestors: {
      // The §1 baseline: every combination of matches implies all the
      // common ancestors of that combination.
      std::vector<std::vector<Assoc>> flat(projection.vars.size());
      for (size_t v = 0; v < projection.vars.size(); ++v) {
        for (const AssocSet& set : bound[projection.vars[v]]) {
          for (Oid node : set.nodes) {
            flat[v].push_back(Assoc{set.path, node});
          }
        }
      }
      // Index of each projected var for distance predicates.
      std::unordered_map<std::string, size_t> var_index;
      for (size_t v = 0; v < projection.vars.size(); ++v) {
        var_index[projection.vars[v]] = v;
      }
      for (const Predicate* predicate : distance_preds) {
        if (!var_index.count(predicate->var) ||
            !var_index.count(predicate->var2)) {
          return Status::NotImplemented(
              "DISTANCE variables must appear in the ANCESTORS "
              "projection");
        }
      }

      result.columns = {"result", "path", "oid"};
      uint64_t tuples = 1;
      for (const auto& list : flat) {
        if (list.empty()) {
          tuples = 0;
          break;
        }
        tuples *= list.size();
        if (tuples > kMaxAncestorTuples) {
          result.truncated = true;
          result.rows_found_exact = false;
          tuples = kMaxAncestorTuples;
          break;
        }
      }

      std::vector<size_t> cursor(flat.size(), 0);
      uint64_t enumerated = 0;
      bool done = tuples == 0;
      while (!done && enumerated < kMaxAncestorTuples) {
        ++enumerated;
        // Distance filters.
        bool pass = true;
        for (const Predicate* predicate : distance_preds) {
          const Assoc& a = flat[var_index[predicate->var]]
                               [cursor[var_index[predicate->var]]];
          const Assoc& b = flat[var_index[predicate->var2]]
                               [cursor[var_index[predicate->var2]]];
          MEETXML_ASSIGN_OR_RETURN(int distance,
                                   core::Distance(doc, a, b));
          if (distance > predicate->bound) {
            pass = false;
            break;
          }
        }
        if (pass) {
          // LCA of the whole tuple, then every ancestor up to the root
          // is an implied answer.
          Assoc lca = flat[0][cursor[0]];
          for (size_t v = 1; v < flat.size(); ++v) {
            MEETXML_ASSIGN_OR_RETURN(
                core::PairMeet meet,
                core::MeetPair(doc, lca, flat[v][cursor[v]]));
            lca = core::AssocForNode(doc, meet.meet);
          }
          // For an attribute/cdata association the LCA position is a
          // node already (AssocForNode above); count it and all its
          // ancestors.
          Oid node = lca.node;
          result.total_ancestor_rows += doc.depth(node);
          while (true) {
            ++result.rows_found;
            if (result.rows.size() < row_cap) {
              result.rows.push_back(
                  {doc.tag(node), doc.paths().ToString(doc.path(node)),
                   FormatOid(node)});
            } else {
              result.truncated = true;
            }
            if (node == doc.root()) break;
            node = doc.parent(node);
          }
        }
        // Advance the tuple cursor (odometer).
        size_t v = 0;
        while (v < flat.size()) {
          if (++cursor[v] < flat[v].size()) break;
          cursor[v] = 0;
          ++v;
        }
        if (v == flat.size()) done = true;
      }
      if (!done) {
        result.truncated = true;
        result.rows_found_exact = false;
      }
      break;
    }

    case Projection::Kind::kVar:
    case Projection::Kind::kTag:
    case Projection::Kind::kPath:
    case Projection::Kind::kXml:
    case Projection::Kind::kCount: {
      if (!distance_preds.empty()) {
        return Status::NotImplemented(
            "DISTANCE predicates require a MEET or ANCESTORS projection");
      }
      const std::vector<AssocSet>& sets = bound[projection.vars.front()];
      if (projection.kind == Projection::Kind::kCount) {
        size_t count = 0;
        for (const AssocSet& set : sets) count += set.nodes.size();
        result.columns = {"count"};
        result.rows_found = 1;
        if (row_cap > 0) {
          result.rows.push_back({std::to_string(count)});
        }
        break;
      }
      if (projection.kind == Projection::Kind::kTag ||
          projection.kind == Projection::Kind::kPath) {
        std::vector<std::string> values;
        for (const AssocSet& set : sets) {
          std::string value =
              projection.kind == Projection::Kind::kTag
                  ? doc.paths().label(set.path)
                  : doc.paths().ToString(set.path);
          values.push_back(std::move(value));
        }
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()),
                     values.end());
        result.columns = {projection.kind == Projection::Kind::kTag
                              ? "tag"
                              : "path"};
        result.rows_found = values.size();
        for (std::string& value : values) {
          if (result.rows.size() >= row_cap) {
            result.truncated = true;
            break;
          }
          result.rows.push_back({std::move(value)});
        }
        break;
      }
      // kVar / kXml: one row per bound node. Limit pushdown: the exact
      // cardinality is known from the match sets, so stop producing
      // rows at the cap — for kXml that skips the whole subtree
      // reassembly of every row past it, not just the copy-out.
      result.columns = projection.kind == Projection::Kind::kXml
                           ? std::vector<std::string>{"xml"}
                           : std::vector<std::string>{"result", "path",
                                                      "oid"};
      for (const AssocSet& set : sets) {
        result.rows_found += set.nodes.size();
      }
      result.truncated = result.rows_found > row_cap;
      result.rows.reserve(std::min<uint64_t>(result.rows_found, row_cap));
      for (const AssocSet& set : sets) {
        if (result.rows.size() >= row_cap) break;
        for (Oid node : set.nodes) {
          if (result.rows.size() >= row_cap) break;
          if (projection.kind == Projection::Kind::kXml) {
            MEETXML_ASSIGN_OR_RETURN(std::string xml_text,
                                     model::ReassembleToXml(doc, node, 0));
            result.rows.push_back({std::move(xml_text)});
          } else {
            result.rows.push_back({doc.paths().label(set.path),
                                   doc.paths().ToString(set.path),
                                   FormatOid(node)});
          }
        }
      }
      break;
    }
  }
  return result;
}

Result<QueryResult> Executor::ExecuteText(
    std::string_view text, const ExecuteOptions& options) const {
  MEETXML_ASSIGN_OR_RETURN(Query query, ParseQuery(text));
  return Execute(query, options);
}

namespace {

const char* ProjectionName(Projection::Kind kind) {
  switch (kind) {
    case Projection::Kind::kVar: return "bindings";
    case Projection::Kind::kTag: return "distinct tags";
    case Projection::Kind::kPath: return "distinct paths";
    case Projection::Kind::kXml: return "reassembled XML";
    case Projection::Kind::kCount: return "count";
    case Projection::Kind::kMeet: return "meet (nearest concepts)";
    case Projection::Kind::kAncestors:
      return "ancestors (regular-path-expression baseline)";
    case Projection::Kind::kGraphMeet:
      return "graph meet (tree + IDREF proximity)";
  }
  return "?";
}

const char* PredicateName(Predicate::Kind kind) {
  switch (kind) {
    case Predicate::Kind::kContains: return "CONTAINS";
    case Predicate::Kind::kIcontains: return "ICONTAINS";
    case Predicate::Kind::kWord: return "WORD";
    case Predicate::Kind::kPhrase: return "PHRASE";
    case Predicate::Kind::kSynonym: return "SYNONYM";
    case Predicate::Kind::kEquals: return "=";
    case Predicate::Kind::kDistanceLe: return "DISTANCE <=";
  }
  return "?";
}

// Appends a conjunct tree as query text; runs of the same AND/OR
// print flat. (Appends rather than operator+ chains: GCC 12 raises a
// -Wrestrict false positive on those under heavy inlining.)
void DescribeExpr(const BoolExpr& expr, std::string* out) {
  auto operand = [&expr, out](const BoolExpr& child) {
    bool flat = child.op == BoolExpr::Op::kLeaf ||
                (child.op == expr.op && expr.op != BoolExpr::Op::kNot);
    if (!flat) out->push_back('(');
    DescribeExpr(child, out);
    if (!flat) out->push_back(')');
  };
  switch (expr.op) {
    case BoolExpr::Op::kLeaf: {
      // Quote with whichever quote the literal does not contain.
      char quote =
          expr.leaf.literal.find('\'') == std::string::npos ? '\'' : '"';
      out->append(expr.leaf.var);
      out->push_back(' ');
      out->append(PredicateName(expr.leaf.kind));
      out->push_back(' ');
      out->push_back(quote);
      out->append(expr.leaf.literal);
      out->push_back(quote);
      return;
    }
    case BoolExpr::Op::kNot:
      out->append("NOT ");
      operand(expr.children.front());
      return;
    case BoolExpr::Op::kAnd:
    case BoolExpr::Op::kOr:
      operand(expr.children[0]);
      out->append(expr.op == BoolExpr::Op::kAnd ? " AND " : " OR ");
      operand(expr.children[1]);
      return;
  }
}

}  // namespace

Result<std::string> Executor::Explain(const Query& query) const {
  const StoredDocument& doc = *doc_;
  std::string out;
  char line[512];

  for (const Binding& binding : query.bindings) {
    MEETXML_ASSIGN_OR_RETURN(std::vector<PathId> paths,
                             MatchPattern(doc.paths(), binding.pattern));
    BindingPlan plan;
    MEETXML_ASSIGN_OR_RETURN(std::vector<AssocSet> filtered,
                             EvaluateBinding(query, binding, &plan));
    size_t raw = 0;
    for (PathId path : paths) {
      raw += doc.EdgesAt(path).size() + (doc.paths().kind(path) ==
                                                 model::StepKind::kAttribute
                                             ? doc.StringsAt(path).size()
                                             : 0);
    }
    size_t kept = 0;
    for (const AssocSet& set : filtered) kept += set.nodes.size();
    std::snprintf(line, sizeof(line),
                  "binding %s: pattern '%s' -> %zu paths, %zu "
                  "associations, %zu after predicates\n",
                  binding.var.c_str(), binding.pattern.text.c_str(),
                  paths.size(), raw, kept);
    out += line;
    for (PathId path : paths) {
      std::snprintf(line, sizeof(line), "    %s\n",
                    doc.paths().ToString(path).c_str());
      out += line;
    }
    // Per conjunct: answered from the index, a filter on its
    // candidates, or both; with nothing indexed, every path scans.
    auto listed = [](const std::vector<const BoolExpr*>& list,
                     const BoolExpr* conjunct) {
      return std::find(list.begin(), list.end(), conjunct) != list.end();
    };
    for (const BoolExpr& conjunct : query.where) {
      bool indexed = listed(plan.indexed, &conjunct);
      bool filtered = listed(plan.filters, &conjunct);
      if (!indexed && !filtered) continue;
      out += plan.indexed.empty() ? "  scan: "
             : !filtered          ? "  index: "
             : indexed            ? "  index, then filter: "
                                  : "  filter: ";
      DescribeExpr(conjunct, &out);
      out += "\n";
    }
    if (plan.scanned_paths > 0) {
      std::snprintf(line, sizeof(line),
                    "  scan: %zu paths with unsorted or multi-valued "
                    "relations\n",
                    plan.scanned_paths);
      out += line;
    }
  }

  for (const PathPattern& exclude : query.excludes) {
    MEETXML_ASSIGN_OR_RETURN(std::vector<PathId> excluded,
                             MatchPattern(doc.paths(), exclude));
    std::snprintf(line, sizeof(line),
                  "exclude '%s' -> %zu result paths suppressed\n",
                  exclude.text.c_str(), excluded.size());
    out += line;
  }
  if (query.within.has_value()) {
    std::snprintf(line, sizeof(line), "within %d edges\n", *query.within);
    out += line;
  }
  if (query.limit.has_value()) {
    std::snprintf(line, sizeof(line), "limit %d rows\n", *query.limit);
    out += line;
  }
  if (!query.projections.empty()) {
    std::snprintf(line, sizeof(line), "projection: %s\n",
                  ProjectionName(query.projections.front().kind));
    out += line;
  }
  return out;
}

Result<std::string> Executor::ExplainText(std::string_view text) const {
  MEETXML_ASSIGN_OR_RETURN(Query query, ParseQuery(text));
  return Explain(query);
}

}  // namespace query
}  // namespace meetxml
