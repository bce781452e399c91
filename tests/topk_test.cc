// The k-bounded merge (store/multi_executor.h): equivalence pins
// against a test-side reference merge, heap edge cases, the
// early-termination proof via the rows-pruned accounting, the
// truncated semantics, and the query.execute failpoint.
//
// The determinism contract under test: every fan-out's merged rows are
// byte-identical to the reference — each document's uncapped answer,
// stable-sorted by (distance, document, row) and truncated to k — at
// any thread count. The heap, the per-document caps and the shared
// ceiling are pure execution strategy, never a semantics change.

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dblp_gen.h"
#include "data/random_tree.h"
#include "model/shredder.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/parser.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "util/failpoint.h"
#include "xml/serializer.h"

namespace meetxml {
namespace {

using query::ExecuteOptions;
using store::Catalog;
using store::MultiExecutor;
using store::MultiResult;
using util::FailPoints;
using util::FailPointSpec;

// Eight DBLP-shaped bibliographies with distinct year ranges (the ab10
// corpus shape, smaller): plenty of meets per document, selective
// predicates available via venue/year strings.
Catalog DblpCatalog(int docs) {
  Catalog catalog;
  for (int i = 0; i < docs; ++i) {
    data::DblpOptions options;
    options.seed = 42 + static_cast<uint64_t>(i);
    options.start_year = 1980 + i;
    options.end_year = options.start_year + 1;
    options.icde_papers_per_year = 8;
    options.other_papers_per_year = 12;
    options.journal_articles_per_year = 6;
    auto generated = data::GenerateDblp(options);
    EXPECT_TRUE(generated.ok()) << generated.status();
    auto doc = model::Shred(*generated);
    EXPECT_TRUE(doc.ok()) << doc.status();
    auto added =
        catalog.Add("dblp_" + std::to_string(i), std::move(*doc));
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return catalog;
}

// Random-tree corpus: irregular schemas, duplicate-ish text, meets at
// many identical distances — the tie-break stress case.
Catalog RandomTreeCatalog(int docs, uint64_t seed) {
  Catalog catalog;
  for (int i = 0; i < docs; ++i) {
    data::RandomTreeOptions options;
    options.seed = seed + static_cast<uint64_t>(i);
    options.target_elements = 300;
    options.tag_vocabulary = 5;
    options.text_prob = 0.6;
    auto generated = data::GenerateRandomTree(options);
    EXPECT_TRUE(generated.ok()) << generated.status();
    auto doc = model::Shred(*generated);
    EXPECT_TRUE(doc.ok()) << doc.status();
    auto added =
        catalog.Add("tree_" + std::to_string(i), std::move(*doc));
    EXPECT_TRUE(added.ok()) << added.status();
  }
  return catalog;
}

const char kDblpMeetQuery[] =
    "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b "
    "WHERE a CONTAINS 'ICDE' AND b CONTAINS '198' EXCLUDE dblp";

// ICONTAINS avoids the trigram anchor, so the predicate works on the
// random trees' generated words (single letters are common).
const char kTreeMeetQuery[] =
    "SELECT MEET(a, b) FROM *//cdata a, *//cdata b "
    "WHERE a ICONTAINS 'a' AND b ICONTAINS 'e'";

MultiResult MustExecute(const MultiExecutor& multi, const std::string& text,
                        const ExecuteOptions& options) {
  auto result = multi.ExecuteText("*", text, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(*result) : MultiResult{};
}

// The reference merge: runs every document's query with no cap (no
// LIMIT, max_rows or hint), stable-sorts the union by (distance,
// document, row), truncates to k = min(max_rows, LIMIT, limit_hint),
// and recomputes rows_found and truncated with the merged rule.
// rows_examined is the full enumeration's count.
MultiResult ReferenceMerge(const Catalog& catalog, const std::string& text,
                           const ExecuteOptions& options = {}) {
  auto parsed = query::ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  const size_t user_limit = parsed->limit.has_value()
                                ? static_cast<size_t>(*parsed->limit)
                                : std::numeric_limits<size_t>::max();
  size_t k = std::min(options.max_rows, user_limit);
  if (options.limit_hint > 0) k = std::min(k, options.limit_hint);
  parsed->limit.reset();
  ExecuteOptions uncapped;
  uncapped.max_rows = std::numeric_limits<size_t>::max();

  std::vector<std::pair<int, std::vector<std::string>>> all;
  MultiResult reference;
  bool exact = true;
  for (const std::string& name : catalog.MatchNames("*")) {
    auto result = (*catalog.ExecutorFor(name))->Execute(*parsed, uncapped);
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) continue;
    reference.columns = {"doc"};
    reference.columns.insert(reference.columns.end(),
                             result->columns.begin(), result->columns.end());
    reference.rows_found += result->rows_found;
    exact = exact && result->rows_found_exact;
    for (size_t r = 0; r < result->rows.size(); ++r) {
      std::vector<std::string> row = {name};
      row.insert(row.end(), result->rows[r].begin(), result->rows[r].end());
      all.emplace_back(
          r < result->meets.size() ? result->meets[r].witness_distance : 0,
          std::move(row));
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  reference.rows_examined = all.size();
  for (size_t i = 0; i < all.size() && i < k; ++i) {
    reference.rows.push_back(std::move(all[i].second));
  }
  reference.truncated =
      (!exact || reference.rows_found > reference.rows.size()) &&
      reference.rows.size() < user_limit;
  return reference;
}

// The equivalence pin: merged rows at 1/2/8 merge threads must be
// byte-identical to the reference merge's rows, flags included.
void ExpectMatchesReference(const Catalog& catalog, const std::string& query,
                            ExecuteOptions options = {}) {
  MultiExecutor multi(&catalog);
  MultiResult reference = ReferenceMerge(catalog, query, options);

  for (unsigned threads : {1u, 2u, 8u}) {
    options.merge_threads = threads;
    MultiResult answer = MustExecute(multi, query, options);
    ASSERT_EQ(answer.columns, reference.columns) << threads << " threads";
    ASSERT_EQ(answer.rows, reference.rows) << threads << " threads";
    EXPECT_EQ(answer.truncated, reference.truncated)
        << threads << " threads";
    EXPECT_EQ(answer.rows_found, reference.rows_found)
        << threads << " threads";
  }
}

TEST(TopKEquivalence, StreamingMatchesMaterializedOnDblp) {
  Catalog catalog = DblpCatalog(8);
  for (int k : {1, 10, 100, 1000}) {
    ExpectMatchesReference(
        catalog,
        std::string(kDblpMeetQuery) + " LIMIT " + std::to_string(k));
  }
}

TEST(TopKEquivalence, StreamingMatchesMaterializedOnRandomTrees) {
  for (uint64_t seed : {7u, 99u}) {
    Catalog catalog = RandomTreeCatalog(4, seed);
    for (int k : {1, 5, 50}) {
      ExpectMatchesReference(
          catalog,
          std::string(kTreeMeetQuery) + " LIMIT " + std::to_string(k));
    }
  }
}

TEST(TopKEquivalence, DistanceBoundMatchesAcrossPathsAndThreads) {
  // WITHIN composes with the streaming merge: the d-meet bound filters
  // per-document candidates (including over-distance items that must
  // still consume their partners at unreported meets) while the shared
  // ceiling prunes globally. Rows, counts and flags must stay
  // byte-identical to the reference merge on deep irregular trees.
  Catalog catalog = RandomTreeCatalog(4, 7);
  for (int within : {4, 8}) {
    ExpectMatchesReference(
        catalog, std::string(kTreeMeetQuery) + " WITHIN " +
                     std::to_string(within) + " LIMIT 25");
  }
}

TEST(TopKEquivalence, LimitHintBoundsARankedQueryWithoutLimit) {
  // The server-side shape: no LIMIT in the text, the byte cap arrives
  // as a hint. The merged answer must match the reference under the
  // same hint.
  Catalog catalog = DblpCatalog(4);
  MultiExecutor multi(&catalog);

  ExecuteOptions streaming;
  streaming.limit_hint = 7;
  MultiResult reference = ReferenceMerge(catalog, kDblpMeetQuery, streaming);
  for (unsigned threads : {1u, 8u}) {
    streaming.merge_threads = threads;
    MultiResult answer = MustExecute(multi, kDblpMeetQuery, streaming);
    ASSERT_EQ(answer.rows, reference.rows) << threads << " threads";
    EXPECT_EQ(answer.rows.size(), 7u);
    // Hint truncation is real truncation: the answer is incomplete
    // relative to what the user asked for.
    EXPECT_TRUE(answer.truncated);
  }
}

TEST(TopKEquivalence, UnboundedRankedMatchesReference) {
  // No LIMIT and no hint: the heap is capped by max_rows alone and the
  // shared ceiling never engages below it.
  ExpectMatchesReference(DblpCatalog(4), kDblpMeetQuery);
}

TEST(TopKEquivalence, UnrankedRowsKeepDocumentOrder) {
  // Unranked rows all rank at distance 0, so the heap key reduces to
  // (document, row) — with and without a LIMIT.
  Catalog catalog = DblpCatalog(4);
  ExpectMatchesReference(catalog, "SELECT a FROM dblp//cdata a LIMIT 5");
  ExpectMatchesReference(catalog, "SELECT a FROM dblp//cdata a");
}

TEST(TopKEquivalence, CountOverSeveralDocumentsMatchesReference) {
  ExpectMatchesReference(DblpCatalog(4), "SELECT COUNT(a) FROM dblp//cdata a");
}

TEST(TopKEquivalence, MaxRowsBelowTheAnswerMatchesReference) {
  // The max_rows safety valve cuts ranked and unranked answers alike,
  // and a cut by it is truncation.
  Catalog catalog = DblpCatalog(4);
  ExecuteOptions options;
  options.max_rows = 3;
  ExpectMatchesReference(catalog, kDblpMeetQuery, options);
  ExpectMatchesReference(catalog, "SELECT a FROM dblp//cdata a", options);
  MultiResult answer = MustExecute(MultiExecutor(&catalog), kDblpMeetQuery,
                                   options);
  EXPECT_EQ(answer.rows.size(), 3u);
  EXPECT_TRUE(answer.truncated);
}

TEST(TopKHeap, LimitZeroIsAnEmptyCompleteAnswer) {
  // LIMIT 0 used to leak through max_results' 0-means-unlimited
  // sentinel and return every meet; it must yield no rows.
  Catalog catalog = DblpCatalog(2);
  MultiExecutor multi(&catalog);
  auto result =
      multi.ExecuteText("*", std::string(kDblpMeetQuery) + " LIMIT 0");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->rows.empty());
  EXPECT_FALSE(result->truncated);
  // The short-circuit skips MeetGeneral entirely, so the per-document
  // answer counts are lower bounds only, never reported as exact.
  for (const store::DocumentResult& entry : result->per_document) {
    EXPECT_FALSE(entry.result.rows_found_exact);
  }
}

TEST(TopKHeap, LimitOneYieldsTheGlobalBestRow) {
  Catalog catalog = DblpCatalog(4);
  MultiExecutor multi(&catalog);
  MultiResult reference =
      ReferenceMerge(catalog, std::string(kDblpMeetQuery) + " LIMIT 1000");
  ASSERT_FALSE(reference.rows.empty());

  auto best =
      multi.ExecuteText("*", std::string(kDblpMeetQuery) + " LIMIT 1");
  ASSERT_TRUE(best.ok()) << best.status();
  ASSERT_EQ(best->rows.size(), 1u);
  EXPECT_EQ(best->rows.front(), reference.rows.front());
}

TEST(TopKHeap, LimitBeyondTotalRowsIsCompleteAndUntruncated) {
  Catalog catalog = DblpCatalog(2);
  MultiExecutor multi(&catalog);
  auto result = multi.ExecuteText(
      "*", std::string(kDblpMeetQuery) + " LIMIT 100000");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->rows.empty());
  EXPECT_EQ(result->rows.size(), result->rows_found);
  EXPECT_EQ(result->rows_found, result->rows_examined);
  EXPECT_EQ(result->rows_pruned, 0u);
  EXPECT_FALSE(result->truncated);
}

TEST(TopKHeap, DuplicateDistancesKeepTheDeterministicTieBreak) {
  // Random trees produce many meets at equal witness distances; the
  // pin is that ties resolve by (document index, row index) — the
  // reference's stable sort order — at every thread count and exactly
  // at a k that cuts through a run of equal distances.
  Catalog catalog = RandomTreeCatalog(4, 21);
  MultiExecutor multi(&catalog);
  MultiResult full = ReferenceMerge(
      catalog, std::string(kTreeMeetQuery) + " LIMIT 100000");
  ASSERT_GT(full.rows.size(), 4u);

  // Find a k that splits a duplicate-distance run (distance is column
  // 4 of the merged row: doc, meet, path, oid, distance, witnesses).
  size_t split = 0;
  for (size_t i = 1; i < full.rows.size(); ++i) {
    if (full.rows[i][4] == full.rows[i - 1][4]) {
      split = i;  // k = i cuts between two equal-distance rows
      break;
    }
  }
  ASSERT_GT(split, 0u) << "corpus produced no duplicate distances";

  for (unsigned threads : {1u, 2u, 8u}) {
    ExecuteOptions streaming;
    streaming.merge_threads = threads;
    MultiResult answer = MustExecute(
        multi,
        std::string(kTreeMeetQuery) + " LIMIT " + std::to_string(split),
        streaming);
    ASSERT_EQ(answer.rows.size(), split);
    for (size_t i = 0; i < split; ++i) {
      EXPECT_EQ(answer.rows[i], full.rows[i]) << "row " << i;
    }
  }
}

TEST(TopKEarlyTermination, SelectiveQueryExaminesStrictlyFewerRows) {
  // The pruning proof over 8 documents: with LIMIT 10, the streaming
  // path must materialize strictly fewer answers than full enumeration
  // finds, the difference must show up as rows_pruned, and the global
  // counter must advance by the same amount. Single merge thread keeps
  // the per-document pruning deterministic for the exact-delta check.
  Catalog catalog = DblpCatalog(8);
  MultiExecutor multi(&catalog);
  const std::string query = std::string(kDblpMeetQuery) + " LIMIT 10";

  MultiResult full = ReferenceMerge(catalog, query);
  ASSERT_EQ(full.rows.size(), 10u);
  ASSERT_GT(full.rows_found, 10u)
      << "corpus too small to demonstrate pruning";
  EXPECT_EQ(full.rows_examined, full.rows_found);

  obs::Counter& pruned_total = obs::MetricsRegistry::Global().counter(
      "meetxml_query_rows_pruned_total");
  uint64_t before = pruned_total.Value();

  ExecuteOptions streaming;
  streaming.merge_threads = 1;
  MultiResult streamed = MustExecute(multi, query, streaming);
  ASSERT_EQ(streamed.rows, full.rows);
  EXPECT_EQ(streamed.rows_found, full.rows_found);
  EXPECT_LT(streamed.rows_examined, full.rows_examined);
  EXPECT_GT(streamed.rows_pruned, 0u);
  EXPECT_EQ(streamed.rows_found,
            streamed.rows_examined + streamed.rows_pruned);
  EXPECT_EQ(pruned_total.Value() - before, streamed.rows_pruned);
}

TEST(TopKPushdown, UnrankedLimitStopsRowProduction) {
  // Unranked projections get plain limit pushdown: the exact
  // cardinality is still reported, but only k rows are materialized
  // per document, and a satisfied LIMIT is not truncation. The merged
  // rows_examined sums each document's materialized rows, so the
  // per-document bound shows there.
  Catalog catalog = DblpCatalog(4);
  MultiExecutor multi(&catalog);
  auto result =
      multi.ExecuteText("*", "SELECT a FROM dblp//cdata a LIMIT 5");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_FALSE(result->truncated);
  EXPECT_GT(result->rows_found, 5u);
  ASSERT_EQ(result->per_document.size(), 4u);
  EXPECT_LE(result->rows_examined, 5u * result->per_document.size());
  for (const store::DocumentResult& entry : result->per_document) {
    EXPECT_TRUE(entry.result.rows_found_exact);
  }
  EXPECT_GT(result->rows_pruned, 0u);
}

class TopKFailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Reset(); }
  void TearDown() override { FailPoints::Reset(); }
};

TEST_F(TopKFailPointTest, CursorErrorMidStreamIsCleanNotPartial) {
  // One document failing partway through a fan-out must
  // surface as a whole-query error — never a partial merged answer.
  Catalog catalog = DblpCatalog(4);
  MultiExecutor multi(&catalog);
  const std::string query = std::string(kDblpMeetQuery) + " LIMIT 10";

  FailPointSpec spec;
  spec.code = util::StatusCode::kUnavailable;
  spec.skip = 1;   // first document executes fine...
  spec.count = 1;  // ...the second errors mid-fan-out
  ASSERT_TRUE(FailPoints::Arm("query.execute", spec).ok());

  ExecuteOptions streaming;
  streaming.merge_threads = 1;
  auto result = multi.ExecuteText("*", query, streaming);
  if (!FailPoints::enabled()) {
    // Production build: sites compile to nothing; the query succeeds.
    EXPECT_TRUE(result.ok()) << result.status();
    GTEST_SKIP() << "failpoint sites not compiled in";
  }
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("query.execute"),
            std::string::npos);

  // Disarmed, the same query completes and matches the reference
  // answer — the failure left no state behind.
  FailPoints::Reset();
  MultiResult reference = ReferenceMerge(catalog, query);
  MultiResult retry = MustExecute(multi, query, streaming);
  EXPECT_EQ(retry.rows, reference.rows);
}

}  // namespace
}  // namespace meetxml
