// AB15 — streaming top-k: latency of the k-bounded merge vs. k and vs.
// document count.
//
// The paper's §4 ranked retrieval asks for the k nearest concepts. The
// MultiExecutor merge (store/multi_executor.h) keeps a size-k heap per
// document, merges through one global k-bounded heap, and shares the
// current k-th-best distance as an early-termination ceiling across
// the fan-out. It is the only merge; the materialize-then-sort merge it
// replaced measured 3.3x slower at k=10 over 8 documents when both
// still existed.
//
// Part 1 sweeps k (1/10/100/1000) over the 8-document catalog on a
// selective ranked query. Expected shape: nearly flat in k, since
// everything past the k-th-best distance is pruned before witness
// materialization.
//
// Part 2 sweeps document count at k=10. Expected shape: the slope is
// the per-document *found* work minus everything the ceiling prunes.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "data/dblp_gen.h"
#include "model/shredder.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "xml/serializer.h"

using namespace meetxml;

namespace {

constexpr int kMaxDocs = 8;

// The ab10 corpus shape: one bibliography per source, distinct year
// ranges, same size — so fan-out work is comparable per document.
const std::vector<std::string>& SourceXmls() {
  static std::vector<std::string>* xmls = [] {
    auto* out = new std::vector<std::string>;
    for (int i = 0; i < kMaxDocs; ++i) {
      data::DblpOptions options;
      options.start_year = 1980 + 3 * i;
      options.end_year = options.start_year + 2;
      options.icde_papers_per_year = 20;
      options.other_papers_per_year = 40;
      options.journal_articles_per_year = 20;
      auto generated = data::GenerateDblp(options);
      MEETXML_CHECK_OK(generated.status());
      xml::SerializeOptions serialize_options;
      serialize_options.indent = 1;
      out->push_back(xml::Serialize(*generated, serialize_options));
    }
    return out;
  }();
  return *xmls;
}

store::Catalog* SharedCatalog(int docs) {
  static store::Catalog* catalogs[kMaxDocs + 1] = {};
  if (catalogs[docs] == nullptr) {
    auto* catalog = new store::Catalog;
    for (int i = 0; i < docs; ++i) {
      auto doc = model::ShredXmlText(SourceXmls()[i]);
      MEETXML_CHECK_OK(doc.status());
      MEETXML_CHECK_OK(
          catalog->Add("dblp_" + std::to_string(i), std::move(*doc))
              .status());
    }
    catalogs[docs] = catalog;
  }
  return catalogs[docs];
}

// Top-k-selective ranked query: a structural cdata self-join makes
// every text node a distance-0 meet, so the answer is collection-sized
// and the LIMIT keeps k of it — the k << found shape early termination
// exists for. Structural bindings keep the shared (unprunable) work
// small, so the bench isolates the merge strategies it compares.
std::string TopKQuery(int k) {
  return "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b "
         "EXCLUDE dblp LIMIT " +
         std::to_string(k);
}

void RunTopK(benchmark::State& state, int docs, int k) {
  store::Catalog* catalog = SharedCatalog(docs);
  store::MultiExecutor multi(catalog);
  const query::ExecuteOptions options;
  const std::string query = TopKQuery(k);

  // Warm the lazy text indexes so the loop measures the merge, not
  // first-touch index builds.
  auto warm = multi.ExecuteText("*", query, options);
  MEETXML_CHECK_OK(warm.status());

  uint64_t rows = 0;
  uint64_t found = 0;
  uint64_t examined = 0;
  for (auto _ : state) {
    auto result = multi.ExecuteText("*", query, options);
    MEETXML_CHECK_OK(result.status());
    rows = result->rows.size();
    found = result->rows_found;
    examined = result->rows_examined;
    benchmark::DoNotOptimize(result);
  }
  state.counters["docs"] = docs;
  state.counters["k"] = k;
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["rows_found"] = static_cast<double>(found);
  state.counters["rows_examined"] = static_cast<double>(examined);
}

// ---- Part 1: latency vs. k over the full catalog ------------------------

void BM_TopKStreaming(benchmark::State& state) {
  RunTopK(state, kMaxDocs, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_TopKStreaming)->RangeMultiplier(10)->Range(1, 1000)
    ->Unit(benchmark::kMillisecond);

// ---- Part 2: latency vs. document count at k=10 -------------------------

void BM_TopKStreamingDocs(benchmark::State& state) {
  RunTopK(state, static_cast<int>(state.range(0)), 10);
}
BENCHMARK(BM_TopKStreamingDocs)->RangeMultiplier(2)->Range(1, 8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
