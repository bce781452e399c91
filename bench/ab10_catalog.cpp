// AB10 — ablation: the multi-document store catalog.
//
// Part 1 measures persistence of an N-document collection: one catalog
// image (CTLG + N DOC2 sections) vs. N separate
// single-document images. Expected shape: near-identical byte volume
// and load time — the catalog buys one file handle, one directory and
// shared framing without a decode penalty, so "one store file" costs
// nothing over a directory of images.
//
// Part 2 measures query fan-out: the same nearest-concept query
// through store::MultiExecutor at N = 1/2/4/8 documents, against the
// serial loop over N single-document executors. Expected shape: meet
// time scales linearly in the number of documents (the paper's
// per-document linearity, Fig. 7, survives federation) and the
// threaded fan-out flattens wall time until N exceeds the core count.
// A second fan-out series runs a large unranked projection with no
// LIMIT, so the merge itself carries thousands of rows per query.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "data/dblp_gen.h"
#include "model/shredder.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "text/index_io.h"
#include "xml/serializer.h"

using namespace meetxml;

namespace {

constexpr int kMaxDocs = 8;

// One bibliography per simulated "source": distinct year ranges so the
// documents differ, same shape so the per-document work is comparable.
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

store::Catalog BuildCatalog(int docs) {
  store::Catalog catalog;
  for (int i = 0; i < docs; ++i) {
    auto doc = model::ShredXmlText(SourceXmls()[i]);
    MEETXML_CHECK_OK(doc.status());
    MEETXML_CHECK_OK(
        catalog.Add("dblp_" + std::to_string(i), std::move(*doc)).status());
  }
  return catalog;
}

const std::string& CatalogImage(int docs) {
  static std::string* images[kMaxDocs + 1] = {};
  if (images[docs] == nullptr) {
    store::Catalog catalog = BuildCatalog(docs);
    auto bytes = catalog.SaveToBytes();
    MEETXML_CHECK_OK(bytes.status());
    images[docs] = new std::string(std::move(*bytes));
  }
  return *images[docs];
}

const std::vector<std::string>& SeparateImages(int docs) {
  static std::vector<std::string>* images[kMaxDocs + 1] = {};
  if (images[docs] == nullptr) {
    auto* out = new std::vector<std::string>;
    for (int i = 0; i < docs; ++i) {
      auto doc = model::ShredXmlText(SourceXmls()[i]);
      MEETXML_CHECK_OK(doc.status());
      auto bytes = text::SaveStoreToBytes(*doc, nullptr);
      MEETXML_CHECK_OK(bytes.status());
      out->push_back(std::move(*bytes));
    }
    images[docs] = out;
  }
  return *images[docs];
}

const char kQuery[] =
    "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b "
    "WHERE a CONTAINS 'ICDE' AND b CONTAINS '1981' EXCLUDE dblp";

const char kUnrankedQuery[] = "SELECT a FROM dblp//cdata a";

// Every series runs at N = 1, 2, 4 and 8 documents.
void DocCounts(benchmark::internal::Benchmark* b) {
  b->RangeMultiplier(2)->Range(1, kMaxDocs)->Unit(benchmark::kMillisecond);
}

// ---- Part 1: one catalog image vs. N separate images --------------------

void BM_LoadCatalogImage(benchmark::State& state) {
  int docs = static_cast<int>(state.range(0));
  const std::string& bytes = CatalogImage(docs);
  for (auto _ : state) {
    auto catalog = store::Catalog::LoadFromBytes(bytes);
    MEETXML_CHECK_OK(catalog.status());
    benchmark::DoNotOptimize(catalog);
  }
  state.counters["docs"] = docs;
  state.counters["image_MB"] = static_cast<double>(bytes.size()) / 1e6;
}
BENCHMARK(BM_LoadCatalogImage)->Apply(DocCounts);

void BM_LoadSeparateImages(benchmark::State& state) {
  int docs = static_cast<int>(state.range(0));
  const std::vector<std::string>& images = SeparateImages(docs);
  size_t total = 0;
  for (const std::string& image : images) total += image.size();
  for (auto _ : state) {
    std::vector<model::StoredDocument> loaded;
    for (const std::string& image : images) {
      auto doc = model::LoadFromBytes(image);
      MEETXML_CHECK_OK(doc.status());
      loaded.push_back(std::move(*doc));
    }
    benchmark::DoNotOptimize(loaded);
  }
  state.counters["docs"] = docs;
  state.counters["image_MB"] = static_cast<double>(total) / 1e6;
}
BENCHMARK(BM_LoadSeparateImages)->Apply(DocCounts);

// ---- Part 2: fan-out query scaling --------------------------------------

// Warms the per-document executors and indexes outside the loop; the
// timed loop isolates routing + execution + merge.
void RunFanOut(benchmark::State& state, const char* query) {
  int docs = static_cast<int>(state.range(0));
  store::Catalog catalog = BuildCatalog(docs);
  store::MultiExecutor multi(&catalog);
  MEETXML_CHECK_OK(multi.ExecuteText("*", query).status());
  size_t rows = 0;
  for (auto _ : state) {
    auto result = multi.ExecuteText("*", query);
    MEETXML_CHECK_OK(result.status());
    rows = result->rows.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["docs"] = docs;
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_MultiExecutorFanOut(benchmark::State& state) {
  RunFanOut(state, kQuery);
}
BENCHMARK(BM_MultiExecutorFanOut)->Apply(DocCounts);

// A large unranked answer with no LIMIT: every cdata row of every
// document (about 1.7k per document) goes through the merge, which
// keeps it in document order.
void BM_MultiExecutorUnrankedFanOut(benchmark::State& state) {
  RunFanOut(state, kUnrankedQuery);
}
BENCHMARK(BM_MultiExecutorUnrankedFanOut)->Apply(DocCounts);

void BM_SerialExecutorLoop(benchmark::State& state) {
  int docs = static_cast<int>(state.range(0));
  store::Catalog catalog = BuildCatalog(docs);
  std::vector<const query::Executor*> executors;
  for (int i = 0; i < docs; ++i) {
    auto executor = catalog.ExecutorFor("dblp_" + std::to_string(i));
    MEETXML_CHECK_OK(executor.status());
    auto warm = (*executor)->ExecuteText(kQuery);
    MEETXML_CHECK_OK(warm.status());
    executors.push_back(*executor);
  }
  for (auto _ : state) {
    size_t rows = 0;
    for (const query::Executor* executor : executors) {
      auto result = executor->ExecuteText(kQuery);
      MEETXML_CHECK_OK(result.status());
      rows += result->rows.size();
    }
    benchmark::DoNotOptimize(rows);
  }
  state.counters["docs"] = docs;
}
BENCHMARK(BM_SerialExecutorLoop)->Apply(DocCounts);

}  // namespace

BENCHMARK_MAIN();
