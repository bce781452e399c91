// AB11 — ablation: cold start, image bytes -> hot executor.
//
// The paper's value proposition is "bulk-load DBLP once, query
// interactively ever after", which makes the image-to-executor path
// the product's cold-start latency. This bench isolates the levers
// this repo pulls on it:
//
// Part 1 — executor from image: the DOC2 payload is decoded by
// memcpying whole columns and adopting one value arena per path, then
// Finalize() derives the children CSR and edge BATs from the node
// columns (nothing derivable is stored); the executor build rides on
// top.
//
// Part 1b — load mode: a copy-mode load still memcpys every node
// column and string blob out of the image; a view-mode (kView) load
// borrows them as spans instead — zero per-column copies,
// bytes_copied == 0 (reported as a counter).
// Expected shape: document decode drops to validation + derived-
// structure cost, and the gap widens with corpus size since the
// copied bytes scale with the corpus while validation is cheap.
//
// Part 2 — catalog fan-out: a multi-document store's sections are
// independently checksummed byte ranges, so Catalog::LoadFromBytes
// decodes them on a thread pool. Expected shape: open time for an
// 8-document catalog scales near-linearly with threads until the
// serial container scan dominates; the view-mode series shows the
// same fan-out with near-zero copied bytes per document.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>

#include "data/dblp_gen.h"
#include "model/shredder.h"
#include "model/storage_io.h"
#include "query/executor.h"
#include "store/catalog.h"
#include "text/index_io.h"
#include "xml/serializer.h"

using namespace meetxml;

namespace {

// Same corpus shape as ab9 so the two benches stay comparable.
const model::StoredDocument& SharedDoc() {
  static model::StoredDocument* doc = [] {
    data::DblpOptions options;
    options.icde_papers_per_year = 50;
    options.other_papers_per_year = 150;
    options.journal_articles_per_year = 50;
    auto generated = data::GenerateDblp(options);
    MEETXML_CHECK_OK(generated.status());
    xml::SerializeOptions serialize_options;
    serialize_options.indent = 1;
    std::string xml_text = xml::Serialize(*generated, serialize_options);
    auto shredded = model::ShredXmlText(xml_text);
    MEETXML_CHECK_OK(shredded.status());
    return new model::StoredDocument(std::move(*shredded));
  }();
  return *doc;
}

const std::string& Image() {
  static const std::string* image = [] {
    auto bytes = model::SaveToBytes(SharedDoc());
    MEETXML_CHECK_OK(bytes.status());
    return new std::string(std::move(*bytes));
  }();
  return *image;
}

// ---- Part 1: executor from image ----------------------------------------

void BM_ExecutorFromImageDoc2(benchmark::State& state) {
  const std::string& bytes = Image();
  for (auto _ : state) {
    auto store = text::LoadStoreFromBytes(bytes);
    MEETXML_CHECK_OK(store.status());
    auto executor = query::Executor::Build(store->doc);
    MEETXML_CHECK_OK(executor.status());
    benchmark::DoNotOptimize(executor);
  }
  state.counters["image_MB"] = static_cast<double>(bytes.size()) / 1e6;
  state.counters["MB_per_s"] = benchmark::Counter(
      static_cast<double>(bytes.size()) / 1e6,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ExecutorFromImageDoc2)->Unit(benchmark::kMillisecond);

// ---- Part 1b: copy vs. view (zero-copy) load mode -----------------------

void DocumentDecodeMode(benchmark::State& state, model::LoadMode mode) {
  const std::string& bytes = Image();
  model::LoadStats stats;
  model::LoadOptions options;
  options.mode = mode;
  options.stats = &stats;
  for (auto _ : state) {
    stats = model::LoadStats{};
    auto doc = model::LoadFromBytes(bytes, options);
    MEETXML_CHECK_OK(doc.status());
    benchmark::DoNotOptimize(doc);
  }
  state.counters["copied_MB"] =
      static_cast<double>(stats.bytes_copied) / 1e6;
  state.counters["viewed_MB"] =
      static_cast<double>(stats.bytes_viewed) / 1e6;
}

void BM_DocumentDecodeDoc2Copy(benchmark::State& state) {
  DocumentDecodeMode(state, model::LoadMode::kCopy);
}
BENCHMARK(BM_DocumentDecodeDoc2Copy)->Unit(benchmark::kMillisecond);

void BM_DocumentDecodeDoc2View(benchmark::State& state) {
  DocumentDecodeMode(state, model::LoadMode::kView);
}
BENCHMARK(BM_DocumentDecodeDoc2View)->Unit(benchmark::kMillisecond);

void BM_ExecutorFromImageDoc2View(benchmark::State& state) {
  const std::string& bytes = Image();
  model::LoadOptions options;
  options.mode = model::LoadMode::kView;
  for (auto _ : state) {
    auto store = text::LoadStoreFromBytes(bytes, options);
    MEETXML_CHECK_OK(store.status());
    auto executor = query::Executor::Build(store->doc);
    MEETXML_CHECK_OK(executor.status());
    benchmark::DoNotOptimize(executor);
  }
  state.counters["image_MB"] = static_cast<double>(bytes.size()) / 1e6;
  state.counters["MB_per_s"] = benchmark::Counter(
      static_cast<double>(bytes.size()) / 1e6,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ExecutorFromImageDoc2View)->Unit(benchmark::kMillisecond);

// ---- Part 2: catalog open fan-out ---------------------------------------

// A catalog of `count` mid-sized documents, serialized once per count.
const std::string& CatalogImage(int count) {
  static std::map<int, std::string>* cache = new std::map<int, std::string>();
  auto it = cache->find(count);
  if (it != cache->end()) return it->second;

  store::Catalog catalog;
  for (int i = 0; i < count; ++i) {
    data::DblpOptions options;
    options.seed = 7 + i;
    options.icde_papers_per_year = 10;
    options.other_papers_per_year = 40;
    options.journal_articles_per_year = 10;
    auto generated = data::GenerateDblp(options);
    MEETXML_CHECK_OK(generated.status());
    auto shredded =
        model::ShredXmlText(xml::Serialize(*generated));
    MEETXML_CHECK_OK(shredded.status());
    MEETXML_CHECK_OK(
        catalog.Add("dblp_" + std::to_string(i), std::move(*shredded))
            .status());
  }
  auto bytes = catalog.SaveToBytes();
  MEETXML_CHECK_OK(bytes.status());
  return (*cache)[count] = std::move(*bytes);
}

// Args: (document count, decode threads).
void BM_CatalogOpen(benchmark::State& state) {
  const std::string& bytes =
      CatalogImage(static_cast<int>(state.range(0)));
  store::CatalogLoadOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    auto catalog = store::Catalog::LoadFromBytes(bytes, options);
    MEETXML_CHECK_OK(catalog.status());
    benchmark::DoNotOptimize(catalog);
  }
  state.counters["docs"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_CatalogOpen)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

// Zero-copy catalog open: same fan-out, but every document is
// decoded as a view-backed document borrowing from the image —
// per-document copied bytes sit at zero (counter) and the open is
// dominated by the directory scan plus validation.
// Args: (document count, decode threads).
void BM_CatalogOpenView(benchmark::State& state) {
  const std::string& bytes =
      CatalogImage(static_cast<int>(state.range(0)));
  store::CatalogLoadStats stats;
  store::CatalogLoadOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  options.mode = model::LoadMode::kView;
  options.stats = &stats;
  for (auto _ : state) {
    stats = store::CatalogLoadStats{};  // counters are per-open
    auto catalog = store::Catalog::LoadFromBytes(bytes, options);
    MEETXML_CHECK_OK(catalog.status());
    benchmark::DoNotOptimize(catalog);
  }
  uint64_t copied = 0;
  uint64_t viewed = 0;
  for (const auto& doc_stats : stats.documents) {
    copied += doc_stats.bytes_copied;
    viewed += doc_stats.bytes_viewed;
  }
  state.counters["docs"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["copied_MB"] = static_cast<double>(copied) / 1e6;
  state.counters["viewed_MB"] = static_cast<double>(viewed) / 1e6;
}
BENCHMARK(BM_CatalogOpenView)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
