// AB9 — ablation: the parallel bulk-load pipeline and persisted text
// indexes (the two halves of the MXM2 work).
//
// Part 1 measures parse+shred wall time: the sequential ShredXmlText
// vs. the parallel pipeline at 1/2/4/8 threads on the ab3 corpus
// shape. Expected shape: near-linear speedup with threads until the
// sequential merge pass dominates (Amdahl); the thread-1 pipeline run
// shows the splitter+merge overhead in isolation. (On a single-core
// machine all variants collapse to sequential speed.)
//
// Part 2 measures what a query process pays before its first text
// predicate: rebuilding the inverted/trigram indexes from the document
// vs. decoding them from the MXM2 TIDX section, and the end-to-end
// executor paths (image bytes -> executor with a hot index). Expected
// shape: decode beats rebuild by >5x — it never tokenizes a string.

#include <benchmark/benchmark.h>

#include <string>

#include "data/dblp_gen.h"
#include "model/bulk_load.h"
#include "model/shredder.h"
#include "model/storage_io.h"
#include "query/executor.h"
#include "text/index_io.h"
#include "text/search.h"
#include "xml/serializer.h"

using namespace meetxml;

namespace {

const std::string& SharedXml() {
  static std::string* xml_text = [] {
    data::DblpOptions options;
    options.icde_papers_per_year = 50;
    options.other_papers_per_year = 150;
    options.journal_articles_per_year = 50;
    auto generated = data::GenerateDblp(options);
    MEETXML_CHECK_OK(generated.status());
    xml::SerializeOptions serialize_options;
    serialize_options.indent = 1;
    return new std::string(xml::Serialize(*generated, serialize_options));
  }();
  return *xml_text;
}

const model::StoredDocument& SharedDoc() {
  static model::StoredDocument* doc = [] {
    auto shredded = model::ShredXmlText(SharedXml());
    MEETXML_CHECK_OK(shredded.status());
    return new model::StoredDocument(std::move(*shredded));
  }();
  return *doc;
}

const text::InvertedIndex& SharedIndex() {
  static text::InvertedIndex* index = [] {
    auto built = text::InvertedIndex::Build(SharedDoc());
    MEETXML_CHECK_OK(built.status());
    return new text::InvertedIndex(std::move(*built));
  }();
  return *index;
}

// Image with the document only (the rebuild-from-scratch path).
const std::string& DocImage() {
  static std::string* bytes = [] {
    auto saved = text::SaveStoreToBytes(SharedDoc(), nullptr);
    MEETXML_CHECK_OK(saved.status());
    return new std::string(std::move(*saved));
  }();
  return *bytes;
}

// Image with the persisted TIDX section.
const std::string& IndexedImage() {
  static std::string* bytes = [] {
    auto saved = text::SaveStoreToBytes(SharedDoc(), &SharedIndex());
    MEETXML_CHECK_OK(saved.status());
    return new std::string(std::move(*saved));
  }();
  return *bytes;
}

// ---- Part 1: shred throughput -------------------------------------------

void BM_ShredSequential(benchmark::State& state) {
  const std::string& xml_text = SharedXml();
  size_t nodes = 0;
  for (auto _ : state) {
    auto doc = model::ShredXmlText(xml_text);
    MEETXML_CHECK_OK(doc.status());
    nodes = doc->node_count();
    benchmark::DoNotOptimize(doc);
  }
  state.counters["xml_MB"] = static_cast<double>(xml_text.size()) / 1e6;
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_ShredSequential)->Unit(benchmark::kMillisecond);

void BM_ShredParallel(benchmark::State& state) {
  const std::string& xml_text = SharedXml();
  model::BulkLoadOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  options.min_parallel_bytes = 0;
  for (auto _ : state) {
    auto doc = model::BulkShredXmlText(xml_text, options);
    MEETXML_CHECK_OK(doc.status());
    benchmark::DoNotOptimize(doc);
  }
  state.counters["threads"] = static_cast<double>(options.threads);
}
BENCHMARK(BM_ShredParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- Part 2: index rebuild vs. persisted decode -------------------------

void BM_IndexRebuild(benchmark::State& state) {
  const model::StoredDocument& doc = SharedDoc();
  for (auto _ : state) {
    auto index = text::InvertedIndex::Build(doc);
    MEETXML_CHECK_OK(index.status());
    benchmark::DoNotOptimize(index);
  }
  state.counters["postings"] =
      static_cast<double>(SharedIndex().posting_count());
}
BENCHMARK(BM_IndexRebuild)->Unit(benchmark::kMillisecond);

void BM_IndexDeserialize(benchmark::State& state) {
  static const std::string* bytes =
      new std::string(text::SerializeIndex(SharedIndex()));
  for (auto _ : state) {
    auto index = text::DeserializeIndex(*bytes);
    MEETXML_CHECK_OK(index.status());
    benchmark::DoNotOptimize(index);
  }
  state.counters["tidx_MB"] = static_cast<double>(bytes->size()) / 1e6;
}
BENCHMARK(BM_IndexDeserialize)->Unit(benchmark::kMillisecond);

// End-to-end: image bytes -> executor whose text index is hot. The
// rebuild path loads a doc-only image and pays InvertedIndex::Build;
// the persisted path decodes the TIDX section instead.
void BM_ExecutorFromImageRebuild(benchmark::State& state) {
  const std::string& bytes = DocImage();
  for (auto _ : state) {
    auto store = text::LoadStoreFromBytes(bytes);
    MEETXML_CHECK_OK(store.status());
    auto search = text::FullTextSearch::Build(store->doc);
    MEETXML_CHECK_OK(search.status());
    auto executor = query::Executor::Build(store->doc, std::move(*search));
    MEETXML_CHECK_OK(executor.status());
    benchmark::DoNotOptimize(executor);
  }
}
BENCHMARK(BM_ExecutorFromImageRebuild)->Unit(benchmark::kMillisecond);

void BM_ExecutorFromImagePersisted(benchmark::State& state) {
  const std::string& bytes = IndexedImage();
  for (auto _ : state) {
    auto store = text::LoadStoreFromBytes(bytes);
    MEETXML_CHECK_OK(store.status());
    auto executor = query::Executor::Build(
        store->doc,
        text::FullTextSearch::WithIndex(store->doc,
                                        std::move(*store->index)));
    MEETXML_CHECK_OK(executor.status());
    benchmark::DoNotOptimize(executor);
  }
}
BENCHMARK(BM_ExecutorFromImagePersisted)->Unit(benchmark::kMillisecond);

// Lazy executors make pure-structural workloads free of the index tax
// entirely; this pins the build cost that remains.
void BM_ExecutorBuildLazy(benchmark::State& state) {
  const model::StoredDocument& doc = SharedDoc();
  for (auto _ : state) {
    auto executor = query::Executor::Build(doc);
    MEETXML_CHECK_OK(executor.status());
    benchmark::DoNotOptimize(executor);
  }
}
BENCHMARK(BM_ExecutorBuildLazy)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
