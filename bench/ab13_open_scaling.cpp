// AB13 — ablation: catalog open scaling and the incremental save.
//
// The lazy open makes catalog startup O(directory): the open verifies
// the image framing and the CTLG section, parks every document behind
// its section checksums, and pays decode + validation per document on
// first touch. This bench pins the two claims that justify it:
//
// Part 1 — open scaling: BM_CatalogOpenLazy vs. BM_CatalogOpenEagerView
// over 8 / 64 / 256 / 1000 documents (view mode, file-backed mmap
// both). Expected shape: the eager series grows linearly with the
// corpus while the lazy series stays flat — on the 1000-document store
// the lazy open is >= 100x faster.
//
// Part 2 — time to first answer: open-plus-one-query, lazy vs. the
// warm serving model (eager open + Warm() building every executor up
// front). Lazy pays one document's materialization under the first
// query and nothing for the other 999; warm pays the whole corpus
// before answering. Expected shape: lazy first-answer latency is
// near-constant in corpus size.
//
// Part 3 — incremental save: replacing one document of a 65-document
// store and saving. The in-place save appends the changed document's
// DOC2 and a fresh CTLG + directory, keeping everything else
// verbatim; the full rewrite re-serializes all sixty-five. Expected
// shape: the in-place save is >= 10x faster per changed document.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "model/shredder.h"
#include "model/storage_io.h"
#include "store/catalog.h"
#include "store/multi_executor.h"

using namespace meetxml;

namespace {

// A bibliography-shaped document (~4800 nodes): big enough that eager
// decode + validation dominates an open, small enough that a
// 1000-document store still builds in seconds. The lazy open never
// touches document payloads, so its cost tracks the directory alone;
// sizing the documents up widens the gap the eager series pays.
std::string DocXml(int n) {
  std::string xml = "<doc>";
  for (int e = 0; e < 800; ++e) {
    xml += "<entry><title>token" + std::to_string((n * 31 + e) % 97) +
           " study " + std::to_string(e) + "</title><year>" +
           std::to_string(1980 + (n + e) % 40) + "</year></entry>";
  }
  xml += "</doc>";
  return xml;
}

model::StoredDocument MustShred(const std::string& xml) {
  auto doc = model::ShredXmlText(xml);
  MEETXML_CHECK_OK(doc.status());
  return std::move(*doc);
}

// One store file per document count, built once and reused across
// series so every bench opens the very same image.
const std::string& StorePath(int count) {
  static std::map<int, std::string>* cache =
      new std::map<int, std::string>();
  auto it = cache->find(count);
  if (it != cache->end()) return it->second;
  std::string path = (std::filesystem::temp_directory_path() /
                      ("meetxml_ab13_" + std::to_string(count) + ".mxm"))
                         .string();
  store::Catalog catalog;
  for (int i = 0; i < count; ++i) {
    MEETXML_CHECK_OK(
        catalog.Add("doc_" + std::to_string(i), MustShred(DocXml(i)))
            .status());
  }
  MEETXML_CHECK_OK(catalog.SaveToFile(path));
  return (*cache)[count] = path;
}

// ---- Part 1: open scaling ------------------------------------------------

void CatalogOpen(benchmark::State& state, bool lazy) {
  const std::string& path = StorePath(static_cast<int>(state.range(0)));
  store::CatalogLoadOptions options;
  options.mode = model::LoadMode::kView;
  options.lazy = lazy;
  for (auto _ : state) {
    auto catalog = store::Catalog::LoadFromFile(path, options);
    MEETXML_CHECK_OK(catalog.status());
    benchmark::DoNotOptimize(catalog);
  }
  // Stats collection allocates per document; gather it once outside
  // the timed loop so the counters describe the open without taxing it.
  store::CatalogLoadStats stats;
  options.stats = &stats;
  MEETXML_CHECK_OK(store::Catalog::LoadFromFile(path, options).status());
  state.counters["docs"] = static_cast<double>(state.range(0));
  state.counters["deferred"] =
      static_cast<double>(stats.deferred_documents);
  state.counters["checksums_verified"] =
      static_cast<double>(stats.sections_verified);
}

void BM_CatalogOpenLazy(benchmark::State& state) {
  CatalogOpen(state, /*lazy=*/true);
}
BENCHMARK(BM_CatalogOpenLazy)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_CatalogOpenEagerView(benchmark::State& state) {
  CatalogOpen(state, /*lazy=*/false);
}
BENCHMARK(BM_CatalogOpenEagerView)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---- Part 2: open + first answer -----------------------------------------

void FirstQuery(const store::Catalog& catalog, int count) {
  store::MultiExecutor multi(&catalog);
  auto result = multi.ExecuteText(
      "doc_" + std::to_string(count / 2),
      "SELECT a FROM *//cdata a WHERE a CONTAINS 'token' LIMIT 5", {});
  MEETXML_CHECK_OK(result.status());
  benchmark::DoNotOptimize(result);
}

void BM_CatalogOpenLazyFirstQuery(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  const std::string& path = StorePath(count);
  store::CatalogLoadOptions options;
  options.mode = model::LoadMode::kView;
  options.lazy = true;
  for (auto _ : state) {
    auto catalog = store::Catalog::LoadFromFile(path, options);
    MEETXML_CHECK_OK(catalog.status());
    FirstQuery(*catalog, count);
  }
  state.counters["docs"] = static_cast<double>(count);
}
BENCHMARK(BM_CatalogOpenLazyFirstQuery)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_CatalogOpenWarmFirstQuery(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  const std::string& path = StorePath(count);
  store::CatalogLoadOptions options;
  options.mode = model::LoadMode::kView;
  for (auto _ : state) {
    auto catalog = store::Catalog::LoadFromFile(path, options);
    MEETXML_CHECK_OK(catalog.status());
    MEETXML_CHECK_OK(catalog->Warm());
    FirstQuery(*catalog, count);
  }
  state.counters["docs"] = static_cast<double>(count);
}
BENCHMARK(BM_CatalogOpenWarmFirstQuery)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---- Part 3: incremental vs. full save -----------------------------------

// Steady-state maintenance of a 65-document store: each iteration
// replaces one document ("hot") and saves. The replacement itself is
// excluded from the timing; the save is the measured unit.

store::Catalog* SaveCorpus(const std::string& path) {
  auto* catalog = new store::Catalog();
  for (int i = 0; i < 64; ++i) {
    MEETXML_CHECK_OK(
        catalog->Add("doc_" + std::to_string(i), MustShred(DocXml(i)))
            .status());
  }
  MEETXML_CHECK_OK(catalog->Add("hot", MustShred(DocXml(99))).status());
  MEETXML_CHECK_OK(catalog->SaveToFile(path));
  return catalog;
}

void ReplaceHot(store::Catalog* catalog, int round) {
  MEETXML_CHECK_OK(catalog->Remove("hot"));
  MEETXML_CHECK_OK(
      catalog->Add("hot", MustShred(DocXml(100 + round % 7))).status());
}

void BM_CatalogSaveInPlace(benchmark::State& state) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "meetxml_ab13_inplace.mxm")
                         .string();
  store::Catalog* catalog = SaveCorpus(path);
  store::CatalogSaveStats stats;
  store::CatalogSaveOptions save;
  save.in_place = true;
  // Let dead space ride: this series measures the append, and the
  // compaction economics are reported via the counters below.
  save.compact_threshold = 0.98;
  save.stats = &stats;
  int round = 0;
  size_t appends = 0;
  size_t rewrites = 0;
  uint64_t appended_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ReplaceHot(catalog, round++);
    state.ResumeTiming();
    MEETXML_CHECK_OK(catalog->SaveToFile(path, save));
    stats.in_place ? ++appends : ++rewrites;
    appended_bytes += stats.bytes_appended;
  }
  state.counters["appends"] = static_cast<double>(appends);
  state.counters["rewrites"] = static_cast<double>(rewrites);
  state.counters["appended_KB_per_save"] =
      appends != 0
          ? static_cast<double>(appended_bytes) / 1e3 / appends
          : 0;
  state.counters["file_KB"] = static_cast<double>(stats.file_size) / 1e3;
  state.counters["dead_KB"] = static_cast<double>(stats.dead_bytes) / 1e3;
  delete catalog;
  std::remove(path.c_str());
}
BENCHMARK(BM_CatalogSaveInPlace)->Unit(benchmark::kMillisecond);

void BM_CatalogSaveFullRewrite(benchmark::State& state) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "meetxml_ab13_full.mxm")
                         .string();
  store::Catalog* catalog = SaveCorpus(path);
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ReplaceHot(catalog, round++);
    state.ResumeTiming();
    MEETXML_CHECK_OK(catalog->SaveToFile(path));
  }
  delete catalog;
  std::remove(path.c_str());
}
BENCHMARK(BM_CatalogSaveFullRewrite)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
