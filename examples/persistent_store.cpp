// Persistent store: bulk-load once, query forever.
//
// Demonstrates the full production loading path: one shred of the XML
// (model/shredder.h), index construction, persistence of document AND
// full-text indexes in one MXM2 image (text/index_io.h), and reload
// into an executor whose indexes are hot without rebuilding — the
// workflow of the paper's case study ("We prepared the bibliography by
// bulk loading it into Monet XML") made durable.
//
// Run:  ./persistent_store [store.mxm]

#include <cstdio>
#include <string>

#include "data/dblp_gen.h"
#include "model/shredder.h"
#include "model/stats.h"
#include "query/executor.h"
#include "text/index_io.h"
#include "text/search.h"
#include "util/timer.h"
#include "xml/serializer.h"

using namespace meetxml;  // example code; the library itself never does this

int main(int argc, char** argv) {
  std::string store_path = argc > 1 ? argv[1] : "/tmp/meetxml_store.mxm";

  // 1. Generate the corpus and its XML text.
  data::DblpOptions options;
  options.icde_papers_per_year = 40;
  options.other_papers_per_year = 120;
  options.journal_articles_per_year = 40;
  auto generated = data::GenerateDblp(options);
  MEETXML_CHECK_OK(generated.status());
  xml::SerializeOptions serialize_options;
  serialize_options.indent = 1;
  std::string xml_text = xml::Serialize(*generated, serialize_options);

  // 2. Bulk load from XML: one pass of the Monet transform.
  util::Timer timer;
  auto doc = model::ShredXmlText(xml_text);
  MEETXML_CHECK_OK(doc.status());
  double shred_ms = timer.ElapsedMillis();

  // 3. Build the text indexes once, then persist document + indexes
  //    into one MXM2 image.
  timer.Reset();
  auto index = text::InvertedIndex::Build(*doc);
  MEETXML_CHECK_OK(index.status());
  double index_ms = timer.ElapsedMillis();

  timer.Reset();
  MEETXML_CHECK_OK(text::SaveStoreToFile(*doc, &*index, store_path));
  double save_ms = timer.ElapsedMillis();

  // 4. Reload (the cheap path): no XML parse, no tokenization.
  timer.Reset();
  auto store = text::LoadStoreFromFile(store_path);
  MEETXML_CHECK_OK(store.status());
  double load_ms = timer.ElapsedMillis();

  std::printf("XML size:        %.1f MB\n",
              static_cast<double>(xml_text.size()) / 1e6);
  std::printf("shred:           %.1f ms\n", shred_ms);
  std::printf("index build:     %.1f ms\n", index_ms);
  std::printf("save image:      %.1f ms -> %s\n", save_ms,
              store_path.c_str());
  std::printf("reload image:    %.1f ms, indexes included "
              "(%.1fx faster than re-parse + re-index)\n\n",
              load_ms, (shred_ms + index_ms) / load_ms);

  // 5. The reloaded store answers queries with hot indexes.
  auto stats = model::ComputeStats(store->doc);
  MEETXML_CHECK_OK(stats.status());
  std::printf("Reloaded store catalog (top relations):\n%s\n",
              model::RenderStats(*stats, 5).c_str());

  auto executor = query::Executor::Build(
      store->doc,
      text::FullTextSearch::WithIndex(store->doc, std::move(*store->index)));
  MEETXML_CHECK_OK(executor.status());
  auto result = executor->ExecuteText(
      "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b "
      "WHERE a CONTAINS 'ICDE' AND b CONTAINS '1995' "
      "EXCLUDE dblp LIMIT 5");
  MEETXML_CHECK_OK(result.status());
  std::printf("Query against the reloaded store:\n%s",
              result->ToText().c_str());
  return 0;
}
