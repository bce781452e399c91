// Interactive query shell over a catalog of documents.
//
// Run:  ./query_shell [file.xml | store.mxm ...]
//
// Every XML argument is shredded and added to the catalog under its
// file stem; a .mxm argument loads a whole store image (catalog or
// legacy single-document). With no arguments the built-in paper
// example is loaded. Queries route through store::MultiExecutor to
// every document the current scope matches, so answers come back as
// (doc, concept) rows.
//
// Catalog commands:
//   \open <file>      add an XML file / load a store image
//   \docs             list the catalog (name, id, nodes, paths, index)
//   \use <glob>       scope queries to matching documents (default *)
//   \save <file>      persist the catalog as one image
//   \history          show past input lines
//   \stats            session metrics: per-stage latency histograms
//                     (parse/route/decode/index build/execute/merge)
//                     and catalog and thread counters from the
//                     process registry
// Classic commands:
//   .paths            path summaries of the scoped documents
//   .stats            statistics of the scoped documents
//   .explain <query>  binding plan (requires a single-document scope)
//   .help             grammar cheat sheet
//   .quit             exit
// Queries may span several lines; a trailing ';' submits. Example:
//   SELECT MEET(a, b) FROM doc//cdata a, doc//cdata b
//     WHERE a CONTAINS 'Bit' AND b CONTAINS '1999';

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "data/paper_example.h"
#include "model/bulk_load.h"
#include "model/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "util/strings.h"

using namespace meetxml;  // example code; the library itself never does this

namespace {

void PrintHelp() {
  std::printf(R"(Grammar:
  SELECT <proj> FROM <pattern> [AS] <var> (, ...)
         [WHERE <predicates: AND/OR/NOT over
                 var CONTAINS|ICONTAINS|WORD|PHRASE|SYNONYM 'str',
                 var = 'str', DISTANCE(v1, v2) <= k>]
         [EXCLUDE <pattern> (, ...)] [WITHIN k] [LIMIT n]
  proj:    var | MEET(v...) | ANCESTORS(v...) | GMEET(v1, v2)
           | TAG(v) | PATH(v) | XML(v) | COUNT(v)
  pattern: tag/tag, * (any tag), // (any depth), @attr, cdata
Queries end with ';' and may span lines. \use <glob> picks the
documents they run against. Example:
  SELECT MEET(o1, o2) FROM bibliography//cdata o1,
    bibliography//cdata o2
    WHERE o1 CONTAINS 'Bit' AND o2 CONTAINS '1999';
)");
}

// A name for `path` that is unique in the catalog: the file stem,
// suffixed with _2, _3, ... on collision.
std::string UniqueName(const store::Catalog& catalog,
                       const std::string& path) {
  std::string stem = std::filesystem::path(path).stem().string();
  if (stem.empty()) stem = "doc";
  std::string name = stem;
  for (int n = 2; catalog.Find(name) != nullptr; ++n) {
    name = stem + "_" + std::to_string(n);
  }
  return name;
}

// Human-readable byte count for the \open report.
std::string FormatBytes(uint64_t bytes) {
  char out[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(out, sizeof(out), "%.1f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(out, sizeof(out), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(out, sizeof(out), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return out;
}

// Adds an XML file or loads a store image into `catalog`.
bool OpenFile(store::Catalog* catalog, const std::string& path) {
  if (util::EndsWith(path, ".mxm")) {
    store::CatalogLoadStats stats;
    store::CatalogLoadOptions options;
    options.stats = &stats;
    // Zero-copy open: documents borrow from the pinned file mapping.
    options.mode = model::LoadMode::kView;
    auto loaded = store::Catalog::LoadFromFile(path, options);
    if (!loaded.ok()) {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
      return false;
    }
    if (!catalog->empty()) {
      std::printf("replacing %zu existing document(s) (\\save first to "
                  "keep them)\n",
                  catalog->size());
    }
    *catalog = std::move(*loaded);
    std::printf("loaded store image: %zu document(s) in %.2f ms "
                "(%u decode thread(s))\n",
                catalog->size(), stats.total_ms, stats.threads_used);
    // Per-document decode report: who borrows zero-copy from the
    // mapping, who copies, who reloads a persisted index.
    for (const auto& doc_stats : stats.documents) {
      std::printf("  %-20s %8.2f ms  %s, %s copied / %s mapped%s\n",
                  doc_stats.name.c_str(), doc_stats.decode_ms,
                  doc_stats.mode == model::LoadMode::kView ? "view"
                                                           : "copy",
                  FormatBytes(doc_stats.bytes_copied).c_str(),
                  FormatBytes(doc_stats.bytes_copied +
                              doc_stats.bytes_viewed)
                      .c_str(),
                  doc_stats.indexed ? "  (+persisted index)" : "");
    }
    return true;
  }
  auto doc = model::BulkShredXmlFile(path);
  if (!doc.ok()) {
    std::printf("error: %s\n", doc.status().ToString().c_str());
    return false;
  }
  std::string name = UniqueName(*catalog, path);
  auto added = catalog->Add(name, std::move(*doc));
  if (!added.ok()) {
    std::printf("error: %s\n", added.status().ToString().c_str());
    return false;
  }
  const store::NamedDocument* entry = catalog->Find(name);
  std::printf("added '%s' (doc %u): %zu nodes, %zu paths\n", name.c_str(),
              entry->id, entry->doc.node_count(),
              entry->doc.paths().size());
  return true;
}

void ListDocs(const store::Catalog& catalog, std::string_view scope) {
  if (catalog.empty()) {
    std::printf("(catalog is empty — \\open a file)\n");
    return;
  }
  for (const store::NamedDocument* entry : catalog.entries()) {
    bool indexed = entry->index.has_value() ||
                   (entry->executor != nullptr &&
                    entry->executor->text_index() != nullptr);
    std::printf("  %c %-20s id=%-4u %8zu nodes  %5zu paths  %s\n",
                util::GlobMatch(scope, entry->name) ? '*' : ' ',
                entry->name.c_str(), entry->id, entry->doc.node_count(),
                entry->doc.paths().size(),
                indexed ? "indexed" : "lazy index");
  }
  std::printf("('*' marks documents in the current scope '%s')\n",
              std::string(scope).c_str());
}

// Session metrics from the process-wide registry: every query this
// shell ran recorded its stage breakdown there (the same series a
// meetxmld exposes over DUMP), plus the catalog's open/decode work.
void PrintSessionStats() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  std::printf("%-42s %8s %10s %8s %8s %8s\n", "histogram (us)", "count",
              "sum", "p50", "p90", "p99");
  for (const obs::NamedSummary& entry : registry.HistogramSummaries()) {
    if (entry.summary.count == 0) continue;
    std::printf("%-42s %8llu %10llu %8llu %8llu %8llu\n",
                entry.name.c_str(),
                static_cast<unsigned long long>(entry.summary.count),
                static_cast<unsigned long long>(entry.summary.sum),
                static_cast<unsigned long long>(entry.summary.p50),
                static_cast<unsigned long long>(entry.summary.p90),
                static_cast<unsigned long long>(entry.summary.p99));
  }
  std::printf("rows returned       %llu\n"
              "catalog opens       %llu\n"
              "lazy decodes        %llu\n"
              "text index builds   %llu\n"
              "bind values scanned %llu\n"
              "bind postings read  %llu\n"
              "threads started     %llu\n",
              static_cast<unsigned long long>(
                  registry.counter("meetxml_query_rows_total").Value()),
              static_cast<unsigned long long>(
                  registry.counter("meetxml_catalog_opens_total").Value()),
              static_cast<unsigned long long>(
                  registry.counter("meetxml_catalog_lazy_decode_total")
                      .Value()),
              static_cast<unsigned long long>(
                  registry.counter("meetxml_text_index_builds_total")
                      .Value()),
              static_cast<unsigned long long>(
                  registry.counter("meetxml_query_bind_values_scanned_total")
                      .Value()),
              static_cast<unsigned long long>(
                  registry.counter("meetxml_query_bind_postings_total")
                      .Value()),
              static_cast<unsigned long long>(
                  registry.counter("meetxml_threads_started_total").Value()));
}

}  // namespace

int main(int argc, char** argv) {
  store::Catalog catalog;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      if (!OpenFile(&catalog, argv[i])) return 1;
    }
  } else {
    auto doc = model::ShredXmlText(data::PaperExampleXml());
    MEETXML_CHECK_OK(doc.status());
    MEETXML_CHECK_OK(catalog.Add("bibliography", std::move(*doc)).status());
  }
  store::MultiExecutor multi(&catalog);
  std::string scope = "*";

  std::printf("meetxml shell — %zu document(s). Type .help for the "
              "grammar, \\docs for the catalog, .quit to exit.\n",
              catalog.size());

  std::vector<std::string> history;
  std::string pending;  // multi-line query being accumulated
  std::string line;
  while (true) {
    std::printf(pending.empty() ? "meet> " : "....> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view stripped = util::StripAsciiWhitespace(line);
    if (stripped.empty()) continue;
    history.emplace_back(stripped);

    // Commands run immediately; they never join a multi-line query.
    if (pending.empty() && (stripped[0] == '.' || stripped[0] == '\\')) {
      std::string command(stripped);
      if (command == ".quit" || command == ".exit") break;
      if (command == ".help") {
        PrintHelp();
      } else if (command == "\\docs" || command == ".docs") {
        ListDocs(catalog, scope);
      } else if (command == "\\stats" || command == ".stats-session") {
        PrintSessionStats();
      } else if (command == "\\history") {
        for (size_t i = 0; i < history.size(); ++i) {
          std::printf("%4zu  %s\n", i + 1, history[i].c_str());
        }
      } else if (util::StartsWith(command, "\\use ")) {
        std::string requested(
            util::StripAsciiWhitespace(command.substr(5)));
        if (catalog.MatchNames(requested).empty()) {
          std::printf("scope '%s' matches no document (\\docs lists "
                      "them); scope unchanged\n",
                      requested.c_str());
        } else {
          scope = requested;
          std::printf("scope: %s (%zu document(s))\n", scope.c_str(),
                      catalog.MatchNames(scope).size());
        }
      } else if (util::StartsWith(command, "\\open ")) {
        OpenFile(&catalog,
                 std::string(util::StripAsciiWhitespace(command.substr(6))));
      } else if (util::StartsWith(command, "\\save ")) {
        std::string path(util::StripAsciiWhitespace(command.substr(6)));
        auto saved = catalog.SaveToFile(path);
        if (saved.ok()) {
          std::printf("saved %zu document(s) -> %s\n", catalog.size(),
                      path.c_str());
        } else {
          std::printf("error: %s\n", saved.ToString().c_str());
        }
      } else if (command == ".stats") {
        for (const std::string& name : catalog.MatchNames(scope)) {
          auto stats = model::ComputeStats(catalog.Find(name)->doc);
          std::printf("-- %s --\n", name.c_str());
          if (stats.ok()) {
            std::printf("%s", model::RenderStats(*stats, 15).c_str());
          }
        }
      } else if (command == ".paths") {
        for (const std::string& name : catalog.MatchNames(scope)) {
          const model::StoredDocument& doc = catalog.Find(name)->doc;
          std::printf("-- %s --\n", name.c_str());
          for (bat::PathId id = 0; id < doc.paths().size(); ++id) {
            std::printf("  %s\n", doc.paths().ToString(id).c_str());
          }
        }
      } else if (util::StartsWith(command, ".explain ")) {
        std::vector<std::string> scoped = catalog.MatchNames(scope);
        if (scoped.size() != 1) {
          std::printf("explain needs a single-document scope; \\use a "
                      "document name first\n");
          continue;
        }
        auto executor = catalog.ExecutorFor(scoped.front());
        if (!executor.ok()) {
          std::printf("error: %s\n",
                      executor.status().ToString().c_str());
          continue;
        }
        auto plan = (*executor)->ExplainText(command.substr(9));
        if (plan.ok()) {
          std::printf("%s", plan->c_str());
        } else {
          std::printf("error: %s\n", plan.status().ToString().c_str());
        }
      } else {
        std::printf("unknown command: %s (.help lists commands)\n",
                    command.c_str());
      }
      continue;
    }

    // Query text: accumulate until a line ends with ';'.
    if (!pending.empty()) pending += ' ';
    pending.append(stripped);
    if (pending.back() != ';') continue;
    pending.pop_back();
    std::string query_text;
    std::swap(query_text, pending);

    // Trace every query so \stats can break the session down by stage
    // — including the catalog's first-touch decode and index build.
    obs::QueryTrace trace;
    auto result = multi.ExecuteText(scope, query_text, {}, &trace);
    if (!result.ok()) {
      obs::RecordStageHistograms(&obs::MetricsRegistry::Global(), trace,
                                 /*rows=*/0);
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    obs::RecordStageHistograms(&obs::MetricsRegistry::Global(), trace,
                               result->rows.size());
    std::printf("%s(%zu rows over %zu document(s), %llu us staged)\n",
                result->ToText().c_str(), result->rows.size(),
                result->per_document.size(),
                static_cast<unsigned long long>(trace.TotalStageUs()));
  }
  return 0;
}
