// Seeded inputs of the four workloads. Each workload directory holds
// its XML documents (listed in docs.txt) plus what its clients and
// oracles need: truth.tsv for the paper workloads, the operation stream
// ops.tsv for the mixed ones, and pool.txt for the churn replacements.

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "data/dblp_gen.h"
#include "data/multimedia_gen.h"
#include "util/rng.h"
#include "workloads.h"
#include "xml/serializer.h"

namespace e2e {

namespace data = meetxml::data;

namespace {

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return Status::Internal("cannot write ", path);
  return Status::OK();
}

std::string ToXml(const meetxml::xml::Document& doc) {
  meetxml::xml::SerializeOptions options;
  options.indent = 1;
  return meetxml::xml::Serialize(doc, options);
}

Status WriteDblp(const data::DblpOptions& options, const std::string& path) {
  MEETXML_ASSIGN_OR_RETURN(meetxml::xml::Document doc,
                           data::GenerateDblp(options));
  return WriteText(path, ToXml(doc));
}

// The paper's DBLP case study (bench/fig7_case_study.cpp's shape): ICDE
// 1984-1999 at 75 papers a year, none in 1985.
Status GenerateFig7(meetxml::util::Rng* rng, const std::string& dir) {
  data::DblpOptions options;
  options.seed = rng->Next64();
  options.start_year = 1984;
  options.end_year = 1999;
  options.icde_papers_per_year = 75;
  options.other_papers_per_year = 150;
  options.journal_articles_per_year = 60;
  MEETXML_RETURN_NOT_OK(WriteDblp(options, dir + "/dblp.xml"));
  std::string truth;
  for (int start = options.end_year; start >= options.start_year; --start) {
    int icde_years = 0;
    for (int year = start; year <= options.end_year; ++year) {
      if (year != 1985) ++icde_years;
    }
    truth += std::to_string(start) + "\t" + std::to_string(options.end_year) +
             "\t" +
             std::to_string(icde_years * options.icde_papers_per_year) +
             "\n";
  }
  MEETXML_RETURN_NOT_OK(WriteText(dir + "/truth.tsv", truth));
  return WriteText(dir + "/docs.txt", "dblp.xml\n");
}

// The paper's Fig. 6 corpus (bench/fig6_fulltext_meet.cpp's shape).
Status GenerateFig6(meetxml::util::Rng* rng, const std::string& dir) {
  data::MultimediaOptions options;
  options.seed = rng->Next64();
  options.items = 4000;
  options.max_planted_distance = 20;
  MEETXML_ASSIGN_OR_RETURN(data::MultimediaCorpus corpus,
                           data::GenerateMultimedia(options));
  MEETXML_RETURN_NOT_OK(WriteText(dir + "/collection.xml", ToXml(corpus.doc)));
  std::string truth;
  for (const data::PlantedPair& pair : corpus.pairs) {
    truth += pair.term_a + "\t" + pair.term_b + "\t" +
             std::to_string(pair.distance) + "\n";
  }
  MEETXML_RETURN_NOT_OK(WriteText(dir + "/truth.tsv", truth));
  return WriteText(dir + "/docs.txt", "collection.xml\n");
}

const std::vector<std::string> kTitleWords = {
    "indexing", "querying", "storage", "retrieval",
    "optimization", "processing", "join", "caching"};
const std::vector<std::string> kFirstNames = {"Alice", "Bob",    "Carol",
                                              "Grace", "Martin", "Priya"};
const std::vector<std::string> kLastNames = {"Smith",   "Chen",    "Kumar",
                                             "Schmidt", "Kersten", "Boncz"};

// Eight bibliographies of three years each (bench/ab15_topk.cpp's
// shape) and a seeded stream of short queries over them.
Status GenerateFanout(meetxml::util::Rng* rng, const std::string& dir) {
  constexpr int kDocs = 8;
  std::string docs;
  for (int i = 0; i < kDocs; ++i) {
    data::DblpOptions options;
    options.seed = rng->Next64();
    options.start_year = 1980 + 3 * i;
    options.end_year = options.start_year + 2;
    options.icde_papers_per_year = 20;
    options.other_papers_per_year = 40;
    options.journal_articles_per_year = 20;
    std::string file = "dblp_" + std::to_string(i) + ".xml";
    MEETXML_RETURN_NOT_OK(WriteDblp(options, dir + "/" + file));
    docs += file + "\n";
  }
  const std::string meet_cdata =
      "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b ";
  // Exact shares in tenths (4 ranked, 2 structural, 2 single-document,
  // 1 tokenized, 1 reassembly), shuffled, so that seeds differ in the
  // queries but not in the mix.
  std::vector<int> kinds;
  for (int op = 0; op < 1000; ++op) kinds.push_back(op % 10);
  for (size_t i = kinds.size() - 1; i > 0; --i) {
    std::swap(kinds[i], kinds[rng->NextBelow(i + 1)]);
  }
  std::string ops;
  for (int kind : kinds) {
    std::string scope = "*";
    std::string text;
    if (kind < 4) {  // ranked top-k over every document
      text = meet_cdata + "WHERE a CONTAINS 'ICDE' AND b CONTAINS '" +
             std::to_string(rng->NextInRange(1980, 2003)) +
             "' EXCLUDE dblp LIMIT 10";
    } else if (kind < 6) {  // structural top-k: every text node a meet
      text = meet_cdata + "EXCLUDE dblp LIMIT 10";
    } else if (kind < 8) {  // unlimited meet on one document
      int doc = static_cast<int>(rng->NextBelow(kDocs));
      scope = "dblp_" + std::to_string(doc);
      text = meet_cdata + "WHERE a CONTAINS '" +
             rng->Pick(data::DblpVenues()) + "' AND b CONTAINS '" +
             std::to_string(1980 + 3 * doc + rng->NextInRange(0, 2)) +
             "' EXCLUDE dblp";
    } else if (kind < 9) {  // tokenized predicates
      text = "SELECT MEET(a, b) FROM dblp//title/cdata a, "
             "dblp//author/cdata b WHERE a WORD '" +
             rng->Pick(kTitleWords) + "' AND b PHRASE '" +
             rng->Pick(kFirstNames) + " " + rng->Pick(kLastNames) +
             "' EXCLUDE dblp LIMIT 10";
    } else {  // reassembly
      scope = "dblp_" + std::to_string(rng->NextBelow(kDocs));
      text = "SELECT XML(p) FROM dblp/proceedings p LIMIT 5";
    }
    ops += scope + "\t" + text + "\n";
  }
  MEETXML_RETURN_NOT_OK(WriteText(dir + "/ops.tsv", ops));
  return WriteText(dir + "/docs.txt", docs);
}

// A 32-document store, a pool of 16 replacement documents, and a
// seeded stream of churn cycles: which document to replace with which
// pool entry, and which document and venue the second query probes.
Status GenerateChurn(meetxml::util::Rng* rng, const std::string& dir) {
  auto write_set = [&](const std::string& prefix, int count, int first_year,
                       int years, std::string* listing) -> Status {
    for (int i = 0; i < count; ++i) {
      data::DblpOptions options;
      options.seed = rng->Next64();
      options.start_year = first_year + i % years;
      options.end_year = options.start_year;
      options.icde_papers_per_year = 10;
      options.other_papers_per_year = 30;
      options.journal_articles_per_year = 10;
      char file[32];
      std::snprintf(file, sizeof(file), "%s_%02d.xml", prefix.c_str(), i);
      MEETXML_RETURN_NOT_OK(WriteDblp(options, dir + "/" + file));
      *listing += std::string(file) + "\n";
    }
    return Status::OK();
  };
  std::string docs, pool;
  MEETXML_RETURN_NOT_OK(write_set("doc", 32, 1980, 20, &docs));
  MEETXML_RETURN_NOT_OK(write_set("pool", 16, 1990, 10, &pool));
  std::string ops;
  for (int cycle = 0; cycle < 512; ++cycle) {
    ops += std::to_string(rng->NextBelow(32)) + "\t" +
           std::to_string(rng->NextBelow(16)) + "\t" +
           std::to_string(rng->NextBelow(32)) + "\t" +
           rng->Pick(data::DblpVenues()) + "\n";
  }
  MEETXML_RETURN_NOT_OK(WriteText(dir + "/ops.tsv", ops));
  MEETXML_RETURN_NOT_OK(WriteText(dir + "/pool.txt", pool));
  return WriteText(dir + "/docs.txt", docs);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "fig7_icde", "fig6_scan", "fanout_topk", "store_churn"};
  return kNames;
}

Status GenerateInputs(const std::string& workload, uint64_t seed,
                      const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) return Status::Internal("cannot create ", dir);
  meetxml::util::Rng rng(seed);
  if (workload == "fig7_icde") return GenerateFig7(&rng, dir);
  if (workload == "fig6_scan") return GenerateFig6(&rng, dir);
  if (workload == "fanout_topk") return GenerateFanout(&rng, dir);
  if (workload == "store_churn") return GenerateChurn(&rng, dir);
  return Status::InvalidArgument("unknown workload '", workload, "'");
}

}  // namespace e2e
