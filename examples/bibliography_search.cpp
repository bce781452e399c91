// Bibliography search: the paper's §5 case study as an application.
//
// Generates a DBLP-shaped bibliography, then answers "list all
// publications in the <venue> proceedings of <year>" by combining
// full-text search with the meet operator (root excluded, as in the
// paper). Shows the top results as reassembled XML.
//
// The library ranks meets by the paper's §4 heuristic alone, the
// number of joins (witness distance). This example re-scores them with
// the further heuristics §4 suggests — "distances in the source file"
// and friends — to show how an application layers its own ranking on
// top of MeetGeneral's answer.
//
// Run:  ./bibliography_search [venue] [year]
//       ./bibliography_search ICDE 1997

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/browse.h"
#include "core/meet_general.h"
#include "core/restrictions.h"
#include "data/dblp_gen.h"
#include "model/reassembly.h"
#include "model/shredder.h"
#include "text/search.h"
#include "util/timer.h"

using namespace meetxml;  // example code; the library itself never does this

namespace {

// Scoring weights; lower score = better. Join count first, everything
// else a tie-breaker.
constexpr double kWitnessDistanceWeight = 1.0;
// Weight of log2(OID span) — document-order locality.
constexpr double kDocumentSpanWeight = 0.25;
// Bonus per distinct search term covered by the witnesses.
constexpr double kTermCoverageBonus = 2.0;
// Small reward per level of meet depth (specificity).
constexpr double kDepthBonus = 0.05;

// Scores every meet whose witnesses cover at least `min_terms`
// distinct search terms (`source_terms` maps a witness source to its
// term) and returns the best `n`, meet OID breaking score ties.
std::vector<core::GeneralMeet> TopMeets(
    const model::StoredDocument& doc, std::vector<core::GeneralMeet> meets,
    const std::vector<size_t>& source_terms, size_t min_terms, size_t n) {
  std::vector<std::pair<double, core::GeneralMeet>> scored;
  for (core::GeneralMeet& meet : meets) {
    std::unordered_set<size_t> terms;
    bat::Oid lo = meet.witnesses.empty()
                      ? 0
                      : meet.witnesses.front().assoc.node;
    bat::Oid hi = lo;
    for (const core::MeetWitness& witness : meet.witnesses) {
      terms.insert(source_terms[witness.source]);
      lo = std::min(lo, witness.assoc.node);
      hi = std::max(hi, witness.assoc.node);
    }
    if (terms.size() < min_terms) continue;
    double score = kWitnessDistanceWeight * meet.witness_distance +
                   kDocumentSpanWeight *
                       std::log2(1.0 + static_cast<double>(hi - lo)) -
                   kTermCoverageBonus * static_cast<double>(terms.size()) -
                   kDepthBonus * static_cast<double>(doc.depth(meet.meet));
    scored.emplace_back(score, std::move(meet));
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second.meet < b.second.meet;
  });
  std::vector<core::GeneralMeet> top;
  for (size_t i = 0; i < scored.size() && i < n; ++i) {
    top.push_back(std::move(scored[i].second));
  }
  return top;
}

}  // namespace

int main(int argc, char** argv) {
  std::string venue = argc > 1 ? argv[1] : "ICDE";
  std::string year = argc > 2 ? argv[2] : "1997";

  // Generate and load the synthetic bibliography.
  data::DblpOptions gen_options;
  gen_options.icde_papers_per_year = 40;
  gen_options.other_papers_per_year = 120;
  gen_options.journal_articles_per_year = 40;
  auto generated = data::GenerateDblp(gen_options);
  MEETXML_CHECK_OK(generated.status());

  util::Timer load_timer;
  auto doc_result = model::Shred(*generated);
  MEETXML_CHECK_OK(doc_result.status());
  const model::StoredDocument& doc = *doc_result;
  std::printf("Bibliography: %zu nodes, %zu schema paths (loaded in "
              "%.1f ms).\n",
              doc.node_count(), doc.paths().size(),
              load_timer.ElapsedMillis());

  auto search_result = text::FullTextSearch::Build(doc);
  MEETXML_CHECK_OK(search_result.status());
  const text::FullTextSearch& search = *search_result;

  // Full-text search for the venue and the year.
  util::Timer search_timer;
  auto matches = search.SearchAll({venue, year}, text::MatchMode::kContains);
  MEETXML_CHECK_OK(matches.status());
  double search_ms = search_timer.ElapsedMillis();
  std::printf("Full-text: '%s' -> %zu matches, '%s' -> %zu matches "
              "(%.1f ms).\n",
              venue.c_str(), (*matches)[0].total(), year.c_str(),
              (*matches)[1].total(), search_ms);

  // Meet with the document root excluded (the paper's meet_X).
  util::Timer meet_timer;
  std::vector<size_t> source_terms;
  auto inputs = text::FullTextSearch::ToMeetInput(*matches, &source_terms);
  auto meets =
      core::MeetGeneral(doc, inputs, core::ExcludeRootOptions(doc));
  MEETXML_CHECK_OK(meets.status());
  double meet_ms = meet_timer.ElapsedMillis();
  std::printf("Meet: %zu nearest concepts (%.2f ms).\n\n", meets->size(),
              meet_ms);

  // Rank, require both terms covered, and present the top answers as
  // browsable snippets.
  std::vector<core::GeneralMeet> top =
      TopMeets(doc, std::move(*meets), source_terms, 2, 3);
  auto answers = core::BuildAnswers(doc, top);
  MEETXML_CHECK_OK(answers.status());
  for (const core::Answer& answer : *answers) {
    std::printf("-- %s\n", core::RenderAnswer(answer).c_str());
  }
  if (answers->empty()) {
    std::printf("No publication combines '%s' and '%s'.\n", venue.c_str(),
                year.c_str());
  }
  return 0;
}
