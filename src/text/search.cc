#include "text/search.h"

#include <algorithm>

#include "util/strings.h"

namespace meetxml {
namespace text {

using util::Result;
using util::Status;

Result<FullTextSearch> FullTextSearch::Build(const StoredDocument& doc,
                                             const IndexOptions& options) {
  MEETXML_ASSIGN_OR_RETURN(InvertedIndex index,
                           InvertedIndex::Build(doc, options));
  return FullTextSearch(&doc, std::move(index));
}

std::vector<Posting> FullTextSearch::ScanContains(std::string_view needle,
                                                  bool ignore_case) const {
  std::vector<Posting> out;
  for (PathId path : doc_->string_paths()) {
    const model::OidStrBat& table = doc_->StringsAt(path);
    for (size_t row = 0; row < table.size(); ++row) {
      std::string_view value = table.tail(row);
      bool hit = ignore_case ? util::ContainsIgnoreCase(value, needle)
                             : util::Contains(value, needle);
      if (hit) out.push_back(Posting{path, table.head(row)});
    }
  }
  return out;
}

std::vector<core::AssocSet> FullTextSearch::GroupByPath(
    std::vector<Posting> postings) {
  std::sort(postings.begin(), postings.end());
  postings.erase(std::unique(postings.begin(), postings.end()),
                 postings.end());
  std::vector<core::AssocSet> sets;
  for (const Posting& posting : postings) {
    if (sets.empty() || sets.back().path != posting.path) {
      sets.push_back(core::AssocSet{posting.path, {}});
    }
    sets.back().nodes.push_back(posting.owner);
  }
  return sets;
}

Result<TermMatches> FullTextSearch::Search(std::string_view term,
                                           MatchMode mode) const {
  if (term.empty()) {
    return Status::InvalidArgument("empty search term");
  }
  if (mode == MatchMode::kPhrase && Tokenize(term).empty()) {
    return Status::InvalidArgument(
        "phrase contains no indexable words: '", term, "'");
  }
  std::optional<std::vector<Posting>> postings =
      IndexMatches(term, mode, PostingScope{});
  if (!postings.has_value()) {
    postings = ScanContains(
        term, /*ignore_case=*/mode == MatchMode::kContainsIgnoreCase);
  }
  TermMatches matches;
  matches.term = std::string(term);
  matches.sets = GroupByPath(std::move(*postings));
  return matches;
}

std::optional<std::vector<Posting>> FullTextSearch::SearchOn(
    std::string_view term, MatchMode mode, const std::vector<PathId>& paths,
    size_t* postings_read) const {
  if ((mode == MatchMode::kWord || mode == MatchMode::kPhrase) &&
      index_.tokenizer_options() != TokenizerOptions{}) {
    return std::nullopt;
  }
  return IndexMatches(term, mode, PostingScope{&paths, postings_read});
}

std::optional<std::vector<Posting>> FullTextSearch::IndexMatches(
    std::string_view term, MatchMode mode,
    const PostingScope& scope) const {
  auto verified = [&](std::vector<Posting> candidates, const auto& test) {
    RetainMatchingPostings(*doc_, test, &candidates);
    return candidates;
  };
  switch (mode) {
    case MatchMode::kWord:
      return IntersectPostings({&index_.LookupWord(term)}, scope);
    case MatchMode::kPhrase: {
      // Candidates: strings holding every word of the phrase; then the
      // adjacency check against the stored strings.
      std::vector<std::string> tokens = Tokenize(term);
      if (tokens.empty()) return std::vector<Posting>();
      std::vector<const std::vector<Posting>*> lists;
      for (const std::string& token : tokens) {
        lists.push_back(&index_.LookupWord(token));
      }
      return verified(IntersectPostings(std::move(lists), scope),
                      [&](std::string_view value) {
                        return MatchesPhrase(value, tokens);
                      });
    }
    case MatchMode::kContains: {
      // Trigram candidates are a superset; verify against the strings.
      std::optional<std::vector<Posting>> candidates =
          index_.TrigramCandidates(term, scope);
      if (!candidates.has_value()) return std::nullopt;
      return verified(std::move(*candidates), [&](std::string_view value) {
        return util::Contains(value, term);
      });
    }
    case MatchMode::kContainsIgnoreCase:
      return std::nullopt;
  }
  return std::nullopt;
}

Result<std::vector<TermMatches>> FullTextSearch::SearchAll(
    const std::vector<std::string>& terms, MatchMode mode) const {
  std::vector<TermMatches> out;
  out.reserve(terms.size());
  for (const std::string& term : terms) {
    MEETXML_ASSIGN_OR_RETURN(TermMatches matches, Search(term, mode));
    out.push_back(std::move(matches));
  }
  return out;
}

std::vector<core::AssocSet> FullTextSearch::ToMeetInput(
    const std::vector<TermMatches>& matches) {
  return ToMeetInput(matches, nullptr);
}

std::vector<core::AssocSet> FullTextSearch::ToMeetInput(
    const std::vector<TermMatches>& matches,
    std::vector<size_t>* source_terms) {
  std::vector<core::AssocSet> inputs;
  if (source_terms != nullptr) source_terms->clear();
  for (size_t t = 0; t < matches.size(); ++t) {
    for (const core::AssocSet& set : matches[t].sets) {
      inputs.push_back(set);
      if (source_terms != nullptr) source_terms->push_back(t);
    }
  }
  return inputs;
}

}  // namespace text
}  // namespace meetxml
