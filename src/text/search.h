// Full-text search facade: turns search terms into the uniformly-typed
// association sets the meet operators consume.

#ifndef MEETXML_TEXT_SEARCH_H_
#define MEETXML_TEXT_SEARCH_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/input_set.h"
#include "text/inverted_index.h"
#include "util/result.h"

namespace meetxml {
namespace text {

/// \brief How a term matches a stored string.
enum class MatchMode {
  /// Case-sensitive substring — the paper's `contains` predicate.
  kContains,
  /// Case-insensitive substring.
  kContainsIgnoreCase,
  /// Whole word (tokenized, case-folded).
  kWord,
  /// Consecutive words, case-folded and punctuation-insensitive:
  /// "how to hack" matches the title "How to Hack". Resolved by
  /// intersecting the word postings of every phrase token, then
  /// verifying adjacency against the stored strings.
  kPhrase,
};

/// \brief All matches of one term, grouped by schema path — exactly the
/// input shape of meet (paper §3.2: results of a full-text query "may be
/// distributed over a large number of relations").
struct TermMatches {
  std::string term;
  std::vector<core::AssocSet> sets;

  size_t total() const {
    size_t n = 0;
    for (const auto& set : sets) n += set.nodes.size();
    return n;
  }
};

/// \brief Full-text search engine over one stored document.
class FullTextSearch {
 public:
  /// \brief Builds the word and trigram indexes over `doc`. The document
  /// must outlive this object.
  static util::Result<FullTextSearch> Build(const StoredDocument& doc,
                                            const IndexOptions& options = {});

  /// \brief Wraps a pre-built index — e.g. one deserialized from an
  /// MXM2 image (text/index_io.h) — skipping construction entirely.
  /// The index must have been built over `doc` (or validated against
  /// it); the document must outlive this object.
  static FullTextSearch WithIndex(const StoredDocument& doc,
                                  InvertedIndex index) {
    return FullTextSearch(&doc, std::move(index));
  }

  /// \brief Matches of one term under the given mode. Sets are grouped
  /// by path, each with sorted, unique node OIDs.
  util::Result<TermMatches> Search(std::string_view term,
                                   MatchMode mode) const;

  /// \brief Searches several terms; the result vector is parallel to
  /// `terms`. Feeding all sets of all terms into MeetGeneral computes the
  /// paper's "meet of full-text results" queries.
  util::Result<std::vector<TermMatches>> SearchAll(
      const std::vector<std::string>& terms, MatchMode mode) const;

  /// \brief Flattens term matches into MeetGeneral input, with each
  /// term's sets carrying a distinct source range.
  static std::vector<core::AssocSet> ToMeetInput(
      const std::vector<TermMatches>& matches);

  /// \brief Like ToMeetInput, and also fills `source_terms` with the
  /// index of the originating term for every flattened set, so a
  /// caller can count how many distinct terms a meet's witnesses cover
  /// (examples/bibliography_search.cpp ranks by that coverage).
  static std::vector<core::AssocSet> ToMeetInput(
      const std::vector<TermMatches>& matches,
      std::vector<size_t>* source_terms);

  const InvertedIndex& index() const { return index_; }

 private:
  FullTextSearch(const StoredDocument* doc, InvertedIndex index)
      : doc_(doc), index_(std::move(index)) {}

  /// Scans every string BAT with a substring predicate (the fallback
  /// when the trigram index cannot prune).
  std::vector<Posting> ScanContains(std::string_view needle,
                                    bool ignore_case) const;

  /// Groups verified postings into per-path association sets.
  static std::vector<core::AssocSet> GroupByPath(
      std::vector<Posting> postings);

  const StoredDocument* doc_;
  InvertedIndex index_;
};

}  // namespace text
}  // namespace meetxml

#endif  // MEETXML_TEXT_SEARCH_H_
