// Full-text search facade: turns search terms into the uniformly-typed
// association sets the meet operators consume.

#ifndef MEETXML_TEXT_SEARCH_H_
#define MEETXML_TEXT_SEARCH_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
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

  /// \brief Matches of one term on the sorted `paths` only, answered
  /// from the index as sorted, unique postings — or nullopt when the
  /// index cannot answer the mode exactly as the per-value match
  /// functions (util::Contains, MatchesWord, MatchesPhrase) would:
  /// kContainsIgnoreCase; kContains under 3 bytes or without trigrams;
  /// kWord and kPhrase over an index tokenized with non-default
  /// options. A phrase with no indexable words matches nothing. Adds
  /// the postings it reads to `*postings_read`.
  std::optional<std::vector<Posting>> SearchOn(
      std::string_view term, MatchMode mode,
      const std::vector<PathId>& paths, size_t* postings_read) const;

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

  /// Index-answered matches within `scope`, verified against the
  /// strings; nullopt for kContainsIgnoreCase and for kContains when
  /// the trigram index cannot prune.
  std::optional<std::vector<Posting>> IndexMatches(
      std::string_view term, MatchMode mode,
      const PostingScope& scope) const;

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

/// \brief Keeps the postings (sorted, as every index lookup returns
/// them) some string value of which passes `test`: the verification
/// pass behind candidate sets. Walks each sorted relation once.
template <typename Test>
void RetainMatchingPostings(const StoredDocument& doc, const Test& test,
                            std::vector<Posting>* postings) {
  size_t kept = 0;
  PathId path = bat::kInvalidPathId;
  const model::OidStrBat* table = nullptr;
  std::span<const Oid> heads;
  std::span<const Oid>::iterator cursor;
  for (const Posting& posting : *postings) {
    if (posting.path != path) {
      path = posting.path;
      table = &doc.StringsAt(path);
      heads = doc.StringRelationSorted(path) ? table->heads()
                                             : std::span<const Oid>();
      cursor = heads.begin();
    }
    bool pass = false;
    if (heads.empty()) {
      for (std::string_view value : doc.StringValuesAt(path, posting.owner)) {
        if (test(value)) {
          pass = true;
          break;
        }
      }
    } else {
      cursor = GallopLowerBound(cursor, heads.end(), posting.owner);
      for (auto row = cursor; !pass && row != heads.end() &&
                              *row == posting.owner;
           ++row) {
        pass = test(table->tail(static_cast<size_t>(row - heads.begin())));
      }
    }
    if (pass) (*postings)[kept++] = posting;
  }
  postings->resize(kept);
}

}  // namespace text
}  // namespace meetxml

#endif  // MEETXML_TEXT_SEARCH_H_
