// Inverted word index and trigram index over the string associations of
// a stored document.
//
// The paper's experiments run the meet on the output of a full-text
// search ("we extract from the results of the full-text query starting
// points from where the user can start displaying and browsing"). The
// word index answers whole-word queries; the trigram index accelerates
// the paper's substring `contains` predicate by pruning which strings
// need verification.

#ifndef MEETXML_TEXT_INVERTED_INDEX_H_
#define MEETXML_TEXT_INVERTED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/document.h"
#include "text/tokenizer.h"
#include "util/result.h"

namespace meetxml {
namespace text {

using bat::Oid;
using bat::PathId;
using model::StoredDocument;

/// \brief One index hit: a string association identified by its path and
/// owning node (the cdata node, or the element owning an attribute).
struct Posting {
  PathId path;
  Oid owner;

  bool operator==(const Posting& other) const {
    return path == other.path && owner == other.owner;
  }
  bool operator<(const Posting& other) const {
    if (path != other.path) return path < other.path;
    return owner < other.owner;
  }
};

/// \brief Where a posting-list lookup looks and what it accounts:
/// `paths` (sorted path ids) restricts the result to those paths when
/// non-null; `postings_read`, when non-null, accumulates the postings
/// the lookup examined.
struct PostingScope {
  const std::vector<PathId>* paths = nullptr;
  size_t* postings_read = nullptr;
};

/// \brief std::lower_bound for a rising sequence of probes: searches
/// forward from `first` in doubling steps, so a probe that lands close
/// to the previous one costs O(log distance), not O(log n).
template <typename It, typename T, typename Less = std::less<>>
It GallopLowerBound(It first, It last, const T& value, Less less = {}) {
  size_t step = 1;
  while (static_cast<size_t>(last - first) > step) {
    It probe = first + static_cast<std::ptrdiff_t>(step);
    if (!less(*probe, value)) {
      last = probe;
      break;
    }
    first = probe + 1;
    step *= 2;
  }
  return std::lower_bound(first, last, value, less);
}

/// \brief The postings common to every list in `lists` (each sorted
/// and unique) that lie within `scope`: the shortest list, cut to the
/// scope's paths, probed in the others with GallopLowerBound. Sorted
/// and unique; empty when `lists` is.
std::vector<Posting> IntersectPostings(
    std::vector<const std::vector<Posting>*> lists,
    const PostingScope& scope = {});

/// \brief Index construction knobs.
struct IndexOptions {
  TokenizerOptions tokenizer;
  /// Also build the trigram index for substring search acceleration.
  bool build_trigrams = true;
};

/// \brief Word + trigram inverted index.
class InvertedIndex {
 public:
  using WordMap = std::unordered_map<std::string, std::vector<Posting>>;
  using TrigramMap = std::unordered_map<uint32_t, std::vector<Posting>>;

  /// \brief Indexes every string association of a finalized document.
  static util::Result<InvertedIndex> Build(const StoredDocument& doc,
                                           const IndexOptions& options = {});

  /// \brief Reconstitutes an index from previously extracted state —
  /// the deserialization entry point (see text/index_io.h). Every
  /// posting vector must already be sorted and unique; posting_count
  /// is recomputed.
  static InvertedIndex Restore(WordMap words, TrigramMap trigrams,
                               TokenizerOptions tokenizer_options,
                               bool has_trigrams);

  /// \brief Postings of a whole word (case-folded per tokenizer
  /// options); empty vector if absent. Postings are sorted and unique.
  const std::vector<Posting>& LookupWord(std::string_view word) const;

  /// \brief Candidate postings whose string *may* contain `needle`
  /// (superset guaranteed when the trigram index is on and the needle
  /// has >= 3 bytes; otherwise returns nullopt meaning "scan"), within
  /// `scope` (see IntersectPostings). Candidates still need
  /// verification against the actual strings.
  std::optional<std::vector<Posting>> TrigramCandidates(
      std::string_view needle, const PostingScope& scope = {}) const;

  size_t vocabulary_size() const { return words_.size(); }
  size_t posting_count() const { return posting_count_; }
  size_t trigram_count() const { return trigrams_.size(); }
  bool has_trigrams() const { return has_trigrams_; }

  /// \brief Raw index state, exposed for persistence (text/index_io.h)
  /// and invariant checks. Posting vectors are sorted and unique.
  const WordMap& words() const { return words_; }
  const TrigramMap& trigrams() const { return trigrams_; }
  const TokenizerOptions& tokenizer_options() const {
    return tokenizer_options_;
  }

 private:
  InvertedIndex() = default;

  WordMap words_;
  TrigramMap trigrams_;
  TokenizerOptions tokenizer_options_;
  size_t posting_count_ = 0;
  bool has_trigrams_ = false;
};

}  // namespace text
}  // namespace meetxml

#endif  // MEETXML_TEXT_INVERTED_INDEX_H_
