#include "text/inverted_index.h"

#include <algorithm>

namespace meetxml {
namespace text {

using util::Result;
using util::Status;

namespace {

// Packs three raw bytes into the trigram key. Trigrams are
// case-sensitive: they accelerate the paper's case-sensitive `contains`.
inline uint32_t TrigramKey(std::string_view s, size_t i) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(s[i])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(s[i + 1])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(s[i + 2]));
}

void SortUniquePostings(std::vector<Posting>* postings) {
  std::sort(postings->begin(), postings->end());
  postings->erase(std::unique(postings->begin(), postings->end()),
                  postings->end());
}

}  // namespace

Result<InvertedIndex> InvertedIndex::Build(const StoredDocument& doc,
                                           const IndexOptions& options) {
  if (!doc.finalized()) {
    return Status::InvalidArgument("document is not finalized");
  }
  InvertedIndex index;
  index.tokenizer_options_ = options.tokenizer;
  index.has_trigrams_ = options.build_trigrams;

  // Sizing heuristics: a bibliography-style corpus runs a few distinct
  // words per string association and saturates the trigram key space
  // quickly. Capped so a huge corpus cannot commit bucket arrays far
  // beyond the distinct-key population (trigram keys top out at 2^24;
  // vocabularies plateau long before that).
  index.words_.reserve(
      std::min<size_t>(doc.string_count() * 2, size_t{1} << 20));
  if (options.build_trigrams) {
    index.trigrams_.reserve(
        std::min<size_t>(doc.string_count() * 4, size_t{1} << 22));
  }

  // All postings for one string are appended back to back, so a
  // same-as-last check removes the bulk of within-string repetition
  // (repeated words, overlapping repeated trigrams) at append time;
  // cross-string duplicates cannot exist because each (path, row) is
  // its own posting. The finalize pass below restores the global
  // sorted/unique invariant in one sort+unique per list — cheaper than
  // the per-string set semantics TokenizeUnique used to impose.
  auto append = [](std::vector<Posting>* postings, Posting posting) {
    if (postings->empty() || !(postings->back() == posting)) {
      postings->push_back(posting);
    }
  };

  for (PathId path : doc.string_paths()) {
    const model::OidStrBat& table = doc.StringsAt(path);
    for (size_t row = 0; row < table.size(); ++row) {
      Posting posting{path, table.head(row)};
      std::string_view value = table.tail(row);
      for (const std::string& token : Tokenize(value, options.tokenizer)) {
        append(&index.words_[token], posting);
      }
      if (options.build_trigrams && value.size() >= 3) {
        for (size_t i = 0; i + 3 <= value.size(); ++i) {
          append(&index.trigrams_[TrigramKey(value, i)], posting);
        }
      }
    }
  }

  for (auto& [word, postings] : index.words_) {
    SortUniquePostings(&postings);
    index.posting_count_ += postings.size();
  }
  for (auto& [key, postings] : index.trigrams_) {
    SortUniquePostings(&postings);
  }
  return index;
}

InvertedIndex InvertedIndex::Restore(WordMap words, TrigramMap trigrams,
                                     TokenizerOptions tokenizer_options,
                                     bool has_trigrams) {
  InvertedIndex index;
  index.words_ = std::move(words);
  index.trigrams_ = std::move(trigrams);
  index.tokenizer_options_ = tokenizer_options;
  index.has_trigrams_ = has_trigrams;
  for (const auto& [word, postings] : index.words_) {
    index.posting_count_ += postings.size();
  }
  return index;
}

const std::vector<Posting>& InvertedIndex::LookupWord(
    std::string_view word) const {
  static const std::vector<Posting> kEmpty;
  std::string key(word);
  if (tokenizer_options_.fold_case) {
    for (char& c : key) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  auto it = words_.find(key);
  return it == words_.end() ? kEmpty : it->second;
}

std::optional<std::vector<Posting>> InvertedIndex::TrigramCandidates(
    std::string_view needle, const PostingScope& scope) const {
  if (!has_trigrams_ || needle.size() < 3) return std::nullopt;
  std::vector<const std::vector<Posting>*> lists;
  for (size_t i = 0; i + 3 <= needle.size(); ++i) {
    auto it = trigrams_.find(TrigramKey(needle, i));
    if (it == trigrams_.end()) return std::vector<Posting>();
    lists.push_back(&it->second);
  }
  return IntersectPostings(std::move(lists), scope);
}

std::vector<Posting> IntersectPostings(
    std::vector<const std::vector<Posting>*> lists,
    const PostingScope& scope) {
  std::vector<Posting> out;
  if (lists.empty()) return out;
  std::iter_swap(lists.begin(),
                 std::min_element(lists.begin(), lists.end(),
                                  [](const auto* a, const auto* b) {
                                    return a->size() < b->size();
                                  }));
  // Candidates rise, so each other list is probed from where the last
  // probe landed.
  std::vector<std::vector<Posting>::const_iterator> cursors;
  for (const std::vector<Posting>* list : lists) {
    cursors.push_back(list->begin());
  }
  size_t read = 0;
  auto take = [&](std::vector<Posting>::const_iterator begin,
                  std::vector<Posting>::const_iterator end) {
    read += static_cast<size_t>(end - begin);
    for (auto it = begin; it != end; ++it) {
      bool everywhere = true;
      for (size_t i = 1; i < lists.size() && everywhere; ++i) {
        ++read;
        cursors[i] = GallopLowerBound(cursors[i], lists[i]->end(), *it);
        everywhere = cursors[i] != lists[i]->end() && *cursors[i] == *it;
      }
      if (everywhere) out.push_back(*it);
    }
  };
  const std::vector<Posting>& shortest = *lists.front();
  if (scope.paths == nullptr) {
    take(shortest.begin(), shortest.end());
  } else {
    for (PathId path : *scope.paths) {
      auto begin = std::lower_bound(
          shortest.begin(), shortest.end(), path,
          [](const Posting& p, PathId v) { return p.path < v; });
      auto end = std::upper_bound(
          begin, shortest.end(), path,
          [](PathId v, const Posting& p) { return v < p.path; });
      take(begin, end);
    }
  }
  if (scope.postings_read != nullptr) *scope.postings_read += read;
  return out;
}

}  // namespace text
}  // namespace meetxml
