// Word tokenizer for the full-text index.

#ifndef MEETXML_TEXT_TOKENIZER_H_
#define MEETXML_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace meetxml {
namespace text {

/// \brief Tokenization knobs.
struct TokenizerOptions {
  /// Tokens shorter than this are dropped (after case folding).
  size_t min_token_length = 1;
  /// Fold ASCII upper case to lower case.
  bool fold_case = true;

  bool operator==(const TokenizerOptions&) const = default;
};

/// \brief Splits `s` into maximal runs of ASCII alphanumeric characters.
/// Everything else (punctuation, whitespace, non-ASCII bytes) separates
/// tokens. "Hacking & RSI" -> {"hacking", "rsi"}.
std::vector<std::string> Tokenize(std::string_view s,
                                  const TokenizerOptions& options = {});

/// \brief Tokenizes and deduplicates (set-of-words semantics, the form
/// the inverted index stores).
std::vector<std::string> TokenizeUnique(std::string_view s,
                                        const TokenizerOptions& options = {});

/// \brief True when the default-folded tokens of `value` contain
/// `phrase_tokens` as a consecutive run (phrase-match semantics).
bool MatchesPhrase(std::string_view value,
                   const std::vector<std::string>& phrase_tokens);

/// \brief True when `word`, case-folded, is one of the default-folded
/// tokens of `value` (whole-word semantics: what the word index
/// answers under default options). Allocates nothing.
bool MatchesWord(std::string_view value, std::string_view word);

}  // namespace text
}  // namespace meetxml

#endif  // MEETXML_TEXT_TOKENIZER_H_
