#include "text/tokenizer.h"

#include <algorithm>
#include <cctype>

namespace meetxml {
namespace text {

std::vector<std::string> Tokenize(std::string_view s,
                                  const TokenizerOptions& options) {
  std::vector<std::string> out;
  std::string current;
  auto flush = [&] {
    if (current.size() >= options.min_token_length) {
      out.push_back(current);
    }
    current.clear();
  };
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(options.fold_case
                            ? static_cast<char>(std::tolower(c))
                            : raw);
    } else {
      flush();
    }
  }
  flush();
  return out;
}

std::vector<std::string> TokenizeUnique(std::string_view s,
                                        const TokenizerOptions& options) {
  std::vector<std::string> tokens = Tokenize(s, options);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

bool MatchesPhrase(std::string_view value,
                   const std::vector<std::string>& phrase_tokens) {
  if (phrase_tokens.empty()) return false;
  std::vector<std::string> tokens = Tokenize(value);
  if (tokens.size() < phrase_tokens.size()) return false;
  for (size_t start = 0; start + phrase_tokens.size() <= tokens.size();
       ++start) {
    size_t i = 0;
    while (i < phrase_tokens.size() &&
           tokens[start + i] == phrase_tokens[i]) {
      ++i;
    }
    if (i == phrase_tokens.size()) return true;
  }
  return false;
}

bool MatchesWord(std::string_view value, std::string_view word) {
  auto is_word_byte = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
  };
  auto fold = [](char c) {
    return std::tolower(static_cast<unsigned char>(c));
  };
  size_t i = 0;
  while (i < value.size()) {
    if (!is_word_byte(value[i])) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < value.size() && is_word_byte(value[end])) ++end;
    if (end - i == word.size() &&
        std::equal(word.begin(), word.end(), value.begin() + i,
                   [&](char a, char b) { return fold(a) == fold(b); })) {
      return true;
    }
    i = end;
  }
  return false;
}

}  // namespace text
}  // namespace meetxml
