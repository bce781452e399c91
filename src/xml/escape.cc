#include "xml/escape.h"

#include <cctype>

#include "util/result.h"

namespace meetxml {
namespace xml {

using util::Result;
using util::Status;

std::string EscapeText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out.append("&amp;");
        break;
      case '<':
        out.append("&lt;");
        break;
      case '>':
        out.append("&gt;");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string EscapeAttribute(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out.append("&amp;");
        break;
      case '<':
        out.append("&lt;");
        break;
      case '>':
        out.append("&gt;");
        break;
      case '"':
        out.append("&quot;");
        break;
      case '\n':
        out.append("&#10;");
        break;
      case '\t':
        out.append("&#9;");
        break;
      case '\r':
        out.append("&#13;");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

bool AppendUtf8(uint32_t cp, std::string* out) {
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) return false;
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
  return true;
}

namespace {
// Decodes one entity starting at s[pos] == '&'. On success appends the
// decoded bytes to out and returns the index one past the ';'.
Result<size_t> DecodeOneEntity(std::string_view s, size_t pos,
                               std::string* out) {
  size_t semi = s.find(';', pos + 1);
  if (semi == std::string_view::npos) {
    return Status::InvalidArgument("unterminated entity reference");
  }
  std::string_view body = s.substr(pos + 1, semi - pos - 1);
  if (body.empty()) {
    return Status::InvalidArgument("empty entity reference '&;'");
  }
  if (body[0] == '#') {
    uint32_t cp = 0;
    bool any = false;
    if (body.size() > 1 && (body[1] == 'x' || body[1] == 'X')) {
      for (size_t i = 2; i < body.size(); ++i) {
        char c = body[i];
        uint32_t digit;
        if (c >= '0' && c <= '9') {
          digit = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          digit = static_cast<uint32_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          digit = static_cast<uint32_t>(c - 'A' + 10);
        } else {
          return Status::InvalidArgument(
              "bad hex digit in character reference: &", body, ";");
        }
        cp = cp * 16 + digit;
        if (cp > 0x10FFFF) {
          return Status::InvalidArgument("character reference out of range");
        }
        any = true;
      }
    } else {
      for (size_t i = 1; i < body.size(); ++i) {
        char c = body[i];
        if (c < '0' || c > '9') {
          return Status::InvalidArgument(
              "bad digit in character reference: &", body, ";");
        }
        cp = cp * 10 + static_cast<uint32_t>(c - '0');
        if (cp > 0x10FFFF) {
          return Status::InvalidArgument("character reference out of range");
        }
        any = true;
      }
    }
    if (!any) {
      return Status::InvalidArgument("empty character reference");
    }
    if (!AppendUtf8(cp, out)) {
      return Status::InvalidArgument("invalid code point in reference");
    }
  } else if (body == "lt") {
    out->push_back('<');
  } else if (body == "gt") {
    out->push_back('>');
  } else if (body == "amp") {
    out->push_back('&');
  } else if (body == "apos") {
    out->push_back('\'');
  } else if (body == "quot") {
    out->push_back('"');
  } else {
    return Status::InvalidArgument("unknown entity: &", body, ";");
  }
  return semi + 1;
}
}  // namespace

Status DecodeEntities(std::string_view s, std::string* out) {
  size_t i = 0;
  while (i < s.size()) {
    size_t amp = s.find('&', i);
    if (amp == std::string_view::npos) amp = s.size();
    out->append(s.substr(i, amp - i));
    if (amp == s.size()) break;
    MEETXML_ASSIGN_OR_RETURN(i, DecodeOneEntity(s, amp, out));
  }
  return Status::OK();
}

namespace {
bool IsNameStartByte(unsigned char c) {
  return std::isalpha(c) != 0 || c == '_' || c == ':' || c >= 0x80;
}
bool IsNameByte(unsigned char c) {
  return IsNameStartByte(c) || std::isdigit(c) != 0 || c == '-' || c == '.';
}
}  // namespace

bool IsValidName(std::string_view name) {
  if (name.empty()) return false;
  if (!IsNameStartByte(static_cast<unsigned char>(name[0]))) return false;
  for (size_t i = 1; i < name.size(); ++i) {
    if (!IsNameByte(static_cast<unsigned char>(name[i]))) return false;
  }
  return true;
}

}  // namespace xml
}  // namespace meetxml
