// XML character escaping and entity decoding.

#ifndef MEETXML_XML_ESCAPE_H_
#define MEETXML_XML_ESCAPE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace meetxml {
namespace xml {

/// \brief Escapes `s` for use as element character data: & < >.
std::string EscapeText(std::string_view s);

/// \brief Escapes `s` for use inside a double-quoted attribute value:
/// & < > " and newlines (as character references).
std::string EscapeAttribute(std::string_view s);

/// \brief Decodes the five predefined entities plus decimal/hex character
/// references in `s` and appends the result to `out`. Unknown entities
/// are an error (this parser is non-validating and has no DTD-defined
/// entities); on error `out` holds a partial decode.
util::Status DecodeEntities(std::string_view s, std::string* out);

/// \brief Appends the UTF-8 encoding of `codepoint` to `out`. Returns
/// false for invalid code points (surrogates, > U+10FFFF).
bool AppendUtf8(uint32_t codepoint, std::string* out);

/// \brief True if `name` is an acceptable element/attribute name for this
/// parser: XML NameStartChar/NameChar restricted to the ASCII subset plus
/// any byte >= 0x80 (UTF-8 continuation-friendly).
bool IsValidName(std::string_view name);

}  // namespace xml
}  // namespace meetxml

#endif  // MEETXML_XML_ESCAPE_H_
