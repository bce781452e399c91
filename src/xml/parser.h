// Non-validating XML 1.0 parser.
//
// Supports the subset of XML the paper's workloads need (and a bit more):
// elements, attributes, PCDATA with the five predefined entities and
// numeric character references, CDATA sections, an XML declaration,
// and comments, processing instructions and a DOCTYPE, which are
// checked and skipped: they are not part of the paper's data model, so
// neither the DOM nor the event stream carries them. It rejects
// mismatched tags, duplicate attributes and malformed markup with
// line/column error positions. DTD-defined entities and namespaces
// processing are out of scope — tag names keep their prefixes verbatim,
// which is exactly what the Monet transform stores.

#ifndef MEETXML_XML_PARSER_H_
#define MEETXML_XML_PARSER_H_

#include <string_view>

#include "util/result.h"
#include "xml/dom.h"

namespace meetxml {
namespace xml {

/// \brief Knobs for the parser.
struct ParseOptions {
  /// Drop text nodes that consist entirely of ASCII whitespace. Data-
  /// oriented XML (bibliographies, feature files) is indented for humans;
  /// the indentation is not character data the paper's model cares about.
  bool discard_whitespace_text = true;
  /// Maximum element nesting depth; guards against stack abuse in
  /// adversarial inputs. The parser itself is iterative, so this is a
  /// resource limit, not a recursion limit.
  int max_depth = 4096;
};

class SaxHandler;

/// \brief Parses a complete XML document from memory.
util::Result<Document> Parse(std::string_view input,
                             const ParseOptions& options = {});

/// \brief Event-based parse: streams well-nested events into `handler`
/// without building a DOM (see xml/sax.h). Prolog information (XML
/// declaration, DOCTYPE) is validated but not reported.
util::Status ParseSax(std::string_view input, SaxHandler* handler,
                      const ParseOptions& options = {});

}  // namespace xml
}  // namespace meetxml

#endif  // MEETXML_XML_PARSER_H_
