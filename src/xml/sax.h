// Event-based (SAX-style) parsing interface.
//
// The DOM parser (xml/parser.h) is a thin sink over this event stream;
// the Monet transform (model/shredder.h) consumes the events directly
// and never materializes the tree. Events borrow: tags, attributes and
// text are views into the input or into the parser's reused buffers,
// so a parse allocates nothing per event.

#ifndef MEETXML_XML_SAX_H_
#define MEETXML_XML_SAX_H_

#include <span>
#include <string_view>

#include "util/status.h"

namespace meetxml {
namespace xml {

/// \brief One decoded attribute (name="value") of a StartElement event.
struct AttributeView {
  std::string_view name;
  std::string_view value;
};

/// \brief Receiver of parse events. Every callback may return a non-OK
/// Status to abort the parse; the status is propagated to the caller.
///
/// Guarantees: events are well nested (EndElement always matches the
/// innermost open StartElement; tags are verified by the parser);
/// adjacent PCDATA and CDATA runs are merged into a single Text event,
/// also across the comments and processing instructions the parser
/// drops; whitespace-only PCDATA is dropped when the parse options say
/// so. Every view passed to a callback is valid only for the duration
/// of that call: a handler that keeps a value copies it.
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  /// \brief Called once before any other event.
  virtual util::Status StartDocument() { return util::Status::OK(); }
  /// \brief Called once after the root element closed.
  virtual util::Status EndDocument() { return util::Status::OK(); }

  /// \brief An element opened. `attributes` are decoded, in document
  /// order and duplicate-free.
  virtual util::Status StartElement(
      std::string_view tag, std::span<const AttributeView> attributes) {
    (void)tag;
    (void)attributes;
    return util::Status::OK();
  }

  /// \brief The innermost open element closed.
  virtual util::Status EndElement(std::string_view tag) {
    (void)tag;
    return util::Status::OK();
  }

  /// \brief A merged, decoded character-data run inside the current
  /// element.
  virtual util::Status Text(std::string_view text) {
    (void)text;
    return util::Status::OK();
  }
};

}  // namespace xml
}  // namespace meetxml

#endif  // MEETXML_XML_SAX_H_
