// The Monet transform: shredding XML into per-path BAT relations
// (paper Definition 4, "bulk load" of §5's case study).
//
// The transform is one pass in document order, on one thread. A single
// SAX sink (shredder.cc) takes the parser's events, interns each
// node's path, assigns OIDs densely and appends the string
// associations; it is the only shredder. ShredXmlText and ShredXmlFile
// parse straight into it, and Shred walks a DOM into it.

#ifndef MEETXML_MODEL_SHREDDER_H_
#define MEETXML_MODEL_SHREDDER_H_

#include <string>
#include <string_view>

#include "model/document.h"
#include "util/result.h"
#include "xml/dom.h"

namespace meetxml {
namespace model {

/// \brief Parses and shreds `xml_text` into a finalized StoredDocument.
///
/// OIDs are assigned in document order; attributes become
/// (element, value) associations at `<path>/@name`; each text run
/// becomes a cdata node with its own OID plus a (cdata, text) string
/// association at `<path>/cdata`. Whitespace-only text is skipped, and
/// so are comments and PIs: they are not part of the paper's data
/// model. No DOM is built.
util::Result<StoredDocument> ShredXmlText(std::string_view xml_text);

/// \brief ShredXmlText over a file, read through util::MmapFile.
util::Result<StoredDocument> ShredXmlFile(const std::string& path);

/// \brief Shreds a DOM (the data generators build documents as DOMs)
/// by emitting its elements and text into the same sink. The result
/// equals ShredXmlText of the serialized DOM, unless the DOM holds
/// adjacent text nodes, which a parse would merge into one.
util::Result<StoredDocument> Shred(const xml::Document& doc);

}  // namespace model
}  // namespace meetxml

#endif  // MEETXML_MODEL_SHREDDER_H_
