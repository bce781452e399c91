// The Monet transform: shredding XML into per-path BAT relations
// (paper Definition 4, "bulk load" of §5's case study).
//
// The transform is one pass in document order. internal::ShredSink
// takes the parser's SAX events, interns each node's path, assigns
// OIDs densely and appends the string associations; it is the only
// shredder. ShredXmlText and ShredXmlFile parse straight into it,
// Shred walks a DOM into it, and the parallel bulk load
// (model/bulk_load.h) runs one per shard.

#ifndef MEETXML_MODEL_SHREDDER_H_
#define MEETXML_MODEL_SHREDDER_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/document.h"
#include "util/result.h"
#include "xml/dom.h"
#include "xml/sax.h"

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

namespace internal {

/// \brief SAX sink implementing the Monet transform: interns paths,
/// assigns OIDs in document order and appends string associations.
///
/// Exposed for the bulk-load pipeline (model/bulk_load.h), which runs
/// one sink per corpus shard and later rebases the shard relations into
/// the global document; regular callers use ShredXmlText.
class ShredSink : public xml::SaxHandler {
 public:
  util::Status StartElement(
      std::string_view tag,
      std::span<const xml::AttributeView> attributes) override;
  util::Status EndElement(std::string_view tag) override;
  util::Status Text(std::string_view text) override;

  /// \brief Finalized document, ready for queries (the normal path).
  util::Result<StoredDocument> TakeFinalized();

  /// \brief Raw builder output without derived structures. Shard
  /// merging replays the relations into the global document, so
  /// finalizing the shard would be wasted work.
  StoredDocument TakeUnfinalized() { return std::move(stored_); }

 private:
  struct Frame {
    Oid oid;
    PathId path;
    int next_rank;
  };

  StoredDocument stored_;
  std::vector<Frame> stack_;
};

}  // namespace internal

}  // namespace model
}  // namespace meetxml

#endif  // MEETXML_MODEL_SHREDDER_H_
