#include "model/shredder.h"

#include <span>
#include <utility>
#include <vector>

#include "util/mmap_file.h"
#include "util/strings.h"
#include "xml/parser.h"
#include "xml/sax.h"

namespace meetxml {
namespace model {

using util::Result;
using util::Status;

namespace {

// SAX sink implementing the Monet transform: interns paths, assigns
// OIDs in document order and appends string associations.
class ShredSink : public xml::SaxHandler {
 public:
  Status StartElement(
      std::string_view tag,
      std::span<const xml::AttributeView> attributes) override;
  Status EndElement(std::string_view tag) override;
  Status Text(std::string_view text) override;

  // Finalized document, ready for queries.
  Result<StoredDocument> TakeFinalized();

 private:
  struct Frame {
    Oid oid;
    PathId path;
    int next_rank;
  };

  StoredDocument stored_;
  std::vector<Frame> stack_;
};

Status ShredSink::StartElement(
    std::string_view tag, std::span<const xml::AttributeView> attributes) {
  PathSummary* paths = stored_.mutable_paths();
  Frame* parent = stack_.empty() ? nullptr : &stack_.back();
  PathId path = paths->Intern(
      parent == nullptr ? kInvalidPathId : parent->path, StepKind::kElement,
      tag);
  Oid oid =
      stored_.AppendNode(path, parent == nullptr ? kInvalidOid : parent->oid,
                         parent == nullptr ? 0 : parent->next_rank++);
  for (const xml::AttributeView& attribute : attributes) {
    stored_.AppendString(
        paths->Intern(path, StepKind::kAttribute, attribute.name), oid,
        attribute.value);
  }
  stack_.push_back(Frame{oid, path, 0});
  return Status::OK();
}

Status ShredSink::EndElement(std::string_view tag) {
  (void)tag;
  stack_.pop_back();
  return Status::OK();
}

Status ShredSink::Text(std::string_view text) {
  if (util::StripAsciiWhitespace(text).empty()) return Status::OK();
  Frame& parent = stack_.back();
  PathId cdata_path =
      stored_.mutable_paths()->Intern(parent.path, StepKind::kCdata, "cdata");
  Oid oid = stored_.AppendNode(cdata_path, parent.oid, parent.next_rank++);
  stored_.AppendString(cdata_path, oid, text);
  return Status::OK();
}

Result<StoredDocument> ShredSink::TakeFinalized() {
  MEETXML_RETURN_NOT_OK(stored_.Finalize());
  return std::move(stored_);
}

}  // namespace

Result<StoredDocument> ShredXmlText(std::string_view xml_text) {
  ShredSink sink;
  MEETXML_RETURN_NOT_OK(xml::ParseSax(xml_text, &sink));
  return sink.TakeFinalized();
}

Result<StoredDocument> ShredXmlFile(const std::string& path) {
  MEETXML_ASSIGN_OR_RETURN(
      util::MmapFile file,
      util::MmapFile::Open(path, util::MmapFile::Advice::kSequential));
  return ShredXmlText(file.bytes());
}

Result<StoredDocument> Shred(const xml::Document& doc) {
  if (!doc.root || !doc.root->is_element()) {
    return Status::InvalidArgument("document has no root element");
  }
  ShredSink sink;
  std::vector<xml::AttributeView> attributes;
  // Iterative walk, so that arbitrarily deep documents cannot overflow
  // the native stack: one frame per open element, holding the index of
  // its next child.
  std::vector<std::pair<const xml::Node*, size_t>> open;
  auto start = [&](const xml::Node& element) {
    attributes.clear();
    for (const xml::Attribute& attribute : element.attributes()) {
      attributes.push_back(xml::AttributeView{attribute.name, attribute.value});
    }
    open.emplace_back(&element, 0);
    return sink.StartElement(element.tag(), attributes);
  };
  MEETXML_RETURN_NOT_OK(start(*doc.root));
  while (!open.empty()) {
    auto& [element, next] = open.back();
    if (next == element->children().size()) {
      MEETXML_RETURN_NOT_OK(sink.EndElement(element->tag()));
      open.pop_back();
      continue;
    }
    const xml::Node& child = *element->children()[next++];
    MEETXML_RETURN_NOT_OK(child.is_text() ? sink.Text(child.text())
                                          : start(child));
  }
  return sink.TakeFinalized();
}

}  // namespace model
}  // namespace meetxml
