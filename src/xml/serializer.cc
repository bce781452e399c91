#include "xml/serializer.h"

#include "xml/escape.h"

namespace meetxml {
namespace xml {

namespace {

void AppendIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
}

void SerializeNode(const Node& node, const SerializeOptions& options,
                   int depth, std::string* out) {
  if (node.is_text()) {
    out->append(EscapeText(node.text()));
    return;
  }

  AppendIndent(out, options.indent, depth);
  out->push_back('<');
  out->append(node.tag());
  for (const Attribute& attr : node.attributes()) {
    out->push_back(' ');
    out->append(attr.name);
    out->append("=\"");
    out->append(EscapeAttribute(attr.value));
    out->push_back('"');
  }
  if (node.children().empty()) {
    out->append("/>");
    return;
  }
  out->push_back('>');

  bool has_element_child = false;
  for (const auto& child : node.children()) {
    if (!child->is_text()) has_element_child = true;
    SerializeNode(*child, options, depth + 1, out);
  }
  // Only break the line before a closing tag when we pretty-printed
  // element children; mixed text must stay glued to the tags.
  if (has_element_child) {
    AppendIndent(out, options.indent, depth);
  }
  out->append("</");
  out->append(node.tag());
  out->push_back('>');
}

}  // namespace

std::string Serialize(const Node& node, const SerializeOptions& options) {
  std::string out;
  SerializeNode(node, options, 0, &out);
  if (options.indent > 0 && !out.empty() && out.front() == '\n') {
    out.erase(out.begin());
  }
  return out;
}

std::string Serialize(const Document& doc, const SerializeOptions& options) {
  std::string out;
  if (options.emit_declaration) {
    out.append("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    if (options.indent > 0) out.push_back('\n');
  }
  if (doc.root) {
    out.append(Serialize(*doc.root, options));
  }
  if (options.indent > 0) out.push_back('\n');
  return out;
}

}  // namespace xml
}  // namespace meetxml
