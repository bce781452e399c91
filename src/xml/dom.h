// A minimal owned DOM for parsed XML documents.
//
// The data generators build documents as DOMs, reassembly answers with
// them, and the serializer prints them; the shredder walks one only for
// the generators (model/shredder.h). It is deliberately simple — no
// namespaces resolution, no DTD, no comments or processing
// instructions — matching the paper's data model (Definition 1):
// elements with attributes, character data, and sibling order.

#ifndef MEETXML_XML_DOM_H_
#define MEETXML_XML_DOM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace meetxml {
namespace xml {

/// \brief Kind of a DOM node.
enum class NodeKind {
  kElement,
  kText,  // character data (PCDATA and CDATA sections, merged)
};

/// \brief One attribute (name="value"), in document order.
struct Attribute {
  std::string name;
  std::string value;
};

/// \brief A DOM node. Element nodes own their children.
class Node {
 public:
  /// \brief Creates an element node with the given tag name.
  static std::unique_ptr<Node> MakeElement(std::string tag);
  /// \brief Creates a text (character data) node.
  static std::unique_ptr<Node> MakeText(std::string text);

  NodeKind kind() const { return kind_; }
  bool is_element() const { return kind_ == NodeKind::kElement; }
  bool is_text() const { return kind_ == NodeKind::kText; }

  /// \brief Element tag name; empty for non-elements.
  const std::string& tag() const { return tag_; }
  /// \brief Text content of a text node; empty for elements.
  const std::string& text() const { return text_; }

  const std::vector<Attribute>& attributes() const { return attributes_; }
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  /// \brief Mutable access for builders (parser, generators).
  std::vector<std::unique_ptr<Node>>* mutable_children() {
    return &children_;
  }
  /// \brief Replaces the text content of a text node.
  void set_text(std::string text) { text_ = std::move(text); }

  /// \brief Appends an attribute; does not check for duplicates (the
  /// parser does).
  void AddAttribute(std::string name, std::string value);

  /// \brief Looks up an attribute value; nullptr if absent.
  const std::string* FindAttribute(std::string_view name) const;

  /// \brief Appends a child, transferring ownership; returns a raw
  /// pointer for convenient chaining.
  Node* AddChild(std::unique_ptr<Node> child);

  /// \brief Convenience: adds `<tag>` element child.
  Node* AddElement(std::string tag);
  /// \brief Convenience: adds a text child.
  Node* AddText(std::string text);
  /// \brief Convenience: adds `<tag>text</tag>` and returns the element.
  Node* AddElementWithText(std::string tag, std::string text);

  /// \brief Number of element children.
  size_t CountElementChildren() const;

  /// \brief First element child with the given tag; nullptr if none.
  const Node* FindChild(std::string_view tag) const;

  /// \brief Concatenation of all descendant text, in document order.
  std::string CollectText() const;

  /// \brief Total number of nodes in this subtree (both kinds).
  size_t SubtreeSize() const;

 private:
  explicit Node(NodeKind kind) : kind_(kind) {}

  NodeKind kind_;
  std::string tag_;   // element tag
  std::string text_;  // text content
  std::vector<Attribute> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// \brief A parsed XML document: optional declaration data plus the single
/// root element.
struct Document {
  /// The root element. Always an element node after a successful parse.
  std::unique_ptr<Node> root;
  /// Raw content of the XML declaration (between `<?xml` and `?>`), if any.
  std::string declaration;
  /// True if a DOCTYPE was present (its content is skipped, not stored).
  bool had_doctype = false;
};

}  // namespace xml
}  // namespace meetxml

#endif  // MEETXML_XML_DOM_H_
