#include "xml/dom.h"

namespace meetxml {
namespace xml {

std::unique_ptr<Node> Node::MakeElement(std::string tag) {
  auto node = std::unique_ptr<Node>(new Node(NodeKind::kElement));
  node->tag_ = std::move(tag);
  return node;
}

std::unique_ptr<Node> Node::MakeText(std::string text) {
  auto node = std::unique_ptr<Node>(new Node(NodeKind::kText));
  node->text_ = std::move(text);
  return node;
}

void Node::AddAttribute(std::string name, std::string value) {
  attributes_.push_back(Attribute{std::move(name), std::move(value)});
}

const std::string* Node::FindAttribute(std::string_view name) const {
  for (const Attribute& attr : attributes_) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

Node* Node::AddChild(std::unique_ptr<Node> child) {
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::AddElement(std::string tag) {
  return AddChild(MakeElement(std::move(tag)));
}

Node* Node::AddText(std::string text) {
  return AddChild(MakeText(std::move(text)));
}

Node* Node::AddElementWithText(std::string tag, std::string text) {
  Node* element = AddElement(std::move(tag));
  element->AddText(std::move(text));
  return element;
}

size_t Node::CountElementChildren() const {
  size_t n = 0;
  for (const auto& child : children_) {
    if (child->is_element()) ++n;
  }
  return n;
}

const Node* Node::FindChild(std::string_view tag) const {
  for (const auto& child : children_) {
    if (child->is_element() && child->tag() == tag) return child.get();
  }
  return nullptr;
}

std::string Node::CollectText() const {
  if (is_text()) return text_;
  std::string out;
  for (const auto& child : children_) out.append(child->CollectText());
  return out;
}

size_t Node::SubtreeSize() const {
  size_t n = 1;
  for (const auto& child : children_) n += child->SubtreeSize();
  return n;
}

}  // namespace xml
}  // namespace meetxml
