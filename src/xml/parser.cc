#include "xml/parser.h"

#include <cctype>
#include <vector>

#include "util/strings.h"
#include "xml/escape.h"
#include "xml/sax.h"

namespace meetxml {
namespace xml {

using util::Result;
using util::Status;

namespace {

/// Cursor over the input with line/column tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return input_.size() - pos_; }

  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void AdvanceBy(size_t n) {
    for (size_t i = 0; i < n && !AtEnd(); ++i) Advance();
  }

  bool ConsumeIf(std::string_view token) {
    if (remaining() < token.size()) return false;
    if (input_.compare(pos_, token.size(), token) != 0) return false;
    AdvanceBy(token.size());
    return true;
  }

  bool LooksAt(std::string_view token) const {
    return remaining() >= token.size() &&
           input_.compare(pos_, token.size(), token) == 0;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  std::string_view Slice(size_t begin, size_t end) const {
    return input_.substr(begin, end - begin);
  }

  /// Builds a Status with the current position appended.
  template <typename... Args>
  Status Error(Args&&... args) const {
    Status base = Status::InvalidArgument(std::forward<Args>(args)...);
    return Status(base.code(), base.message() + " (line " +
                                   std::to_string(line_) + ", column " +
                                   std::to_string(column_) + ")");
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

// The event-producing parser core. Drives a SaxHandler; the DOM parser
// below is just the DomSink handler over this core.
class ParserImpl {
 public:
  ParserImpl(std::string_view input, const ParseOptions& options,
             SaxHandler* handler)
      : cursor_(input), options_(options), handler_(handler) {}

  Status Run() {
    MEETXML_RETURN_NOT_OK(handler_->StartDocument());
    MEETXML_RETURN_NOT_OK(ParseProlog());
    MEETXML_RETURN_NOT_OK(ParseContent());
    MEETXML_RETURN_NOT_OK(ParseEpilog());
    return handler_->EndDocument();
  }

  const std::string& declaration() const { return declaration_; }
  bool had_doctype() const { return had_doctype_; }

 private:
  Status ParseProlog() {
    cursor_.SkipWhitespace();
    if (cursor_.ConsumeIf("<?xml")) {
      size_t begin = cursor_.pos();
      while (!cursor_.LooksAt("?>")) {
        if (cursor_.AtEnd()) {
          return cursor_.Error("unterminated XML declaration");
        }
        cursor_.Advance();
      }
      declaration_ = std::string(
          util::StripAsciiWhitespace(cursor_.Slice(begin, cursor_.pos())));
      cursor_.ConsumeIf("?>");
    }
    while (true) {
      cursor_.SkipWhitespace();
      if (cursor_.LooksAt("<!--")) {
        MEETXML_RETURN_NOT_OK(SkipComment());
      } else if (cursor_.LooksAt("<!DOCTYPE")) {
        if (had_doctype_) return cursor_.Error("duplicate DOCTYPE");
        MEETXML_RETURN_NOT_OK(SkipDoctype());
        had_doctype_ = true;
      } else if (cursor_.LooksAt("<?")) {
        MEETXML_RETURN_NOT_OK(SkipProcessingInstruction());
      } else {
        break;
      }
    }
    if (cursor_.AtEnd() || cursor_.Peek() != '<') {
      return cursor_.Error("expected root element");
    }
    return Status::OK();
  }

  Status ParseEpilog() {
    while (true) {
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd()) return Status::OK();
      if (cursor_.LooksAt("<!--")) {
        MEETXML_RETURN_NOT_OK(SkipComment());
      } else if (cursor_.LooksAt("<?")) {
        MEETXML_RETURN_NOT_OK(SkipProcessingInstruction());
      } else {
        return cursor_.Error("unexpected content after root element");
      }
    }
  }

  // Iterative content loop with an explicit tag stack; handles
  // arbitrarily deep documents without native stack overflow.
  Status ParseContent() {
    bool root_closed = false;
    while (!root_closed) {
      if (cursor_.AtEnd()) {
        return cursor_.Error("unexpected end of input inside element");
      }
      if (cursor_.Peek() == '<') {
        if (cursor_.LooksAt("<!--")) {
          MEETXML_RETURN_NOT_OK(SkipComment());
          continue;
        }
        if (cursor_.LooksAt("<![CDATA[")) {
          MEETXML_RETURN_NOT_OK(ParseCdata());
          continue;
        }
        if (cursor_.LooksAt("<?")) {
          MEETXML_RETURN_NOT_OK(SkipProcessingInstruction());
          continue;
        }
        if (cursor_.LooksAt("</")) {
          MEETXML_RETURN_NOT_OK(ParseCloseTag(&root_closed));
          continue;
        }
        MEETXML_RETURN_NOT_OK(ParseOpenTag(&root_closed));
        continue;
      }
      if (tag_stack_.empty()) {
        return cursor_.Error("character data outside root element");
      }
      MEETXML_RETURN_NOT_OK(ParseText());
    }
    return Status::OK();
  }

  Result<std::string_view> ParseName() {
    size_t begin = cursor_.pos();
    while (!cursor_.AtEnd()) {
      char c = cursor_.Peek();
      if (std::isspace(static_cast<unsigned char>(c)) || c == '>' ||
          c == '/' || c == '=' || c == '<' || c == '?') {
        break;
      }
      cursor_.Advance();
    }
    std::string_view name = cursor_.Slice(begin, cursor_.pos());
    if (!IsValidName(name)) {
      return cursor_.Error("invalid name: '", name, "'");
    }
    return name;
  }

  Status ParseOpenTag(bool* root_closed) {
    if (root_seen_ && tag_stack_.empty()) {
      return cursor_.Error("multiple root elements");
    }
    MEETXML_RETURN_NOT_OK(FlushText());
    cursor_.Advance();  // '<'
    MEETXML_ASSIGN_OR_RETURN(std::string_view tag, ParseName());
    attributes_.clear();
    decoded_.clear();
    scratch_.clear();

    while (true) {
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd()) return cursor_.Error("unterminated start tag");
      char c = cursor_.Peek();
      if (c == '>' || c == '/') break;
      MEETXML_ASSIGN_OR_RETURN(std::string_view name, ParseName());
      cursor_.SkipWhitespace();
      if (!cursor_.ConsumeIf("=")) {
        return cursor_.Error("expected '=' after attribute name '", name,
                             "'");
      }
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd() ||
          (cursor_.Peek() != '"' && cursor_.Peek() != '\'')) {
        return cursor_.Error("expected quoted attribute value for '", name,
                             "'");
      }
      char quote = cursor_.Peek();
      cursor_.Advance();
      size_t begin = cursor_.pos();
      while (!cursor_.AtEnd() && cursor_.Peek() != quote) {
        if (cursor_.Peek() == '<') {
          return cursor_.Error("'<' in attribute value of '", name, "'");
        }
        cursor_.Advance();
      }
      if (cursor_.AtEnd()) {
        return cursor_.Error("unterminated attribute value for '", name,
                             "'");
      }
      std::string_view value = cursor_.Slice(begin, cursor_.pos());
      cursor_.Advance();  // closing quote
      if (value.find('&') != std::string_view::npos) {
        // Decoded into the scratch buffer, which may still grow: the
        // view is built once every attribute is decoded.
        size_t decoded_begin = scratch_.size();
        Status decoded = DecodeEntities(value, &scratch_);
        if (!decoded.ok()) return cursor_.Error(decoded.message());
        decoded_.push_back(
            DecodedValue{attributes_.size(), decoded_begin, scratch_.size()});
        value = {};
      }
      for (const AttributeView& existing : attributes_) {
        if (existing.name == name) {
          return cursor_.Error("duplicate attribute '", name, "'");
        }
      }
      attributes_.push_back(AttributeView{name, value});
    }
    for (const DecodedValue& decoded : decoded_) {
      attributes_[decoded.attribute].value = std::string_view(scratch_).substr(
          decoded.begin, decoded.end - decoded.begin);
    }

    bool self_closing = cursor_.ConsumeIf("/");
    if (!cursor_.ConsumeIf(">")) {
      return cursor_.Error("expected '>' to close start tag");
    }

    root_seen_ = true;
    MEETXML_RETURN_NOT_OK(handler_->StartElement(tag, attributes_));
    if (self_closing) {
      MEETXML_RETURN_NOT_OK(handler_->EndElement(tag));
      if (tag_stack_.empty()) *root_closed = true;
      return Status::OK();
    }
    if (static_cast<int>(tag_stack_.size()) >= options_.max_depth) {
      return Status::ResourceExhausted("element nesting exceeds limit of ",
                                       options_.max_depth);
    }
    tag_stack_.push_back(tag);
    return Status::OK();
  }

  Status ParseCloseTag(bool* root_closed) {
    MEETXML_RETURN_NOT_OK(FlushText());
    cursor_.AdvanceBy(2);  // '</'
    MEETXML_ASSIGN_OR_RETURN(std::string_view tag, ParseName());
    cursor_.SkipWhitespace();
    if (!cursor_.ConsumeIf(">")) {
      return cursor_.Error("expected '>' in closing tag '</", tag, "'");
    }
    if (tag_stack_.empty()) {
      return cursor_.Error("closing tag '</", tag, ">' with no open element");
    }
    if (tag_stack_.back() != tag) {
      return cursor_.Error("mismatched closing tag: expected '</",
                           tag_stack_.back(), ">', got '</", tag, ">'");
    }
    tag_stack_.pop_back();
    MEETXML_RETURN_NOT_OK(handler_->EndElement(tag));
    if (tag_stack_.empty()) *root_closed = true;
    return Status::OK();
  }

  Status ParseText() {
    size_t begin = cursor_.pos();
    bool all_whitespace = true;
    while (!cursor_.AtEnd() && cursor_.Peek() != '<') {
      if (!std::isspace(static_cast<unsigned char>(cursor_.Peek()))) {
        all_whitespace = false;
      }
      cursor_.Advance();
    }
    if (all_whitespace && options_.discard_whitespace_text) {
      return Status::OK();
    }
    std::string_view raw = cursor_.Slice(begin, cursor_.pos());
    if (raw.find('&') == std::string_view::npos) {
      AddTextRun(raw);
      return Status::OK();
    }
    Status decoded = DecodeEntities(raw, BufferedText());
    if (!decoded.ok()) return cursor_.Error(decoded.message());
    return Status::OK();
  }

  Status ParseCdata() {
    if (tag_stack_.empty()) {
      return cursor_.Error("CDATA section outside root element");
    }
    cursor_.AdvanceBy(9);  // '<![CDATA['
    size_t begin = cursor_.pos();
    while (!cursor_.LooksAt("]]>")) {
      if (cursor_.AtEnd()) return cursor_.Error("unterminated CDATA section");
      cursor_.Advance();
    }
    AddTextRun(cursor_.Slice(begin, cursor_.pos()));
    cursor_.AdvanceBy(3);  // ']]>'
    return Status::OK();
  }

  // Adds a run that needs no decoding to the pending text. A lone run
  // stays a view into the input; only a second run forces a copy.
  void AddTextRun(std::string_view run) {
    if (!has_pending_text_) {
      pending_view_ = run;
      has_pending_text_ = true;
      return;
    }
    BufferedText()->append(run);
  }

  // The pending text, moved into the reused buffer so that more can be
  // appended to it.
  std::string* BufferedText() {
    if (!text_buffered_) {
      pending_text_.assign(pending_view_);
      text_buffered_ = true;
    }
    has_pending_text_ = true;
    return &pending_text_;
  }

  // Emits the accumulated PCDATA/CDATA run as one Text event. The merge
  // implements the paper's "common simplification not to differentiate
  // between PCDATA and CDATA".
  Status FlushText() {
    if (!has_pending_text_) return Status::OK();
    std::string_view text =
        text_buffered_ ? std::string_view(pending_text_) : pending_view_;
    has_pending_text_ = false;
    text_buffered_ = false;
    pending_view_ = {};
    return handler_->Text(text);
  }

  // Comments and PIs are checked and dropped; a dropped one does not
  // split the text run around it.
  Status SkipComment() {
    cursor_.AdvanceBy(4);  // '<!--'
    while (!cursor_.LooksAt("-->")) {
      if (cursor_.AtEnd()) return cursor_.Error("unterminated comment");
      if (cursor_.LooksAt("--")) {
        return cursor_.Error("'--' not allowed inside comment");
      }
      cursor_.Advance();
    }
    cursor_.AdvanceBy(3);
    return Status::OK();
  }

  Status SkipProcessingInstruction() {
    cursor_.AdvanceBy(2);  // '<?'
    MEETXML_RETURN_NOT_OK(ParseName().status());
    while (!cursor_.LooksAt("?>")) {
      if (cursor_.AtEnd()) {
        return cursor_.Error("unterminated processing instruction");
      }
      cursor_.Advance();
    }
    cursor_.AdvanceBy(2);
    return Status::OK();
  }

  Status SkipDoctype() {
    cursor_.AdvanceBy(9);  // '<!DOCTYPE'
    int bracket_depth = 0;
    while (!cursor_.AtEnd()) {
      char c = cursor_.Peek();
      if (c == '[') {
        ++bracket_depth;
      } else if (c == ']') {
        --bracket_depth;
      } else if (c == '>' && bracket_depth == 0) {
        cursor_.Advance();
        return Status::OK();
      }
      cursor_.Advance();
    }
    return cursor_.Error("unterminated DOCTYPE");
  }

  // Where a decoded attribute value sits in scratch_.
  struct DecodedValue {
    size_t attribute;
    size_t begin;
    size_t end;
  };

  Cursor cursor_;
  ParseOptions options_;
  SaxHandler* handler_;
  // Open tags, as views into the input.
  std::vector<std::string_view> tag_stack_;
  // The current start tag's attributes and the buffer that holds the
  // decoded values among them; all three are reused across elements.
  std::vector<AttributeView> attributes_;
  std::vector<DecodedValue> decoded_;
  std::string scratch_;
  // Pending character data: a view into the input while it is one run
  // that needs no decoding, else the reused buffer.
  std::string_view pending_view_;
  std::string pending_text_;
  bool has_pending_text_ = false;
  bool text_buffered_ = false;
  bool root_seen_ = false;
  std::string declaration_;
  bool had_doctype_ = false;
};

// Builds a DOM from the event stream, copying the borrowed views into
// owned nodes.
class DomSink : public SaxHandler {
 public:
  Status StartElement(std::string_view tag,
                      std::span<const AttributeView> attributes) override {
    auto element = Node::MakeElement(std::string(tag));
    for (const AttributeView& attribute : attributes) {
      element->AddAttribute(std::string(attribute.name),
                            std::string(attribute.value));
    }
    Node* placed;
    if (stack_.empty()) {
      root_ = std::move(element);
      placed = root_.get();
    } else {
      placed = stack_.back()->AddChild(std::move(element));
    }
    stack_.push_back(placed);
    return Status::OK();
  }

  Status EndElement(std::string_view tag) override {
    (void)tag;
    stack_.pop_back();
    return Status::OK();
  }

  Status Text(std::string_view text) override {
    stack_.back()->AddText(std::string(text));
    return Status::OK();
  }

  std::unique_ptr<Node> TakeRoot() { return std::move(root_); }

 private:
  std::unique_ptr<Node> root_;
  std::vector<Node*> stack_;
};

}  // namespace

Status ParseSax(std::string_view input, SaxHandler* handler,
                const ParseOptions& options) {
  ParserImpl impl(input, options, handler);
  return impl.Run();
}

Result<Document> Parse(std::string_view input, const ParseOptions& options) {
  DomSink sink;
  ParserImpl impl(input, options, &sink);
  MEETXML_RETURN_NOT_OK(impl.Run());
  Document doc;
  doc.root = sink.TakeRoot();
  doc.declaration = impl.declaration();
  doc.had_doctype = impl.had_doctype();
  return doc;
}

}  // namespace xml
}  // namespace meetxml
