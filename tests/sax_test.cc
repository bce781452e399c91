// Tests for the SAX (event-based) parsing interface: event order, the
// lifetime of the borrowed views, and that a parse allocates nothing
// per event.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/sax.h"

namespace {

// Every global operator new in this binary; the allocation pin below
// reads it around a parse.
std::atomic<size_t> g_allocations{0};

}  // namespace

// Kept out of line: once inlined, the compiler pairs a `new` call site
// with the free() inside and reports a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace meetxml {
namespace xml {
namespace {

using util::Status;

// Records every event as a compact trace string.
class TraceHandler : public SaxHandler {
 public:
  Status StartDocument() override {
    trace_ += "[doc ";
    return Status::OK();
  }
  Status EndDocument() override {
    trace_ += "doc]";
    return Status::OK();
  }
  Status StartElement(std::string_view tag,
                      std::span<const AttributeView> attributes) override {
    trace_ += "<";
    trace_ += tag;
    for (const AttributeView& attribute : attributes) {
      trace_ += " ";
      trace_ += attribute.name;
      trace_ += "=";
      trace_ += attribute.value;
    }
    trace_ += "> ";
    return Status::OK();
  }
  Status EndElement(std::string_view tag) override {
    trace_ += "</" + std::string(tag) + "> ";
    return Status::OK();
  }
  Status Text(std::string_view text) override {
    trace_ += "'";
    trace_ += text;
    trace_ += "' ";
    return Status::OK();
  }

  const std::string& trace() const { return trace_; }

 private:
  std::string trace_;
};

TEST(Sax, EmitsWellNestedEvents) {
  TraceHandler handler;
  MEETXML_CHECK_OK(ParseSax("<a><b>hi</b><c x=\"1\"/></a>", &handler));
  EXPECT_EQ(handler.trace(),
            "[doc <a> <b> 'hi' </b> <c x=1> </c> </a> doc]");
}

TEST(Sax, MergesAdjacentTextRuns) {
  TraceHandler handler;
  MEETXML_CHECK_OK(
      ParseSax("<a>one <![CDATA[two]]> three</a>", &handler));
  EXPECT_EQ(handler.trace(), "[doc <a> 'one two three' </a> doc]");
}

TEST(Sax, DroppedCommentDoesNotSplitText) {
  TraceHandler handler;
  MEETXML_CHECK_OK(ParseSax("<a>one<!-- x -->two</a>", &handler));
  EXPECT_EQ(handler.trace(), "[doc <a> 'onetwo' </a> doc]");
}

TEST(Sax, PropagatesParseErrors) {
  TraceHandler handler;
  Status status = ParseSax("<a><b></a>", &handler);
  EXPECT_FALSE(status.ok());
}

// A handler abort must stop the parse and surface the handler's status.
class AbortingHandler : public SaxHandler {
 public:
  Status StartElement(std::string_view tag,
                      std::span<const AttributeView> attributes) override {
    (void)attributes;
    ++elements_;
    if (tag == "poison") {
      return Status::ResourceExhausted("handler gave up");
    }
    return Status::OK();
  }
  int elements() const { return elements_; }

 private:
  int elements_ = 0;
};

TEST(Sax, HandlerCanAbortTheParse) {
  AbortingHandler handler;
  Status status = ParseSax("<a><ok/><poison/><never/></a>", &handler);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(handler.elements(), 3);  // a, ok, poison — never unreached
}

TEST(Sax, WhitespaceTextControlledByOptions) {
  {
    TraceHandler handler;
    MEETXML_CHECK_OK(ParseSax("<a>  <b/>  </a>", &handler));
    EXPECT_EQ(handler.trace(), "[doc <a> <b> </b> </a> doc]");
  }
  {
    ParseOptions options;
    options.discard_whitespace_text = false;
    TraceHandler handler;
    MEETXML_CHECK_OK(ParseSax("<a> <b/> </a>", &handler, options));
    EXPECT_EQ(handler.trace(), "[doc <a> ' ' <b> </b> ' ' </a> doc]");
  }
}

TEST(Sax, SelfClosingRootProducesBalancedEvents) {
  TraceHandler handler;
  MEETXML_CHECK_OK(ParseSax("<a/>", &handler));
  EXPECT_EQ(handler.trace(), "[doc <a> </a> doc]");
}

TEST(Sax, DeepDocumentsStreamWithoutRecursion) {
  std::string text;
  for (int i = 0; i < 3000; ++i) text += "<d>";
  for (int i = 0; i < 3000; ++i) text += "</d>";
  SaxHandler noop;
  MEETXML_CHECK_OK(ParseSax(text, &noop));
}

// ---- Borrowed views ----------------------------------------------------
//
// Each case makes the parser build a view into one of its reused
// buffers and then grow or reuse that buffer; a view that outlived its
// buffer would read freed or overwritten bytes (ASan reports the read).

TEST(Sax, SeveralDecodedAttributesOnOneElementKeepTheirValues) {
  // Long values, so that decoding the later ones grows (and moves) the
  // scratch buffer that holds the earlier ones.
  std::string a(100, 'a');
  std::string b(300, 'b');
  std::string c(1000, 'c');
  std::string text = "<e x=\"" + a + "&amp;\" y=\"plain\" z=\"&#65;" + b +
                     "\" w=\"" + c + "&lt;&gt;\"/>";
  TraceHandler handler;
  MEETXML_CHECK_OK(ParseSax(text, &handler));
  EXPECT_EQ(handler.trace(), "[doc <e x=" + a + "& y=plain z=A" + b +
                                 " w=" + c + "<>> </e> doc]");
}

TEST(Sax, DecodedAttributesOfOneElementDoNotLeakIntoTheNext) {
  TraceHandler handler;
  MEETXML_CHECK_OK(ParseSax(
      "<a><b x=\"&amp;long value one\" y=\"&lt;\"/><c z=\"&gt;\"/></a>",
      &handler));
  EXPECT_EQ(handler.trace(),
            "[doc <a> <b x=&long value one y=<> </b> <c z=>> </c> </a> doc]");
}

TEST(Sax, DecodesEntityAndCharacterReferencesInText) {
  TraceHandler handler;
  MEETXML_CHECK_OK(
      ParseSax("<a>x &amp; y<b>&#65;</b><c>&#x41;z</c></a>", &handler));
  EXPECT_EQ(handler.trace(),
            "[doc <a> 'x & y' <b> 'A' </b> <c> 'Az' </c> </a> doc]");
}

TEST(Sax, MergesPcdataCdataPcdataIntoOneText) {
  // The first run starts as a view into the input; the CDATA run forces
  // it into the pending buffer, and the decoded third run appends.
  TraceHandler handler;
  MEETXML_CHECK_OK(ParseSax(
      "<a>one <![CDATA[<two> & ]]>three &amp; four</a><!-- end -->",
      &handler));
  EXPECT_EQ(handler.trace(), "[doc <a> 'one <two> & three & four' </a> doc]");
}

TEST(Sax, MergesTextRunsAcrossDroppedCommentsAndPis) {
  TraceHandler handler;
  MEETXML_CHECK_OK(ParseSax(
      "<a>one<!-- x -->two<?p data?>three<b/>four<!---->&amp;</a>",
      &handler));
  EXPECT_EQ(handler.trace(),
            "[doc <a> 'onetwothree' <b> </b> 'four&' </a> doc]");
}

TEST(Sax, PendingBufferIsReusedNotLeakedAcrossRuns) {
  // Two buffered runs in a row: the second must not carry the first.
  TraceHandler handler;
  MEETXML_CHECK_OK(
      ParseSax("<a><b>&amp;first</b><c>x<![CDATA[y]]></c><d>z</d></a>",
               &handler));
  EXPECT_EQ(handler.trace(),
            "[doc <a> <b> '&first' </b> <c> 'xy' </c> <d> 'z' </d> </a> "
            "doc]");
}

TEST(Sax, CloseTagsMatchAgainstTheViewStack) {
  std::string deep_name(40, 'n');
  {
    TraceHandler handler;
    MEETXML_CHECK_OK(ParseSax("<" + deep_name + "><b><c></c></b></" +
                                  deep_name + ">",
                              &handler));
    EXPECT_EQ(handler.trace(), "[doc <" + deep_name + "> <b> <c> </c> </b> </" +
                                   deep_name + "> doc]");
  }
  {
    TraceHandler handler;
    Status status = ParseSax("<a><" + deep_name + "></a>", &handler);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("expected '</" + deep_name +
                                    ">', got '</a>'"),
              std::string::npos)
        << status;
  }
}

// ---- Allocation pin ------------------------------------------------------

// Reads every byte of every view it is handed, so that a parse which
// skipped building an event would show in the byte count.
class ReadingHandler : public SaxHandler {
 public:
  Status StartElement(std::string_view tag,
                      std::span<const AttributeView> attributes) override {
    Read(tag);
    for (const AttributeView& attribute : attributes) {
      Read(attribute.name);
      Read(attribute.value);
    }
    return Status::OK();
  }
  Status EndElement(std::string_view tag) override {
    Read(tag);
    return Status::OK();
  }
  Status Text(std::string_view text) override {
    Read(text);
    return Status::OK();
  }

  size_t bytes() const { return bytes_; }

 private:
  // Touches each byte, so that ASan sees every view read.
  void Read(std::string_view s) {
    for (char c : s) bytes_ += c != '\0' ? 1 : 0;
  }

  size_t bytes_ = 0;
};

// Allocations made by ParseSax over `<r>` holding `elements` flat
// `<e a="x">t</e>` children.
size_t AllocationsToParseFlat(int elements) {
  std::string text = "<r>";
  for (int i = 0; i < elements; ++i) text += "<e a=\"x\">t</e>";
  text += "</r>";
  ReadingHandler handler;
  size_t before = g_allocations.load(std::memory_order_relaxed);
  Status status = ParseSax(text, &handler);
  size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(status.ok()) << status;
  // Per element: tag, attribute name and value, text, close tag.
  EXPECT_EQ(handler.bytes(), static_cast<size_t>(elements) * 5 + 2);
  return after - before;
}

TEST(Sax, ParsingAllocatesNothingPerEvent) {
  size_t small = AllocationsToParseFlat(1000);
  size_t large = AllocationsToParseFlat(10000);
  EXPECT_EQ(large, small);
}

}  // namespace
}  // namespace xml
}  // namespace meetxml
