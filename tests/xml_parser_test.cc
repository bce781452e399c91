// Unit tests for the XML parser, DOM and serializer.

#include <gtest/gtest.h>

#include "xml/dom.h"
#include "xml/escape.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace meetxml {
namespace xml {
namespace {

TEST(XmlParser, ParsesMinimalDocument) {
  auto result = Parse("<a/>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->root->tag(), "a");
  EXPECT_TRUE(result->root->children().empty());
}

TEST(XmlParser, ParsesNestedElements) {
  auto result = Parse("<a><b><c/></b><d/></a>");
  ASSERT_TRUE(result.ok()) << result.status();
  const Node& root = *result->root;
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_EQ(root.children()[0]->tag(), "b");
  EXPECT_EQ(root.children()[1]->tag(), "d");
  ASSERT_EQ(root.children()[0]->children().size(), 1u);
  EXPECT_EQ(root.children()[0]->children()[0]->tag(), "c");
}

TEST(XmlParser, ParsesAttributes) {
  auto result = Parse(R"(<a x="1" y='two' z="a&amp;b"/>)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result->root->FindAttribute("x"), "1");
  EXPECT_EQ(*result->root->FindAttribute("y"), "two");
  EXPECT_EQ(*result->root->FindAttribute("z"), "a&b");
  EXPECT_EQ(result->root->FindAttribute("missing"), nullptr);
}

TEST(XmlParser, ParsesText) {
  auto result = Parse("<a>hello world</a>");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->root->children().size(), 1u);
  EXPECT_TRUE(result->root->children()[0]->is_text());
  EXPECT_EQ(result->root->children()[0]->text(), "hello world");
}

TEST(XmlParser, DecodesPredefinedEntities) {
  auto result = Parse("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->root->children()[0]->text(), "<x> & \"y\" 'z'");
}

TEST(XmlParser, DecodesNumericCharacterReferences) {
  auto result = Parse("<a>&#65;&#x42;&#x20AC;</a>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->root->children()[0]->text(), "AB\xE2\x82\xAC");
}

TEST(XmlParser, MergesCdataSectionWithText) {
  auto result = Parse("<a>one <![CDATA[<two> & three]]> four</a>");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->root->children().size(), 1u);
  EXPECT_EQ(result->root->children()[0]->text(),
            "one <two> & three four");
}

TEST(XmlParser, DiscardsWhitespaceTextByDefault) {
  auto result = Parse("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->root->children().size(), 2u);
}

TEST(XmlParser, KeepsWhitespaceTextWhenAsked) {
  ParseOptions options;
  options.discard_whitespace_text = false;
  auto result = Parse("<a> <b/> </a>", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->root->children().size(), 3u);
}

TEST(XmlParser, SkipsCommentsByDefault) {
  auto result = Parse("<a><!-- hidden --><b/></a>");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->root->children().size(), 1u);
  EXPECT_EQ(result->root->children()[0]->tag(), "b");
}

TEST(XmlParser, ParsesXmlDeclarationAndDoctype) {
  auto result = Parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE a SYSTEM \"a.dtd\">\n"
      "<a/>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->had_doctype);
  EXPECT_NE(result->declaration.find("version"), std::string::npos);
}

TEST(XmlParser, SkipsDoctypeWithInternalSubset) {
  auto result = Parse("<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->root->tag(), "a");
}

TEST(XmlParser, ParsesProcessingInstructions) {
  // PIs are checked and dropped in the prolog, the content and the
  // epilog; the text runs around one merge.
  auto result =
      Parse("<?style x?><a>one<?target some data?>two<b/></a><?end?>");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->root->children().size(), 2u);
  EXPECT_EQ(result->root->children()[0]->text(), "onetwo");
  EXPECT_EQ(result->root->children()[1]->tag(), "b");
}

TEST(XmlParser, HandlesDeepNestingIteratively) {
  // 3000 levels: would overflow a recursive parser's stack.
  std::string text;
  for (int i = 0; i < 3000; ++i) text += "<d>";
  text += "x";
  for (int i = 0; i < 3000; ++i) text += "</d>";
  auto result = Parse(text);
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(XmlParser, EnforcesDepthLimit) {
  ParseOptions options;
  options.max_depth = 10;
  std::string text;
  for (int i = 0; i < 20; ++i) text += "<d>";
  for (int i = 0; i < 20; ++i) text += "</d>";
  auto result = Parse(text, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

// ---- Error cases ---------------------------------------------------

struct BadInput {
  const char* name;
  const char* text;
};

// gtest would print the two pointers' bytes, which change from build to
// build; the case name keeps each registered test name stable.
void PrintTo(const BadInput& input, std::ostream* os) { *os << input.name; }

class XmlParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(XmlParserErrorTest, RejectsMalformedInput) {
  auto result = Parse(GetParam().text);
  EXPECT_FALSE(result.ok()) << "input: " << GetParam().text;
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsInvalidArgument() ||
                result.status().IsUnexpectedEof())
        << result.status();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserErrorTest,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"text_only", "hello"},
        BadInput{"unclosed_root", "<a>"},
        BadInput{"mismatched_tags", "<a><b></a></b>"},
        BadInput{"wrong_close", "<a></b>"},
        BadInput{"two_roots", "<a/><b/>"},
        BadInput{"stray_close", "</a>"},
        BadInput{"unterminated_comment", "<a><!-- x</a>"},
        BadInput{"double_dash_comment", "<a><!-- x -- y --></a>"},
        BadInput{"unterminated_cdata", "<a><![CDATA[x</a>"},
        BadInput{"bad_entity", "<a>&nosuch;</a>"},
        BadInput{"unterminated_entity", "<a>&amp</a>"},
        BadInput{"bad_char_ref", "<a>&#xZZ;</a>"},
        BadInput{"char_ref_out_of_range", "<a>&#x110000;</a>"},
        BadInput{"duplicate_attribute", "<a x='1' x='2'/>"},
        BadInput{"unquoted_attribute", "<a x=1/>"},
        BadInput{"attr_missing_value", "<a x/>"},
        BadInput{"lt_in_attribute", "<a x='<'/>"},
        BadInput{"bad_name_start", "<1a/>"},
        BadInput{"content_after_root", "<a/>junk"},
        BadInput{"unterminated_attr", "<a x='1/>"},
        BadInput{"unterminated_pi", "<a><?pi x</a>"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

TEST(XmlParser, ReportsLineAndColumn) {
  auto result = Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status();
}

// ---- Escaping ------------------------------------------------------

TEST(XmlEscape, EscapesTextSpecials) {
  EXPECT_EQ(EscapeText("a<b>&c"), "a&lt;b&gt;&amp;c");
}

TEST(XmlEscape, EscapesAttributeSpecials) {
  EXPECT_EQ(EscapeAttribute("\"x\"\n"), "&quot;x&quot;&#10;");
}

TEST(XmlEscape, DecodeRejectsLoneAmpersand) {
  std::string out;
  EXPECT_FALSE(DecodeEntities("a & b", &out).ok());
}

TEST(XmlEscape, DecodeAppendsToTheCallersBuffer) {
  std::string out = "pre:";
  MEETXML_CHECK_OK(DecodeEntities("a&amp;b&#x41;&#66;", &out));
  EXPECT_EQ(out, "pre:a&bAB");
}

TEST(XmlEscape, Utf8EncodingBoundaries) {
  std::string out;
  ASSERT_TRUE(AppendUtf8(0x7F, &out));
  ASSERT_TRUE(AppendUtf8(0x80, &out));
  ASSERT_TRUE(AppendUtf8(0x7FF, &out));
  ASSERT_TRUE(AppendUtf8(0x800, &out));
  ASSERT_TRUE(AppendUtf8(0xFFFF, &out));
  ASSERT_TRUE(AppendUtf8(0x10000, &out));
  ASSERT_TRUE(AppendUtf8(0x10FFFF, &out));
  EXPECT_FALSE(AppendUtf8(0x110000, &out));
  EXPECT_FALSE(AppendUtf8(0xD800, &out));  // surrogate
  EXPECT_EQ(out.size(), 1u + 2u + 2u + 3u + 3u + 4u + 4u);
}

TEST(XmlEscape, ValidatesNames) {
  EXPECT_TRUE(IsValidName("tag"));
  EXPECT_TRUE(IsValidName("ns:tag"));
  EXPECT_TRUE(IsValidName("_x-1.2"));
  EXPECT_FALSE(IsValidName(""));
  EXPECT_FALSE(IsValidName("1tag"));
  EXPECT_FALSE(IsValidName("-tag"));
  EXPECT_FALSE(IsValidName("a b"));
}

// ---- Round-trips ---------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ParseSerializeParseIsStable) {
  auto first = Parse(GetParam());
  ASSERT_TRUE(first.ok()) << first.status();
  std::string text1 = Serialize(*first);
  auto second = Parse(text1);
  ASSERT_TRUE(second.ok()) << second.status();
  std::string text2 = Serialize(*second);
  EXPECT_EQ(text1, text2);
}

INSTANTIATE_TEST_SUITE_P(
    Documents, RoundTripTest,
    ::testing::Values(
        "<a/>",
        "<a x=\"1\"><b>text</b><c/></a>",
        "<a>&amp;&lt;&gt;</a>",
        "<a><b>x</b>mixed<b>y</b></a>",
        "<a attr=\"&quot;quoted&quot;\"/>",
        "<bib><e k=\"v\"><t>Hacking &amp; RSI</t></e></bib>"));

TEST(XmlSerializer, PrettyPrintsElementChildren) {
  auto doc = Parse("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions options;
  options.indent = 2;
  std::string out = Serialize(*doc->root, options);
  EXPECT_EQ(out, "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
}

TEST(XmlSerializer, KeepsTextGluedToTags) {
  auto doc = Parse("<a><b>text</b></a>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions options;
  options.indent = 2;
  std::string out = Serialize(*doc->root, options);
  EXPECT_NE(out.find("<b>text</b>"), std::string::npos) << out;
}

// ---- DOM helpers ---------------------------------------------------

TEST(Dom, CollectTextConcatenatesInDocumentOrder) {
  auto doc = Parse("<a>x<b>y</b>z</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->CollectText(), "xyz");
}

TEST(Dom, SubtreeSizeCountsAllNodes) {
  auto doc = Parse("<a><b>t</b><c/></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->SubtreeSize(), 4u);  // a, b, text, c
}

TEST(Dom, FindChildReturnsFirstMatch) {
  auto doc = Parse("<a><b i=\"1\"/><c/><b i=\"2\"/></a>");
  ASSERT_TRUE(doc.ok());
  const Node* b = doc->root->FindChild("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*b->FindAttribute("i"), "1");
  EXPECT_EQ(doc->root->FindChild("nope"), nullptr);
}

}  // namespace
}  // namespace xml
}  // namespace meetxml
