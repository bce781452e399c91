// Unit tests for the path summary, the Monet transform (shredder),
// StoredDocument invariants, and object reassembly.

#include <gtest/gtest.h>

#include "data/dblp_gen.h"
#include "data/multimedia_gen.h"
#include "data/paper_example.h"
#include "data/random_tree.h"
#include "model/path_summary.h"
#include "model/reassembly.h"
#include "model/shredder.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace meetxml {
namespace model {
namespace {

using meetxml::testing::MustImage;
using meetxml::testing::MustShred;

// ---- PathSummary ----------------------------------------------------

TEST(PathSummary, InternIsIdempotent) {
  PathSummary paths;
  PathId a = paths.Intern(bat::kInvalidPathId, StepKind::kElement, "a");
  PathId b = paths.Intern(a, StepKind::kElement, "b");
  EXPECT_EQ(paths.Intern(bat::kInvalidPathId, StepKind::kElement, "a"), a);
  EXPECT_EQ(paths.Intern(a, StepKind::kElement, "b"), b);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(PathSummary, DistinguishesKinds) {
  PathSummary paths;
  PathId a = paths.Intern(bat::kInvalidPathId, StepKind::kElement, "a");
  PathId elem = paths.Intern(a, StepKind::kElement, "x");
  PathId attr = paths.Intern(a, StepKind::kAttribute, "x");
  EXPECT_NE(elem, attr);
}

TEST(PathSummary, DepthCountsSteps) {
  PathSummary paths;
  PathId a = paths.Intern(bat::kInvalidPathId, StepKind::kElement, "a");
  PathId b = paths.Intern(a, StepKind::kElement, "b");
  PathId c = paths.Intern(b, StepKind::kCdata, "cdata");
  EXPECT_EQ(paths.depth(a), 1u);
  EXPECT_EQ(paths.depth(b), 2u);
  EXPECT_EQ(paths.depth(c), 3u);
}

TEST(PathSummary, PrefixOrder) {
  PathSummary paths;
  PathId a = paths.Intern(bat::kInvalidPathId, StepKind::kElement, "a");
  PathId b = paths.Intern(a, StepKind::kElement, "b");
  PathId c = paths.Intern(b, StepKind::kElement, "c");
  PathId d = paths.Intern(a, StepKind::kElement, "d");
  EXPECT_TRUE(paths.IsPrefixOf(a, c));
  EXPECT_TRUE(paths.IsPrefixOf(b, c));
  EXPECT_TRUE(paths.IsPrefixOf(c, c));  // equality counts (Definition 5)
  EXPECT_FALSE(paths.IsPrefixOf(c, b));
  EXPECT_FALSE(paths.IsPrefixOf(d, c));
}

TEST(PathSummary, CommonPrefix) {
  PathSummary paths;
  PathId a = paths.Intern(bat::kInvalidPathId, StepKind::kElement, "a");
  PathId b = paths.Intern(a, StepKind::kElement, "b");
  PathId c = paths.Intern(b, StepKind::kElement, "c");
  PathId d = paths.Intern(a, StepKind::kElement, "d");
  EXPECT_EQ(paths.CommonPrefix(c, d), a);
  EXPECT_EQ(paths.CommonPrefix(c, b), b);
  EXPECT_EQ(paths.CommonPrefix(a, a), a);
}

TEST(PathSummary, ToStringRendersAttributesAndCdata) {
  PathSummary paths;
  PathId a = paths.Intern(bat::kInvalidPathId, StepKind::kElement, "bib");
  PathId b = paths.Intern(a, StepKind::kElement, "article");
  PathId key = paths.Intern(b, StepKind::kAttribute, "key");
  PathId cd = paths.Intern(b, StepKind::kCdata, "cdata");
  EXPECT_EQ(paths.ToString(key), "bib/article/@key");
  EXPECT_EQ(paths.ToString(cd), "bib/article/cdata");
}

TEST(PathSummary, FindByLabel) {
  PathSummary paths;
  PathId a = paths.Intern(bat::kInvalidPathId, StepKind::kElement, "a");
  PathId b = paths.Intern(a, StepKind::kElement, "x");
  PathId c = paths.Intern(b, StepKind::kElement, "x");
  auto hits = paths.FindByLabel(StepKind::kElement, "x");
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_EQ(paths.FindByLabel(StepKind::kElement, "zz").size(), 0u);
  (void)c;
}

TEST(PathSummary, ParentsInternedBeforeChildren) {
  // The general meet relies on id order == topological order.
  PathSummary paths;
  PathId a = paths.Intern(bat::kInvalidPathId, StepKind::kElement, "a");
  PathId b = paths.Intern(a, StepKind::kElement, "b");
  PathId c = paths.Intern(b, StepKind::kElement, "c");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

// ---- Shredder / StoredDocument --------------------------------------

TEST(Shredder, PaperExampleCounts) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  // Figure 1: bibliography, institute, 2 articles, 2 authors,
  // firstname, lastname, 2 titles, 2 years = 12 elements,
  // plus 7 cdata nodes (Ben, Bit, Bob Byte, 2 titles, 2 years) = 19.
  EXPECT_EQ(doc.node_count(), 19u);
  // 2 key attributes + 7 cdata strings.
  EXPECT_EQ(doc.string_count(), 9u);
}

TEST(Shredder, RootIsOidZeroWithDfsOrder) {
  StoredDocument doc = MustShred("<a><b><c/></b><d/></a>");
  EXPECT_EQ(doc.root(), 0u);
  EXPECT_EQ(doc.tag(0), "a");
  EXPECT_EQ(doc.tag(1), "b");
  EXPECT_EQ(doc.tag(2), "c");
  EXPECT_EQ(doc.tag(3), "d");
  EXPECT_EQ(doc.parent(1), 0u);
  EXPECT_EQ(doc.parent(2), 1u);
  EXPECT_EQ(doc.parent(3), 0u);
  EXPECT_EQ(doc.parent(0), bat::kInvalidOid);
}

TEST(Shredder, DepthsMatchPathDepths) {
  StoredDocument doc = MustShred("<a><b><c>t</c></b></a>");
  EXPECT_EQ(doc.depth(doc.root()), 1u);
  for (bat::Oid oid = 0; oid < doc.node_count(); ++oid) {
    if (oid == doc.root()) continue;
    EXPECT_EQ(doc.depth(oid), doc.depth(doc.parent(oid)) + 1);
  }
}

TEST(Shredder, EdgeRelationsArePartitionedByPath) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  size_t total_edges = 0;
  for (PathId path : doc.edge_paths()) {
    const auto& edges = doc.EdgesAt(path);
    total_edges += edges.size();
    for (size_t row = 0; row < edges.size(); ++row) {
      EXPECT_EQ(doc.path(edges.tail(row)), path);
      if (edges.tail(row) != doc.root()) {
        EXPECT_EQ(doc.parent(edges.tail(row)), edges.head(row));
      }
    }
  }
  // Every node occurs in exactly one edge relation.
  EXPECT_EQ(total_edges, doc.node_count());
}

TEST(Shredder, AttributesHaveNoOwnNodes) {
  StoredDocument doc = MustShred("<a x=\"1\" y=\"2\"><b/></a>");
  EXPECT_EQ(doc.node_count(), 2u);  // a and b only
  auto attrs = doc.AttributesOf(doc.root());
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0].value, "1");
  EXPECT_EQ(attrs[1].value, "2");
}

TEST(Shredder, CdataNodesCarryStrings) {
  StoredDocument doc = MustShred("<a><b>hello</b></a>");
  bat::Oid cdata = meetxml::testing::FindCdataNode(doc, "hello");
  EXPECT_TRUE(doc.is_cdata(cdata));
  EXPECT_EQ(doc.CdataValue(cdata), "hello");
  EXPECT_EQ(doc.tag(doc.parent(cdata)), "b");
}

TEST(Shredder, ChildrenInSiblingOrder) {
  StoredDocument doc = MustShred("<a><b/><c/><d/></a>");
  auto kids = doc.children(doc.root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(doc.tag(kids[0]), "b");
  EXPECT_EQ(doc.tag(kids[1]), "c");
  EXPECT_EQ(doc.tag(kids[2]), "d");
  EXPECT_LT(doc.rank(kids[0]), doc.rank(kids[1]));
  EXPECT_LT(doc.rank(kids[1]), doc.rank(kids[2]));
}

TEST(Shredder, RecursiveTagsGetDistinctPaths) {
  StoredDocument doc = MustShred("<a><a><a/></a></a>");
  EXPECT_EQ(doc.paths().size(), 3u);
  EXPECT_NE(doc.path(0), doc.path(1));
  EXPECT_NE(doc.path(1), doc.path(2));
}

TEST(Shredder, IsAncestorOrSelf) {
  StoredDocument doc = MustShred("<a><b><c/></b><d/></a>");
  EXPECT_TRUE(doc.IsAncestorOrSelf(0, 2));
  EXPECT_TRUE(doc.IsAncestorOrSelf(1, 2));
  EXPECT_TRUE(doc.IsAncestorOrSelf(2, 2));
  EXPECT_FALSE(doc.IsAncestorOrSelf(2, 1));
  EXPECT_FALSE(doc.IsAncestorOrSelf(3, 2));
}

TEST(Shredder, RejectsEmptyDocument) {
  xml::Document empty;
  auto result = Shred(empty);
  EXPECT_FALSE(result.ok());
}

TEST(Shredder, MonetTransformMatchesPaperRelations) {
  // Spot-check relation names and cardinalities against Figure 2.
  StoredDocument doc = MustShred(data::PaperExampleXml());
  const PathSummary& paths = doc.paths();

  auto require_path = [&](const std::string& name) {
    for (PathId p = 0; p < paths.size(); ++p) {
      if (paths.ToString(p) == name) return p;
    }
    ADD_FAILURE() << "missing relation " << name;
    return bat::kInvalidPathId;
  };

  PathId article =
      require_path("bibliography/institute/article");
  EXPECT_EQ(doc.EdgesAt(article).size(), 2u);

  PathId key = require_path("bibliography/institute/article/@key");
  EXPECT_EQ(doc.StringsAt(key).size(), 2u);

  PathId year_cdata =
      require_path("bibliography/institute/article/year/cdata");
  EXPECT_EQ(doc.StringsAt(year_cdata).size(), 2u);

  PathId firstname_cdata = require_path(
      "bibliography/institute/article/author/firstname/cdata");
  ASSERT_EQ(doc.StringsAt(firstname_cdata).size(), 1u);
  EXPECT_EQ(doc.StringsAt(firstname_cdata).tail(0), "Ben");
}

// ---- One transform ------------------------------------------------------
//
// Shred walks a DOM into the same sink that ShredXmlText parses into,
// so a generated DOM and its serialization must give byte-identical
// storage images.

void ExpectDomAndTextShredAlike(const xml::Document& doc) {
  auto from_dom = Shred(doc);
  ASSERT_TRUE(from_dom.ok()) << from_dom.status();
  auto from_text = ShredXmlText(xml::Serialize(doc));
  ASSERT_TRUE(from_text.ok()) << from_text.status();
  EXPECT_EQ(from_text->node_count(), from_dom->node_count());
  EXPECT_EQ(MustImage(*from_text), MustImage(*from_dom));
}

TEST(StreamingShredder, AgreesWithDomShredderOnPaperExample) {
  auto parsed = xml::Parse(data::PaperExampleXml());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectDomAndTextShredAlike(*parsed);
}

TEST(StreamingShredder, PropagatesParseErrors) {
  auto result = ShredXmlText("<a><b></a>");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(StreamingAgreement, DefaultDblpShredsIdentically) {
  auto generated = data::GenerateDblp(data::DblpOptions{});
  ASSERT_TRUE(generated.ok()) << generated.status();
  ExpectDomAndTextShredAlike(*generated);
}

TEST(StreamingAgreement, MultimediaShredsIdentically) {
  auto corpus = data::GenerateMultimedia(data::MultimediaOptions{});
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ExpectDomAndTextShredAlike(corpus->doc);
}

class StreamingAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingAgreement, RandomTreesShredIdentically) {
  data::RandomTreeOptions options;
  options.seed = GetParam() * 7 + 3;
  options.target_elements = 300;
  auto generated = data::GenerateRandomTree(options);
  ASSERT_TRUE(generated.ok());
  ExpectDomAndTextShredAlike(*generated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- Reassembly ------------------------------------------------------

TEST(Reassembly, RoundTripsTheWholeDocument) {
  std::string xml_text = data::PaperExampleXml();
  auto parsed = xml::Parse(xml_text);
  ASSERT_TRUE(parsed.ok());
  StoredDocument doc = MustShred(xml_text);

  auto rebuilt = Reassemble(doc, doc.root());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(xml::Serialize(**rebuilt), xml::Serialize(*parsed->root));
}

TEST(Reassembly, RebuildsASubtree) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  bat::Oid article = meetxml::testing::FindElement(doc, "article");
  auto rebuilt = ReassembleToXml(doc, article, /*indent=*/0);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_NE(rebuilt->find("key=\"BB99\""), std::string::npos);
  EXPECT_NE(rebuilt->find("<firstname>Ben</firstname>"),
            std::string::npos);
  EXPECT_EQ(rebuilt->find("Bob Byte"), std::string::npos);
}

TEST(Reassembly, RebuildsACdataNode) {
  StoredDocument doc = MustShred("<a><b>hi</b></a>");
  bat::Oid cdata = meetxml::testing::FindCdataNode(doc, "hi");
  auto rebuilt = Reassemble(doc, cdata);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE((*rebuilt)->is_text());
  EXPECT_EQ((*rebuilt)->text(), "hi");
}

TEST(Reassembly, RejectsUnknownOid) {
  StoredDocument doc = MustShred("<a/>");
  EXPECT_FALSE(Reassemble(doc, 999).ok());
}

TEST(Reassembly, DescribeNode) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  bat::Oid article = meetxml::testing::FindElement(doc, "article");
  EXPECT_EQ(DescribeNode(doc, article),
            "article <bibliography/institute/article>");
}

// ---- Property: shred/reassemble round-trip on random trees ----------

class RandomTreeRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTreeRoundTrip, ShredReassembleIsIdentity) {
  data::RandomTreeOptions options;
  options.seed = GetParam();
  options.target_elements = 150 + static_cast<int>(GetParam() % 100);
  auto generated = data::GenerateRandomTree(options);
  ASSERT_TRUE(generated.ok());

  auto shredded = Shred(*generated);
  ASSERT_TRUE(shredded.ok()) << shredded.status();
  auto rebuilt = Reassemble(*shredded, shredded->root());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(xml::Serialize(**rebuilt), xml::Serialize(*generated->root));
}

TEST_P(RandomTreeRoundTrip, StructuralInvariantsHold) {
  data::RandomTreeOptions options;
  options.seed = GetParam() * 31 + 7;
  auto generated = data::GenerateRandomTree(options);
  ASSERT_TRUE(generated.ok());
  auto shredded = Shred(*generated);
  ASSERT_TRUE(shredded.ok());
  const StoredDocument& doc = *shredded;

  for (bat::Oid oid = 1; oid < doc.node_count(); ++oid) {
    // DFS order: parents precede children.
    EXPECT_LT(doc.parent(oid), oid);
    // Path parent mirrors node parent.
    EXPECT_EQ(doc.paths().parent(doc.path(oid)),
              doc.path(doc.parent(oid)));
  }
  // children() inverts parent().
  size_t child_total = 0;
  for (bat::Oid oid = 0; oid < doc.node_count(); ++oid) {
    for (bat::Oid kid : doc.children(oid)) {
      EXPECT_EQ(doc.parent(kid), oid);
      ++child_total;
    }
  }
  EXPECT_EQ(child_total, doc.node_count() - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace model
}  // namespace meetxml
