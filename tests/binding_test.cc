// Binding equivalence: the executor's compiled binding (WHERE conjuncts
// as set algebra over full-text postings, query/executor.cc) against a
// reference binder that scans every value on the bound paths with the
// text layer's match functions — binding's semantics before the index
// answered it.
//
// Seeded random predicate trees (AND/OR/NOT over CONTAINS with absent,
// 1-, 2- and longer needles, WORD, PHRASE, SYNONYM, ICONTAINS and =)
// bind cdata, attribute and element paths of DBLP and random-tree
// documents, with one to three conjuncts per variable. Every case also
// runs through a one-document store::MultiExecutor and an
// InProcessClient, whose rows must be byte-identical to the executor's.
// A failure prints the seed and the query.

#include <algorithm>
#include <cctype>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/dblp_gen.h"
#include "data/random_tree.h"
#include "model/shredder.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/path_match.h"
#include "server/service.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "text/search.h"
#include "text/thesaurus.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/strings.h"
#include "xml/serializer.h"

namespace meetxml {
namespace query {
namespace {

using bat::Oid;
using bat::PathId;
using model::StepKind;
using model::StoredDocument;

// ---- The reference binder ------------------------------------------------

bool ReferenceLeaf(const Predicate& predicate, std::string_view value,
                   const text::Thesaurus& thesaurus) {
  switch (predicate.kind) {
    case Predicate::Kind::kContains:
      return util::Contains(value, predicate.literal);
    case Predicate::Kind::kIcontains:
      return util::ContainsIgnoreCase(value, predicate.literal);
    case Predicate::Kind::kEquals:
      return value == predicate.literal;
    case Predicate::Kind::kWord: {
      std::vector<std::string> tokens = text::Tokenize(value);
      return std::find(tokens.begin(), tokens.end(),
                       util::ToLowerAscii(predicate.literal)) !=
             tokens.end();
    }
    case Predicate::Kind::kPhrase:
      return text::MatchesPhrase(value, text::Tokenize(predicate.literal));
    case Predicate::Kind::kSynonym:
      for (const std::string& term : thesaurus.Expand(predicate.literal)) {
        if (util::ContainsIgnoreCase(value, term)) return true;
      }
      return false;
    case Predicate::Kind::kDistanceLe:
      return true;
  }
  return false;
}

bool ReferenceExpr(const BoolExpr& expr, std::string_view value,
                   const text::Thesaurus& thesaurus) {
  switch (expr.op) {
    case BoolExpr::Op::kLeaf:
      return ReferenceLeaf(expr.leaf, value, thesaurus);
    case BoolExpr::Op::kNot:
      return !ReferenceExpr(expr.children[0], value, thesaurus);
    case BoolExpr::Op::kAnd:
      return ReferenceExpr(expr.children[0], value, thesaurus) &&
             ReferenceExpr(expr.children[1], value, thesaurus);
    case BoolExpr::Op::kOr:
      return ReferenceExpr(expr.children[0], value, thesaurus) ||
             ReferenceExpr(expr.children[1], value, thesaurus);
  }
  return false;
}

// The rows `SELECT v FROM <pattern> v WHERE ...` must produce: every
// value on every bound path tested, in path order; element paths bind
// nothing once a string predicate applies.
std::vector<std::vector<std::string>> ReferenceRows(
    const StoredDocument& doc, const Query& query,
    const text::Thesaurus& thesaurus) {
  const Binding& binding = query.bindings.front();
  auto paths = MatchPattern(doc.paths(), binding.pattern);
  EXPECT_TRUE(paths.ok()) << paths.status();
  std::vector<std::vector<std::string>> rows;
  if (!paths.ok()) return rows;
  for (PathId path : *paths) {
    std::vector<Oid> nodes;
    StepKind kind = doc.paths().kind(path);
    if (kind == StepKind::kElement) {
      if (!query.where.empty()) continue;
      const model::OidOidBat& edges = doc.EdgesAt(path);
      for (size_t row = 0; row < edges.size(); ++row) {
        nodes.push_back(edges.tail(row));
      }
    } else {
      const model::OidStrBat& table = doc.StringsAt(path);
      for (size_t row = 0; row < table.size(); ++row) {
        bool pass = true;
        for (const BoolExpr& conjunct : query.where) {
          pass = pass && ReferenceExpr(conjunct, table.tail(row), thesaurus);
        }
        if (pass) nodes.push_back(table.head(row));
      }
      if (kind == StepKind::kAttribute) {
        std::sort(nodes.begin(), nodes.end());
        nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      }
    }
    for (Oid node : nodes) {
      std::string id = "o";
      id += std::to_string(node);
      rows.push_back(
          {doc.paths().label(path), doc.paths().ToString(path), id});
    }
  }
  return rows;
}

// ---- Random cases --------------------------------------------------------

class CaseGenerator {
 public:
  CaseGenerator(const StoredDocument& doc, uint64_t seed) : rng_(seed) {
    for (PathId path : doc.string_paths()) {
      const model::OidStrBat& table = doc.StringsAt(path);
      for (size_t row = 0; row < table.size(); ++row) {
        values_.emplace_back(table.tail(row));
      }
    }
  }

  // `WHERE` body: one to three conjuncts on `var`.
  std::string Where(const std::string& var) {
    std::string out = Tree(var, 2);
    int extra = static_cast<int>(rng_.NextBelow(3));
    for (int i = 0; i < extra; ++i) out += " AND " + Tree(var, 1);
    return out;
  }

 private:
  // Built by appending: `"(" + std::string` trips a GCC 12 -Wrestrict
  // false positive at -O3. The right operand is drawn first; the seeded
  // cases depend on that order.
  std::string Tree(const std::string& var, int depth) {
    if (depth == 0 || rng_.NextBool(0.45)) return Leaf(var);
    const uint64_t shape = rng_.NextBelow(3);
    std::string right = Tree(var, depth - 1);
    if (shape == 2) return "NOT " + right;
    std::string out = "(";
    out += Tree(var, depth - 1);
    out += shape == 0 ? " AND " : " OR ";
    out += right;
    out += ")";
    return out;
  }

  std::string Leaf(const std::string& var) {
    switch (rng_.NextBelow(10)) {
      case 0:
        return var + " CONTAINS " + Quote("zq#xw");
      case 1:
        return var + " CONTAINS " + Quote(Substring(1, 1));
      case 2:
        return var + " CONTAINS " + Quote(Substring(2, 2));
      case 3:
      case 4:
        return var + " CONTAINS " + Quote(Substring(3, 8));
      case 5:
        return var + " WORD " + Quote(Words(1));
      case 6:
        return var + " PHRASE " + Quote(Words(1 + rng_.NextBelow(3)));
      case 7:
        return var + " SYNONYM " + Quote(Words(1));
      case 8:
        return var + " ICONTAINS " + Quote(util::ToLowerAscii(
                                         Substring(2, 5)));
      default:
        return var + " = " + Quote(std::string(rng_.Pick(values_)));
    }
  }

  // A substring of a stored value, `min`..`max` bytes long (shorter only
  // when no value is long enough). Never empty.
  std::string Substring(size_t min, size_t max) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      std::string_view value = rng_.Pick(values_);
      if (value.size() < min) continue;
      size_t len = std::min<size_t>(
          value.size(), min + rng_.NextBelow(max - min + 1));
      size_t start = rng_.NextBelow(value.size() - len + 1);
      return std::string(value.substr(start, len));
    }
    return "x";
  }

  // `count` consecutive tokens of a stored value, some upper-cased,
  // with one separator each and sometimes in reverse order (all words
  // present, adjacency broken) — or '--' (no indexable word) when the
  // drawn value has too few.
  std::string Words(size_t count) {
    std::vector<std::string> tokens = text::Tokenize(rng_.Pick(values_));
    if (tokens.size() < count) return "--";
    size_t start = rng_.NextBelow(tokens.size() - count + 1);
    bool reversed = rng_.NextBool(0.3);
    std::string out;
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) out += rng_.NextBool() ? " " : ", ";
      std::string token = tokens[start + (reversed ? count - 1 - i : i)];
      if (rng_.NextBool(0.3)) {
        for (char& c : token) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
      }
      out += token;
    }
    return out;
  }

  // Quotes a literal with whichever quote it does not contain; a
  // literal holding both is replaced by an absent needle.
  static std::string Quote(const std::string& literal) {
    if (literal.find('\'') == std::string::npos) return "'" + literal + "'";
    if (literal.find('"') == std::string::npos) return "\"" + literal + "\"";
    return "'zq#xw'";
  }

  util::Rng rng_;
  std::vector<std::string_view> values_;
};

// ---- The suite -----------------------------------------------------------

struct Corpus {
  const char* name;
  std::vector<const char*> patterns;
  std::string (*xml)();
};

std::string DblpXml() {
  data::DblpOptions options;
  options.end_year = 1987;
  options.icde_papers_per_year = 10;
  options.other_papers_per_year = 25;
  options.journal_articles_per_year = 10;
  options.optional_field_prob = 0.5;
  auto xml = data::GenerateDblpXml(options);
  EXPECT_TRUE(xml.ok()) << xml.status();
  return xml.ok() ? *xml : std::string();
}

std::string RandomTreeXml() {
  data::RandomTreeOptions options;
  options.seed = 11;
  options.target_elements = 600;
  options.tag_vocabulary = 6;
  options.attribute_prob = 0.5;
  options.text_prob = 0.7;
  auto tree = data::GenerateRandomTree(options);
  EXPECT_TRUE(tree.ok()) << tree.status();
  return tree.ok() ? xml::Serialize(*tree) : std::string();
}

struct EquivalenceCase {
  Corpus corpus;
  uint64_t seed;
};

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.corpus.name << "/seed" << c.seed;
}

class BindingEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

constexpr int kCasesPerSeed = 300;

TEST_P(BindingEquivalenceTest, CompiledBindingMatchesTheReferenceScan) {
  const EquivalenceCase& param = GetParam();
  const std::string xml_text = param.corpus.xml();
  auto shredded = model::ShredXmlText(xml_text);
  ASSERT_TRUE(shredded.ok()) << shredded.status();
  const StoredDocument& doc = *shredded;

  auto plain = Executor::Build(doc);
  auto expanded = Executor::Build(doc);
  ASSERT_TRUE(plain.ok() && expanded.ok());
  // A thesaurus whose rings join tokens of the corpus, so SYNONYM
  // expansions hit.
  text::Thesaurus thesaurus;
  {
    util::Rng rng(param.seed);
    std::vector<std::string> vocabulary;
    for (PathId path : doc.string_paths()) {
      const model::OidStrBat& table = doc.StringsAt(path);
      for (size_t row = 0; row < table.size() && row < 40; ++row) {
        for (const std::string& token : text::Tokenize(table.tail(row))) {
          vocabulary.push_back(token);
        }
      }
    }
    for (int ring = 0; ring < 30 && vocabulary.size() >= 2; ++ring) {
      std::string a = rng.Pick(vocabulary);
      std::string b = rng.Pick(vocabulary);
      if (a != b) thesaurus.AddRing({a, b});
    }
  }
  expanded->SetThesaurus(thesaurus);

  auto owned = model::ShredXmlText(xml_text);
  ASSERT_TRUE(owned.ok());
  store::Catalog catalog;
  ASSERT_TRUE(catalog.Add("d", std::move(*owned)).ok());
  store::MultiExecutor multi(&catalog);
  server::QueryService service(&catalog);
  auto client = server::InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Hello().ok());

  obs::Counter& postings = obs::MetricsRegistry::Global().counter(
      "meetxml_query_bind_postings_total");
  const uint64_t postings_before = postings.Value();
  CaseGenerator generator(doc, param.seed);
  util::Rng pick(param.seed * 7919);
  int non_empty = 0;
  for (int i = 0; i < kCasesPerSeed; ++i) {
    const std::string pattern = pick.Pick(
        std::vector<std::string>(param.corpus.patterns.begin(),
                                 param.corpus.patterns.end()));
    const std::string text = "SELECT v FROM " + pattern + " v WHERE " +
                             generator.Where("v");
    SCOPED_TRACE("seed " + std::to_string(param.seed) + " case " +
                 std::to_string(i) + ": " + text);
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << query.status();

    auto with_thesaurus = expanded->Execute(*query);
    ASSERT_TRUE(with_thesaurus.ok()) << with_thesaurus.status();
    EXPECT_EQ(with_thesaurus->rows, ReferenceRows(doc, *query, thesaurus));

    auto result = plain->Execute(*query);
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<std::vector<std::string>> reference =
        ReferenceRows(doc, *query, text::Thesaurus());
    ASSERT_EQ(result->rows, reference);
    if (!reference.empty()) ++non_empty;

    auto merged = multi.Execute("d", *query);
    ASSERT_TRUE(merged.ok()) << merged.status();
    ASSERT_EQ(merged->rows.size(), result->rows.size());
    for (size_t r = 0; r < merged->rows.size(); ++r) {
      ASSERT_EQ(merged->rows[r].front(), "d");
      ASSERT_EQ(std::vector<std::string>(merged->rows[r].begin() + 1,
                                         merged->rows[r].end()),
                result->rows[r]);
    }
    auto response = client->Query("d", text);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->ok) << response->message;
    EXPECT_EQ(response->table, merged->ToText());
  }
  // Not vacuous: answers were found, and the index answered some.
  EXPECT_GE(non_empty, kCasesPerSeed / 8);
  EXPECT_GT(postings.Value(), postings_before);

  auto dump = client->Dump();
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_NE(dump->find("meetxml_query_bind_values_scanned_total"),
            std::string::npos);
  EXPECT_NE(dump->find("meetxml_query_bind_postings_total"),
            std::string::npos);
}

// An owner with several values on one attribute path (XML forbids it,
// the document model does not), once with the owner column still
// sorted and once unsorted: per-value semantics hold only if that path
// scans, since one posting per owner cannot tell which value matched
// which conjunct. The other path of the binding still uses the index.
TEST(BindingEquivalence, MultiValuedAttributeKeepsPerValueSemantics) {
  for (bool sorted : {true, false}) {
    SCOPED_TRACE(sorted ? "sorted owners" : "unsorted owners");
    auto shredded = model::ShredXmlText(
        "<r><e x=\"alpha one\"/><e x=\"beta\"/>"
        "<f x=\"beta gamma\"/></r>");
    ASSERT_TRUE(shredded.ok()) << shredded.status();
    StoredDocument& doc = *shredded;
    PathId e_x = bat::kInvalidPathId;
    for (PathId path : doc.string_paths()) {
      if (doc.paths().ToString(path) == "r/e/@x") e_x = path;
    }
    ASSERT_NE(e_x, bat::kInvalidPathId);
    // A second @x value for the last <e> keeps the owner column sorted
    // with a repeated owner; one for the first <e> unsorts it.
    const model::OidStrBat& before = doc.StringsAt(e_x);
    Oid owner = sorted ? before.head(before.size() - 1) : before.head(0);
    doc.AppendString(e_x, owner, "gamma two");
    ASSERT_TRUE(doc.Finalize().ok());
    ASSERT_EQ(doc.StringRelationSorted(e_x), sorted);

    auto executor = Executor::Build(doc);
    ASSERT_TRUE(executor.ok()) << executor.status();
    auto query = ParseQuery(
        "SELECT v FROM r/*/@x v WHERE v CONTAINS 'beta' AND v WORD 'gamma'");
    ASSERT_TRUE(query.ok()) << query.status();
    auto result = executor->Execute(*query);
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<std::vector<std::string>> reference =
        ReferenceRows(doc, *query, text::Thesaurus());
    EXPECT_EQ(result->rows, reference);
    ASSERT_EQ(reference.size(), 1u);  // <f>, not the <e> with two values
    EXPECT_EQ(reference[0][1], "r/f/@x");

    auto plan = executor->Explain(*query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(plan->find("  scan: 1 paths with unsorted or multi-valued"),
              std::string::npos)
        << *plan;
  }
}

// An index tokenized with other options than the per-value matchers
// use cannot answer WORD or PHRASE: those stay filters (here, with no
// other conjunct, a scan), so the answer is the reference scan's.
TEST(BindingEquivalence, NonDefaultTokenizerLeavesWordAndPhraseToScans) {
  auto shredded = model::ShredXmlText(
      "<r><t>an ox ran</t><t>Oxen</t><t>the ox</t></r>");
  ASSERT_TRUE(shredded.ok()) << shredded.status();
  const StoredDocument& doc = *shredded;
  text::IndexOptions options;
  options.tokenizer.min_token_length = 3;  // the index drops "an", "ox"
  auto search = text::FullTextSearch::Build(doc, options);
  ASSERT_TRUE(search.ok()) << search.status();
  auto executor = Executor::Build(doc, std::move(*search));
  ASSERT_TRUE(executor.ok()) << executor.status();
  for (const char* text :
       {"SELECT v FROM r/t/cdata v WHERE v WORD 'OX'",
        "SELECT v FROM r/t/cdata v WHERE v PHRASE 'an ox'"}) {
    SCOPED_TRACE(text);
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << query.status();
    auto result = executor->Execute(*query);
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<std::vector<std::string>> reference =
        ReferenceRows(doc, *query, text::Thesaurus());
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(result->rows, reference);
    auto plan = executor->Explain(*query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(plan->find("  scan: v "), std::string::npos) << *plan;
  }
}

const Corpus kDblp{"dblp",
                   {"dblp//cdata", "dblp/inproceedings/year/cdata",
                    "dblp//title/cdata", "dblp/*/@key", "dblp//*",
                    "dblp/article/*/cdata"},
                   &DblpXml};
const Corpus kRandomTree{"random_tree",
                         {"root//cdata", "root//@a0", "root//@a1",
                          "root//t1//cdata", "root//t3", "root/*/cdata"},
                         &RandomTreeXml};

INSTANTIATE_TEST_SUITE_P(
    Seeds, BindingEquivalenceTest,
    ::testing::Values(EquivalenceCase{kDblp, 1}, EquivalenceCase{kDblp, 2},
                      EquivalenceCase{kDblp, 3},
                      EquivalenceCase{kRandomTree, 1},
                      EquivalenceCase{kRandomTree, 2},
                      EquivalenceCase{kRandomTree, 3}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return std::string(info.param.corpus.name) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace query
}  // namespace meetxml
