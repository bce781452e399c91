// Tests for the StoredDocument invariant validator.

#include <gtest/gtest.h>

#include "data/dblp_gen.h"
#include "data/multimedia_gen.h"
#include "data/paper_example.h"
#include "data/random_tree.h"
#include "model/shredder.h"
#include "model/storage_io.h"
#include "model/validate.h"
#include "tests/test_util.h"

namespace meetxml {
namespace model {
namespace {

using meetxml::testing::MustShred;

TEST(Validate, PaperExamplePasses) {
  auto doc = MustShred(data::PaperExampleXml());
  MEETXML_CHECK_OK(ValidateDocument(doc));
}

TEST(Validate, GeneratedCorporaPass) {
  {
    data::DblpOptions options;
    options.end_year = 1988;
    auto generated = data::GenerateDblp(options);
    ASSERT_TRUE(generated.ok());
    auto doc = Shred(*generated);
    ASSERT_TRUE(doc.ok());
    MEETXML_CHECK_OK(ValidateDocument(*doc));
  }
  {
    data::MultimediaOptions options;
    options.items = 200;
    auto corpus = data::GenerateMultimedia(options);
    ASSERT_TRUE(corpus.ok());
    auto doc = Shred(corpus->doc);
    ASSERT_TRUE(doc.ok());
    MEETXML_CHECK_OK(ValidateDocument(*doc));
  }
}

TEST(Validate, StreamedAndReloadedDocumentsPass) {
  std::string xml_text = data::PaperExampleXml();
  auto streamed = ShredXmlText(xml_text);
  ASSERT_TRUE(streamed.ok());
  MEETXML_CHECK_OK(ValidateDocument(*streamed));

  auto bytes = SaveToBytes(*streamed);
  ASSERT_TRUE(bytes.ok());
  auto reloaded = LoadFromBytes(*bytes);
  ASSERT_TRUE(reloaded.ok());
  MEETXML_CHECK_OK(ValidateDocument(*reloaded));
}

TEST(Validate, RejectsUnfinalized) {
  StoredDocument doc;
  EXPECT_FALSE(ValidateDocument(doc).ok());
}

TEST(Validate, DetectsHandCraftedCorruption) {
  // Build a document whose node path disagrees with its parent's path:
  // the builder API permits it, Finalize does not check it, the
  // validator must catch it.
  StoredDocument doc;
  PathSummary* paths = doc.mutable_paths();
  PathId a = paths->Intern(bat::kInvalidPathId, StepKind::kElement, "a");
  PathId b = paths->Intern(a, StepKind::kElement, "b");
  PathId stray =
      paths->Intern(bat::kInvalidPathId, StepKind::kElement, "stray");
  doc.AppendNode(a, bat::kInvalidOid, 0);
  doc.AppendNode(stray, 0, 0);  // parent path 'a', own path root-level
  MEETXML_CHECK_OK(doc.Finalize());
  auto status = ValidateDocument(doc);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInternal());
  (void)b;
}

class ValidateProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValidateProperty, RandomTreesAlwaysValidate) {
  data::RandomTreeOptions options;
  options.seed = GetParam();
  options.target_elements = 250;
  auto generated = data::GenerateRandomTree(options);
  ASSERT_TRUE(generated.ok());
  auto doc = Shred(*generated);
  ASSERT_TRUE(doc.ok());
  MEETXML_CHECK_OK(ValidateDocument(*doc));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidateProperty,
                         ::testing::Values(41, 42, 43, 44));

}  // namespace
}  // namespace model
}  // namespace meetxml
