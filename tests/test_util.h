// Shared helpers for the test suites.

#ifndef MEETXML_TESTS_TEST_UTIL_H_
#define MEETXML_TESTS_TEST_UTIL_H_

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

#include "model/document.h"
#include "model/shredder.h"
#include "model/storage_io.h"

namespace meetxml {
namespace testing {

/// Shreds XML text, failing the test on any error.
inline model::StoredDocument MustShred(std::string_view xml_text) {
  auto result = model::ShredXmlText(xml_text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

/// The storage image of `doc`, failing the test on any error: two
/// documents are the same document when their images are equal bytes.
inline std::string MustImage(const model::StoredDocument& doc) {
  auto bytes = model::SaveToBytes(doc);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

/// A scratch file under the system temp directory whose name is unique
/// to the running test and process
/// (`meetxml_<suite>.<test>_<pid>_<name>`), so tests running in
/// parallel under `ctest -j` never share a file. The file is removed
/// when the object goes out of scope.
class TempFile {
 public:
  explicit TempFile(std::string_view name) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string unique = "meetxml_";
    if (test != nullptr) {
      unique += test->test_suite_name();
      unique += '.';
      unique += test->name();
      unique += '_';
    }
#if defined(_WIN32)
    unique += std::to_string(_getpid());
#else
    unique += std::to_string(getpid());
#endif
    unique += '_';
    unique += name;
    // Parameterized test names carry '/'; keep the file in one directory.
    for (char& c : unique) {
      if (c == '/') c = '_';
    }
    path_ = (std::filesystem::temp_directory_path() / unique).string();
  }
  ~TempFile() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Finds the single node whose cdata text equals `text`; fails if the
/// count differs from one.
inline bat::Oid FindCdataNode(const model::StoredDocument& doc,
                              std::string_view text) {
  std::vector<bat::Oid> hits;
  for (bat::PathId path : doc.string_paths()) {
    if (doc.paths().kind(path) != model::StepKind::kCdata) continue;
    const auto& table = doc.StringsAt(path);
    for (size_t row = 0; row < table.size(); ++row) {
      if (table.tail(row) == text) hits.push_back(table.head(row));
    }
  }
  EXPECT_EQ(hits.size(), 1u) << "cdata '" << text << "'";
  return hits.empty() ? bat::kInvalidOid : hits.front();
}

/// Finds the first node whose tag equals `tag`, in OID (document) order,
/// skipping `skip` earlier hits.
inline bat::Oid FindElement(const model::StoredDocument& doc,
                            std::string_view tag, int skip = 0) {
  for (bat::Oid oid = 0; oid < doc.node_count(); ++oid) {
    if (!doc.is_cdata(oid) && doc.tag(oid) == tag) {
      if (skip == 0) return oid;
      --skip;
    }
  }
  ADD_FAILURE() << "no element <" << tag << ">";
  return bat::kInvalidOid;
}

/// Brute-force reference LCA via parent walks (no steering, no hashing).
inline bat::Oid ReferenceLca(const model::StoredDocument& doc, bat::Oid a,
                             bat::Oid b) {
  while (doc.depth(a) > doc.depth(b)) a = doc.parent(a);
  while (doc.depth(b) > doc.depth(a)) b = doc.parent(b);
  while (a != b) {
    a = doc.parent(a);
    b = doc.parent(b);
  }
  return a;
}

/// Brute-force reference distance (edges between two nodes).
inline int ReferenceDistance(const model::StoredDocument& doc, bat::Oid a,
                             bat::Oid b) {
  bat::Oid lca = ReferenceLca(doc, a, b);
  return static_cast<int>(doc.depth(a)) + static_cast<int>(doc.depth(b)) -
         2 * static_cast<int>(doc.depth(lca));
}

}  // namespace testing
}  // namespace meetxml

#endif  // MEETXML_TESTS_TEST_UTIL_H_
