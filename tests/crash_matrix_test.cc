// Crash-safety proven by exhaustive kill-point enumeration.
//
// The failpoint sites woven through util/file_io.h and
// model/storage_io.cc each mark "the process may die just past this
// operation". The matrix runs the save once unarmed to count the
// boundaries it crosses (FailPoints::TotalHits delta), then forks one
// child per boundary k, arms `*=crash:k:1` in the child — std::_Exit
// at the k-th boundary, no flushes, no destructors, the closest a unit
// test gets to a power cut — and reopens the image in the parent. The
// invariant, for every k: the file restores to exactly the old image
// or exactly the new one, never a torn hybrid. A separate sweep feeds
// the reopen path hand-torn tails (old image + every truncation of the
// appended region), the crash states a mid-append kill leaves when the
// directory pointer was not yet patched.
//
// These tests need the sites compiled in (-DMEETXML_FAILPOINTS=ON) and
// fork(); they GTEST_SKIP elsewhere, so the suite is safe to register
// in every build.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/catalog.h"
#include "tests/test_util.h"
#include "util/failpoint.h"
#include "util/file_io.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define MEETXML_CRASH_MATRIX_SUPPORTED 1
#endif

namespace meetxml {
namespace store {
namespace {

using meetxml::testing::MustShred;
using util::FailPoints;
using util::FailPointSpec;

#if defined(MEETXML_CRASH_MATRIX_SUPPORTED)

// Forks, runs `body` in the child under `*=crash:skip:1`, and reports
// how the child died. The child exits 0 when the body ran to
// completion (skip exceeded the boundaries crossed), or
// FailPoints::kCrashExitCode when the armed boundary killed it.
int RunChildCrashingAt(uint64_t skip, const std::function<void()>& body) {
  pid_t pid = fork();
  if (pid == 0) {
    FailPointSpec crash;
    crash.action = FailPointSpec::Action::kCrash;
    crash.skip = skip;
    crash.count = 1;
    if (!FailPoints::Arm("*", crash).ok()) std::_Exit(3);
    body();
    std::_Exit(0);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int wait_status = 0;
  EXPECT_EQ(waitpid(pid, &wait_status, 0), pid);
  EXPECT_TRUE(WIFEXITED(wait_status)) << "child killed by signal";
  return WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(CrashMatrix, WriteFileAtomicIsOldOrNewAtEveryBoundary) {
  if (!FailPoints::enabled()) {
    GTEST_SKIP() << "failpoint sites are compiled out in this build";
  }
  const std::string path = TempPath("crash_matrix_wfa.txt");
  const std::string old_contents = "the old image bytes";
  const std::string new_contents =
      "the new image bytes, deliberately longer than the old ones";

  // Dry run: how many kill points does one atomic write cross?
  ASSERT_TRUE(util::WriteFileAtomic(path, old_contents).ok());
  FailPoints::Reset();
  ASSERT_TRUE(util::WriteFileAtomic(path, new_contents).ok());
  const uint64_t boundaries = FailPoints::TotalHits();
  FailPoints::Reset();
  ASSERT_GT(boundaries, 3u) << "expected open/write/flush/fsync/rename/"
                               "dirsync sites along the save";

  bool saw_old = false;
  bool saw_new = false;
  for (uint64_t k = 0; k < boundaries; ++k) {
    ASSERT_TRUE(util::WriteFileAtomic(path, old_contents).ok());
    int exit_code = RunChildCrashingAt(k, [&] {
      util::WriteFileAtomic(path, new_contents).ok();
    });
    ASSERT_EQ(exit_code, FailPoints::kCrashExitCode)
        << "boundary " << k << " of " << boundaries
        << " did not fire (site count changed between runs?)";
    auto contents = util::ReadFileToString(path);
    ASSERT_TRUE(contents.ok()) << "boundary " << k;
    EXPECT_TRUE(*contents == old_contents || *contents == new_contents)
        << "torn file after crash at boundary " << k << ": "
        << contents->substr(0, 64);
    saw_old |= *contents == old_contents;
    saw_new |= *contents == new_contents;
  }
  // The matrix must actually straddle the commit point: early kills
  // leave the old image, late kills (post-rename) the new one.
  EXPECT_TRUE(saw_old) << "no boundary left the old image";
  EXPECT_TRUE(saw_new) << "no boundary left the new image";
}

// One catalog on disk with two documents; the mutation under test adds
// a third and saves in place (the append + pointer-patch commit path).
class CrashMatrixCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FailPoints::enabled()) {
      GTEST_SKIP() << "failpoint sites are compiled out in this build";
    }
    path_ = file_.path();
    Catalog catalog;
    ASSERT_TRUE(
        catalog.Add("alpha", MustShred(CorpusXml(1))).ok());
    ASSERT_TRUE(catalog.Add("beta", MustShred(CorpusXml(2))).ok());
    ASSERT_TRUE(catalog.SaveToFile(path_).ok());
    auto bytes = util::ReadFileToString(path_);
    ASSERT_TRUE(bytes.ok());
    base_bytes_ = std::move(*bytes);
  }

  static std::string CorpusXml(int n) {
    std::string xml = "<doc><entry><title>corpus " + std::to_string(n) +
                      "</title><year>" + std::to_string(1990 + n) +
                      "</year><note>";
    for (int i = 0; i <= n % 4; ++i) {
      xml += "token" + std::to_string((n * 5 + i) % 7) + " ";
    }
    xml += "</note></entry></doc>";
    return xml;
  }

  void RestoreBaseImage() {
    ASSERT_TRUE(util::WriteFileAtomic(path_, base_bytes_).ok());
  }

  // Loads the on-disk image, adds "gamma", saves in place. The load
  // happens inside so each run starts from identical placement state.
  void AddGammaAndSaveInPlace(CatalogSaveStats* stats) {
    auto catalog = Catalog::LoadFromFile(path_);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    ASSERT_TRUE(catalog->Add("gamma", MustShred(CorpusXml(3))).ok());
    CatalogSaveOptions save;
    save.in_place = true;
    save.stats = stats;
    ASSERT_TRUE(catalog->SaveToFile(path_, save).ok());
  }

  // old image = {alpha, beta}; new image = {alpha, beta, gamma}. Any
  // other reopen outcome is a torn commit.
  void ExpectOldOrNew(uint64_t boundary, bool* saw_old, bool* saw_new) {
    auto reopened = Catalog::LoadFromFile(path_);
    ASSERT_TRUE(reopened.ok())
        << "image unreadable after crash at boundary " << boundary << ": "
        << reopened.status();
    ASSERT_TRUE(reopened->size() == 2 || reopened->size() == 3)
        << "torn catalog (" << reopened->size()
        << " entries) after crash at boundary " << boundary;
    for (const NamedDocument* entry : reopened->entries()) {
      auto doc = reopened->Get(entry->name);
      ASSERT_TRUE(doc.ok()) << "entry '" << entry->name
                            << "' corrupt after crash at boundary "
                            << boundary << ": " << doc.status();
    }
    *saw_old |= reopened->size() == 2;
    *saw_new |= reopened->size() == 3;
  }

  // Unique per test and process: ctest -j runs the fixture's tests
  // concurrently, and a shared path let one test's saves land in
  // another's image.
  meetxml::testing::TempFile file_{"crash_matrix_catalog.mxm"};
  std::string path_;
  std::string base_bytes_;
};

TEST_F(CrashMatrixCatalogTest, InPlaceSaveIsOldOrNewAtEveryBoundary) {
  // Dry run: count the boundaries one load + append-save crosses, and
  // pin that the save really took the in-place path (the matrix would
  // otherwise exercise the rewrite, a different commit protocol).
  FailPoints::Reset();
  CatalogSaveStats dry_stats;
  AddGammaAndSaveInPlace(&dry_stats);
  const uint64_t boundaries = FailPoints::TotalHits();
  FailPoints::Reset();
  ASSERT_TRUE(dry_stats.in_place)
      << "save fell back to the full rewrite; matrix target lost";
  ASSERT_GT(boundaries, 4u);

  bool saw_old = false;
  bool saw_new = false;
  for (uint64_t k = 0; k < boundaries; ++k) {
    RestoreBaseImage();
    int exit_code = RunChildCrashingAt(k, [&] {
      CatalogSaveStats stats;
      AddGammaAndSaveInPlace(&stats);
    });
    // Boundaries counted in the dry run include the parent-side load;
    // every k must still kill the child somewhere along load + save.
    ASSERT_EQ(exit_code, FailPoints::kCrashExitCode)
        << "boundary " << k << " of " << boundaries << " did not fire";
    ExpectOldOrNew(k, &saw_old, &saw_new);
  }
  EXPECT_TRUE(saw_old) << "no boundary left the old image";
  EXPECT_TRUE(saw_new) << "no boundary left the new image";
}

TEST_F(CrashMatrixCatalogTest, FullRewriteSaveIsOldOrNewAtEveryBoundary) {
  // The same matrix over the atomic-rewrite commit path (temp file +
  // rename + dirsync), which a compaction or foreign-path save takes.
  FailPoints::Reset();
  {
    auto catalog = Catalog::LoadFromFile(path_);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog->Add("gamma", MustShred(CorpusXml(3))).ok());
    ASSERT_TRUE(catalog->SaveToFile(path_).ok());  // full rewrite
  }
  const uint64_t boundaries = FailPoints::TotalHits();
  FailPoints::Reset();
  ASSERT_GT(boundaries, 4u);

  bool saw_old = false;
  bool saw_new = false;
  for (uint64_t k = 0; k < boundaries; ++k) {
    RestoreBaseImage();
    int exit_code = RunChildCrashingAt(k, [&] {
      auto catalog = Catalog::LoadFromFile(path_);
      if (!catalog.ok()) std::_Exit(4);
      if (!catalog->Add("gamma", MustShred(CorpusXml(3))).ok()) {
        std::_Exit(4);
      }
      catalog->SaveToFile(path_).ok();
    });
    ASSERT_EQ(exit_code, FailPoints::kCrashExitCode)
        << "boundary " << k << " of " << boundaries << " did not fire";
    ExpectOldOrNew(k, &saw_old, &saw_new);
  }
  EXPECT_TRUE(saw_old);
  EXPECT_TRUE(saw_new);
}

TEST_F(CrashMatrixCatalogTest, TornAppendTailsRestoreTheOldImage) {
  // Build the fully-appended image once, then hand-tear it: the old
  // bytes (unpatched header — the directory pointer still names the
  // old CTLG) plus every truncation of the appended region is exactly
  // the file a kill between append and pointer-patch leaves behind.
  CatalogSaveStats stats;
  AddGammaAndSaveInPlace(&stats);
  ASSERT_TRUE(stats.in_place);
  auto appended = util::ReadFileToString(path_);
  ASSERT_TRUE(appended.ok());
  ASSERT_GT(appended->size(), base_bytes_.size());
  const std::string tail = appended->substr(base_bytes_.size());

  std::vector<size_t> cuts = {0, 1, 7, tail.size() / 2,
                              tail.size() - 1, tail.size()};
  for (size_t cut : cuts) {
    ASSERT_TRUE(
        util::WriteFileAtomic(path_, base_bytes_ + tail.substr(0, cut))
            .ok());
    auto reopened = Catalog::LoadFromFile(path_);
    ASSERT_TRUE(reopened.ok())
        << "torn tail of " << cut << " bytes broke the reopen: "
        << reopened.status();
    EXPECT_EQ(reopened->size(), 2u) << "torn tail of " << cut
                                    << " bytes surfaced as committed";
    for (const NamedDocument* entry : reopened->entries()) {
      EXPECT_TRUE(reopened->Get(entry->name).ok());
    }
  }
}

#endif  // MEETXML_CRASH_MATRIX_SUPPORTED

#if !defined(MEETXML_CRASH_MATRIX_SUPPORTED)
TEST(CrashMatrix, SkippedOnThisPlatform) {
  GTEST_SKIP() << "fork-based crash matrix needs a unix platform";
}
#endif

}  // namespace
}  // namespace store
}  // namespace meetxml
