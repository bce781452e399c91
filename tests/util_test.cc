// Unit tests for util: Status/Result, string helpers, the deterministic
// RNG, file mapping, and ParallelFor with its helper pool.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/file_io.h"
#include "util/mmap_file.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/threads.h"

namespace meetxml {
namespace util {
namespace {

// ---- Status ---------------------------------------------------------

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_TRUE(status.message().empty());
}

TEST(Status, CarriesCodeAndMessage) {
  Status status = Status::NotFound("missing thing ", 42);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.message(), "missing thing 42");
  EXPECT_EQ(status.ToString(), "Not found: missing thing 42");
}

TEST(Status, ConcatenatesMixedPieces) {
  Status status = Status::InvalidArgument("x=", 1, ", y=", 2.5, " z");
  EXPECT_NE(status.message().find("x=1"), std::string::npos);
  EXPECT_NE(status.message().find("2.5"), std::string::npos);
}

TEST(Status, CopyAndMove) {
  Status original = Status::Internal("boom");
  Status copy = original;
  EXPECT_TRUE(copy.IsInternal());
  EXPECT_TRUE(original.IsInternal());
  Status moved = std::move(original);
  EXPECT_TRUE(moved.IsInternal());
}

TEST(Status, AllConstructorsSetPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("").IsNotFound());
  EXPECT_TRUE(Status::NotImplemented("").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("").IsInternal());
  EXPECT_TRUE(Status::ResourceExhausted("").IsResourceExhausted());
  EXPECT_TRUE(Status::UnexpectedEof("").IsUnexpectedEof());
}

TEST(Status, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    MEETXML_RETURN_NOT_OK(Status::NotFound("inner"));
    return Status::Internal("unreachable");
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto passes = []() -> Status {
    MEETXML_RETURN_NOT_OK(Status::OK());
    return Status::OK();
  };
  EXPECT_TRUE(passes().ok());
}

// ---- Result ----------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> result(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_TRUE(result.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> result(Status::NotFound("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_EQ(std::move(result).ValueOr(-1), -1);
}

TEST(Result, ValueOrReturnsValueWhenOk) {
  Result<std::string> result(std::string("hello"));
  EXPECT_EQ(std::move(result).ValueOr("fallback"), "hello");
}

TEST(Result, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(3));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).ValueOrDie();
  EXPECT_EQ(*owned, 3);
}

TEST(Result, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::InvalidArgument("bad");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    MEETXML_ASSIGN_OR_RETURN(int value, inner(fail));
    return value * 2;
  };
  EXPECT_EQ(*outer(false), 10);
  EXPECT_TRUE(outer(true).status().IsInvalidArgument());
}

// ---- Strings ----------------------------------------------------------

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("bibliography", "bib"));
  EXPECT_FALSE(StartsWith("bib", "bibliography"));
  EXPECT_TRUE(EndsWith("path/cdata", "cdata"));
  EXPECT_FALSE(EndsWith("cdata", "path/cdata"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(Strings, Contains) {
  EXPECT_TRUE(Contains("Hacking & RSI", "&"));
  EXPECT_FALSE(Contains("Hacking", "hack"));  // case-sensitive
  EXPECT_TRUE(Contains("abc", ""));
}

TEST(Strings, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("Hacking", "hack"));
  EXPECT_TRUE(ContainsIgnoreCase("ICDE 1999", "icde"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abcd"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(Strings, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("MiXeD 123"), "mixed 123");
}

TEST(Strings, Split) {
  auto parts = Split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");  // empty pieces kept
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(Strings, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

TEST(Strings, Join) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(Join(std::vector<std::string>{}, "/"), "");
}

TEST(Strings, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("1999"));
  EXPECT_FALSE(IsAllDigits("19a9"));
  EXPECT_FALSE(IsAllDigits(""));
}

// ---- Rng -----------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 5000.0, 0.5, 0.03);
}

TEST(Rng, NextBoolRespectsProbability) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.2) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.2, 0.03);
}

TEST(Rng, NextWordShape) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    std::string word = rng.NextWord(3, 8);
    EXPECT_GE(word.size(), 3u);
    EXPECT_LE(word.size(), 8u);
    for (char c : word) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(Rng, NextGeometricRespectsCap) {
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(rng.NextGeometric(0.9, 5), 5);
  }
  // p=0 -> always 0.
  EXPECT_EQ(rng.NextGeometric(0.0, 5), 0);
}

TEST(Rng, PortableStream) {
  // Guards dataset reproducibility: the first outputs for seed 42 are
  // pinned. If this test ever fails, generated corpora changed.
  Rng rng(42);
  EXPECT_EQ(rng.Next64(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(rng.Next64(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(rng.Next64(), 0xae17533239e499a1ULL);
}

TEST(Strings, GlobMatch) {
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("dblp", "dblp"));
  EXPECT_FALSE(GlobMatch("dblp", "dblp2"));
  EXPECT_TRUE(GlobMatch("dblp*", "dblp_1999"));
  EXPECT_FALSE(GlobMatch("dblp*", "mm_dblp"));
  EXPECT_TRUE(GlobMatch("*_1999", "dblp_1999"));
  EXPECT_TRUE(GlobMatch("d?lp", "dblp"));
  EXPECT_FALSE(GlobMatch("d?lp", "dlp"));
  EXPECT_TRUE(GlobMatch("*a*b*", "xxaxxbxx"));
  EXPECT_FALSE(GlobMatch("*a*b*", "xxbxxaxx"));
  EXPECT_TRUE(GlobMatch("**", "x"));
  EXPECT_FALSE(GlobMatch("", "x"));
  EXPECT_TRUE(GlobMatch("", ""));
  // Case-sensitive, like document names.
  EXPECT_FALSE(GlobMatch("DBLP*", "dblp_1999"));
}

TEST(MmapFile, MapsFileContents) {
  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_mmap_test.bin")
          .string();
  const std::string content("mapped bytes \0 with nul", 23);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
  }
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file->bytes(), content);  // NUL byte and all
  std::filesystem::remove(path);
}

TEST(MmapFile, EmptyFileIsRejectedWithAClearMessage) {
  // An empty file can never be a valid image; rejecting it at open
  // time beats a decoder's "bad magic".
  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_mmap_empty.bin")
          .string();
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  auto file = MmapFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_NE(file.status().message().find("empty"), std::string::npos)
      << file.status();
  EXPECT_NE(file.status().message().find(path), std::string::npos)
      << file.status();
  std::filesystem::remove(path);
}

TEST(MmapFile, MissingFileIsNotFoundWithErrnoText) {
  auto file = MmapFile::Open("/nonexistent/path/nothing.bin");
  ASSERT_FALSE(file.ok());
  EXPECT_TRUE(file.status().IsNotFound());
  // The message names the path and carries the strerror text.
  EXPECT_NE(file.status().message().find("/nonexistent/path/nothing.bin"),
            std::string::npos)
      << file.status();
  EXPECT_NE(file.status().message().find("No such file"),
            std::string::npos)
      << file.status();
}

TEST(MmapFile, AdviseIsBestEffortOnEveryState) {
  // Advise must be callable on mapped, buffered and default-constructed
  // files alike — it is a hint, never an error path.
  MmapFile unopened;
  unopened.Advise(MmapFile::Advice::kWillNeed);

  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_mmap_advise.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "some bytes";
  }
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  file->Advise(MmapFile::Advice::kWillNeed);
  file->Advise(MmapFile::Advice::kRandom);
  file->Advise(MmapFile::Advice::kSequential);
  file->Advise(MmapFile::Advice::kNormal);
  EXPECT_EQ(file->bytes(), "some bytes");
  std::filesystem::remove(path);
}

TEST(MmapFile, OpenSharedPinsTheMappingAcrossOwners) {
  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_mmap_shared.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "pinned";
  }
  auto shared = MmapFile::OpenShared(path);
  ASSERT_TRUE(shared.ok()) << shared.status();
  std::shared_ptr<const MmapFile> borrower = *shared;
  shared->reset();  // the original handle goes away...
  EXPECT_EQ(borrower->bytes(), "pinned");  // ...the borrower still reads
  std::filesystem::remove(path);
}

TEST(WriteFileAtomic, ReplacesContentAndLeavesNoTempBehind) {
  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_atomic.bin")
          .string();
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second");
  // No temp sibling (path.tmp.<pid>.<n>) survives a successful write.
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    EXPECT_EQ(
        entry.path().filename().string().rfind("meetxml_atomic.bin.tmp", 0),
        std::string::npos)
        << entry.path();
  }
  std::filesystem::remove(path);
}

TEST(WriteFileAtomic, KeepsAnExistingMappingAlive) {
  // The rename-over contract: overwriting a mapped file must not
  // disturb borrowers of the old inode — the foundation under saving
  // a view-backed store to its own path.
  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_atomic_map.bin")
          .string();
  ASSERT_TRUE(WriteFileAtomic(path, "old contents").ok());
  auto mapped = MmapFile::OpenShared(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new contents").ok());
  EXPECT_EQ((*mapped)->bytes(), "old contents");
  auto reread = ReadFileToString(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(*reread, "new contents");
  std::filesystem::remove(path);
}

TEST(MmapFile, MoveTransfersTheMapping) {
  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_mmap_move.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "payload";
  }
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  MmapFile moved = std::move(*file);
  EXPECT_EQ(moved.bytes(), "payload");
  std::filesystem::remove(path);
}

// ---- threads --------------------------------------------------------

TEST(ResolveThreads, ZeroMeansHardwareParallelismNeverLessThanOne) {
  // hardware_concurrency() may return 0; the resolved count never may.
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(0),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ResolveThreads, ExplicitRequestsAreTakenVerbatim) {
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(3), 3u);
  EXPECT_EQ(ResolveThreads(64), 64u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  unsigned workers = ParallelFor(kCount, 4, [&hits](size_t i) {
    hits[i].fetch_add(1);
  });
  EXPECT_GE(workers, 1u);
  EXPECT_LE(workers, 4u);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, DegeneratesGracefully) {
  // Empty range: no workers, body never called.
  bool called = false;
  EXPECT_EQ(ParallelFor(0, 8, [&called](size_t) { called = true; }), 0u);
  EXPECT_FALSE(called);
  // One item on many threads: runs inline on one worker.
  size_t seen = 123;
  EXPECT_EQ(ParallelFor(1, 8, [&seen](size_t i) { seen = i; }), 1u);
  EXPECT_EQ(seen, 0u);
  // Serial pin: exactly one worker regardless of count.
  int ran = 0;
  EXPECT_EQ(ParallelFor(10, 1, [&ran](size_t) { ++ran; }), 1u);
  EXPECT_EQ(ran, 10);
}

TEST(ParallelFor, NestedCallInsideABodyCompletes) {
  // The inner call may find every helper busy with the outer one; its
  // caller then runs the inner items itself instead of waiting.
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(kOuter, 4, [&hits](size_t i) {
    ParallelFor(kInner, 4, [&hits, i](size_t j) {
      hits[i * kInner + j].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, MoreCallersThanHelpersEachCoverEveryIndexOnce) {
  constexpr size_t kCallers = 8;
  constexpr size_t kCount = 500;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& caller_hits : hits) {
    caller_hits = std::vector<std::atomic<int>>(kCount);
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      for (int round = 0; round < kRounds; ++round) {
        EXPECT_EQ(ParallelFor(kCount, 4,
                              [&hits, c](size_t i) {
                                hits[c][i].fetch_add(1);
                              }),
                  4u);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[c][i].load(), kRounds) << "caller " << c << " index "
                                            << i;
    }
  }
}

TEST(ParallelFor, ExplicitWidthGetsThatManyWorkersOnAnyMachine) {
  // The catalog decode pins an 8-wide run even on fewer cores; the
  // pool grows to hold the seven helpers that takes.
  std::mutex mu;
  std::set<std::thread::id> ran_on;
  EXPECT_EQ(ParallelFor(64, 8,
                        [&](size_t) {
                          std::lock_guard<std::mutex> lock(mu);
                          ran_on.insert(std::this_thread::get_id());
                        }),
            8u);
  EXPECT_GE(ThreadsStarted(), 7u);
  EXPECT_LE(ran_on.size(), 8u);
  // The pool never shrinks and a narrower call never grows it.
  const uint64_t started = ThreadsStarted();
  EXPECT_EQ(ParallelFor(64, 4, [](size_t) {}), 4u);
  EXPECT_EQ(ThreadsStarted(), started);
}

TEST(ParallelFor, SaturatedPoolStillReturnsOnlyAfterEveryIndexFinished) {
  // Park every helper (and one caller) in a blocking body, then run a
  // call of its own: it gets no helper, so its caller runs the items,
  // and the blocked call still waits for the items its helpers hold.
  const unsigned width = ResolveThreads(0) + 3;
  std::atomic<unsigned> parked{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<std::atomic<int>> parked_done(width);
  size_t unfinished_at_return = 0;
  std::thread saturate([&] {
    const std::thread::id blocked_caller = std::this_thread::get_id();
    ParallelFor(width, width, [&](size_t i) {
      parked.fetch_add(1);
      released.wait();
      // Helpers finish well after the caller's own item.
      if (std::this_thread::get_id() != blocked_caller) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      parked_done[i].store(1);
    });
    for (unsigned i = 0; i < width; ++i) {
      if (parked_done[i].load() != 1) ++unfinished_at_return;
    }
  });
  // In a fresh process every helper is idle and parks. A helper still
  // idling back from an earlier test in the same process can miss the
  // call; its share then waits on the blocked caller, so stop waiting
  // for full saturation after a while rather than hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (parked.load() < width &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const uint64_t started = ThreadsStarted();

  const std::thread::id caller = std::this_thread::get_id();
  constexpr size_t kCount = 64;
  std::vector<std::atomic<int>> done(kCount);
  EXPECT_EQ(ParallelFor(kCount, 4,
                        [&](size_t i) {
                          // Items off the caller finish late.
                          if (std::this_thread::get_id() != caller) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                          }
                          done[i].store(1);
                        }),
            4u);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(done[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(ThreadsStarted(), started);

  release.set_value();
  saturate.join();
  EXPECT_EQ(unfinished_at_return, 0u);
}

}  // namespace
}  // namespace util
}  // namespace meetxml
