// Whole-file reads and atomic writes for the loaders and savers (XML
// parse, storage images): one open/read/error-report path instead of
// a copy per call site.

#ifndef MEETXML_UTIL_FILE_IO_H_
#define MEETXML_UTIL_FILE_IO_H_

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ios>
#include <iterator>
#include <string>
#include <string_view>

#include "util/failpoint.h"
#include "util/result.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define MEETXML_HAVE_FSYNC 1
#endif

namespace meetxml {
namespace util {

/// \brief Reads a file's entire contents into memory (binary mode).
/// A path that opens but cannot be read (a directory) is an
/// InvalidArgument, never an exception.
inline Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: ", path);
  std::string content;
  try {
    // libstdc++'s filebuf throws from underflow() when read(2) fails
    // (EISDIR on a directory), whatever the stream's exception mask.
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  } catch (const std::ios_base::failure& failure) {
    return Status::InvalidArgument("cannot read ", path, ": ",
                                   failure.what());
  }
  if (in.bad()) return Status::Internal("read failed: ", path);
  return content;
}

/// \brief Fsyncs the directory containing `path`, making a just-renamed
/// directory entry durable: POSIX only promises the *file* contents
/// survive a crash after fsync(fd); the entry that names it lives in
/// the parent directory and needs its own fsync, or a power cut right
/// after a successful WriteFileAtomic can silently resurrect the old
/// file (or nothing at all). No-op where fsync is unavailable.
inline Status FsyncDirectoryOf(const std::string& path) {
#if defined(MEETXML_HAVE_FSYNC)
  size_t slash = path.find_last_of('/');
  std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY);
  bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!synced || MEETXML_FAILPOINT_TRIGGERED("file_io.atomic.dirsync")) {
    return Status::Internal("cannot fsync directory of ", path);
  }
#else
  (void)path;
#endif
  return Status::OK();
}

/// \brief Writes `bytes` to `path` atomically: the data lands in a
/// uniquely named temporary sibling that is fsync'd and renamed over
/// the target, so readers never observe a torn file (even across a
/// crash right after the rename, and even when several savers race on
/// the same path — last rename wins with a complete image). On
/// platforms without POSIX rename-over semantics the old file is
/// removed first — a small visibility window, but never a torn file,
/// and no worse than the truncating overwrite it replaced. Crucially
/// for the zero-copy load path, overwriting an image that is currently
/// memory-mapped by a view-backed document replaces the directory
/// entry while the borrower keeps its mapping of the old inode.
/// (Truncating in place would SIGBUS every borrower.)
inline Status WriteFileAtomic(const std::string& path,
                              std::string_view bytes) {
  // Unique per process and per call, so concurrent savers never write
  // through the same temp file (a start-time tag stands in for the
  // pid where one isn't available).
  static std::atomic<uint64_t> counter{0};
  static const uint64_t process_tag =
#if defined(MEETXML_HAVE_FSYNC)
      static_cast<uint64_t>(::getpid());
#else
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  std::string tmp = path + ".tmp." + std::to_string(process_tag) + "." +
                    std::to_string(counter.fetch_add(1));
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  // Failpoint sites fire *after* the operation they name succeeds, so
  // a crash-armed site models "power cut just past this boundary".
  if (out == nullptr || MEETXML_FAILPOINT_TRIGGERED("file_io.atomic.open")) {
    if (out != nullptr) {
      std::fclose(out);
      std::remove(tmp.c_str());
    }
    return Status::NotFound("cannot open for write: ", tmp);
  }
  bool written =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  written = !MEETXML_FAILPOINT_TRIGGERED("file_io.atomic.write") && written;
  written = std::fflush(out) == 0 && written;
  written = !MEETXML_FAILPOINT_TRIGGERED("file_io.atomic.flush") && written;
#if defined(MEETXML_HAVE_FSYNC)
  // Durability before visibility: the rename must never install a file
  // whose data a crash could still lose.
  written = ::fsync(::fileno(out)) == 0 && written;
  written = !MEETXML_FAILPOINT_TRIGGERED("file_io.atomic.fsync") && written;
#endif
  written = std::fclose(out) == 0 && written;
  written = !MEETXML_FAILPOINT_TRIGGERED("file_io.atomic.close") && written;
  if (!written) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to ", tmp);
  }
#if !defined(MEETXML_HAVE_FSYNC)
  // std::rename cannot replace an existing destination everywhere
  // (Windows EEXIST): drop the old file first. Not atomic there, but
  // no worse than the in-place truncating write it replaced.
  std::remove(path.c_str());
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0 ||
      MEETXML_FAILPOINT_TRIGGERED("file_io.atomic.rename")) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename ", tmp, " over ", path);
  }
  // The rename made the new image visible; the parent-directory fsync
  // makes it durable. Without it a crash here can roll the directory
  // entry back to the old file even though the caller saw success.
  return FsyncDirectoryOf(path);
}

}  // namespace util
}  // namespace meetxml

#endif  // MEETXML_UTIL_FILE_IO_H_
