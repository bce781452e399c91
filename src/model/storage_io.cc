#include "model/storage_io.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <span>

#include "util/byte_io.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/mmap_file.h"

namespace meetxml {
namespace model {

using util::ByteReader;
using util::ByteWriter;
using util::Result;
using util::Status;

namespace {

constexpr char kMagic[4] = {'M', 'X', 'M', '2'};
// The one minor revision written and read: DOC2 sections (the derived
// structures are rebuilt at load, never stored) behind a trailing,
// patchable directory.
constexpr uint32_t kMinor = 7;
// Fixed header size: magic + u32 minor + u64 dir_offset. Sections
// start at or after this offset.
constexpr uint64_t kHeaderSize = 16;
// Corruption guard: a directory claiming more sections than this is
// rejected before any allocation happens. Sized for catalogs of a few
// ten-thousand documents (2 sections each: DOC2 + TIDX); at 28
// directory bytes per section the worst-case pre-validation allocation
// stays under 2 MB.
constexpr uint32_t kMaxSections = 65536;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// Section and directory checksum: FNV-1a steps over 8-byte chunks in
// four interleaved lanes, lanes folded and the tail absorbed
// byte-wise. Byte-serial FNV-1a is latency-bound at one multiply per
// byte (~0.5 GB/s) and would cost more than the columnar decode it
// guards; the four independent lanes run at memory speed while any
// flipped chunk still lands in its lane and survives the fold into the
// final 64-bit compare.
uint64_t Checksum(std::string_view bytes) {
  uint64_t lanes[4] = {kFnvOffset, kFnvOffset ^ 1, kFnvOffset ^ 2,
                       kFnvOffset ^ 3};
  const char* data = bytes.data();
  size_t size = bytes.size();
  size_t at = 0;
  for (; at + 32 <= size; at += 32) {
    for (int lane = 0; lane < 4; ++lane) {
      uint64_t chunk;
      std::memcpy(&chunk, data + at + lane * 8, 8);
      lanes[lane] = (lanes[lane] ^ chunk) * kFnvPrime;
    }
  }
  uint64_t hash = kFnvOffset;
  for (uint64_t lane : lanes) hash = (hash ^ lane) * kFnvPrime;
  for (; at < size; ++at) {
    hash ^= static_cast<unsigned char>(data[at]);
    hash *= kFnvPrime;
  }
  return hash;
}

// The DOC2 codec memcpys (or views) whole integer columns; these
// pin the in-memory element widths and byte order the raw
// little-endian arrays assume (big-endian hosts would need byte swaps
// here).
static_assert(sizeof(Oid) == 4 && sizeof(PathId) == 4 && sizeof(int) == 4,
              "columnar payloads assume 4-byte node columns");
static_assert(std::endian::native == std::endian::little,
              "columnar payloads memcpy little-endian columns");

// Reinterprets an integer column as its raw byte image (the writer
// side of the memcpy-decodable columnar arrays).
template <typename T>
std::string_view ColumnBytes(std::span<const T> column) {
  return std::string_view(reinterpret_cast<const char*>(column.data()),
                          column.size() * sizeof(T));
}

// Reads `count` little-endian u32 values into a 4-byte-element vector
// with a single bounds check and a single memcpy.
template <typename T>
Result<std::vector<T>> ReadU32Column(ByteReader* reader, size_t count) {
  MEETXML_ASSIGN_OR_RETURN(std::string_view raw, reader->View(count * 4));
  std::vector<T> column(count);
  std::memcpy(column.data(), raw.data(), raw.size());
  return column;
}

// Reinterprets the next `count` u32 values as a typed span over the
// image — the zero-copy read. Callers guarantee 4-byte alignment
// (DOC2 pads for it; the decoder checks the base pointer).
template <typename T>
Result<std::span<const T>> ViewU32Column(ByteReader* reader, size_t count) {
  MEETXML_ASSIGN_OR_RETURN(std::string_view raw, reader->View(count * 4));
  return std::span<const T>(reinterpret_cast<const T*>(raw.data()), count);
}

// --- DOC2: the document payload ----------------------------------------

void SerializePathSummary(const PathSummary& paths, ByteWriter* payload) {
  // In id order (parents first by construction).
  payload->U32(static_cast<uint32_t>(paths.size()));
  for (PathId id = 0; id < paths.size(); ++id) {
    payload->U32(paths.parent(id));
    payload->U8(static_cast<uint8_t>(paths.kind(id)));
    payload->StrU32(paths.label(id));
  }
}

Result<uint32_t> ParsePathSummary(ByteReader* reader, StoredDocument* doc) {
  PathSummary* paths = doc->mutable_paths();
  MEETXML_ASSIGN_OR_RETURN(uint32_t path_count, reader->U32());
  for (uint32_t i = 0; i < path_count; ++i) {
    MEETXML_ASSIGN_OR_RETURN(uint32_t parent, reader->U32());
    MEETXML_ASSIGN_OR_RETURN(uint8_t kind, reader->U8());
    MEETXML_ASSIGN_OR_RETURN(std::string_view label, reader->StrViewU32());
    if (parent != bat::kInvalidPathId && parent >= i) {
      return Status::InvalidArgument(
          "corrupt image: path parent out of order");
    }
    if (kind > static_cast<uint8_t>(StepKind::kCdata)) {
      return Status::InvalidArgument("corrupt image: bad step kind");
    }
    PathId interned =
        paths->Intern(parent, static_cast<StepKind>(kind), label);
    if (interned != i) {
      return Status::InvalidArgument(
          "corrupt image: duplicate path entry");
    }
  }
  return path_count;
}

std::string SerializeDocumentPayload(const StoredDocument& doc) {
  ByteWriter payload;
  SerializePathSummary(doc.paths(), &payload);
  // Pad so every raw u32 column below lands on a 4-byte payload offset
  // (the container aligns the payload itself); after the path summary
  // and after each variable-length blob are the only two spots where
  // alignment can break.
  payload.AlignTo4();
  // Node columns as raw arrays — the reader memcpys (or views) them.
  payload.U32(static_cast<uint32_t>(doc.node_count()));
  payload.Bytes(ColumnBytes(doc.parent_column()));
  payload.Bytes(ColumnBytes(doc.path_column()));
  payload.Bytes(ColumnBytes(doc.rank_column()));
  // String relations grouped by path, in first-append order so a
  // loaded document re-serializes byte-identically.
  payload.U32(static_cast<uint32_t>(doc.string_count()));
  payload.U32(static_cast<uint32_t>(doc.string_paths().size()));
  for (PathId path : doc.string_paths()) {
    const bat::StrBat& table = doc.StringsAt(path);
    payload.U32(path);
    payload.U32(static_cast<uint32_t>(table.size()));
    payload.Bytes(ColumnBytes(table.heads()));
    // The append-order permutation column.
    payload.Bytes(ColumnBytes(doc.StringSeqAt(path)));
    payload.Bytes(ColumnBytes(table.tail_ends()));
    payload.Bytes(table.tail_blob());
    payload.AlignTo4();
  }
  return payload.Take();
}

}  // namespace

Result<StoredDocument> ParseDocumentSection(std::string_view payload,
                                            const LoadOptions& options) {
  // A view-mode decode borrows only from a 4-byte aligned base (the
  // framed offsets take care of the rest). In-memory buffers and
  // mapped files are always suitably aligned in practice; the check is
  // the safety net that turns an exotic caller into a silent copy
  // instead of undefined behavior.
  bool view = options.mode == LoadMode::kView &&
              reinterpret_cast<uintptr_t>(payload.data()) % 4 == 0;
  bool defer = options.defer_validation;
  uint64_t borrowed = 0;  // column/blob bytes served as views
  uint64_t copied = 0;    // column/blob bytes memcpy'd out of the image
  ByteReader reader(payload);
  StoredDocument doc;
  MEETXML_ASSIGN_OR_RETURN(uint32_t path_count,
                           ParsePathSummary(&reader, &doc));
  (void)path_count;  // the adopt calls re-check against paths().
  MEETXML_RETURN_NOT_OK(reader.AlignTo4());

  MEETXML_ASSIGN_OR_RETURN(uint32_t node_count, reader.U32());
  // Guard before allocating: three 4-byte columns per node.
  if (node_count > reader.remaining() / 12) {
    return Status::InvalidArgument("corrupt image: node count");
  }
  Status adopted = Status::OK();
  if (view) {
    MEETXML_ASSIGN_OR_RETURN(std::span<const Oid> parents,
                             ViewU32Column<Oid>(&reader, node_count));
    MEETXML_ASSIGN_OR_RETURN(std::span<const PathId> node_paths,
                             ViewU32Column<PathId>(&reader, node_count));
    MEETXML_ASSIGN_OR_RETURN(std::span<const int> ranks,
                             ViewU32Column<int>(&reader, node_count));
    adopted = doc.AdoptNodeColumnViews(parents, node_paths, ranks);
    borrowed += uint64_t{12} * node_count;
  } else {
    MEETXML_ASSIGN_OR_RETURN(std::vector<Oid> parents,
                             ReadU32Column<Oid>(&reader, node_count));
    MEETXML_ASSIGN_OR_RETURN(std::vector<PathId> node_paths,
                             ReadU32Column<PathId>(&reader, node_count));
    MEETXML_ASSIGN_OR_RETURN(std::vector<int> ranks,
                             ReadU32Column<int>(&reader, node_count));
    adopted = doc.AdoptNodeColumns(std::move(parents), std::move(node_paths),
                                   std::move(ranks));
    copied += uint64_t{12} * node_count;
  }
  if (!adopted.ok()) {
    return Status::InvalidArgument("corrupt image: ", adopted.message());
  }

  MEETXML_ASSIGN_OR_RETURN(uint32_t total_strings, reader.U32());
  MEETXML_ASSIGN_OR_RETURN(uint32_t group_count, reader.U32());
  // Every string row costs at least 12 bytes across its three columns,
  // every group at least 8 bytes of framing; reject impossible counts
  // before the permutation bitmap allocates.
  if (total_strings > reader.remaining() / 12 ||
      group_count > reader.remaining() / 8) {
    return Status::InvalidArgument("corrupt image: string counts");
  }
  // The append-order permutation scan — the deep per-row check a
  // deferring load hangs on the validation gate instead.
  std::vector<bool> seq_seen(defer ? 0 : total_strings, false);
  uint64_t rows_total = 0;
  for (uint32_t g = 0; g < group_count; ++g) {
    MEETXML_ASSIGN_OR_RETURN(uint32_t path, reader.U32());
    MEETXML_ASSIGN_OR_RETURN(uint32_t rows, reader.U32());
    if (rows == 0 || rows > reader.remaining() / 12) {
      return Status::InvalidArgument("corrupt image: string row count");
    }
    // The three columns and the blob are framed identically in both
    // modes; view the ranges first, validate the permutation, then
    // either borrow them outright or copy them into owned storage.
    MEETXML_ASSIGN_OR_RETURN(std::string_view owners_raw,
                             reader.View(uint64_t{rows} * 4));
    MEETXML_ASSIGN_OR_RETURN(std::string_view seq_raw,
                             reader.View(uint64_t{rows} * 4));
    MEETXML_ASSIGN_OR_RETURN(std::string_view ends_raw,
                             reader.View(uint64_t{rows} * 4));
    uint32_t blob_size;
    std::memcpy(&blob_size, ends_raw.data() + (uint64_t{rows} - 1) * 4, 4);
    MEETXML_ASSIGN_OR_RETURN(std::string_view blob,
                             reader.View(blob_size));
    MEETXML_RETURN_NOT_OK(reader.AlignTo4());
    if (!defer) {
      for (uint32_t r = 0; r < rows; ++r) {
        uint32_t seq;
        std::memcpy(&seq, seq_raw.data() + uint64_t{r} * 4, 4);
        if (seq >= total_strings || seq_seen[seq]) {
          return Status::InvalidArgument(
              "corrupt image: string order is not a permutation");
        }
        seq_seen[seq] = true;
      }
    }
    ColumnChecks checks =
        defer ? ColumnChecks::kFramingOnly : ColumnChecks::kFull;
    Status adopted_strings = Status::OK();
    if (view) {
      adopted_strings = doc.AdoptStringRelationViews(
          path,
          std::span<const Oid>(
              reinterpret_cast<const Oid*>(owners_raw.data()), rows),
          std::span<const uint32_t>(
              reinterpret_cast<const uint32_t*>(ends_raw.data()), rows),
          blob,
          std::span<const uint32_t>(
              reinterpret_cast<const uint32_t*>(seq_raw.data()), rows),
          checks);
      borrowed += uint64_t{12} * rows + blob.size();
    } else {
      std::vector<Oid> owners(rows);
      std::memcpy(owners.data(), owners_raw.data(), owners_raw.size());
      std::vector<uint32_t> seq(rows);
      std::memcpy(seq.data(), seq_raw.data(), seq_raw.size());
      std::vector<uint32_t> ends(rows);
      std::memcpy(ends.data(), ends_raw.data(), ends_raw.size());
      adopted_strings = doc.AdoptStringRelation(
          path, std::move(owners), std::move(ends), std::string(blob),
          std::move(seq), checks);
      copied += uint64_t{12} * rows + blob.size();
    }
    if (!adopted_strings.ok()) {
      return Status::InvalidArgument("corrupt image: ",
                                     adopted_strings.message());
    }
    rows_total += rows;
  }
  if (rows_total != total_strings) {
    return Status::InvalidArgument(
        "corrupt image: string order is not a permutation");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in storage image");
  }

  // Derive the children CSR, edge relations and sortedness flags from
  // the adopted columns — the same code the shredders run. The node
  // columns were checked (root, parent order, path ranges) in every
  // mode, so derivation never reads unchecked structure.
  Status finalized = doc.Finalize();
  if (!finalized.ok()) {
    return Status::InvalidArgument("corrupt image: ", finalized.message());
  }
  if (defer) doc.MarkUnvalidated();
  if (view) doc.PinBacking(options.backing);
  if (options.stats != nullptr) {
    options.stats->bytes_copied += copied;
    options.stats->bytes_viewed += borrowed;
    options.stats->mode_used = view ? LoadMode::kView : LoadMode::kCopy;
  }
  return doc;
}

namespace {

// Serializes a directory (count + entries, without its
// trailing checksum field) — shared by the full writer and the
// in-place appender so the two always publish identical framing.
std::string SerializeDirectory(const std::vector<SectionPlacement>& entries) {
  ByteWriter dir;
  dir.U32(static_cast<uint32_t>(entries.size()));
  for (const SectionPlacement& entry : entries) {
    dir.U32(entry.id);
    dir.U64(entry.offset);
    dir.U64(entry.size);
    dir.U64(entry.checksum);
  }
  return dir.Take();
}

// Shared container writer; takes pointers so callers can mix owned
// and borrowed sections without copying payloads. Layout: header with
// a directory pointer, 4-aligned payloads, then the checksummed
// directory. The pointer is patched last — the same single-word commit
// an in-place rewrite uses.
Result<std::string> WriteContainer(
    const std::vector<const ImageSection*>& sections) {
  if (sections.empty() || sections.size() > kMaxSections) {
    return Status::InvalidArgument("bad section count: ", sections.size());
  }
  ByteWriter header;
  for (char c : kMagic) header.U8(static_cast<uint8_t>(c));
  header.U32(kMinor);
  header.U64(0);  // dir_offset, patched below
  std::string image = header.Take();
  std::vector<SectionPlacement> placements;
  placements.reserve(sections.size());
  for (const ImageSection* section : sections) {
    while (image.size() % 4 != 0) image.push_back('\0');
    placements.push_back(SectionPlacement{section->id, image.size(),
                                          section->bytes.size(),
                                          Checksum(section->bytes)});
    image += section->bytes;
  }
  while (image.size() % 4 != 0) image.push_back('\0');
  uint64_t dir_offset = image.size();
  std::string dir_bytes = SerializeDirectory(placements);
  image += dir_bytes;
  ByteWriter tail;
  tail.U64(Checksum(dir_bytes));
  image += tail.Take();
  std::memcpy(image.data() + 8, &dir_offset, 8);
  return image;
}

}  // namespace

Result<std::string> SerializeDocumentSection(const StoredDocument& doc) {
  if (!doc.finalized()) {
    return Status::InvalidArgument(
        "only finalized documents can be saved");
  }
  return SerializeDocumentPayload(doc);
}

Result<std::string> SaveSectionsToBytes(
    const std::vector<ImageSection>& sections) {
  std::vector<const ImageSection*> pointers;
  pointers.reserve(sections.size());
  for (const ImageSection& section : sections) pointers.push_back(&section);
  return WriteContainer(pointers);
}

Result<std::string> SaveToBytes(const StoredDocument& doc,
                                const SaveOptions& options) {
  if (!doc.finalized()) {
    return Status::InvalidArgument(
        "only finalized documents can be saved");
  }
  // Reject images the loader itself would refuse: too many sections, a
  // stray document section or duplicate ids must fail at write time,
  // not at the next restart.
  if (options.extra_sections.size() > kMaxSections - 1) {
    return Status::InvalidArgument("too many sections: ",
                                   options.extra_sections.size() + 1);
  }
  for (size_t i = 0; i < options.extra_sections.size(); ++i) {
    if (options.extra_sections[i].id == kDocumentSectionId) {
      return Status::InvalidArgument(
          "extra sections cannot use the document section id");
    }
    for (size_t j = 0; j < i; ++j) {
      if (options.extra_sections[j].id == options.extra_sections[i].id) {
        return Status::InvalidArgument("duplicate section id ",
                                       options.extra_sections[i].id);
      }
    }
  }

  ImageSection document_section{kDocumentSectionId,
                                SerializeDocumentPayload(doc)};
  std::vector<const ImageSection*> pointers;
  pointers.reserve(1 + options.extra_sections.size());
  pointers.push_back(&document_section);
  for (const ImageSection& section : options.extra_sections) {
    pointers.push_back(&section);
  }
  return WriteContainer(pointers);
}

Result<SectionImage> LoadSectionsFromBytes(
    std::string_view bytes, const SectionScanOptions& options) {
  ByteReader reader(bytes);
  MEETXML_ASSIGN_OR_RETURN(std::string_view magic, reader.View(4));
  if (magic.substr(0, 3) != "MXM") {
    return Status::InvalidArgument("not a meetxml storage image");
  }
  // Policy: one layout is read, and nothing else. Retired magics and
  // minors fail here, before any framing or payload is looked at.
  if (magic != std::string_view(kMagic, 4)) {
    return Status::InvalidArgument("unsupported storage version ", magic,
                                   " (this reader opens MXM2 minor ",
                                   kMinor, " only)");
  }
  MEETXML_ASSIGN_OR_RETURN(uint32_t version, reader.U32());
  if (version != kMinor) {
    return Status::InvalidArgument("unsupported storage version MXM2 minor ",
                                   version, " (this reader opens MXM2 minor ",
                                   kMinor, " only)");
  }

  // Seek to the directory, verify its own checksum (the one framing
  // check that always runs — the scan never trusts unchecked
  // structure), then bounds-check every entry. Gaps between payloads
  // and bytes after the directory are dead space by design (alignment
  // padding, superseded sections of an in-place rewrite, an
  // interrupted append) and carry no checksum.
  MEETXML_ASSIGN_OR_RETURN(uint64_t dir_offset, reader.U64());
  if (dir_offset < kHeaderSize || dir_offset % 4 != 0 ||
      dir_offset > bytes.size() || bytes.size() - dir_offset < 12) {
    return Status::InvalidArgument("corrupt image: bad directory offset");
  }
  ByteReader dir(bytes);
  dir.set_pos(static_cast<size_t>(dir_offset));
  MEETXML_ASSIGN_OR_RETURN(uint32_t section_count, dir.U32());
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::InvalidArgument("corrupt image: section count ",
                                   section_count);
  }
  std::vector<SectionPlacement> directory(section_count);
  for (SectionPlacement& entry : directory) {
    MEETXML_ASSIGN_OR_RETURN(entry.id, dir.U32());
    MEETXML_ASSIGN_OR_RETURN(entry.offset, dir.U64());
    MEETXML_ASSIGN_OR_RETURN(entry.size, dir.U64());
    MEETXML_ASSIGN_OR_RETURN(entry.checksum, dir.U64());
  }
  size_t dir_end = dir.pos();
  MEETXML_ASSIGN_OR_RETURN(uint64_t dir_checksum, dir.U64());
  std::string_view dir_bytes =
      bytes.substr(static_cast<size_t>(dir_offset), dir_end - dir_offset);
  if (Checksum(dir_bytes) != dir_checksum) {
    return Status::InvalidArgument(
        "corrupt image: directory checksum mismatch");
  }
  SectionImage image;
  image.dir_offset = dir_offset;
  image.sections.reserve(section_count);
  for (const SectionPlacement& entry : directory) {
    if (entry.offset < kHeaderSize || entry.offset % 4 != 0 ||
        entry.offset > dir_offset ||
        entry.size > dir_offset - entry.offset) {
      return Status::InvalidArgument("corrupt image: section overruns");
    }
    std::string_view payload = bytes.substr(
        static_cast<size_t>(entry.offset), static_cast<size_t>(entry.size));
    if (options.verify_checksums && Checksum(payload) != entry.checksum) {
      return Status::InvalidArgument("storage image checksum mismatch");
    }
    image.sections.push_back(
        SectionView{entry.id, payload, entry.offset, entry.checksum});
  }
  return image;
}

Status VerifySectionChecksum(const SectionView& section) {
  if (Checksum(section.bytes) != section.checksum) {
    return Status::InvalidArgument("storage image checksum mismatch");
  }
  return Status::OK();
}

Result<LoadedImage> LoadImageFromBytes(std::string_view bytes,
                                       const LoadOptions& options) {
  MEETXML_ASSIGN_OR_RETURN(SectionImage raw, LoadSectionsFromBytes(bytes));
  LoadedImage image;
  const SectionView* doc_section = nullptr;
  for (const SectionView& section : raw.sections) {
    if (section.id == kDocumentSectionId) {
      if (doc_section != nullptr) {
        return Status::InvalidArgument(
            "corrupt image: duplicate document section");
      }
      doc_section = &section;
    } else {
      // Forward compatibility: unknown sections are preserved verbatim
      // for higher layers (or newer readers) to interpret.
      image.extra_sections.push_back(
          ImageSection{section.id, std::string(section.bytes)});
    }
  }
  if (doc_section == nullptr) {
    return Status::InvalidArgument("corrupt image: no document section");
  }
  MEETXML_ASSIGN_OR_RETURN(image.doc,
                           ParseDocumentSection(doc_section->bytes, options));
  return image;
}

Result<StoredDocument> LoadFromBytes(std::string_view bytes,
                                     const LoadOptions& options) {
  MEETXML_ASSIGN_OR_RETURN(LoadedImage image,
                           LoadImageFromBytes(bytes, options));
  return std::move(image.doc);
}

Status SaveToFile(const StoredDocument& doc, const std::string& path,
                  const SaveOptions& options) {
  MEETXML_ASSIGN_OR_RETURN(std::string bytes, SaveToBytes(doc, options));
  return util::WriteFileAtomic(path, bytes);
}

Result<StoredDocument> LoadFromFile(const std::string& path,
                                    const LoadOptions& options) {
  MEETXML_ASSIGN_OR_RETURN(LoadedImage image,
                           LoadImageFromFile(path, options));
  return std::move(image.doc);
}

Result<AppendStats> AppendSectionsToFile(
    const std::string& path, uint64_t expected_size,
    uint64_t expected_dir_offset,
    const std::vector<PendingSection>& sections) {
  if (sections.empty() || sections.size() > kMaxSections) {
    return Status::InvalidArgument("bad section count: ", sections.size());
  }
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return Status::NotFound("cannot open storage image: ", path);
  }
  auto fail = [&file](Status status) {
    std::fclose(file);
    return status;
  };
  // Crash-matrix boundary "opened, nothing appended yet": a kill here
  // must reopen as the unmodified old image.
  if (MEETXML_FAILPOINT_TRIGGERED("storage.append.begin")) {
    return fail(Status::Internal("injected failure opening ", path));
  }
  // Fence: the on-disk image must still be exactly the one the caller
  // planned against — magic, minor, the directory
  // pointer, and the file size all verbatim — so kept placements and
  // the commit patch stay valid.
  char header[kHeaderSize];
  if (std::fread(header, 1, sizeof header, file) != sizeof header) {
    return fail(Status::InvalidArgument("storage image truncated: ", path));
  }
  if (std::memcmp(header, kMagic, 4) != 0) {
    return fail(Status::InvalidArgument("bad magic in ", path));
  }
  uint32_t minor;
  std::memcpy(&minor, header + 4, 4);
  if (minor != kMinor) {
    return fail(Status::InvalidArgument(
        "unsupported storage version MXM2 minor ", minor, " in ", path));
  }
  uint64_t dir_offset;
  std::memcpy(&dir_offset, header + 8, 8);
  if (dir_offset != expected_dir_offset) {
    return fail(Status::InvalidArgument(
        "storage image changed since it was planned against"));
  }
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return fail(Status::Internal("seek failed on ", path));
  }
  long end = std::ftell(file);
  if (end < 0 || static_cast<uint64_t>(end) != expected_size) {
    return fail(Status::InvalidArgument(
        "storage image changed since it was planned against"));
  }

  // Stage the whole append in memory: new payloads on 4-aligned file
  // offsets, then the new directory and its checksum. Nothing below
  // expected_size is touched until the blob is durable.
  AppendStats stats;
  stats.placements.reserve(sections.size());
  std::string blob;
  auto cursor = [&] { return expected_size + blob.size(); };
  for (const PendingSection& section : sections) {
    if (section.keep.has_value()) {
      const SectionPlacement& keep = *section.keep;
      if (keep.id != section.id || keep.offset < kHeaderSize ||
          keep.offset % 4 != 0 || keep.size > expected_size ||
          keep.offset > expected_size - keep.size) {
        return fail(Status::InvalidArgument(
            "kept section placement does not fit the existing image"));
      }
      stats.placements.push_back(keep);
      continue;
    }
    while (cursor() % 4 != 0) blob.push_back('\0');
    stats.placements.push_back(SectionPlacement{
        section.id, cursor(), section.bytes.size(), Checksum(section.bytes)});
    blob += section.bytes;
  }
  while (cursor() % 4 != 0) blob.push_back('\0');
  uint64_t new_dir_offset = cursor();
  std::string dir_bytes = SerializeDirectory(stats.placements);
  blob += dir_bytes;
  ByteWriter tail;
  tail.U64(Checksum(dir_bytes));
  blob += tail.Take();

  // Each failpoint fires *after* the operation it names, so a
  // crash-armed site kills the save with exactly that much on disk:
  // write   — blob flushed past stdio but maybe not durable
  // sync_blob — blob durable, header still pointing at the old dir
  // patch   — new directory pointer written, not yet durable
  // sync_commit — fully committed new image
  if (std::fwrite(blob.data(), 1, blob.size(), file) != blob.size() ||
      std::fflush(file) != 0 ||
      MEETXML_FAILPOINT_TRIGGERED("storage.append.write")) {
    return fail(Status::Internal("short write appending to ", path));
  }
#if defined(MEETXML_HAVE_FSYNC)
  if (::fsync(::fileno(file)) != 0 ||
      MEETXML_FAILPOINT_TRIGGERED("storage.append.sync_blob")) {
    return fail(Status::Internal("fsync failed on ", path));
  }
#endif
  // Single-word commit: repoint the header at the new directory. A
  // crash on either side of this write leaves a fully valid image —
  // the old one before, the new one after.
  if (std::fseek(file, 8, SEEK_SET) != 0 ||
      std::fwrite(&new_dir_offset, 1, 8, file) != 8 ||
      std::fflush(file) != 0 ||
      MEETXML_FAILPOINT_TRIGGERED("storage.append.patch")) {
    return fail(Status::Internal("directory patch failed on ", path));
  }
#if defined(MEETXML_HAVE_FSYNC)
  if (::fsync(::fileno(file)) != 0 ||
      MEETXML_FAILPOINT_TRIGGERED("storage.append.sync_commit")) {
    return fail(Status::Internal("fsync failed on ", path));
  }
#endif
  std::fclose(file);
  stats.file_size = expected_size + blob.size();
  stats.dir_offset = new_dir_offset;
  stats.bytes_appended = blob.size();
  return stats;
}

Result<LoadedImage> LoadImageFromFile(const std::string& path,
                                      const LoadOptions& options) {
  if (options.mode == LoadMode::kView) {
    // Zero-copy open: the shared mapping is pinned into the decoded
    // document, which owns the last word on when it unmaps.
    MEETXML_ASSIGN_OR_RETURN(
        std::shared_ptr<const util::MmapFile> file,
        util::MmapFile::OpenShared(path,
                                   util::MmapFile::Advice::kWillNeed));
    LoadOptions pinned = options;
    pinned.backing = file;
    return LoadImageFromBytes(file->bytes(), pinned);
  }
  // Decode straight out of the mapping (page cache) instead of copying
  // the whole image into a string first; everything LoadedImage keeps
  // is owned, so the mapping can end with this scope.
  MEETXML_ASSIGN_OR_RETURN(
      util::MmapFile file,
      util::MmapFile::Open(path, util::MmapFile::Advice::kSequential));
  return LoadImageFromBytes(file.bytes(), options);
}

}  // namespace model
}  // namespace meetxml
