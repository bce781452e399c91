#include "store/catalog.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "model/storage_io.h"
#include "obs/metrics.h"
#include "text/index_io.h"
#include "util/byte_io.h"
#include "util/file_io.h"
#include "util/mmap_file.h"
#include "util/strings.h"
#include "util/threads.h"
#include "util/timer.h"

namespace meetxml {
namespace store {

using model::ImageSection;
using model::SectionView;
using model::StoredDocument;
using util::ByteReader;
using util::ByteWriter;
using util::Result;
using util::Status;

namespace {

// The CTLG codec: per entry its document and index section references.
constexpr uint8_t kCatalogCodec = 3;

// Process-wide catalog metrics, resolved once per process: the
// registry lookup takes a mutex, which first-touch and open paths must
// not pay per call.
struct CatalogMetrics {
  obs::Counter* opens;
  obs::Counter* lazy_decodes;
  obs::Counter* quarantined;
  obs::Histogram* open_us;
  obs::Histogram* decode_us;
  obs::Histogram* warm_us;
  obs::Gauge* bytes_copied;
  obs::Gauge* bytes_viewed;
};

const CatalogMetrics& Metrics() {
  static const CatalogMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return new CatalogMetrics{
        &registry.counter("meetxml_catalog_opens_total"),
        &registry.counter("meetxml_catalog_lazy_decode_total"),
        &registry.counter("meetxml_catalog_quarantined"),
        &registry.histogram("meetxml_catalog_open_us"),
        &registry.histogram("meetxml_catalog_decode_us"),
        &registry.histogram("meetxml_catalog_warm_us"),
        &registry.gauge("meetxml_catalog_bytes_copied"),
        &registry.gauge("meetxml_catalog_bytes_viewed"),
    };
  }();
  return *metrics;
}

void RecordOpenMetrics(const util::Timer& timer, uint64_t bytes_copied,
                       uint64_t bytes_viewed) {
  const CatalogMetrics& metrics = Metrics();
  metrics.opens->Add(1);
  metrics.open_us->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
  metrics.bytes_copied->Add(static_cast<int64_t>(bytes_copied));
  metrics.bytes_viewed->Add(static_cast<int64_t>(bytes_viewed));
}

Status ValidateName(std::string_view name) {
  if (name.empty()) {
    return Status::InvalidArgument("document names cannot be empty");
  }
  if (name.find_first_of("*?") != std::string_view::npos) {
    return Status::InvalidArgument(
        "document name '", name,
        "' contains glob metacharacters (reserved for scopes)");
  }
  return Status::OK();
}

}  // namespace

// Everything a first touch needs to finish a lazily-opened entry: the
// raw section views (borrowing from `backing`) and the decode mode.
// `failed`/`error` make a corrupt entry sticky — every touch reports
// the same status instead of re-verifying a known-bad section.
struct NamedDocument::PendingDecode {
  SectionView doc;
  SectionView index;
  bool has_index = false;
  model::LoadMode mode = model::LoadMode::kCopy;
  std::shared_ptr<const void> backing;
  Status error = Status::OK();
  bool failed = false;
};

NamedDocument::NamedDocument() = default;
NamedDocument::~NamedDocument() = default;

Status Catalog::MaterializeLocked(const NamedDocument* entry) const {
  NamedDocument::PendingDecode* pending = entry->pending.get();
  if (pending == nullptr) return Status::OK();
  if (pending->failed) return pending->error;
  auto fail = [&](Status status) {
    pending->failed = true;
    pending->error = status;
    return status;
  };
  // First-touch checksum gate: the open skipped these, so a tampered
  // byte in this entry's sections must surface here, before any parse
  // looks at the payload.
  Status sum = model::VerifySectionChecksum(pending->doc);
  if (sum.ok() && pending->has_index) {
    sum = model::VerifySectionChecksum(pending->index);
  }
  if (!sum.ok()) return fail(sum);

  // Decode with validation deferred: framing and the node columns are
  // checked here and the derived structures built from them, under the
  // entry's lazy mutex; the deep structural scans latch once inside
  // EnsureValidated on the entry's first real use (Get /
  // Executor::Build).
  util::Timer decode_timer;
  model::LoadStats load_stats;
  model::LoadOptions doc_options;
  doc_options.mode = pending->mode;
  doc_options.backing = pending->backing;
  doc_options.defer_validation = true;
  doc_options.stats = &load_stats;
  Result<StoredDocument> doc =
      model::ParseDocumentSection(pending->doc.bytes, doc_options);
  if (!doc.ok()) return fail(doc.status());
  std::optional<text::InvertedIndex> index;
  if (pending->has_index) {
    Result<text::InvertedIndex> decoded =
        text::DeserializeIndex(pending->index.bytes);
    if (!decoded.ok()) return fail(decoded.status());
    Status valid = text::ValidateIndexAgainst(*doc, *decoded);
    if (!valid.ok()) return fail(valid);
    index = std::move(*decoded);
  }
  entry->doc = std::move(*doc);
  entry->index = std::move(index);
  entry->pending.reset();
  entry->materialized.store(true, std::memory_order_release);
  const CatalogMetrics& metrics = Metrics();
  metrics.lazy_decodes->Add(1);
  metrics.decode_us->Record(
      static_cast<uint64_t>(decode_timer.ElapsedMicros()));
  metrics.bytes_copied->Add(static_cast<int64_t>(load_stats.bytes_copied));
  metrics.bytes_viewed->Add(static_cast<int64_t>(load_stats.bytes_viewed));
  return Status::OK();
}

Status Catalog::Materialize(const NamedDocument* entry) const {
  if (entry->materialized.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(*entry->lazy_mu);
  return MaterializeLocked(entry);
}

NamedDocument* Catalog::FindMutable(std::string_view name) {
  for (const auto& entry : entries_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

const NamedDocument* Catalog::Find(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

const NamedDocument* Catalog::FindById(DocId id) const {
  for (const auto& entry : entries_) {
    if (entry->id == id) return entry.get();
  }
  return nullptr;
}

Result<const model::StoredDocument*> Catalog::Get(
    std::string_view name) const {
  const NamedDocument* entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("no document named '", name,
                            "' in the catalog");
  }
  MEETXML_RETURN_NOT_OK(Materialize(entry));
  // Deep validation latches once; for eagerly-loaded documents the
  // gate is already down and this is two atomic-free reads.
  MEETXML_RETURN_NOT_OK(entry->doc.EnsureValidated());
  return &entry->doc;
}

Result<DocId> Catalog::Add(std::string name, StoredDocument doc) {
  MEETXML_RETURN_NOT_OK(ValidateName(name));
  if (!doc.finalized()) {
    return Status::InvalidArgument(
        "only finalized documents can join the catalog");
  }
  if (Find(name) != nullptr) {
    return Status::InvalidArgument("document '", name,
                                 "' is already in the catalog");
  }
  auto entry = std::make_unique<NamedDocument>();
  entry->id = next_id_++;
  entry->name = std::move(name);
  entry->doc = std::move(doc);
  DocId id = entry->id;
  entries_.push_back(std::move(entry));
  return id;
}

Result<DocId> Catalog::Add(std::string name, StoredDocument doc,
                           text::InvertedIndex index) {
  MEETXML_RETURN_NOT_OK(text::ValidateIndexAgainst(doc, index));
  MEETXML_ASSIGN_OR_RETURN(DocId id, Add(std::move(name), std::move(doc)));
  entries_.back()->index = std::move(index);
  return id;
}

Status Catalog::Remove(std::string_view name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->name == name) {
      entries_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no document named '", name,
                          "' in the catalog");
}

Status Catalog::Rename(std::string_view from, std::string to) {
  MEETXML_RETURN_NOT_OK(ValidateName(to));
  NamedDocument* entry = FindMutable(from);
  if (entry == nullptr) {
    return Status::NotFound("no document named '", from,
                            "' in the catalog");
  }
  if (to != from && Find(to) != nullptr) {
    return Status::InvalidArgument("document '", to,
                                 "' is already in the catalog");
  }
  entry->name = std::move(to);
  return Status::OK();
}

std::vector<const NamedDocument*> Catalog::entries() const {
  std::vector<const NamedDocument*> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.get());
  return out;
}

std::vector<std::string> Catalog::MatchNames(std::string_view glob) const {
  std::vector<std::string> out;
  for (const auto& entry : entries_) {
    if (util::GlobMatch(glob, entry->name)) out.push_back(entry->name);
  }
  return out;
}

Result<const query::Executor*> Catalog::ExecutorFor(
    std::string_view name) const {
  return ExecutorFor(name, nullptr, nullptr);
}

Result<const query::Executor*> Catalog::ExecutorFor(
    std::string_view name, obs::QueryTrace* trace,
    obs::DocTrace* doc_trace) const {
  const NamedDocument* entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("no document named '", name,
                            "' in the catalog");
  }
  // Concurrent readers race to the first build; the per-entry mutex
  // elects one builder and everyone else observes the finished
  // executor. After the build the critical section is two pointer
  // reads, so steady-state contention is negligible.
  std::lock_guard<std::mutex> lock(*entry->lazy_mu);
  {
    // Span only when there is pending work: a warm entry must not read
    // the clock (a step-clock test would otherwise see phantom decode
    // time on every repeat query).
    obs::TraceSpan decode_span(
        entry->pending != nullptr ? trace : nullptr, obs::Stage::kDecode,
        doc_trace != nullptr ? &doc_trace->decode_us : nullptr);
    MEETXML_RETURN_NOT_OK(MaterializeLocked(entry));
  }
  if (entry->executor == nullptr) {
    obs::TraceSpan build_span(
        trace, obs::Stage::kIndexBuild,
        doc_trace != nullptr ? &doc_trace->index_build_us : nullptr);
    // Build first (the fallible step), hand the index over only on
    // success — a failed build must not hollow the persisted index.
    MEETXML_ASSIGN_OR_RETURN(query::Executor built,
                             query::Executor::Build(entry->doc));
    entry->executor = std::make_unique<query::Executor>(std::move(built));
    if (entry->index.has_value()) {
      entry->executor->InstallTextSearch(text::FullTextSearch::WithIndex(
          entry->doc, std::move(*entry->index)));
      // The index now lives inside the executor (text_index() hands it
      // back for Save); holding a second copy would double memory.
      entry->index.reset();
    }
  }
  return entry->executor.get();
}

Status Catalog::Warm(bool build_text_indexes, unsigned threads) const {
  util::Timer warm_timer;
  std::vector<const NamedDocument*> all = entries();
  std::vector<Status> outcomes(all.size());
  util::ParallelFor(all.size(), threads, [&](size_t i) {
    Result<const query::Executor*> executor = ExecutorFor(all[i]->name);
    if (!executor.ok()) {
      outcomes[i] = executor.status();
      return;
    }
    if (build_text_indexes) {
      outcomes[i] = (*executor)->TextSearch().status();
    }
  });
  for (const Status& status : outcomes) {
    MEETXML_RETURN_NOT_OK(status);
  }
  Metrics().warm_us->Record(
      static_cast<uint64_t>(warm_timer.ElapsedMicros()));
  return Status::OK();
}

Status Catalog::EnsureIndex(std::string_view name) {
  NamedDocument* entry = FindMutable(name);
  if (entry == nullptr) {
    return Status::NotFound("no document named '", name,
                            "' in the catalog");
  }
  MEETXML_RETURN_NOT_OK(Materialize(entry));
  if (entry->index.has_value()) return Status::OK();
  if (entry->executor != nullptr) {
    // Force the executor's own lazy build: the index lands where its
    // text predicates will use it, and text_index() exposes it to
    // Save — a sidecar copy would be built twice and used once.
    return entry->executor->TextSearch().status();
  }
  MEETXML_ASSIGN_OR_RETURN(text::InvertedIndex index,
                           text::InvertedIndex::Build(entry->doc));
  entry->index = std::move(index);
  return Status::OK();
}

Result<std::vector<model::PendingSection>> Catalog::PlanSections(
    bool keep_placed, std::vector<EntrySectionMap>* mapping) const {
  // Section order: CTLG first, then per entry its DOC2 section and
  // (when an index exists anywhere — on the entry, inside its
  // executor, or kept from the origin image) TIDX.
  std::vector<model::PendingSection> sections;
  sections.emplace_back();  // CTLG placeholder, payload filled below
  mapping->assign(entries_.size(), EntrySectionMap{});
  auto kept = [keep_placed](const std::optional<model::SectionPlacement>&
                                placement) {
    return keep_placed ? placement : std::nullopt;
  };

  ByteWriter directory;
  directory.U8(kCatalogCodec);
  directory.Varint(next_id_);
  directory.Varint(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const NamedDocument& entry = *entries_[i];
    EntrySectionMap& map = (*mapping)[i];
    directory.Varint(entry.id);
    directory.StrVarint(entry.name);
    directory.Varint(sections.size());
    map.doc_at = sections.size();
    model::PendingSection doc{model::kDocumentSectionId,
                              kept(entry.placed.doc), std::string()};
    if (!doc.keep.has_value()) {
      MEETXML_ASSIGN_OR_RETURN(doc.bytes,
                               model::SerializeDocumentSection(entry.doc));
    }
    sections.push_back(std::move(doc));

    const text::InvertedIndex* index =
        entry.index.has_value()
            ? &*entry.index
            : (entry.executor != nullptr ? entry.executor->text_index()
                                         : nullptr);
    std::optional<model::SectionPlacement> kept_index =
        kept(entry.placed.index);
    if (kept_index.has_value() || index != nullptr) {
      directory.Varint(sections.size() + 1);  // 0 means "no index"
      map.index_at = sections.size();
      sections.push_back(model::PendingSection{
          model::kTextIndexSectionId, kept_index,
          kept_index.has_value() ? std::string()
                                 : text::SerializeIndex(*index)});
    } else {
      directory.Varint(0);
    }
  }
  sections.front() = model::PendingSection{model::kCatalogSectionId,
                                           std::nullopt, directory.Take()};
  return sections;
}

Result<std::string> Catalog::SerializeImage(
    std::vector<EntrySectionMap>* mapping) const {
  // Pending entries must decode before they can re-serialize.
  for (const auto& entry : entries_) {
    MEETXML_RETURN_NOT_OK(Materialize(entry.get()));
  }
  MEETXML_ASSIGN_OR_RETURN(std::vector<model::PendingSection> planned,
                           PlanSections(/*keep_placed=*/false, mapping));
  std::vector<ImageSection> sections;
  sections.reserve(planned.size());
  for (model::PendingSection& section : planned) {
    sections.push_back(ImageSection{section.id, std::move(section.bytes)});
  }
  return model::SaveSectionsToBytes(sections);
}

Result<std::string> Catalog::SaveToBytes() const {
  std::vector<EntrySectionMap> mapping;
  return SerializeImage(&mapping);
}

Result<Catalog> Catalog::LoadFromBytes(std::string_view bytes,
                                       const CatalogLoadOptions& options) {
  util::Timer total_timer;
  if (options.stats != nullptr) *options.stats = CatalogLoadStats{};
  // A lazy open skips per-section checksums here — framing (and, for
  // trailing-directory images, the directory checksum) is still fully
  // validated. Deferred sections are verified on first touch. A
  // quarantining open skips them too: a bad checksum must condemn one
  // entry, not the scan, so verification moves into the per-entry
  // decode below (the CTLG section is re-verified strictly).
  model::SectionScanOptions scan;
  scan.verify_checksums = !options.lazy && !options.quarantine_corrupt;
  MEETXML_ASSIGN_OR_RETURN(model::SectionImage image,
                           model::LoadSectionsFromBytes(bytes, scan));

  const SectionView* catalog_section = nullptr;
  for (const SectionView& section : image.sections) {
    if (section.id != model::kCatalogSectionId) continue;
    if (catalog_section != nullptr) {
      return Status::InvalidArgument(
          "corrupt image: duplicate catalog section");
    }
    catalog_section = &section;
  }

  model::LoadOptions doc_options;
  doc_options.mode = options.mode;
  doc_options.backing = options.backing;

  Catalog catalog;
  if (catalog_section == nullptr) {
    // Single-document image (written by the single-document API): one
    // entry, named after the root tag.
    util::Timer decode_timer;
    model::LoadStats doc_stats;
    model::LoadOptions single_options = doc_options;
    single_options.stats = &doc_stats;
    MEETXML_ASSIGN_OR_RETURN(
        model::LoadedImage single,
        model::LoadImageFromBytes(bytes, single_options));
    std::optional<text::InvertedIndex> index;
    for (const ImageSection& section : single.extra_sections) {
      if (section.id != model::kTextIndexSectionId) continue;
      MEETXML_ASSIGN_OR_RETURN(text::InvertedIndex decoded,
                               text::DeserializeIndex(section.bytes));
      MEETXML_RETURN_NOT_OK(
          text::ValidateIndexAgainst(single.doc, decoded));
      index = std::move(decoded);
      break;
    }
    double decode_ms = decode_timer.ElapsedMillis();
    std::string name = single.doc.tag(single.doc.root());
    if (!ValidateName(name).ok()) name = "doc";
    if (options.stats != nullptr) {
      options.stats->documents.push_back(CatalogLoadStats::DocumentStats{
          name, decode_ms, index.has_value(),
          doc_stats.mode_used, doc_stats.bytes_copied,
          doc_stats.bytes_viewed});
    }
    if (index.has_value()) {
      MEETXML_RETURN_NOT_OK(catalog
                                .Add(std::move(name),
                                     std::move(single.doc),
                                     std::move(*index))
                                .status());
    } else {
      MEETXML_RETURN_NOT_OK(
          catalog.Add(std::move(name), std::move(single.doc)).status());
    }
    // A single-document image can still feed the incremental writer
    // (it appends the CTLG the image lacks), so record where its
    // sections sit.
    NamedDocument* added = catalog.entries_.back().get();
    for (const SectionView& section : image.sections) {
      model::SectionPlacement placement{section.id, section.offset,
                                        section.bytes.size(),
                                        section.checksum};
      if (section.id == model::kDocumentSectionId) {
        added->placed.doc = placement;
      } else if (section.id == model::kTextIndexSectionId) {
        added->placed.index = placement;
      }
    }
    catalog.origin_ =
        OriginImage{std::string(), bytes.size(), image.dir_offset};
    if (options.stats != nullptr) {
      options.stats->sections_verified = image.sections.size();
      options.stats->total_ms = total_timer.ElapsedMillis();
    }
    RecordOpenMetrics(total_timer, doc_stats.bytes_copied,
                      doc_stats.bytes_viewed);
    return catalog;
  }

  if (options.lazy || options.quarantine_corrupt) {
    // The directory is the one section neither a lazy nor a
    // quarantining open can treat leniently: everything else hangs off
    // it, so its checksum is verified here even though the scan above
    // skipped per-section sums.
    MEETXML_RETURN_NOT_OK(model::VerifySectionChecksum(*catalog_section));
  }

  ByteReader reader(catalog_section->bytes);
  MEETXML_ASSIGN_OR_RETURN(uint8_t codec, reader.U8());
  if (codec != kCatalogCodec) {
    return Status::InvalidArgument("unsupported catalog codec ", codec);
  }
  MEETXML_ASSIGN_OR_RETURN(uint64_t next_id, reader.Varint());
  // next_id must stay below the invalid sentinel so every future Add
  // hands out a usable id; anything larger is corruption (and would
  // silently truncate in the u32 member below).
  if (next_id >= kInvalidDocId) {
    return Status::InvalidArgument("corrupt catalog: next_doc_id ",
                                   next_id);
  }
  MEETXML_ASSIGN_OR_RETURN(uint64_t entry_count, reader.Varint());
  if (entry_count > image.sections.size()) {
    // Every entry owns at least a document section; more entries than
    // sections is structurally impossible.
    return Status::InvalidArgument("corrupt catalog: entry count ",
                                   entry_count);
  }

  std::vector<bool> claimed(image.sections.size(), false);
  claimed[static_cast<size_t>(catalog_section - image.sections.data())] =
      true;
  auto claim = [&](uint64_t at, uint32_t want_id) -> Status {
    if (at >= image.sections.size()) {
      return Status::InvalidArgument(
          "corrupt catalog: section index out of range");
    }
    if (image.sections[at].id != want_id) {
      return Status::InvalidArgument(
          "corrupt catalog: section type mismatch");
    }
    if (claimed[at]) {
      return Status::InvalidArgument(
          "corrupt catalog: section referenced twice");
    }
    claimed[at] = true;
    return Status::OK();
  };

  // Phase 1 (serial): parse and validate the directory. Structural
  // errors surface before any document decode starts.
  struct DirectoryEntry {
    DocId id = kInvalidDocId;
    std::string name;
    size_t doc_at = 0;
    // Persisted encoding kept verbatim: 0 = no index, otherwise the
    // section position + 1. (A plain position with 0-as-none would
    // misread images whose TIDX legitimately sits at position 0.)
    size_t index_at_plus_one = 0;
  };
  std::vector<DirectoryEntry> directory;
  directory.reserve(static_cast<size_t>(entry_count));
  std::unordered_set<DocId> ids_seen;
  ids_seen.reserve(static_cast<size_t>(entry_count));
  for (uint64_t i = 0; i < entry_count; ++i) {
    DirectoryEntry entry;
    MEETXML_ASSIGN_OR_RETURN(uint64_t id, reader.Varint());
    MEETXML_ASSIGN_OR_RETURN(entry.name, reader.StrVarint());
    MEETXML_ASSIGN_OR_RETURN(uint64_t doc_at, reader.Varint());
    MEETXML_ASSIGN_OR_RETURN(uint64_t index_at_plus_one, reader.Varint());
    if (id >= next_id) {
      return Status::InvalidArgument(
          "corrupt catalog: document id beyond next_doc_id");
    }
    entry.id = static_cast<DocId>(id);
    if (!ids_seen.insert(entry.id).second) {
      return Status::InvalidArgument(
          "corrupt catalog: duplicate document id");
    }
    MEETXML_RETURN_NOT_OK(claim(doc_at, model::kDocumentSectionId));
    entry.doc_at = static_cast<size_t>(doc_at);
    if (index_at_plus_one != 0) {
      uint64_t index_at = index_at_plus_one - 1;
      MEETXML_RETURN_NOT_OK(claim(index_at, model::kTextIndexSectionId));
      entry.index_at_plus_one = static_cast<size_t>(index_at_plus_one);
    }
    directory.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in catalog section");
  }
  // Document and index sections a CTLG image does not reference are
  // writer bugs or tampering, not forward compatibility (new ids are
  // how the format grows); reject them.
  for (size_t at = 0; at < image.sections.size(); ++at) {
    uint32_t id = image.sections[at].id;
    if (!claimed[at] && (id == model::kDocumentSectionId ||
                         id == model::kTextIndexSectionId)) {
      return Status::InvalidArgument(
          "corrupt catalog: unreferenced document or index section");
    }
  }

  // Loaded images feed the incremental writer: remember where every
  // entry's sections sit.
  auto record_placements = [&image](NamedDocument* target,
                                    const DirectoryEntry& dir_entry) {
    auto placement_of = [&image](size_t at) {
      const SectionView& section = image.sections[at];
      return model::SectionPlacement{section.id, section.offset,
                                     section.bytes.size(),
                                     section.checksum};
    };
    target->placed.doc = placement_of(dir_entry.doc_at);
    if (dir_entry.index_at_plus_one != 0) {
      target->placed.index = placement_of(dir_entry.index_at_plus_one - 1);
    }
  };

  if (options.lazy) {
    // O(directory) open: every entry is parked undecoded behind its
    // pending record; checksum verification and decode happen on first
    // touch, under the entry's lazy mutex. The duplicate-name check
    // runs against a set, not Find's linear scan — this loop is the
    // whole open, so it must stay O(directory). The set keys views
    // into the entries' own (heap-stable) name storage to avoid one
    // string copy per document.
    std::unordered_set<std::string_view> names_seen;
    names_seen.reserve(directory.size());
    catalog.entries_.reserve(directory.size());
    for (DirectoryEntry& dir_entry : directory) {
      MEETXML_RETURN_NOT_OK(ValidateName(dir_entry.name));
      auto entry = std::make_unique<NamedDocument>();
      entry->id = dir_entry.id;
      entry->name = std::move(dir_entry.name);
      if (!names_seen.insert(std::string_view(entry->name)).second) {
        return Status::InvalidArgument("document '", entry->name,
                                       "' is already in the catalog");
      }
      auto pending = std::make_unique<NamedDocument::PendingDecode>();
      pending->doc = image.sections[dir_entry.doc_at];
      pending->mode = options.mode;
      pending->backing = options.backing;
      if (dir_entry.index_at_plus_one != 0) {
        pending->has_index = true;
        pending->index = image.sections[dir_entry.index_at_plus_one - 1];
      }
      entry->pending = std::move(pending);
      entry->materialized.store(false, std::memory_order_relaxed);
      record_placements(entry.get(), dir_entry);
      if (options.stats != nullptr) {
        options.stats->documents.push_back(CatalogLoadStats::DocumentStats{
            entry->name, 0.0, dir_entry.index_at_plus_one != 0,
            options.mode, 0, 0});
      }
      catalog.entries_.push_back(std::move(entry));
    }
    catalog.next_id_ = static_cast<DocId>(next_id);
    catalog.origin_ =
        OriginImage{std::string(), bytes.size(), image.dir_offset};
    if (options.stats != nullptr) {
      options.stats->deferred_documents = directory.size();
      options.stats->sections_verified = 1;  // the CTLG section
      options.stats->sections_deferred = image.sections.size() - 1;
      options.stats->total_ms = total_timer.ElapsedMillis();
    }
    // Byte gauges stay untouched here: a lazy open copies and views
    // nothing yet; the bytes land when entries materialize.
    RecordOpenMetrics(total_timer, 0, 0);
    return catalog;
  }

  // Phase 2 (parallel): decode every entry's sections on a thread
  // pool — the sections are independently checksummed byte ranges, so
  // workers share nothing but the input image. Errors are collected
  // per entry and the first one in directory order wins, matching what
  // a serial decode would have reported.
  struct DecodedEntry {
    Status status = Status::OK();
    StoredDocument doc;
    std::optional<text::InvertedIndex> index;
    double decode_ms = 0;
    model::LoadStats load_stats;
  };
  std::vector<DecodedEntry> decoded(directory.size());
  auto decode_one = [&](size_t i) {
    DecodedEntry& out = decoded[i];
    util::Timer decode_timer;
    const SectionView& doc_section = image.sections[directory[i].doc_at];
    if (options.quarantine_corrupt) {
      // The scan skipped per-section checksums so a flipped bit lands
      // on this entry alone; verify them here, before any parse reads
      // the payload.
      Status sum = model::VerifySectionChecksum(doc_section);
      if (sum.ok() && directory[i].index_at_plus_one != 0) {
        sum = model::VerifySectionChecksum(
            image.sections[directory[i].index_at_plus_one - 1]);
      }
      if (!sum.ok()) {
        out.status = sum;
        return;
      }
    }
    model::LoadOptions entry_options = doc_options;
    entry_options.stats = &out.load_stats;
    Result<StoredDocument> doc =
        model::ParseDocumentSection(doc_section.bytes, entry_options);
    if (!doc.ok()) {
      out.status = doc.status();
      return;
    }
    out.doc = std::move(*doc);
    if (directory[i].index_at_plus_one != 0) {
      Result<text::InvertedIndex> index = text::DeserializeIndex(
          image.sections[directory[i].index_at_plus_one - 1].bytes);
      if (!index.ok()) {
        out.status = index.status();
        return;
      }
      Status valid = text::ValidateIndexAgainst(out.doc, *index);
      if (!valid.ok()) {
        out.status = valid;
        return;
      }
      out.index = std::move(*index);
    }
    out.decode_ms = decode_timer.ElapsedMillis();
  };
  unsigned workers =
      util::ParallelFor(directory.size(), options.threads, decode_one);
  if (!options.quarantine_corrupt) {
    for (const DecodedEntry& entry : decoded) {
      MEETXML_RETURN_NOT_OK(entry.status);
    }
  }

  // Phase 3 (serial): assemble the catalog. Add() re-validates the
  // name and enforces uniqueness; it assigns sequential ids, so the
  // persisted id is restored afterwards. Under quarantine_corrupt a
  // failed entry is parked behind a sticky error instead — same
  // machinery as a lazy entry whose first touch failed, so every
  // Get / ExecutorFor on it reports the quarantine status.
  for (size_t i = 0; i < directory.size(); ++i) {
    if (options.stats != nullptr) {
      options.stats->documents.push_back(CatalogLoadStats::DocumentStats{
          directory[i].name, decoded[i].decode_ms,
          decoded[i].index.has_value(), decoded[i].load_stats.mode_used,
          decoded[i].load_stats.bytes_copied,
          decoded[i].load_stats.bytes_viewed});
    }
    if (!decoded[i].status.ok()) {
      // Quarantine: the entry exists (Find/MatchNames see its name) but
      // every materialization reports the open-time failure. Add() is
      // bypassed — it wants a decoded document — so the name checks run
      // here. No placements are recorded: an incremental save must not
      // keep sections nobody could decode, and the full rewrite fails
      // loudly when it tries to materialize the entry.
      MEETXML_RETURN_NOT_OK(ValidateName(directory[i].name));
      if (catalog.Find(directory[i].name) != nullptr) {
        return Status::InvalidArgument("document '", directory[i].name,
                                       "' is already in the catalog");
      }
      auto entry = std::make_unique<NamedDocument>();
      entry->id = directory[i].id;
      entry->name = std::move(directory[i].name);
      auto pending = std::make_unique<NamedDocument::PendingDecode>();
      pending->failed = true;
      pending->error =
          Status(decoded[i].status.code(), "document quarantined at open: " +
                                               decoded[i].status.message());
      entry->pending = std::move(pending);
      entry->materialized.store(false, std::memory_order_relaxed);
      catalog.entries_.push_back(std::move(entry));
      Metrics().quarantined->Add(1);
      continue;
    }
    Result<DocId> added =
        decoded[i].index.has_value()
            ? catalog.Add(std::move(directory[i].name),
                          std::move(decoded[i].doc),
                          std::move(*decoded[i].index))
            : catalog.Add(std::move(directory[i].name),
                          std::move(decoded[i].doc));
    MEETXML_RETURN_NOT_OK(added.status());
    catalog.entries_.back()->id = directory[i].id;
    record_placements(catalog.entries_.back().get(), directory[i]);
  }
  catalog.next_id_ = static_cast<DocId>(next_id);
  catalog.origin_ =
      OriginImage{std::string(), bytes.size(), image.dir_offset};
  if (options.stats != nullptr) {
    options.stats->threads_used = std::max(1u, workers);
    options.stats->sections_verified = image.sections.size();
    options.stats->total_ms = total_timer.ElapsedMillis();
  }
  uint64_t total_copied = 0;
  uint64_t total_viewed = 0;
  for (const DecodedEntry& entry : decoded) {
    total_copied += entry.load_stats.bytes_copied;
    total_viewed += entry.load_stats.bytes_viewed;
  }
  RecordOpenMetrics(total_timer, total_copied, total_viewed);
  return catalog;
}

Status Catalog::SaveToFile(const std::string& path) const {
  return SaveToFile(path, CatalogSaveOptions{});
}

Result<bool> Catalog::TrySaveInPlace(
    const std::string& path, const CatalogSaveOptions& options) const {
  // Only the image this catalog's placements refer to can be appended
  // to.
  if (!origin_.has_value() || origin_->path != path) return false;

  // A pending entry has nothing to serialize from; without kept
  // placements the full rewrite (which materializes) must run.
  for (const auto& entry : entries_) {
    if (entry->pending != nullptr && !entry->placed.doc.has_value()) {
      return false;
    }
  }
  // The keep-or-append section list and the new CTLG directory — the
  // same plan the full rewrite serializes, so the two writers produce
  // interchangeable images.
  std::vector<EntrySectionMap> ats;
  MEETXML_ASSIGN_OR_RETURN(std::vector<model::PendingSection> sections,
                           PlanSections(/*keep_placed=*/true, &ats));

  uint64_t kept_bytes = 0, new_bytes = 0;
  size_t kept_count = 0, new_count = 0;
  for (const model::PendingSection& section : sections) {
    if (section.keep.has_value()) {
      kept_bytes += section.keep->size;
      ++kept_count;
    } else {
      new_bytes += section.bytes.size();
      ++new_count;
    }
  }
  // Everything in the old region except the header and the kept
  // sections goes dead with this append: the superseded CTLG, the old
  // directory, dropped sections, and whatever was dead already.
  uint64_t header_bytes = 16;
  uint64_t projected_dead =
      origin_->file_size > kept_bytes + header_bytes
          ? origin_->file_size - kept_bytes - header_bytes
          : 0;
  // Directory: u32 count + 28 bytes per entry + u64 checksum; up to 4
  // alignment bytes per appended payload.
  uint64_t appended_estimate =
      new_bytes + 12 + 28 * sections.size() + 4 * (new_count + 1);
  uint64_t projected_size = origin_->file_size + appended_estimate;
  if (static_cast<double>(projected_dead) >
      options.compact_threshold * static_cast<double>(projected_size)) {
    if (options.stats != nullptr) options.stats->compacted = true;
    return false;  // too much dead weight; compact via full rewrite
  }

  MEETXML_ASSIGN_OR_RETURN(
      model::AppendStats append,
      model::AppendSectionsToFile(path, origin_->file_size,
                                  origin_->dir_offset, sections));
  for (size_t i = 0; i < entries_.size(); ++i) {
    entries_[i]->placed.doc = append.placements[ats[i].doc_at];
    entries_[i]->placed.index =
        ats[i].index_at != SIZE_MAX
            ? std::optional<model::SectionPlacement>(
                  append.placements[ats[i].index_at])
            : std::nullopt;
  }
  origin_->file_size = append.file_size;
  origin_->dir_offset = append.dir_offset;
  if (options.stats != nullptr) {
    options.stats->in_place = true;
    options.stats->bytes_appended = append.bytes_appended;
    options.stats->file_size = append.file_size;
    uint64_t live = header_bytes + (append.file_size - append.dir_offset);
    for (const model::SectionPlacement& placement : append.placements) {
      live += placement.size;
    }
    options.stats->dead_bytes =
        append.file_size > live ? append.file_size - live : 0;
    options.stats->sections_appended = new_count;
    options.stats->sections_kept = kept_count;
  }
  return true;
}

Status Catalog::SaveToFile(const std::string& path,
                           const CatalogSaveOptions& options) const {
  if (options.stats != nullptr) *options.stats = CatalogSaveStats{};
  if (options.in_place) {
    MEETXML_ASSIGN_OR_RETURN(bool appended, TrySaveInPlace(path, options));
    if (appended) return Status::OK();
  }
  // Full rewrite. Atomic (temp + rename): a view-backed catalog loaded
  // from this very path keeps borrowing from the old inode's mapping
  // while the new image takes over the directory entry.
  std::vector<EntrySectionMap> mapping;
  MEETXML_ASSIGN_OR_RETURN(std::string bytes, SerializeImage(&mapping));
  MEETXML_RETURN_NOT_OK(util::WriteFileAtomic(path, bytes));
  // Refresh the placement bookkeeping against what was just written,
  // so the next in-place save can append to it. A cheap unverified
  // re-scan recovers each section's offset and checksum.
  origin_.reset();
  for (const auto& entry : entries_) entry->placed = SectionPlacements{};
  model::SectionScanOptions scan;
  scan.verify_checksums = false;
  Result<model::SectionImage> written =
      model::LoadSectionsFromBytes(bytes, scan);
  if (written.ok()) {
    auto placement_of = [&](size_t at) {
      const SectionView& section = written->sections[at];
      return model::SectionPlacement{section.id, section.offset,
                                     section.bytes.size(),
                                     section.checksum};
    };
    for (size_t i = 0; i < entries_.size(); ++i) {
      entries_[i]->placed.doc = placement_of(mapping[i].doc_at);
      if (mapping[i].index_at != SIZE_MAX) {
        entries_[i]->placed.index = placement_of(mapping[i].index_at);
      }
    }
    origin_ = OriginImage{path, bytes.size(), written->dir_offset};
  }
  if (options.stats != nullptr) {
    options.stats->file_size = bytes.size();
    options.stats->sections_appended =
        written.ok() ? written->sections.size() : 0;
  }
  return Status::OK();
}

Result<Catalog> Catalog::LoadFromFile(const std::string& path,
                                      const CatalogLoadOptions& options) {
  if (options.mode == model::LoadMode::kView || options.lazy) {
    // Zero-copy open: every view-backed document pins the shared
    // mapping, so the catalog keeps it alive exactly as long as any
    // of its documents borrows from it. A lazy open pins it too,
    // whatever the decode mode — the pending entries' raw section
    // views borrow from the mapping until their first touch.
    MEETXML_ASSIGN_OR_RETURN(
        std::shared_ptr<const util::MmapFile> file,
        util::MmapFile::OpenShared(path,
                                   util::MmapFile::Advice::kWillNeed));
    CatalogLoadOptions pinned = options;
    pinned.backing = file;
    MEETXML_ASSIGN_OR_RETURN(Catalog catalog,
                             LoadFromBytes(file->bytes(), pinned));
    if (catalog.origin_.has_value()) catalog.origin_->path = path;
    return catalog;
  }
  // Decode out of a file mapping; the catalog owns everything it
  // keeps, so the mapping ends with this scope.
  MEETXML_ASSIGN_OR_RETURN(
      util::MmapFile file,
      util::MmapFile::Open(path, util::MmapFile::Advice::kSequential));
  MEETXML_ASSIGN_OR_RETURN(Catalog catalog,
                           LoadFromBytes(file.bytes(), options));
  if (catalog.origin_.has_value()) catalog.origin_->path = path;
  return catalog;
}

}  // namespace store
}  // namespace meetxml
