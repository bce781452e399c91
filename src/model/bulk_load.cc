#include "model/bulk_load.h"

#include <algorithm>
#include <cctype>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/mmap_file.h"
#include "util/threads.h"
#include "util/timer.h"
#include "xml/parser.h"

namespace meetxml {
namespace model {

using util::Result;
using util::Status;

namespace internal {

namespace {

bool IsNameDelimiter(char c) {
  return std::isspace(static_cast<unsigned char>(c)) || c == '>' ||
         c == '/' || c == '=' || c == '<' || c == '?';
}

}  // namespace

Result<CorpusSplit> SplitTopLevel(std::string_view xml_text) {
  const size_t size = xml_text.size();
  size_t pos = 0;

  auto starts_with = [&](std::string_view token) {
    return xml_text.compare(pos, token.size(), token) == 0;
  };
  // Advances past the next occurrence of `token`; false on EOF.
  auto skip_past = [&](std::string_view token) {
    size_t found = xml_text.find(token, pos);
    if (found == std::string_view::npos) return false;
    pos = found + token.size();
    return true;
  };
  // Scans a start tag beginning at `pos` ('<'); leaves `pos` after '>'.
  // Quoted attribute values may contain '>' so quotes are tracked; the
  // parser rejects '<' inside values, and so do we.
  auto scan_start_tag = [&](bool* self_closing,
                            std::string* name) -> Status {
    size_t p = pos + 1;
    size_t name_begin = p;
    while (p < size && !IsNameDelimiter(xml_text[p])) ++p;
    if (p == name_begin) {
      return Status::InvalidArgument("empty tag name");
    }
    if (name != nullptr) {
      *name = std::string(xml_text.substr(name_begin, p - name_begin));
    }
    char quote = 0;
    while (p < size) {
      char c = xml_text[p];
      if (quote != 0) {
        if (c == quote) quote = 0;
      } else if (c == '"' || c == '\'') {
        quote = c;
      } else if (c == '<') {
        return Status::InvalidArgument("'<' inside tag");
      } else if (c == '>') {
        *self_closing = xml_text[p - 1] == '/';
        pos = p + 1;
        return Status::OK();
      }
      ++p;
    }
    return Status::InvalidArgument("unterminated start tag");
  };

  // Prolog: XML declaration, comments, PIs, one DOCTYPE (whose internal
  // subset may contain bracketed markup).
  while (true) {
    while (pos < size &&
           std::isspace(static_cast<unsigned char>(xml_text[pos]))) {
      ++pos;
    }
    if (pos >= size) {
      return Status::InvalidArgument("no root element");
    }
    if (xml_text[pos] != '<') {
      return Status::InvalidArgument("character data before root element");
    }
    if (starts_with("<!--")) {
      pos += 4;
      if (!skip_past("-->")) {
        return Status::InvalidArgument("unterminated comment in prolog");
      }
    } else if (starts_with("<!DOCTYPE")) {
      pos += 9;
      int brackets = 0;
      while (pos < size) {
        char c = xml_text[pos];
        if (c == '[') ++brackets;
        if (c == ']') --brackets;
        if (c == '>' && brackets == 0) break;
        ++pos;
      }
      if (pos >= size) {
        return Status::InvalidArgument("unterminated DOCTYPE");
      }
      ++pos;  // '>'
    } else if (starts_with("<!")) {
      return Status::InvalidArgument("unexpected markup in prolog");
    } else if (starts_with("<?")) {
      pos += 2;
      if (!skip_past("?>")) {
        return Status::InvalidArgument("unterminated PI in prolog");
      }
    } else {
      break;  // the root start tag
    }
  }

  CorpusSplit split;
  bool root_self_closing = false;
  MEETXML_RETURN_NOT_OK(scan_start_tag(&root_self_closing, &split.root_tag));
  split.root_open_end = pos;
  split.content_begin = pos;
  split.content_end = pos;

  bool closed = root_self_closing;
  int depth = 1;
  std::vector<size_t> element_starts;
  while (!closed) {
    size_t lt = xml_text.find('<', pos);
    if (lt == std::string_view::npos) {
      return Status::InvalidArgument("root element not closed");
    }
    pos = lt;
    if (starts_with("<!--")) {
      pos += 4;
      if (!skip_past("-->")) {
        return Status::InvalidArgument("unterminated comment");
      }
      continue;
    }
    if (starts_with("<![CDATA[")) {
      pos += 9;
      if (!skip_past("]]>")) {
        return Status::InvalidArgument("unterminated CDATA section");
      }
      continue;
    }
    if (starts_with("<!")) {
      return Status::InvalidArgument("unexpected markup in content");
    }
    if (starts_with("<?")) {
      pos += 2;
      if (!skip_past("?>")) {
        return Status::InvalidArgument("unterminated PI");
      }
      continue;
    }
    if (starts_with("</")) {
      size_t p = pos + 2;
      size_t name_begin = p;
      while (p < size && !IsNameDelimiter(xml_text[p])) ++p;
      std::string_view name = xml_text.substr(name_begin, p - name_begin);
      while (p < size &&
             std::isspace(static_cast<unsigned char>(xml_text[p]))) {
        ++p;
      }
      if (p >= size || xml_text[p] != '>') {
        return Status::InvalidArgument("malformed close tag");
      }
      --depth;
      if (depth == 0) {
        if (name != split.root_tag) {
          return Status::InvalidArgument("mismatched root close tag");
        }
        split.content_end = lt;
        pos = p + 1;
        closed = true;
        break;
      }
      pos = p + 1;
      continue;
    }
    // A start tag. Top-level element starts are the only safe shard
    // boundaries: the parser merges adjacent text/CDATA runs (comments
    // between them do not flush), but never across an element tag.
    if (depth == 1) element_starts.push_back(lt);
    bool self = false;
    MEETXML_RETURN_NOT_OK(scan_start_tag(&self, nullptr));
    if (!self) ++depth;
  }

  // Epilog: whitespace, comments and PIs only.
  while (pos < size) {
    while (pos < size &&
           std::isspace(static_cast<unsigned char>(xml_text[pos]))) {
      ++pos;
    }
    if (pos >= size) break;
    if (starts_with("<!--")) {
      pos += 4;
      if (!skip_past("-->")) {
        return Status::InvalidArgument("unterminated comment in epilog");
      }
    } else if (starts_with("<?")) {
      pos += 2;
      if (!skip_past("?>")) {
        return Status::InvalidArgument("unterminated PI in epilog");
      }
    } else {
      return Status::InvalidArgument("content after root element");
    }
  }

  if (root_self_closing) return split;

  // The first unit always starts at content_begin so that leading
  // character data travels with the first element's shard.
  split.unit_starts.push_back(split.content_begin);
  for (size_t start : element_starts) {
    if (start != split.content_begin) split.unit_starts.push_back(start);
  }
  return split;
}

}  // namespace internal

namespace {

// Replays one shard into the global document. Shard node 0 is the
// synthetic wrapper root; its children are top-level children of the
// real root. Replaying nodes in shard OID order — re-interning each
// node's path, then its string associations in their original append
// order — reproduces the exact Intern/Append call sequence of the
// sequential ShredSink, which is what makes the merged
// document bit-identical to the sequential output. String values are
// borrowed from the shard's per-path arenas (valid for the duration of
// the merge) and land in the global document with one arena append
// each — no per-string allocation. The shard's arenas stay alive until
// its merge finishes (the caller releases the shard right after), so
// peak memory is one corpus plus a single shard's columns.
void MergeShard(StoredDocument&& shard, StoredDocument* global,
                PathId global_root_path, int* root_next_rank) {
  if (shard.node_count() <= 1) return;  // nothing but the wrapper root

  std::vector<std::vector<std::pair<PathId, std::string_view>>>
      owner_strings(shard.node_count());
  for (const auto& [path, owner, value] : shard.StringsInAppendOrder()) {
    owner_strings[owner].emplace_back(path, value);
  }

  const PathSummary& shard_paths = shard.paths();
  PathSummary* global_paths = global->mutable_paths();
  std::vector<PathId> path_map(shard_paths.size(), bat::kInvalidPathId);
  path_map[shard.path(0)] = global_root_path;
  // By replay order every path's parent is already mapped (the owning
  // ancestor node precedes in OID order), so no recursion is needed.
  auto map_path = [&](PathId local) {
    PathId& mapped = path_map[local];
    if (mapped == bat::kInvalidPathId) {
      mapped = global_paths->Intern(path_map[shard_paths.parent(local)],
                                    shard_paths.kind(local),
                                    shard_paths.label(local));
    }
    return mapped;
  };

  const Oid base = static_cast<Oid>(global->node_count());
  for (Oid local = 1; local < shard.node_count(); ++local) {
    PathId global_path = map_path(shard.path(local));
    Oid local_parent = shard.parent(local);
    Oid global_parent = local_parent == 0 ? global->root()
                                          : base + local_parent - 1;
    int rank =
        local_parent == 0 ? (*root_next_rank)++ : shard.rank(local);
    Oid global_oid = global->AppendNode(global_path, global_parent, rank);
    // The wrapper root never owns strings (it has no attributes, and
    // top-level text becomes cdata nodes), so every association is
    // replayed here, right after its owning node — sequential order.
    for (const auto& [local_path, value] : owner_strings[local]) {
      global->AppendString(map_path(local_path), global_oid, value);
    }
  }
}

}  // namespace

Result<StoredDocument> BulkShredXmlText(std::string_view xml_text,
                                        const BulkLoadOptions& options) {
  unsigned threads = util::ResolveThreads(options.threads);
  if (threads <= 1 || xml_text.size() < options.min_parallel_bytes) {
    return ShredXmlText(xml_text);
  }

  // Phase timings of the parallel path (split / shard shred / merge),
  // resolved once — bulk load is a start-up cost worth decomposing.
  struct BulkMetrics {
    obs::Histogram* split_us;
    obs::Histogram* shred_us;
    obs::Histogram* merge_us;
  };
  static const BulkMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return new BulkMetrics{
        &registry.histogram("meetxml_bulk_split_us"),
        &registry.histogram("meetxml_bulk_shred_us"),
        &registry.histogram("meetxml_bulk_merge_us"),
    };
  }();

  util::Timer split_timer;
  Result<internal::CorpusSplit> split_result =
      internal::SplitTopLevel(xml_text);
  if (!split_result.ok()) {
    // Unchunkable or malformed: the sequential path either handles it
    // or diagnoses it with line/column positions.
    return ShredXmlText(xml_text);
  }
  const internal::CorpusSplit& split = *split_result;
  if (split.unit_starts.size() < 2) {
    return ShredXmlText(xml_text);
  }

  // Group units into chunks of roughly target_chunk_bytes, but aim for
  // enough chunks to keep every worker busy on small corpora.
  size_t content_size = split.content_end - split.content_begin;
  size_t chunk_bytes =
      std::max<size_t>(1, std::min(options.target_chunk_bytes,
                                   content_size / (threads * 2) + 1));
  struct Chunk {
    size_t begin;
    size_t end;
  };
  std::vector<Chunk> chunks;
  size_t current = split.unit_starts.front();
  for (size_t i = 1; i < split.unit_starts.size(); ++i) {
    if (split.unit_starts[i] - current >= chunk_bytes) {
      chunks.push_back(Chunk{current, split.unit_starts[i]});
      current = split.unit_starts[i];
    }
  }
  chunks.push_back(Chunk{current, split.content_end});
  if (chunks.size() < 2) {
    return ShredXmlText(xml_text);
  }
  metrics->split_us->Record(
      static_cast<uint64_t>(split_timer.ElapsedMicros()));

  // Shred every chunk on ParallelFor's pool, each into its own builder.
  // Chunks are wrapped in a synthetic root so the parser sees a
  // well-formed document; the wrapper is dropped during the merge.
  util::Timer shred_timer;
  std::vector<StoredDocument> shards(chunks.size());
  std::vector<Status> statuses(chunks.size(), Status::OK());
  util::ParallelFor(chunks.size(), threads, [&](size_t i) {
    std::string_view slice = xml_text.substr(
        chunks[i].begin, chunks[i].end - chunks[i].begin);
    std::string wrapped;
    wrapped.reserve(slice.size() + 16);
    wrapped += "<_shard>";
    wrapped.append(slice);
    wrapped += "</_shard>";
    internal::ShredSink sink;
    Status status = xml::ParseSax(wrapped, &sink);
    if (!status.ok()) {
      statuses[i] = status;
      return;
    }
    shards[i] = sink.TakeUnfinalized();
  });
  for (const Status& status : statuses) {
    if (!status.ok()) {
      // A shard failed to parse, so the document is malformed; let the
      // sequential parser produce the authoritative diagnosis (its
      // line/column positions refer to the original input).
      return ShredXmlText(xml_text);
    }
  }
  metrics->shred_us->Record(
      static_cast<uint64_t>(shred_timer.ElapsedMicros()));

  // The real root: the sink shreds prolog + root start tag (+ a
  // synthesized close), so the root's path, node and attributes come
  // out exactly as on the sequential path.
  std::string root_doc(xml_text.substr(0, split.root_open_end));
  root_doc += "</" + split.root_tag + ">";
  internal::ShredSink root_sink;
  if (!xml::ParseSax(root_doc, &root_sink).ok()) {
    return ShredXmlText(xml_text);
  }
  StoredDocument global = root_sink.TakeUnfinalized();
  const PathId root_path = global.path(global.root());

  util::Timer merge_timer;
  int root_next_rank = 0;
  for (StoredDocument& shard : shards) {
    MergeShard(std::move(shard), &global, root_path, &root_next_rank);
    // Release the drained shard's columns before the next one merges,
    // keeping peak memory at one corpus plus a single shard's skeleton.
    shard = StoredDocument();
  }
  MEETXML_RETURN_NOT_OK(global.Finalize());
  metrics->merge_us->Record(
      static_cast<uint64_t>(merge_timer.ElapsedMicros()));
  return global;
}

Result<StoredDocument> BulkShredXmlFile(const std::string& path,
                                        const BulkLoadOptions& options) {
  MEETXML_ASSIGN_OR_RETURN(
      util::MmapFile file,
      util::MmapFile::Open(path, util::MmapFile::Advice::kSequential));
  return BulkShredXmlText(file.bytes(), options);
}

}  // namespace model
}  // namespace meetxml
