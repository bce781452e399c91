// Parallel bulk-load pipeline: the multi-threaded Monet transform.
//
// The paper's case study bulk-loads hundreds of megabytes (the 200 MB
// feature corpus, the full DBLP) before a single query runs, and
// shredding was the one stage of this reproduction that stayed
// single-threaded. This module splits a corpus into shard units at
// top-level element boundaries with a lexical scan (no parse), shreds
// the shards on a thread pool — each worker runs the same ShredSink as
// the sequential path, into a thread-local builder — and merges the
// shards with a deterministic OID-rebase/path-re-intern replay into a
// global document whose root another ShredSink built from the prolog
// and the root's start tag. The merged document is bit-identical to
// the output of ShredXmlText (the equivalence is pinned by
// byte-comparing storage images in tests/bulk_load_test.cc), so callers
// can switch freely between the paths.
//
// Inputs whose top-level structure the splitter cannot chunk safely
// (a childless root, fewer units than would pay for a thread, or any
// structural anomaly) fall back to ShredXmlText, which also produces
// the authoritative error message for malformed documents.

#ifndef MEETXML_MODEL_BULK_LOAD_H_
#define MEETXML_MODEL_BULK_LOAD_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "model/shredder.h"
#include "util/result.h"

namespace meetxml {
namespace model {

/// \brief Knobs for the parallel bulk load.
struct BulkLoadOptions {
  /// Worker threads (util::ParallelFor's width); 0 means the
  /// hardware parallelism.
  unsigned threads = 0;
  /// Target XML bytes per shard. Shards are whole top-level subtrees,
  /// so actual shards can exceed this when a single subtree is larger.
  size_t target_chunk_bytes = size_t{1} << 20;
  /// Inputs smaller than this skip the pipeline entirely: the split
  /// and the merge would cost more than the parallel shred saves.
  size_t min_parallel_bytes = size_t{256} << 10;
};

/// \brief Parses and shreds `xml_text` on a thread pool. The result is
/// finalized and bit-identical to ShredXmlText's.
util::Result<StoredDocument> BulkShredXmlText(
    std::string_view xml_text, const BulkLoadOptions& options = {});

/// \brief BulkShredXmlText over a file, read through util::MmapFile.
util::Result<StoredDocument> BulkShredXmlFile(
    const std::string& path, const BulkLoadOptions& options = {});

namespace internal {

/// \brief One top-level shard unit boundary layout, produced by the
/// lexical splitter. Offsets index into the original input.
struct CorpusSplit {
  /// End of the root start tag (exclusive) — `[0, root_open_end)` is
  /// prolog + the root's own tag and attributes.
  size_t root_open_end = 0;
  /// Content region between the root tags.
  size_t content_begin = 0;
  size_t content_end = 0;
  /// Root element tag (prefix-verbatim, like the parser keeps it).
  std::string root_tag;
  /// Start offset of every top-level unit. A unit runs to the next
  /// start (or content_end) and begins at a top-level element start
  /// tag, except the first, which begins at content_begin and may
  /// carry leading character data. Splitting only at element starts
  /// guarantees no merged text run spans a shard boundary.
  std::vector<size_t> unit_starts;
};

/// \brief Lexically locates the top-level unit boundaries of `xml_text`
/// without parsing: comments, CDATA sections, processing instructions,
/// DOCTYPE internal subsets and quoted attribute values are skipped,
/// depth is tracked, and the root close tag is verified. Returns an
/// error for inputs whose structure cannot be chunked safely; callers
/// fall back to the sequential shredder (which re-diagnoses malformed
/// input with proper line/column positions).
util::Result<CorpusSplit> SplitTopLevel(std::string_view xml_text);

}  // namespace internal

}  // namespace model
}  // namespace meetxml

#endif  // MEETXML_MODEL_BULK_LOAD_H_
