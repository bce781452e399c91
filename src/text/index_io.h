// Persistence of the full-text indexes (the "TIDX" image section).
//
// The paper's Fig. 6 experiment pays ~1207 ms for the full-text scan
// that feeds the 2 ms meet — and this reproduction used to rebuild the
// inverted word and trigram indexes from scratch on every
// Executor::Build. Persisting them alongside the document in the
// storage image (model/storage_io.h) turns index construction into a
// straight decode: sorted posting lists are delta-encoded against a
// packed (path, owner) key and reload without tokenizing a single
// string.
//
// TIDX payload (little-endian, varints are LEB128):
//   u8 codec version (1)
//   u8 fold_case | varint min_token_length   (tokenizer options)
//   u8 has_trigrams
//   varint word count, then per word in lexicographic order:
//     string | varint posting count | delta-encoded postings
//   varint trigram count, then per trigram in ascending key order:
//     u32 key | varint posting count | delta-encoded postings
// Postings are sorted unique (path, owner) pairs packed into a u64
// key `path << 32 | owner`; the first posting stores its key raw, the
// rest store the (strictly positive) difference to the predecessor.

#ifndef MEETXML_TEXT_INDEX_IO_H_
#define MEETXML_TEXT_INDEX_IO_H_

#include <optional>
#include <string>
#include <string_view>

#include "model/storage_io.h"
#include "text/inverted_index.h"
#include "util/result.h"

namespace meetxml {
namespace text {

/// \brief Serializes an index into the TIDX section payload.
/// Deterministic: equal indexes produce equal bytes.
std::string SerializeIndex(const InvertedIndex& index);

/// \brief Decodes a TIDX payload. Structural corruption (truncation,
/// non-monotonic postings, duplicate words) is rejected; callers that
/// pair the index with a document should also run
/// ValidateIndexAgainst to bounds-check postings.
util::Result<InvertedIndex> DeserializeIndex(std::string_view bytes);

/// \brief Verifies that every posting refers to an existing path and
/// node of `doc` — the cross-section consistency check run when an
/// image carries both a document and an index.
util::Status ValidateIndexAgainst(const model::StoredDocument& doc,
                                  const InvertedIndex& index);

/// \brief A store image's contents: the document plus, when the image
/// carried a TIDX section, the ready-to-probe full-text index.
struct PersistentStore {
  model::StoredDocument doc;
  std::optional<InvertedIndex> index;
};

/// \brief Saves an image with the document and, when `index` is
/// non-null, the persisted full-text indexes.
util::Result<std::string> SaveStoreToBytes(const model::StoredDocument& doc,
                                           const InvertedIndex* index);

/// \brief Loads an image saved by SaveStoreToBytes (or by
/// model::SaveToBytes; `index` stays empty when the image has no TIDX
/// section, so callers rebuild lazily). `options` selects
/// the load mode: in view mode the document borrows its columns from
/// `bytes` under model/storage_io.h's lifetime contract (the index is
/// always decoded into owned postings).
util::Result<PersistentStore> LoadStoreFromBytes(
    std::string_view bytes, const model::LoadOptions& options = {});

/// \brief File variants. Saving is atomic (temp file + rename);
/// view-mode loading pins the shared mapping into the document.
util::Status SaveStoreToFile(const model::StoredDocument& doc,
                             const InvertedIndex* index,
                             const std::string& path);
util::Result<PersistentStore> LoadStoreFromFile(
    const std::string& path, const model::LoadOptions& options = {});

}  // namespace text
}  // namespace meetxml

#endif  // MEETXML_TEXT_INDEX_IO_H_
