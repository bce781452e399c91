// Invariant validation for StoredDocument — a deep self-check over the
// Monet transform. Run after loading untrusted storage images, in tests,
// and in debugging sessions; it verifies every structural property the
// meet algorithms rely on.

#ifndef MEETXML_MODEL_VALIDATE_H_
#define MEETXML_MODEL_VALIDATE_H_

#include "model/document.h"
#include "util/status.h"

namespace meetxml {
namespace model {

/// \brief Checks every invariant of a finalized document:
///  * node 0 is the root, every other node's parent has a smaller OID
///    (DFS order),
///  * each node's path's parent equals its parent's path,
///  * depth(node) == depth(path(node)) for all nodes,
///  * the children CSR inverts the parent column and respects rank
///    order,
///  * every edge relation holds exactly the nodes of its path, and the
///    union of edge relations covers every node exactly once,
///  * string relations reference live owners of the right path (cdata
///    strings owned by cdata nodes of that path; attribute strings
///    owned by elements of the parent path); every cdata node has
///    exactly one string,
///  * the path summary is acyclic with parents interned before
///    children and correct depths.
///
/// Returns the first violation found, or OK.
util::Status ValidateDocument(const StoredDocument& doc);

/// \brief The deep O(rows) checks over the raw storage columns that
/// the adoption calls skip under ColumnChecks::kFramingOnly: string
/// owners in range, end offsets monotonic and blob-consistent, and
/// the global append-sequence columns forming one permutation of
/// [0, string_count). Safe on any document whose columns were adopted
/// (framing always holds); does not touch derived structures.
util::Status ValidateStorageColumns(const StoredDocument& doc);

}  // namespace model
}  // namespace meetxml

#endif  // MEETXML_MODEL_VALIDATE_H_
