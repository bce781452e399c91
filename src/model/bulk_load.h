// Alias kept for the end-to-end benchmark's set-up, the only caller
// (bench/e2e/harness.cc), which is edited only together with the
// benchmark itself. Every other loader calls ShredXmlFile; the alias
// goes with the next change to the benchmark.

#ifndef MEETXML_MODEL_BULK_LOAD_H_
#define MEETXML_MODEL_BULK_LOAD_H_

#include <string>

#include "model/shredder.h"
#include "util/result.h"

namespace meetxml {
namespace model {

/// \brief ShredXmlFile under the benchmark's old name.
inline util::Result<StoredDocument> BulkShredXmlFile(const std::string& path) {
  return ShredXmlFile(path);
}

}  // namespace model
}  // namespace meetxml

#endif  // MEETXML_MODEL_BULK_LOAD_H_
