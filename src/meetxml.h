// Umbrella header: the whole public API in one include.
//
//   #include "meetxml.h"
//
//   auto doc  = meetxml::model::ShredXmlFile("data.xml");
//   auto exec = meetxml::query::Executor::Build(*doc);
//   auto res  = exec->ExecuteText("SELECT MEET(a, b) FROM ...");
//
// Fine-grained includes remain available for targeted dependencies;
// see README.md for the layering.

#ifndef MEETXML_MEETXML_H_
#define MEETXML_MEETXML_H_

// Utilities.
#include "util/byte_io.h"
#include "util/file_io.h"
#include "util/mmap_file.h"
#include "util/net.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/threads.h"
#include "util/timer.h"

// Observability: metrics registry and query-stage tracing.
#include "obs/metrics.h"
#include "obs/trace.h"

// XML: the SAX parser the shredder consumes directly, and the DOM that
// the generators build and reassembly and the serializer use.
#include "xml/dom.h"
#include "xml/escape.h"
#include "xml/parser.h"
#include "xml/sax.h"
#include "xml/serializer.h"

// BAT kernel.
#include "bat/bat.h"
#include "bat/oid.h"
#include "bat/ops.h"

// Data model and storage.
#include "model/bulk_load.h"
#include "model/document.h"
#include "model/path_summary.h"
#include "model/reassembly.h"
#include "model/shredder.h"
#include "model/stats.h"
#include "model/storage_io.h"
#include "model/validate.h"

// Full-text search.
#include "text/cross_document.h"
#include "text/index_io.h"
#include "text/inverted_index.h"
#include "text/search.h"
#include "text/thesaurus.h"
#include "text/tokenizer.h"

// The meet operators.
#include "core/browse.h"
#include "core/idref.h"
#include "core/input_set.h"
#include "core/lca_baselines.h"
#include "core/meet_general.h"
#include "core/meet_general_relational.h"
#include "core/meet_pair.h"
#include "core/meet_set.h"
#include "core/restrictions.h"

// Query language.
#include "query/ast.h"
#include "query/executor.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/path_match.h"

// Multi-document store.
#include "store/catalog.h"
#include "store/multi_executor.h"

// The meetxmld query service.
#include "server/protocol.h"
#include "server/service.h"
#include "server/session.h"
#include "server/tcp_server.h"
#include "server/worker_pool.h"

#endif  // MEETXML_MEETXML_H_
