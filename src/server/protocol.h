// meetxmld wire protocol v2: length-prefixed frames over a byte
// stream, little-endian, varints are LEB128 (util/byte_io.h).
//
// Frame:        u32 payload length | payload
//               A length of zero or beyond kMaxFrameBytes is a framing
//               error — the stream can no longer be trusted, so the
//               server answers with one error response and closes the
//               connection (per-request errors, below, keep it open).
// Request:      u8 opcode | per-opcode fields:
//   kHello      varint protocol version (kMinProtocolVersion ..
//               kProtocolVersion, i.e. exactly 2; any other version is
//               refused with an "unsupported protocol version" error).
//               Opens the connection's session; everything else
//               requires one.
//   kQuery      scope (varint length + bytes) | query text (ditto).
//               Scope globs follow store::MultiExecutor ("*" = every
//               document).
//   kPing       no fields.
//   kStats      no fields.
//   kBye        no fields; closes the session (the response is still
//               delivered).
//   kDump       no fields. Sessionless, like kStats.
// Response:     u8 status (0 = ok, 1 = error, 2 = busy) | u8 echoed
//               opcode | per-opcode body:
//   ok kHello   varint session id | banner (varint length + bytes)
//   ok kQuery   varint row count | u8 truncated | rendered table
//               (varint length + bytes)
//   ok kPing    empty
//   ok kStats   varint sessions active | varint queries served |
//               varint request errors | varint sessions evicted |
//               varint histogram entry count, then per entry
//               name (varint length + bytes) | varint count |
//               varint sum | varint p50 | varint p90 | varint p99
//               (microsecond latency summaries from the metrics
//               registry, obs/metrics.h). Connections that have not
//               said HELLO get the same body.
//   ok kDump    exposition text (varint length + bytes):
//               Prometheus-style metrics followed by `# querylog`
//               comment lines for the most recent queries with their
//               per-stage time breakdown (obs/trace.h).
//   ok kBye     empty
//   error       varint util::StatusCode | message (varint length +
//               bytes)
//   busy        varint retry-after hint (milliseconds) | message
//               (varint length + bytes). Overload shedding: the server
//               refused to queue the request (admission cap or queue
//               deadline exceeded) and the client should back off for
//               about the hinted time and retry.
// Responses on one connection arrive in request order; clients may
// pipeline. Trailing bytes after any request payload are rejected.
//
// Everything here is pure encode/decode over in-memory bytes — the
// same code path serves the TCP front-end (server/tcp_server.h), the
// in-process test transport (server/service.h) and the protocol fuzz
// suite.

#ifndef MEETXML_SERVER_PROTOCOL_H_
#define MEETXML_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace meetxml {
namespace server {

inline constexpr uint64_t kProtocolVersion = 2;
/// \brief Oldest client version HELLO accepts: the server speaks one
/// version.
inline constexpr uint64_t kMinProtocolVersion = 2;
/// \brief Banner the server's HELLO response carries.
inline constexpr std::string_view kServerBanner = "meetxmld/1";
/// \brief Hard ceiling on one frame's payload. An advertised length
/// beyond it is rejected before any allocation — a hostile length
/// prefix must not become a multi-gigabyte reserve.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;
/// \brief Ceiling on a QUERY response's rendered table, chosen so the
/// whole response payload (status + opcode + varints + table) always
/// fits one frame. HandleQuery enforces it on every transport, which
/// keeps TCP and in-process answers identical: a table that passes the
/// session cap is never bounced later by the frame limit.
inline constexpr uint64_t kMaxQueryTableBytes = kMaxFrameBytes - 64;

/// \brief Decodes the little-endian u32 frame length prefix from 4 raw
/// bytes — the one codec clients reading straight off a socket share
/// with FrameBuffer.
inline uint32_t DecodeFrameLength(const char* bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes);
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

enum class Opcode : uint8_t {
  kHello = 1,
  kQuery = 2,
  kPing = 3,
  kStats = 4,
  kBye = 5,
  kDump = 6,
};

/// \brief A decoded request.
struct Request {
  Opcode opcode = Opcode::kPing;
  uint64_t protocol_version = 0;  // kHello
  std::string scope;              // kQuery
  std::string query;              // kQuery
};

/// \brief One histogram summary of a kStats reply — the wire
/// mirror of obs::NamedSummary (values in microseconds).
struct StatsHistogramEntry {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
};

/// \brief Service counters carried by a kStats response.
struct StatsBody {
  uint64_t sessions_active = 0;
  uint64_t queries_served = 0;
  uint64_t request_errors = 0;
  uint64_t sessions_evicted = 0;
  std::vector<StatsHistogramEntry> histograms;
};

/// \brief A decoded response.
struct Response {
  bool ok = false;
  Opcode opcode = Opcode::kPing;
  // busy: the server shed this request; retry after roughly the
  // hinted delay. Busy responses are not ok and carry kUnavailable.
  bool busy = false;
  uint64_t retry_after_ms = 0;
  // error
  util::StatusCode code = util::StatusCode::kOk;
  std::string message;
  // kHello
  uint64_t session_id = 0;
  std::string banner;
  // kQuery
  uint64_t row_count = 0;
  bool truncated = false;
  std::string table;
  // kStats
  StatsBody stats;
  // kDump
  std::string dump;
};

/// \brief Wraps a payload in a length-prefixed frame. The payload must
/// fit kMaxFrameBytes (encoders below never exceed it; callers framing
/// raw bytes must check).
std::string EncodeFrame(std::string_view payload);

std::string EncodeRequest(const Request& request);
std::string EncodeResponse(const Response& response);

/// \brief Convenience: an error response echoing `opcode`.
std::string EncodeErrorResponse(Opcode opcode, const util::Status& status);

/// \brief Convenience: a shed reply echoing `opcode` — a status-2 busy
/// response carrying the retry-after hint.
std::string EncodeBusyResponse(Opcode opcode, uint64_t retry_after_ms,
                               std::string_view message);

/// \brief Strict decoders: unknown opcodes, truncated fields and
/// trailing bytes are errors (the server answers per-request, the
/// client treats a bad response as a broken server).
util::Result<Request> DecodeRequest(std::string_view payload);
util::Result<Response> DecodeResponse(std::string_view payload);

/// \brief Incremental frame extraction over an append-only stream
/// buffer — the state a connection reader keeps between reads.
class FrameBuffer {
 public:
  void Append(std::string_view bytes) { buffer_.append(bytes); }

  /// \brief Pops the next complete frame payload; std::nullopt when
  /// the buffered bytes end mid-frame (append more and retry). A zero
  /// or oversized length prefix is an error — framing is lost for
  /// good, the connection must close.
  util::Result<std::optional<std::string>> Next();

  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;
};

}  // namespace server
}  // namespace meetxml

#endif  // MEETXML_SERVER_PROTOCOL_H_
