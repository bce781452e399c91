#include "server/protocol.h"

#include <utility>

#include "util/byte_io.h"

namespace meetxml {
namespace server {

using util::ByteReader;
using util::ByteWriter;
using util::Result;
using util::Status;
using util::StatusCode;

namespace {

bool KnownOpcode(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Opcode::kHello) &&
         raw <= static_cast<uint8_t>(Opcode::kDump);
}

bool KnownStatusCode(uint64_t raw) {
  return raw >= static_cast<uint64_t>(StatusCode::kInvalidArgument) &&
         raw <= static_cast<uint64_t>(StatusCode::kUnavailable);
}

Status CheckDrained(const ByteReader& reader, std::string_view what) {
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after ", what);
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  ByteWriter out;
  out.U32(static_cast<uint32_t>(payload.size()));
  out.Bytes(payload);
  return out.Take();
}

std::string EncodeRequest(const Request& request) {
  ByteWriter out;
  out.U8(static_cast<uint8_t>(request.opcode));
  switch (request.opcode) {
    case Opcode::kHello:
      out.Varint(request.protocol_version);
      break;
    case Opcode::kQuery:
      out.StrVarint(request.scope);
      out.StrVarint(request.query);
      break;
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kBye:
    case Opcode::kDump:
      break;
  }
  return out.Take();
}

Result<Request> DecodeRequest(std::string_view payload) {
  ByteReader reader(payload);
  MEETXML_ASSIGN_OR_RETURN(uint8_t raw_opcode, reader.U8());
  if (!KnownOpcode(raw_opcode)) {
    return Status::InvalidArgument("unknown request opcode ", raw_opcode);
  }
  Request request;
  request.opcode = static_cast<Opcode>(raw_opcode);
  switch (request.opcode) {
    case Opcode::kHello: {
      MEETXML_ASSIGN_OR_RETURN(request.protocol_version, reader.Varint());
      break;
    }
    case Opcode::kQuery: {
      MEETXML_ASSIGN_OR_RETURN(request.scope, reader.StrVarint());
      MEETXML_ASSIGN_OR_RETURN(request.query, reader.StrVarint());
      break;
    }
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kBye:
    case Opcode::kDump:
      break;
  }
  MEETXML_RETURN_NOT_OK(CheckDrained(reader, "request"));
  return request;
}

std::string EncodeResponse(const Response& response) {
  ByteWriter out;
  out.U8(response.ok ? 0 : response.busy ? 2 : 1);
  out.U8(static_cast<uint8_t>(response.opcode));
  if (!response.ok) {
    if (response.busy) {
      out.Varint(response.retry_after_ms);
      out.StrVarint(response.message);
      return out.Take();
    }
    out.Varint(static_cast<uint64_t>(response.code));
    out.StrVarint(response.message);
    return out.Take();
  }
  switch (response.opcode) {
    case Opcode::kHello:
      out.Varint(response.session_id);
      out.StrVarint(response.banner);
      break;
    case Opcode::kQuery:
      out.Varint(response.row_count);
      out.U8(response.truncated ? 1 : 0);
      out.StrVarint(response.table);
      break;
    case Opcode::kStats:
      out.Varint(response.stats.sessions_active);
      out.Varint(response.stats.queries_served);
      out.Varint(response.stats.request_errors);
      out.Varint(response.stats.sessions_evicted);
      out.Varint(response.stats.histograms.size());
      for (const StatsHistogramEntry& entry : response.stats.histograms) {
        out.StrVarint(entry.name);
        out.Varint(entry.count);
        out.Varint(entry.sum);
        out.Varint(entry.p50);
        out.Varint(entry.p90);
        out.Varint(entry.p99);
      }
      break;
    case Opcode::kDump:
      out.StrVarint(response.dump);
      break;
    case Opcode::kPing:
    case Opcode::kBye:
      break;
  }
  return out.Take();
}

std::string EncodeErrorResponse(Opcode opcode, const Status& status) {
  Response response;
  response.ok = false;
  response.opcode = opcode;
  response.code = status.code();
  response.message = status.message();
  return EncodeResponse(response);
}

std::string EncodeBusyResponse(Opcode opcode, uint64_t retry_after_ms,
                               std::string_view message) {
  Response response;
  response.ok = false;
  response.busy = true;
  response.opcode = opcode;
  response.code = StatusCode::kUnavailable;
  response.retry_after_ms = retry_after_ms;
  response.message.assign(message.data(), message.size());
  return EncodeResponse(response);
}

Result<Response> DecodeResponse(std::string_view payload) {
  ByteReader reader(payload);
  MEETXML_ASSIGN_OR_RETURN(uint8_t raw_status, reader.U8());
  if (raw_status > 2) {
    return Status::InvalidArgument("unknown response status ", raw_status);
  }
  MEETXML_ASSIGN_OR_RETURN(uint8_t raw_opcode, reader.U8());
  if (!KnownOpcode(raw_opcode)) {
    return Status::InvalidArgument("unknown response opcode ", raw_opcode);
  }
  Response response;
  response.ok = raw_status == 0;
  response.opcode = static_cast<Opcode>(raw_opcode);
  if (raw_status == 2) {
    // busy: the shed reply — retry-after hint plus message.
    response.busy = true;
    response.code = StatusCode::kUnavailable;
    MEETXML_ASSIGN_OR_RETURN(response.retry_after_ms, reader.Varint());
    MEETXML_ASSIGN_OR_RETURN(response.message, reader.StrVarint());
    MEETXML_RETURN_NOT_OK(CheckDrained(reader, "busy response"));
    return response;
  }
  if (!response.ok) {
    MEETXML_ASSIGN_OR_RETURN(uint64_t raw_code, reader.Varint());
    if (!KnownStatusCode(raw_code)) {
      return Status::InvalidArgument("unknown status code ", raw_code);
    }
    response.code = static_cast<StatusCode>(raw_code);
    MEETXML_ASSIGN_OR_RETURN(response.message, reader.StrVarint());
    MEETXML_RETURN_NOT_OK(CheckDrained(reader, "error response"));
    return response;
  }
  switch (response.opcode) {
    case Opcode::kHello: {
      MEETXML_ASSIGN_OR_RETURN(response.session_id, reader.Varint());
      MEETXML_ASSIGN_OR_RETURN(response.banner, reader.StrVarint());
      break;
    }
    case Opcode::kQuery: {
      MEETXML_ASSIGN_OR_RETURN(response.row_count, reader.Varint());
      MEETXML_ASSIGN_OR_RETURN(uint8_t truncated, reader.U8());
      if (truncated > 1) {
        return Status::InvalidArgument("bad truncated flag ", truncated);
      }
      response.truncated = truncated == 1;
      MEETXML_ASSIGN_OR_RETURN(response.table, reader.StrVarint());
      break;
    }
    case Opcode::kStats: {
      MEETXML_ASSIGN_OR_RETURN(response.stats.sessions_active,
                               reader.Varint());
      MEETXML_ASSIGN_OR_RETURN(response.stats.queries_served,
                               reader.Varint());
      MEETXML_ASSIGN_OR_RETURN(response.stats.request_errors,
                               reader.Varint());
      MEETXML_ASSIGN_OR_RETURN(response.stats.sessions_evicted,
                               reader.Varint());
      MEETXML_ASSIGN_OR_RETURN(uint64_t entry_count, reader.Varint());
      // Every entry takes at least 6 bytes; a count beyond the payload
      // is a hostile length, not a short read.
      if (entry_count > payload.size()) {
        return Status::InvalidArgument("stats histogram count ",
                                       entry_count,
                                       " exceeds the payload size");
      }
      response.stats.histograms.reserve(entry_count);
      for (uint64_t i = 0; i < entry_count; ++i) {
        StatsHistogramEntry entry;
        MEETXML_ASSIGN_OR_RETURN(entry.name, reader.StrVarint());
        MEETXML_ASSIGN_OR_RETURN(entry.count, reader.Varint());
        MEETXML_ASSIGN_OR_RETURN(entry.sum, reader.Varint());
        MEETXML_ASSIGN_OR_RETURN(entry.p50, reader.Varint());
        MEETXML_ASSIGN_OR_RETURN(entry.p90, reader.Varint());
        MEETXML_ASSIGN_OR_RETURN(entry.p99, reader.Varint());
        response.stats.histograms.push_back(std::move(entry));
      }
      break;
    }
    case Opcode::kDump: {
      MEETXML_ASSIGN_OR_RETURN(response.dump, reader.StrVarint());
      break;
    }
    case Opcode::kPing:
    case Opcode::kBye:
      break;
  }
  MEETXML_RETURN_NOT_OK(CheckDrained(reader, "response"));
  return response;
}

Result<std::optional<std::string>> FrameBuffer::Next() {
  // Compact lazily: keeping a cursor instead of erasing per frame
  // makes pipelined bursts O(bytes), not O(frames * bytes).
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  if (buffered() < 4) return std::optional<std::string>();
  uint32_t length = DecodeFrameLength(buffer_.data() + pos_);
  if (length == 0) {
    return Status::InvalidArgument("zero-length frame");
  }
  if (length > kMaxFrameBytes) {
    return Status::ResourceExhausted("frame of ", length,
                                     " bytes exceeds the ",
                                     kMaxFrameBytes, "-byte limit");
  }
  if (buffered() < 4 + static_cast<size_t>(length)) {
    return std::optional<std::string>();
  }
  std::string payload = buffer_.substr(pos_ + 4, length);
  pos_ += 4 + static_cast<size_t>(length);
  if (pos_ == buffer_.size() || pos_ >= kMaxFrameBytes) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return std::optional<std::string>(std::move(payload));
}

}  // namespace server
}  // namespace meetxml
