// Fuzz-style robustness tests for the meetxmld wire path: truncated
// frames, oversized and zero length prefixes, garbage payload bytes,
// single-byte flips and pipelined/interleaved requests. The contract
// (server/tcp_server.h): a malformed request earns an error response,
// never a crash — and whatever the bytes were, no session leaks. The
// CI sanitize (ASan/UBSan) job runs this suite, so an out-of-bounds
// decode or a leaked session object fails loudly.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "store/catalog.h"
#include "tests/test_util.h"
#include "util/byte_io.h"
#include "util/net.h"

namespace meetxml {
namespace server {
namespace {

using meetxml::testing::MustShred;
using util::Result;

const store::Catalog& FuzzCatalog() {
  static store::Catalog* catalog = [] {
    auto* out = new store::Catalog;
    EXPECT_TRUE(
        out->Add("lib", MustShred("<doc><entry><title>corpus number one"
                                  "</title><year>1995</year></entry>"
                                  "</doc>"))
            .ok());
    return out;
  }();
  return *catalog;
}

// Every request the protocol can express, valid form.
std::vector<std::string> ValidPayloads() {
  std::vector<std::string> payloads;
  Request hello;
  hello.opcode = Opcode::kHello;
  hello.protocol_version = kProtocolVersion;
  payloads.push_back(EncodeRequest(hello));
  Request query;
  query.opcode = Opcode::kQuery;
  query.scope = "*";
  query.query = "SELECT COUNT(a) FROM *//cdata a";
  payloads.push_back(EncodeRequest(query));
  Request ping;
  ping.opcode = Opcode::kPing;
  payloads.push_back(EncodeRequest(ping));
  Request stats;
  stats.opcode = Opcode::kStats;
  payloads.push_back(EncodeRequest(stats));
  Request bye;
  bye.opcode = Opcode::kBye;
  payloads.push_back(EncodeRequest(bye));
  Request dump;
  dump.opcode = Opcode::kDump;
  payloads.push_back(EncodeRequest(dump));
  return payloads;
}

// One dispatch through the real path; the response must always decode.
void ExpectCleanResponse(QueryService::Connection* connection,
                         std::string_view payload) {
  std::string response_payload = connection->HandlePayload(payload);
  auto response = DecodeResponse(response_payload);
  EXPECT_TRUE(response.ok())
      << "server emitted an undecodable response: " << response.status();
}

TEST(ServerFuzz, EveryPayloadTruncationAnswersAnError) {
  QueryService service(&FuzzCatalog());
  for (const std::string& payload : ValidPayloads()) {
    auto connection = service.Connect();
    ASSERT_TRUE(connection.ok());
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      std::string_view truncated(payload.data(), cut);
      ExpectCleanResponse(connection->get(), truncated);
    }
  }
  EXPECT_EQ(service.stats().sessions_active, 0u) << "leaked sessions";
}

TEST(ServerFuzz, EveryByteFlipAnswersSomethingDecodable) {
  QueryService service(&FuzzCatalog());
  for (const std::string& payload : ValidPayloads()) {
    for (uint8_t mask : {0x01, 0x40, 0xff}) {
      auto connection = service.Connect();
      ASSERT_TRUE(connection.ok());
      for (size_t at = 0; at < payload.size(); ++at) {
        std::string corrupt = payload;
        corrupt[at] = static_cast<char>(corrupt[at] ^ mask);
        // A flip may still be a well-formed request (e.g. a scope
        // byte) — the invariant is only "decodable response, no
        // crash, no leak".
        ExpectCleanResponse(connection->get(), corrupt);
        // Whatever session state the flip produced, BYE resets it so
        // the leak check below stays exact.
        Request bye;
        bye.opcode = Opcode::kBye;
        ExpectCleanResponse(connection->get(), EncodeRequest(bye));
      }
    }
  }
  EXPECT_EQ(service.stats().sessions_active, 0u) << "leaked sessions";
}

TEST(ServerFuzz, PseudoRandomGarbageNeverCrashes) {
  QueryService service(&FuzzCatalog());
  auto connection = service.Connect();
  ASSERT_TRUE(connection.ok());
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint8_t>(state >> 56);
  };
  for (int round = 0; round < 200; ++round) {
    std::string garbage(next() % 64, '\0');
    for (char& byte : garbage) byte = static_cast<char>(next());
    ExpectCleanResponse(connection->get(), garbage);
  }
  connection->reset();
  EXPECT_EQ(service.stats().sessions_active, 0u) << "leaked sessions";
}

TEST(ServerFuzz, FrameBufferRejectsHostileLengthPrefixes) {
  // Zero-length frame: framing error.
  {
    FrameBuffer frames;
    frames.Append(std::string(4, '\0'));
    auto next = frames.Next();
    EXPECT_FALSE(next.ok());
  }
  // Oversized length prefix: rejected before any allocation.
  {
    FrameBuffer frames;
    util::ByteWriter out;
    out.U32(kMaxFrameBytes + 1);
    frames.Append(out.Take());
    auto next = frames.Next();
    EXPECT_FALSE(next.ok());
    EXPECT_TRUE(next.status().IsResourceExhausted());
  }
  // 0xffffffff: the classic length-bomb.
  {
    FrameBuffer frames;
    frames.Append("\xff\xff\xff\xff");
    EXPECT_FALSE(frames.Next().ok());
  }
  // Largest legal frame passes intact.
  {
    FrameBuffer frames;
    std::string payload(kMaxFrameBytes, 'x');
    frames.Append(EncodeFrame(payload));
    auto next = frames.Next();
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_TRUE(next->has_value());
    EXPECT_EQ(**next, payload);
  }
}

TEST(ServerFuzz, FrameBufferReassemblesDribbledAndPipelinedFrames) {
  std::vector<std::string> payloads = ValidPayloads();
  std::string wire;
  for (const std::string& payload : payloads) {
    wire += EncodeFrame(payload);
  }
  // Deliver the whole pipeline one byte at a time; the decoded frames
  // must come out intact and in order.
  FrameBuffer frames;
  std::vector<std::string> decoded;
  for (char byte : wire) {
    frames.Append(std::string_view(&byte, 1));
    for (;;) {
      auto next = frames.Next();
      ASSERT_TRUE(next.ok()) << next.status();
      if (!next->has_value()) break;
      decoded.push_back(**next);
    }
  }
  ASSERT_EQ(decoded.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(decoded[i], payloads[i]) << "frame " << i;
  }
  EXPECT_EQ(frames.buffered(), 0u);
}

TEST(ServerFuzz, ProtocolRoundTripsEveryOpcode) {
  for (const std::string& payload : ValidPayloads()) {
    auto request = DecodeRequest(payload);
    ASSERT_TRUE(request.ok()) << request.status();
    EXPECT_EQ(EncodeRequest(*request), payload);
  }
  // Responses: ok and error forms for each opcode.
  for (Opcode opcode : {Opcode::kHello, Opcode::kQuery, Opcode::kPing,
                        Opcode::kStats, Opcode::kBye, Opcode::kDump}) {
    Response ok_response;
    ok_response.ok = true;
    ok_response.opcode = opcode;
    ok_response.session_id = 7;
    ok_response.banner = "meetxmld/1";
    ok_response.row_count = 3;
    ok_response.table = "doc meet\n";
    ok_response.stats.queries_served = 11;
    std::string encoded = EncodeResponse(ok_response);
    auto decoded = DecodeResponse(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(EncodeResponse(*decoded), encoded);

    std::string error_encoded = EncodeErrorResponse(
        opcode, util::Status::InvalidArgument("fuzz"));
    auto error_decoded = DecodeResponse(error_encoded);
    ASSERT_TRUE(error_decoded.ok()) << error_decoded.status();
    EXPECT_FALSE(error_decoded->ok);
    EXPECT_EQ(error_decoded->message, "fuzz");
  }
  // Trailing bytes are rejected on both sides.
  std::string trailing = ValidPayloads()[2] + "x";
  EXPECT_FALSE(DecodeRequest(trailing).ok());
}

// The v2 surfaces under hostile bytes: a histogram-bearing kStats body
// and a kDump body are truncated at every prefix and bit-flipped at
// every byte. The decoder must answer cleanly (ok or error, never a
// crash — ASan/UBSan police the rest). Anything it does accept must
// canonicalize in one re-encode (a flip can pad a varint into a
// non-minimal form, so the corrupt bytes themselves need not be
// canonical — but the decoded value's encoding is a fixed point).
TEST(ServerFuzz, StatsV2AndDumpResponsesSurviveHostileBytes) {
  std::vector<Response> responses;
  Response v2;
  v2.ok = true;
  v2.opcode = Opcode::kStats;
  v2.stats.sessions_active = 3;
  v2.stats.queries_served = 1000;
  v2.stats.request_errors = 17;
  v2.stats.sessions_evicted = 2;
  v2.stats.histograms.push_back(StatsHistogramEntry{
      "meetxml_server_request_us{op=\"query\"}", 1000, 123456, 63, 255,
      1023});
  v2.stats.histograms.push_back(StatsHistogramEntry{
      "meetxml_query_stage_us{stage=\"decode\"}", 2, 40000, 16383, 32767,
      32767});
  responses.push_back(v2);
  Response dump;
  dump.ok = true;
  dump.opcode = Opcode::kDump;
  dump.dump =
      "# TYPE meetxml_server_queries_total counter\n"
      "meetxml_server_queries_total 1000\n"
      "# querylog when_ms=5 session=1 ok=1 slow=0 total_us=40"
      " rows=2 scope=\"*\" query=\"SELECT \\\"q\\\"\"\n";
  responses.push_back(dump);

  auto expect_canonical_fixed_point = [](const Response& accepted) {
    std::string canonical = EncodeResponse(accepted);
    auto again = DecodeResponse(canonical);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(EncodeResponse(*again), canonical);
  };
  for (const Response& response : responses) {
    std::string encoded = EncodeResponse(response);
    auto decoded = DecodeResponse(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(EncodeResponse(*decoded), encoded);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      auto truncated =
          DecodeResponse(std::string_view(encoded.data(), cut));
      if (truncated.ok()) expect_canonical_fixed_point(*truncated);
    }
    for (uint8_t mask : {0x01, 0x40, 0xff}) {
      for (size_t at = 0; at < encoded.size(); ++at) {
        std::string corrupt = encoded;
        corrupt[at] = static_cast<char>(corrupt[at] ^ mask);
        auto flipped = DecodeResponse(corrupt);
        if (flipped.ok()) expect_canonical_fixed_point(*flipped);
      }
    }
  }
}

// The v2 busy frame (status byte 2, the shed reply) under the same
// hostile-bytes contract: truncations at every prefix and bit flips at
// every byte must decode cleanly or be rejected, and anything accepted
// must canonicalize in one re-encode.
TEST(ServerFuzz, BusyResponsesSurviveHostileBytes) {
  std::string encoded = EncodeBusyResponse(
      Opcode::kQuery, /*retry_after_ms=*/250,
      "server overloaded: admission queue is full");
  ASSERT_FALSE(encoded.empty());
  EXPECT_EQ(static_cast<uint8_t>(encoded[0]), 2u);
  auto decoded = DecodeResponse(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->busy);
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
  EXPECT_EQ(decoded->code, util::StatusCode::kUnavailable);
  EXPECT_EQ(EncodeResponse(*decoded), encoded);

  auto expect_canonical_fixed_point = [](const Response& accepted) {
    std::string canonical = EncodeResponse(accepted);
    auto again = DecodeResponse(canonical);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(EncodeResponse(*again), canonical);
  };
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto truncated = DecodeResponse(std::string_view(encoded.data(), cut));
    if (truncated.ok()) expect_canonical_fixed_point(*truncated);
  }
  for (uint8_t mask : {0x01, 0x40, 0xff}) {
    for (size_t at = 0; at < encoded.size(); ++at) {
      std::string corrupt = encoded;
      corrupt[at] = static_cast<char>(corrupt[at] ^ mask);
      auto flipped = DecodeResponse(corrupt);
      if (flipped.ok()) expect_canonical_fixed_point(*flipped);
    }
  }
}

// One wire version: HELLO at anything but 2 — the retired v1, version
// 0, or a version from the future — is refused with an "unsupported
// protocol version" error naming the one version spoken, and opens no
// session. STATS before any HELLO gets the one body, histogram
// summaries included, and the retired four-varint body no longer
// decodes.
TEST(ServerFuzz, OnlyProtocolVersion2IsSpoken) {
  QueryService service(&FuzzCatalog());
  auto connection = service.Connect();
  ASSERT_TRUE(connection.ok());

  Request hello;
  hello.opcode = Opcode::kHello;
  for (uint64_t version : {uint64_t{0}, uint64_t{1}, kProtocolVersion + 1}) {
    hello.protocol_version = version;
    auto refused = DecodeResponse(
        (*connection)->HandlePayload(EncodeRequest(hello)));
    ASSERT_TRUE(refused.ok()) << refused.status();
    EXPECT_FALSE(refused->ok);
    EXPECT_FALSE(refused->busy);
    EXPECT_EQ(refused->code, util::StatusCode::kInvalidArgument);
    EXPECT_EQ(refused->message, "unsupported protocol version " +
                                    std::to_string(version) +
                                    " (this server speaks 2..2)");
    EXPECT_EQ((*connection)->session_id(), 0u);
  }

  Request stats;
  stats.opcode = Opcode::kStats;
  std::string payload = (*connection)->HandlePayload(EncodeRequest(stats));
  auto decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->ok);
  EXPECT_FALSE(decoded->stats.histograms.empty());
  // Byte-exact: the payload IS the encoding of what it carries.
  Response expected;
  expected.ok = true;
  expected.opcode = Opcode::kStats;
  expected.stats = decoded->stats;
  EXPECT_EQ(payload, EncodeResponse(expected));
  // The retired v1 body stops after the fourth varint.
  util::ByteWriter v1_body;
  v1_body.U8(0);  // ok
  v1_body.U8(static_cast<uint8_t>(Opcode::kStats));
  for (int i = 0; i < 4; ++i) v1_body.Varint(0);
  EXPECT_FALSE(DecodeResponse(v1_body.Take()).ok());

  hello.protocol_version = kProtocolVersion;
  auto greeted = DecodeResponse(
      (*connection)->HandlePayload(EncodeRequest(hello)));
  ASSERT_TRUE(greeted.ok()) << greeted.status();
  EXPECT_TRUE(greeted->ok);
  EXPECT_NE((*connection)->session_id(), 0u);
}

TEST(ServerFuzz, TcpGarbageGetsOneErrorThenTheSessionIsReleased) {
  store::Catalog catalog;
  ASSERT_TRUE(
      catalog.Add("lib", MustShred("<doc><t>x</t></doc>")).ok());
  QueryService service(&catalog);
  auto server = TcpServer::Start(&service);
  ASSERT_TRUE(server.ok()) << server.status();

  // A client that greets properly, then turns hostile: the server
  // answers the garbage frame with one framed error and hangs up,
  // releasing the session.
  auto fd = util::ConnectTcp("localhost", (*server)->port());
  ASSERT_TRUE(fd.ok());
  Request hello;
  hello.opcode = Opcode::kHello;
  hello.protocol_version = kProtocolVersion;
  ASSERT_TRUE(
      util::WriteFull(*fd, EncodeFrame(EncodeRequest(hello))).ok());
  uint32_t length = 0;
  ASSERT_TRUE(util::ReadFull(*fd, &length, sizeof(length)).ok());
  std::string greeting(length, '\0');
  ASSERT_TRUE(util::ReadFull(*fd, greeting.data(), length).ok());
  ASSERT_EQ(service.stats().sessions_active, 1u);

  ASSERT_TRUE(util::WriteFull(*fd, "\xff\xff\xff\xffgarbage").ok());
  ASSERT_TRUE(util::ReadFull(*fd, &length, sizeof(length)).ok());
  std::string error_payload(length, '\0');
  ASSERT_TRUE(
      util::ReadFull(*fd, error_payload.data(), length).ok());
  auto error_response = DecodeResponse(error_payload);
  ASSERT_TRUE(error_response.ok()) << error_response.status();
  EXPECT_FALSE(error_response->ok);

  // The connection is dead; once the server reaps it, the session is
  // gone. Stop() forces that synchronously.
  util::CloseSocket(*fd);
  (*server)->Stop();
  EXPECT_EQ(service.stats().sessions_active, 0u) << "leaked session";
}

}  // namespace
}  // namespace server
}  // namespace meetxml
