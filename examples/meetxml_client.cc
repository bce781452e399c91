// meetxml_client: a line client for meetxmld.
//
// Run:  ./meetxml_client <port> [scope] [query]
//       ./meetxml_client <port> stats
//       ./meetxml_client <port> dump
// Flags (anywhere on the line):
//       --connect-timeout-ms N   TCP connect deadline (default 5000)
//       --io-timeout-ms N        per-send/recv deadline (default 15000)
//
// With a query on the command line it runs once and exits; without
// one it reads queries from stdin (one per line, scope fixed by
// argv[2], default "*") — an interactive nearest-concept session
// against a running daemon.
//
// Overload behavior: a busy reply (the daemon shed the query at its
// admission cap or queue deadline) makes the one-shot path retry with
// exponential backoff seeded from the server's retry-after hint, plus
// jitter so a fleet of synchronized clients does not re-stampede the
// daemon on the same tick. The interactive path reports the hint and
// leaves the retry to the human. Both socket deadlines turn a hung or
// half-dead daemon into a clean Unavailable error instead of a client
// that blocks forever.
//
// `stats` prints the protocol-v2 STATS body: the legacy counters plus
// a latency table (count / sum / p50 / p90 / p99 in microseconds) for
// every histogram the server tracks. `dump` prints the DUMP opcode's
// Prometheus-style exposition and query-log tail verbatim — the live
// introspection surface for a serving daemon.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "util/net.h"

using namespace meetxml;  // example code; the library itself never does this

namespace {

util::Result<server::Response> Roundtrip(int fd,
                                         const server::Request& request) {
  MEETXML_RETURN_NOT_OK(util::WriteFull(
      fd, server::EncodeFrame(server::EncodeRequest(request))));
  char prefix[4];
  MEETXML_RETURN_NOT_OK(util::ReadFull(fd, prefix, sizeof(prefix)));
  uint32_t length = server::DecodeFrameLength(prefix);
  if (length == 0 || length > server::kMaxFrameBytes) {
    return util::Status::Internal("bad response frame length ", length);
  }
  std::string payload(length, '\0');
  MEETXML_RETURN_NOT_OK(util::ReadFull(fd, payload.data(), length));
  return server::DecodeResponse(payload);
}

uint64_t JitterMs(uint64_t bound) {
  if (bound == 0) return 0;
  static std::mt19937_64 rng{std::random_device{}()};
  return rng() % bound;
}

// One query; `busy_retries` > 0 retries shed queries with exponential
// backoff from the server's retry-after hint (plus jitter).
int RunQuery(int fd, const std::string& scope, const std::string& query,
             int busy_retries) {
  server::Request request;
  request.opcode = server::Opcode::kQuery;
  request.scope = scope;
  request.query = query;
  for (int attempt = 0;; ++attempt) {
    auto response = Roundtrip(fd, request);
    if (!response.ok()) {
      std::fprintf(stderr, "transport error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (response->busy) {
      uint64_t hint =
          response->retry_after_ms != 0 ? response->retry_after_ms : 100;
      if (attempt >= busy_retries) {
        std::fprintf(
            stderr, "server busy: %s (retry in ~%llu ms)\n",
            response->message.c_str(),
            static_cast<unsigned long long>(hint));
        return 1;
      }
      uint64_t backoff = hint << std::min(attempt, 6);
      uint64_t delay = backoff + JitterMs(backoff / 2 + 1);
      std::fprintf(stderr, "server busy — retrying in %llu ms (%d/%d)\n",
                   static_cast<unsigned long long>(delay), attempt + 1,
                   busy_retries);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      continue;
    }
    if (!response->ok) {
      std::fprintf(stderr, "query error: %s\n", response->message.c_str());
      return 1;
    }
    std::printf("%s", response->table.c_str());
    if (response->truncated) {
      std::printf("... (truncated at %llu rows; add LIMIT)\n",
                  static_cast<unsigned long long>(response->row_count));
    }
    return 0;
  }
}

int RunStats(int fd) {
  server::Request request;
  request.opcode = server::Opcode::kStats;
  auto response = Roundtrip(fd, request);
  if (!response.ok() || !response->ok) {
    std::fprintf(stderr, "stats error: %s\n",
                 response.ok() ? response->message.c_str()
                               : response.status().ToString().c_str());
    return 1;
  }
  const server::StatsBody& stats = response->stats;
  std::printf("queries_served   %llu\n"
              "request_errors   %llu\n"
              "sessions_active  %llu\n"
              "sessions_evicted %llu\n",
              static_cast<unsigned long long>(stats.queries_served),
              static_cast<unsigned long long>(stats.request_errors),
              static_cast<unsigned long long>(stats.sessions_active),
              static_cast<unsigned long long>(stats.sessions_evicted));
  std::printf("\n%-44s %10s %12s %8s %8s %8s\n", "histogram", "count",
              "sum", "p50", "p90", "p99");
  for (const server::StatsHistogramEntry& entry : stats.histograms) {
    std::printf("%-44s %10llu %12llu %8llu %8llu %8llu\n",
                entry.name.c_str(),
                static_cast<unsigned long long>(entry.count),
                static_cast<unsigned long long>(entry.sum),
                static_cast<unsigned long long>(entry.p50),
                static_cast<unsigned long long>(entry.p90),
                static_cast<unsigned long long>(entry.p99));
  }
  return 0;
}

int RunDump(int fd) {
  server::Request request;
  request.opcode = server::Opcode::kDump;
  auto response = Roundtrip(fd, request);
  if (!response.ok() || !response->ok) {
    std::fprintf(stderr, "dump error: %s\n",
                 response.ok() ? response->message.c_str()
                               : response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", response->dump.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t connect_timeout_ms = 5000;
  uint64_t io_timeout_ms = 15000;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect-timeout-ms") == 0 && i + 1 < argc) {
      connect_timeout_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--io-timeout-ms") == 0 &&
               i + 1 < argc) {
      io_timeout_ms = std::strtoull(argv[++i], nullptr, 10);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: %s <port> [scope] [query]\n"
                 "       %s <port> stats|dump\n"
                 "flags: --connect-timeout-ms N  --io-timeout-ms N\n",
                 argv[0], argv[0]);
    return 2;
  }
  uint16_t port = static_cast<uint16_t>(std::stoi(positional[0]));
  std::string scope = positional.size() > 1 ? positional[1] : "*";

  auto fd = util::ConnectTcp("localhost", port, connect_timeout_ms);
  MEETXML_CHECK_OK(fd.status());
  if (io_timeout_ms > 0) {
    MEETXML_CHECK_OK(util::SetRecvTimeoutMs(*fd, io_timeout_ms));
    MEETXML_CHECK_OK(util::SetSendTimeoutMs(*fd, io_timeout_ms));
  }

  server::Request hello;
  hello.opcode = server::Opcode::kHello;
  hello.protocol_version = server::kProtocolVersion;
  auto greeted = Roundtrip(*fd, hello);
  MEETXML_CHECK_OK(greeted.status());
  if (!greeted->ok) {
    std::fprintf(stderr, "refused: %s\n", greeted->message.c_str());
    util::CloseSocket(*fd);
    return 1;
  }

  int exit_code = 0;
  if (positional.size() == 2 && (scope == "stats" || scope == "dump")) {
    exit_code = scope == "stats" ? RunStats(*fd) : RunDump(*fd);
  } else if (positional.size() > 2) {
    exit_code = RunQuery(*fd, scope, positional[2], /*busy_retries=*/5);
  } else {
    std::fprintf(stderr, "%s session %llu, scope %s — one query per "
                 "line, Ctrl-D to quit\n",
                 greeted->banner.c_str(),
                 static_cast<unsigned long long>(greeted->session_id),
                 scope.c_str());
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      RunQuery(*fd, scope, line, /*busy_retries=*/0);
    }
  }

  server::Request bye;
  bye.opcode = server::Opcode::kBye;
  Roundtrip(*fd, bye).ok();
  util::CloseSocket(*fd);
  return exit_code;
}
