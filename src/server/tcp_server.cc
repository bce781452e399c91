#include "server/tcp_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/net.h"

namespace meetxml {
namespace server {

using util::Result;
using util::Status;

TcpServer::TcpServer(QueryService* service, const TcpServerOptions& options)
    : service_(service), options_(options) {
  inbox_gauge_ = &service_->metrics().gauge("meetxml_server_inbox_frames");
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(
    QueryService* service, const TcpServerOptions& options) {
  std::unique_ptr<TcpServer> server(new TcpServer(service, options));
  MEETXML_ASSIGN_OR_RETURN(server->listen_fd_,
                           util::ListenTcp(options.port));
  Result<uint16_t> port = util::LocalPort(server->listen_fd_);
  if (!port.ok()) {
    util::CloseSocket(server->listen_fd_);
    return port.status();
  }
  server->port_ = *port;
  // The pool measures queue wait and execute time on the service's
  // clock, into the service's registry — the one kDump renders.
  WorkerPoolOptions pool_options;
  pool_options.threads = options.workers;
  pool_options.metrics =
      service->options().observe ? &service->metrics() : nullptr;
  pool_options.clock_us = [service] { return service->NowUs(); };
  server->pool_ = std::make_unique<WorkerPool>(std::move(pool_options));
  server->accept_thread_ = std::thread([s = server.get()] {
    s->AcceptLoop();
  });
  server->maintenance_thread_ = std::thread([s = server.get()] {
    s->MaintenanceLoop();
  });
  return server;
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::AcceptLoop() {
  for (;;) {
    Result<int> fd = util::AcceptConnection(listen_fd_);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd.ok()) util::CloseSocket(*fd);
      return;
    }
    if (!fd.ok()) {
      // The listener broke outside of Stop() — nothing to accept on
      // anymore; the server keeps serving existing connections.
      return;
    }
    Result<std::unique_ptr<QueryService::Connection>> service_conn =
        service_->Connect();
    if (!service_conn.ok()) {
      // Draining: refuse politely with one framed error, then close.
      util::WriteFull(*fd, EncodeFrame(EncodeErrorResponse(
                               Opcode::kHello, service_conn.status())))
          .ok();
      util::CloseSocket(*fd);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = *fd;
    conn->service_conn = std::move(*service_conn);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void TcpServer::ReaderLoop(std::shared_ptr<Conn> conn) {
  FrameBuffer frames;
  char buffer[16384];
  while (!conn->dead.load(std::memory_order_acquire)) {
    Result<size_t> n = util::ReadSome(conn->fd, buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) break;
    frames.Append(std::string_view(buffer, *n));
    for (;;) {
      Result<std::optional<std::string>> next = frames.Next();
      if (!next.ok()) {
        // Framing is unrecoverable: answer once, stop reading. Frames
        // already queued still answer (per-request error contract).
        std::string error_frame =
            EncodeFrame(EncodeErrorResponse(Opcode::kPing, next.status()));
        {
          std::lock_guard<std::mutex> lock(conn->write_mu);
          util::WriteFull(conn->fd, error_frame).ok();
        }
        conn->dead.store(true, std::memory_order_release);
        break;
      }
      if (!next->has_value()) break;
      Enqueue(conn, std::move(**next));
    }
  }
  util::ShutdownRead(conn->fd);
  conn->reader_done.store(true, std::memory_order_release);
}

void TcpServer::Enqueue(const std::shared_ptr<Conn>& conn,
                        std::string payload) {
  bool schedule = false;
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    // Backpressure: park this connection's reader (and with it the
    // client's TCP window) while the inbox sits at its bound, instead
    // of queueing without limit. Pump signals every pop; a dying or
    // stopping connection signals too, and its frame dies with it.
    conn->inbox_cv.wait(lock, [&] {
      return (conn->inbox.size() < options_.max_inbox_frames &&
              conn->inbox_bytes < options_.max_inbox_bytes) ||
             conn->dead.load(std::memory_order_acquire) ||
             stopping_.load(std::memory_order_acquire);
    });
    if (conn->dead.load(std::memory_order_acquire) ||
        stopping_.load(std::memory_order_acquire)) {
      return;
    }
    InboxItem item;
    item.payload = std::move(payload);
    // Admission happens at enqueue, not dispatch, so the service-level
    // cap bounds the whole backlog across connections. A refused query
    // is shed right here — but its busy reply rides the inbox like any
    // frame, keeping responses in strict request order.
    if (!item.payload.empty() &&
        static_cast<uint8_t>(item.payload.front()) ==
            static_cast<uint8_t>(Opcode::kQuery)) {
      if (service_->TryAcquireQuerySlot()) {
        item.holds_slot = true;
        item.admitted_ms = service_->NowMs();
      } else {
        item.payload = service_->MakeBusyResponse(false);
        item.ready_reply = true;
      }
    }
    conn->inbox_bytes += item.payload.size();
    conn->inbox.push_back(std::move(item));
    inbox_gauge_->Add(1);
    if (!conn->running) {
      conn->running = true;
      schedule = true;
    }
  }
  if (schedule) {
    pool_->Submit([this, conn] { Pump(conn); });
  }
}

void TcpServer::Pump(std::shared_ptr<Conn> conn) {
  for (;;) {
    InboxItem item;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->inbox.empty()) {
        conn->running = false;
        return;
      }
      item = std::move(conn->inbox.front());
      conn->inbox.pop_front();
      conn->inbox_bytes -= item.payload.size();
      inbox_gauge_->Add(-1);
    }
    conn->inbox_cv.notify_one();
    std::string response;
    if (item.ready_reply) {
      response = std::move(item.payload);
    } else {
      RequestContext ctx;
      ctx.admitted_ms = item.admitted_ms;
      ctx.pre_admitted = item.holds_slot;
      response = conn->service_conn->HandlePayload(item.payload, ctx);
    }
    if (response.size() > kMaxFrameBytes) {
      // Pure safety net: HandleQuery clamps rendered tables to
      // kMaxQueryTableBytes, so no encoder should ever get here; if
      // one does, send the bound violation, not an unreadable frame.
      response = EncodeErrorResponse(
          Opcode::kQuery,
          Status::ResourceExhausted(
              "response of ", response.size(), " bytes exceeds the ",
              kMaxFrameBytes, "-byte frame limit; add LIMIT"));
    }
    std::string frame = EncodeFrame(response);
    bool write_failed;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      write_failed = !util::WriteFull(conn->fd, frame).ok();
    }
    if (write_failed) {
      conn->dead.store(true, std::memory_order_release);
      util::ShutdownSocket(conn->fd);
      // The empty critical section orders the store against the
      // reader's predicate check, so a reader parked in Enqueue cannot
      // miss this wakeup.
      { std::lock_guard<std::mutex> state_lock(conn->mu); }
      conn->inbox_cv.notify_all();
    }
  }
}

void TcpServer::MaintenanceLoop() {
  std::unique_lock<std::mutex> lock(maintenance_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    maintenance_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.maintenance_interval_ms),
        [this] { return stopping_.load(std::memory_order_acquire); });
    if (stopping_.load(std::memory_order_acquire)) return;
    lock.unlock();
    std::vector<uint64_t> evicted = service_->EvictIdle();
    if (!evicted.empty()) {
      std::lock_guard<std::mutex> conns_lock(conns_mu_);
      for (const std::shared_ptr<Conn>& conn : conns_) {
        uint64_t session = conn->service_conn->session_id();
        if (session != 0 && std::find(evicted.begin(), evicted.end(),
                                      session) != evicted.end()) {
          // The session is gone; hang up so the client notices now
          // instead of at its next request.
          util::ShutdownSocket(conn->fd);
        }
      }
    }
    Reap();
    lock.lock();
  }
}

void TcpServer::Reap() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = **it;
    // Order matters: observe reader_done BEFORE snapshotting idleness.
    // Once the reader has finished, no further Enqueue can set
    // `running`, so an idle snapshot taken afterwards stays true and
    // the teardown below cannot race a queued Pump. The reverse order
    // would let the reader's final frame land between the two reads
    // and Pump would then dereference the reset service_conn.
    if (!conn.reader_done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    bool idle;
    {
      std::lock_guard<std::mutex> conn_lock(conn.mu);
      idle = !conn.running && conn.inbox.empty();
    }
    if (idle) {
      if (conn.reader.joinable()) conn.reader.join();
      util::CloseSocket(conn.fd);
      conn.service_conn.reset();  // releases the session
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // 1. Stop intake: wake the accept loop (shutdown on a listening
  //    socket fails accept with EINVAL on Linux), join, release.
  util::ShutdownSocket(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  util::CloseSocket(listen_fd_);
  listen_fd_ = -1;
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) maintenance_thread_.join();
  // 2. Stop reading new requests; already-queued dispatches keep their
  //    write side, so in-flight queries still answer. Readers parked
  //    on a full inbox see stopping_ and bail (the empty critical
  //    section orders the flag against their predicate check).
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::shared_ptr<Conn>& conn : conns_) {
      util::ShutdownRead(conn->fd);
      { std::lock_guard<std::mutex> state_lock(conn->mu); }
      conn->inbox_cv.notify_all();
    }
  }
  // 3. Drain the pool: every queued dispatch runs to completion and
  //    its response is delivered before any socket closes.
  if (pool_ != nullptr) pool_->Shutdown();
  // 4. Tear down: join readers, close sockets, release sessions.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const std::shared_ptr<Conn>& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    util::ShutdownSocket(conn->fd);
    util::CloseSocket(conn->fd);
    // Frames still in the inbox die with the connection — the gauge
    // must not keep counting them, and admission slots they hold must
    // go back (a leaked slot would shrink the cap forever).
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      inbox_gauge_->Add(-static_cast<int64_t>(conn->inbox.size()));
      for (const InboxItem& item : conn->inbox) {
        if (item.holds_slot) service_->ReleaseQuerySlot();
      }
      conn->inbox.clear();
    }
    conn->service_conn.reset();
  }
}

size_t TcpServer::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

}  // namespace server
}  // namespace meetxml
