#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

#include "util/logging.h"
#include "util/slice.h"

namespace ode {
namespace server {

namespace {

// epoll user-data tags for the two non-connection fds; connection ids start
// above them.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

// Scan streaming: records are batched into kScanChunk frames of at most this
// many records / bytes, and the worker blocks (bounded by write_timeout_ms)
// whenever a slow client lets the output buffer exceed the high-water mark.
constexpr size_t kScanChunkRecords = 128;
constexpr size_t kScanChunkBytes = 256 * 1024;
constexpr size_t kOutHighWater = 1 << 20;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const char* op) {
  // Not strerror(): workers and the loop thread build these concurrently,
  // and strerror's static buffer is a data race (concurrency-mt-unsafe).
  return Status::IOError(std::string(op) + ": " +
                         std::generic_category().message(errno));
}

}  // namespace

Server::Server(Database* db, const ServerOptions& options)
    : db_(db), options_(options) {
  MetricsRegistry& m = db_->metrics();
  m_accepted_ = m.GetCounter("server.accepted");
  m_active_ = m.GetGauge("server.active");
  m_requests_ = m.GetCounter("server.requests");
  m_request_us_ = m.GetHistogram("server.request_us");
  m_busy_rejections_ = m.GetCounter("server.busy_rejections");
  m_protocol_errors_ = m.GetCounter("server.protocol_errors");
  m_queue_depth_ = m.GetGauge("server.queue_depth");
  m_bytes_in_ = m.GetCounter("server.bytes_in");
  m_bytes_out_ = m.GetCounter("server.bytes_out");
  m_drain_aborted_ = m.GetCounter("server.drain_aborted");
  m_idle_closed_ = m.GetCounter("server.idle_closed");
  m_drain_gc_runs_ = m.GetCounter("server.gc_drain_runs");
  m_workers_ = m.GetGauge("server.workers");
}

Server::~Server() {
  Status s = Shutdown();
  IgnoreStatus(s, "server_dtor_shutdown");
}

Status Server::Start(Database* db, const ServerOptions& options,
                     std::unique_ptr<Server>* out) {
  if (db == nullptr) return Status::InvalidArgument("Server: null database");
  ServerOptions opts = options;
  if (opts.worker_threads < 1) opts.worker_threads = 1;
  if (opts.max_worker_threads < opts.worker_threads) {
    opts.max_worker_threads = opts.worker_threads;
  }
  if (opts.queue_capacity < 1) opts.queue_capacity = 1;
  std::unique_ptr<Server> server(new Server(db, opts));
  ODE_RETURN_IF_ERROR(server->Init());
  *out = std::move(server);
  return Status::OK();
}

Status Server::Init() {
  next_conn_id_ = kFirstConnId;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("Server: bad host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(wake)");
  }

  loop_thread_ = std::thread([this] { LoopMain(); });
  {
    MutexLock lock(mu_);
    workers_.reserve(static_cast<size_t>(options_.max_worker_threads));
    for (int i = 0; i < options_.worker_threads; i++) SpawnWorkerLocked();
  }
  threads_started_ = true;
  return Status::OK();
}

void Server::SpawnWorkerLocked() {
  workers_.emplace_back([this] { WorkerMain(); });
  total_workers_++;
  m_workers_->Set(total_workers_);
}

Status Server::Shutdown() {
  if (shut_down_.exchange(true)) return Status::OK();
  draining_.store(true, std::memory_order_release);
  if (threads_started_) {
    WakeLoop();
    {
      MutexLock lock(mu_);
      while (!drained_) drained_cv_.Wait(mu_);
    }
    stop_loop_.store(true, std::memory_order_release);
    WakeLoop();
    loop_thread_.join();
    // Swap the pool out under mu_ so a worker spawned concurrently (pool
    // growth happens under the same lock) can never be missed by the join.
    std::vector<std::thread> workers;
    {
      MutexLock lock(mu_);
      stopping_ = true;
      queue_.clear();
      txn_queue_.clear();
      m_queue_depth_->Set(0);
      workers.swap(workers_);
    }
    queue_cv_.NotifyAll();
    for (auto& w : workers) w.join();
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (threads_started_) {
    // A drained server leaves a compacted store behind: one version-GC pass
    // now that no session can race it (docs/SERVER.md "Lifecycle").
    Database::GcTotals totals;
    Status gc = db_->CollectVersionGarbage(&totals);
    if (gc.ok()) {
      m_drain_gc_runs_->Add();
    } else {
      IgnoreStatus(gc, "server_drain_gc");
    }
  }
  return Status::OK();
}

void Server::WakeLoop() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;  // A full eventfd counter still wakes the loop.
}

// --- Event loop --------------------------------------------------------------

void Server::LoopMain() {
  std::vector<epoll_event> events(64);
  while (!stop_loop_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     /*timeout_ms=*/50);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; i++) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptNew();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t junk;
        while (::read(wake_fd_, &junk, sizeof(junk)) == sizeof(junk)) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        MutexLock lock(conn->mu);
        conn->closing = true;
      } else {
        if (events[i].events & EPOLLIN) HandleReadable(conn);
        if (events[i].events & EPOLLOUT) HandleWritable(conn);
      }
    }
    HandleWakeups();
    ScanIdleAndDrain(NowMs());
  }
}

void Server::AcceptNew() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a transient error; epoll retriggers.
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_++;
    conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    {
      MutexLock lock(conn->mu);
      conn->fd = fd;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_[conn->id] = conn;
    m_accepted_->Add();
    m_active_->Set(static_cast<int64_t>(conns_.size()));
  }
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    MutexLock lock(conn->mu);
    if (conn->fd < 0 || conn->closing) return;
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.append(buf, static_cast<size_t>(n));
        m_bytes_in_->Add(static_cast<uint64_t>(n));
        conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
        // Bound inbound buffering to one max-size frame plus headroom.
        if (conn->in.size() >
            options_.max_frame_bytes + kFrameHeaderBytes + 1) {
          break;
        }
        continue;
      }
      if (n == 0) {
        conn->closing = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) conn->closing = true;
      break;
    }
    ParseFrames(conn, *conn);
    close_now = conn->closing && !conn->busy;
  }
  if (close_now) CloseConn(conn);
}

void Server::ParseFrames(const std::shared_ptr<Conn>& conn, Conn& c) {
  if (c.text_mode) {
    c.in.clear();
    return;
  }
  // Plain-text escape hatch: `curl http://host:port/statsz` or
  // `echo statsz | nc` on a fresh connection dumps the metrics registry.
  if (!c.hello_done && c.pending.empty() && !c.busy && c.in.size() >= 4 &&
      (c.in.compare(0, 4, "GET ") == 0 || c.in.compare(0, 4, "stat") == 0)) {
    c.text_mode = true;
    const bool http = c.in.compare(0, 4, "GET ") == 0;
    c.in.clear();
    if (http) {
      // A real HTTP client (curl is HTTP/1.1) rejects a body with no status
      // line as malformed HTTP/0.9 — answer with a minimal header.
      c.out.append(
          "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n"
          "Connection: close\r\n\r\n");
    }
    c.out.append(RenderStatsText());
    Flush(c);
    return;
  }
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    const ParseResult r =
        TryParseFrame(c.in, options_.max_frame_bytes, &frame, &consumed);
    if (r == ParseResult::kNeedMore) break;
    if (r == ParseResult::kMalformed) {
      m_protocol_errors_->Add();
      c.pending.clear();
      c.closing = true;
      return;
    }
    c.in.erase(0, consumed);
    c.pending.push_back(std::move(frame));
  }
  TryDispatch(conn, c);
}

void Server::HandleWritable(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    MutexLock lock(conn->mu);
    Flush(*conn);
    close_now = conn->closing && !conn->busy;
  }
  if (close_now) CloseConn(conn);
}

void Server::HandleWakeups() {
  std::vector<std::shared_ptr<Conn>> list;
  {
    MutexLock lock(mu_);
    list.swap(attention_);
  }
  for (const auto& conn : list) {
    bool close_now = false;
    {
      MutexLock lock(conn->mu);
      Flush(*conn);
      TryDispatch(conn, *conn);
      close_now = conn->closing && !conn->busy;
    }
    if (close_now) CloseConn(conn);
  }
}

void Server::ScanIdleAndDrain(int64_t now_ms) {
  if (draining_.load(std::memory_order_acquire) && !drain_started_) {
    drain_started_ = true;
    drain_deadline_ms_ = now_ms + options_.drain_timeout_ms;
    if (listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  std::vector<std::shared_ptr<Conn>> to_close;
  for (auto& [id, conn] : conns_) {
    MutexLock lock(conn->mu);
    if (drain_started_) {
      const bool has_txn = conn->txn != nullptr;
      const bool quiescent =
          !has_txn && conn->pending.empty() && conn->out.empty();
      if (quiescent || now_ms >= drain_deadline_ms_) {
        if (!conn->closing && now_ms >= drain_deadline_ms_ && has_txn) {
          m_drain_aborted_->Add();
        }
        conn->closing = true;  // Busy conns close once the worker returns.
      }
    } else if (options_.idle_timeout_ms > 0 && !conn->busy &&
               !conn->closing &&
               now_ms - conn->last_active_ms.load(std::memory_order_relaxed) >=
                   options_.idle_timeout_ms) {
      m_idle_closed_->Add();
      conn->closing = true;
    }
    if (conn->closing && !conn->busy) to_close.push_back(conn);
  }
  for (const auto& conn : to_close) CloseConn(conn);
  if (drain_started_ && conns_.empty()) {
    MutexLock lock(mu_);
    if (!drained_) {
      drained_ = true;
      drained_cv_.NotifyAll();
    }
  }
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  std::unique_ptr<Transaction> orphan;
  {
    MutexLock lock(conn->mu);
    if (conn->fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
      ::close(conn->fd);
      conn->fd = -1;
    }
    conn->closing = true;
    orphan = std::move(conn->txn);
  }
  if (orphan != nullptr && orphan->open()) {
    // The connection died with a transaction open: adopt it on this thread
    // and roll it back so its locks / writer token are released.
    Status attach = db_->AttachSession(orphan.get());
    if (attach.ok()) {
      Status aborted = orphan->Abort();
      IgnoreStatus(aborted, "server_close_abort");
    } else {
      IgnoreStatus(attach, "server_close_attach");
    }
  }
  conns_.erase(conn->id);
  m_active_->Set(static_cast<int64_t>(conns_.size()));
}

// --- Shared dispatch / output paths -----------------------------------------

void Server::TryDispatch(const std::shared_ptr<Conn>& conn, Conn& c) {
  while (!c.busy && !c.closing && !c.pending.empty()) {
    Frame frame = std::move(c.pending.front());
    c.pending.pop_front();
    // Holder-priority scheduling: a request on a connection with an open
    // transaction advances (and eventually releases) held locks, so it must
    // dispatch before requests admitting new work — otherwise a small pool
    // wedges with every worker lock-waiting on a holder whose Commit sits
    // queued behind fresh admissions.
    const bool advances_txn = c.txn != nullptr;
    bool admitted = false;
    {
      MutexLock lock(mu_);
      if (!stopping_ &&
          queue_.size() + txn_queue_.size() < options_.queue_capacity) {
        Work work;
        work.conn = conn;
        work.frame = std::move(frame);
        work.enqueued_us = NowUs();
        (advances_txn ? txn_queue_ : queue_).push_back(std::move(work));
        m_queue_depth_->Set(
            static_cast<int64_t>(queue_.size() + txn_queue_.size()));
        admitted = true;
        // Dynamic pool growth: no idle worker means every thread is either
        // running a request or blocked in a lock wait — and a blocked worker
        // may be waiting on precisely the transaction whose next request we
        // just queued. Spawn a thread for it (bounded by max_worker_threads)
        // rather than letting the pool wedge until a lock-wait timeout.
        if (idle_workers_ == 0 &&
            total_workers_ < options_.max_worker_threads) {
          SpawnWorkerLocked();
        }
      }
    }
    if (admitted) {
      c.busy = true;
      queue_cv_.NotifyOne();
      return;  // One request in flight per connection.
    }
    // Admission control: shed the request with an immediate Busy reply
    // instead of buffering it (the client retries with backoff).
    m_busy_rejections_->Add();
    AppendReply(&c.out, Status::Busy("server overloaded: request queue full"));
    Flush(c);
  }
}

void Server::Flush(Conn& c) {
  if (c.fd < 0) {
    c.out.clear();
    return;
  }
  while (!c.out.empty()) {
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      m_bytes_out_->Add(static_cast<uint64_t>(n));
      c.out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.closing = true;
    c.out.clear();
    break;
  }
  if (c.text_mode && c.out.empty()) c.closing = true;
  UpdateInterest(c);
}

void Server::UpdateInterest(Conn& c) {
  if (c.fd < 0) return;
  const bool want = !c.out.empty();
  if (want == c.want_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = c.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
    c.want_write = want;
  }
}

void Server::RequestLoopAttention(const std::shared_ptr<Conn>& conn) {
  {
    MutexLock lock(mu_);
    attention_.push_back(conn);
  }
  WakeLoop();
}

// --- Workers -----------------------------------------------------------------

void Server::WorkerMain() {
  for (;;) {
    Work work;
    {
      MutexLock lock(mu_);
      idle_workers_++;
      while (queue_.empty() && txn_queue_.empty() && !stopping_) {
        queue_cv_.Wait(mu_);
      }
      idle_workers_--;
      if (queue_.empty() && txn_queue_.empty()) return;  // stopping_
      std::deque<Work>& source = txn_queue_.empty() ? queue_ : txn_queue_;
      work = std::move(source.front());
      source.pop_front();
      m_queue_depth_->Set(
          static_cast<int64_t>(queue_.size() + txn_queue_.size()));
      // Self-heal a growth race: a dispatcher that saw this worker still
      // counted idle skipped spawning, so re-check for stranded backlog.
      if ((!queue_.empty() || !txn_queue_.empty()) && idle_workers_ == 0 &&
          !stopping_ && total_workers_ < options_.max_worker_threads) {
        SpawnWorkerLocked();
      }
    }
    Process(work.conn, std::move(work.frame), work.enqueued_us);
  }
}

void Server::Process(const std::shared_ptr<Conn>& conn, Frame frame,
                     int64_t enqueued_us) {
  std::string resp;
  bool fatal = false;

  // Adopt the connection's open transaction on this worker thread for the
  // duration of the request (docs/SERVER.md "Session migration").
  Transaction* attached = nullptr;
  {
    MutexLock lock(conn->mu);
    attached = conn->txn.get();
  }
  if (attached != nullptr) {
    Status s = db_->AttachSession(attached);
    if (!s.ok()) {
      AppendReply(&resp, Status::IOError("internal: session attach failed: " +
                                         std::string(s.message())));
      fatal = true;
    }
  }

  if (resp.empty()) HandleRequest(conn, frame, &resp, &fatal);

  // Detach whatever transaction the connection now owns — Begin created one,
  // Commit/Abort destroyed theirs — so the next request (on any worker) can
  // adopt it.
  {
    MutexLock lock(conn->mu);
    Transaction* now_open = conn->txn.get();
    if (now_open != nullptr && !now_open->open()) {
      conn->txn.reset();
      now_open = nullptr;
    }
    if (now_open != nullptr) {
      Status s = db_->DetachSession(now_open);
      if (!s.ok()) {
        // Failsafe: a transaction that cannot be parked must not leak this
        // worker's thread binding — roll it back here and now.
        IgnoreStatus(s, "server_detach_failed");
        Status aborted = now_open->Abort();
        IgnoreStatus(aborted, "server_detach_abort");
        conn->txn.reset();
      }
    }
  }

  m_requests_->Add();
  m_request_us_->Add(static_cast<double>(NowUs() - enqueued_us));

  bool need_attention;
  {
    MutexLock lock(conn->mu);
    conn->out.append(resp);
    if (fatal) conn->closing = true;
    conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    Flush(*conn);
    conn->busy = false;
    TryDispatch(conn, *conn);
    need_attention = conn->closing && !conn->busy;
  }
  // The loop thread does the final close (it owns the conns_ map).
  if (need_attention) RequestLoopAttention(conn);
}

namespace {

/// Decodes a request body; a short or trailing-garbage body is a protocol
/// error answered with InvalidArgument and a connection close.
template <typename T>
bool DecodeOrReject(const Frame& frame, T* msg, std::string* resp, bool* fatal,
                    Counter* protocol_errors) {
  if (DecodeBody(Slice(frame.body), msg)) return true;
  protocol_errors->Add();
  *fatal = true;
  AppendReply(resp, Status::InvalidArgument("malformed request body"));
  return false;
}

}  // namespace

void Server::HandleRequest(const std::shared_ptr<Conn>& conn,
                           const Frame& frame, std::string* resp,
                           bool* fatal) {
  bool hello_done;
  Transaction* txn;
  {
    MutexLock lock(conn->mu);
    hello_done = conn->hello_done;
    txn = conn->txn.get();
  }
  if (!hello_done && frame.type != MsgType::kHello) {
    m_protocol_errors_->Add();
    *fatal = true;
    AppendReply(resp,
                Status::InvalidArgument("expected Hello as the first request"));
    return;
  }

  switch (frame.type) {
    case MsgType::kHello: {
      HelloReq req;
      if (!DecodeOrReject(frame, &req, resp, fatal, m_protocol_errors_)) return;
      if (req.magic != kMagic) {
        m_protocol_errors_->Add();
        *fatal = true;
        AppendReply(resp, Status::InvalidArgument("bad protocol magic"));
        return;
      }
      if (req.version != kVersion) {
        *fatal = true;
        AppendReply(resp, Status::NotSupported(
                              "protocol version " +
                              std::to_string(req.version) + " (server speaks " +
                              std::to_string(kVersion) + ")"));
        return;
      }
      {
        MutexLock lock(conn->mu);
        conn->hello_done = true;
      }
      AppendReply(resp, Status::OK());
      return;
    }

    case MsgType::kPing: {
      PingReq req;
      if (!DecodeOrReject(frame, &req, resp, fatal, m_protocol_errors_)) return;
      if (options_.enable_test_sleep && req.delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(req.delay_ms));
      }
      AppendReply(resp, Status::OK());
      return;
    }

    case MsgType::kBegin:
    case MsgType::kBeginSnapshot: {
      if (txn != nullptr) {
        AppendReply(resp, Status::InvalidArgument(
                              "a transaction is already open on this "
                              "connection"));
        return;
      }
      if (draining_.load(std::memory_order_acquire)) {
        AppendReply(resp, Status::Busy("server draining"));
        return;
      }
      Result<std::unique_ptr<Transaction>> r = frame.type == MsgType::kBegin
                                                   ? db_->Begin()
                                                   : db_->BeginSnapshot();
      if (!r.ok()) {
        AppendReply(resp, r.status());
        return;
      }
      {
        MutexLock lock(conn->mu);
        conn->txn = r.TakeValue();
      }
      AppendReply(resp, Status::OK());
      return;
    }

    case MsgType::kCommit:
    case MsgType::kAbort: {
      if (txn == nullptr) {
        AppendReply(resp, Status::InvalidArgument(
                              "no open transaction on this connection"));
        return;
      }
      Status s =
          frame.type == MsgType::kCommit ? txn->Commit() : txn->Abort();
      {
        MutexLock lock(conn->mu);
        conn->txn.reset();
      }
      AppendReply(resp, s);
      return;
    }

    case MsgType::kRead: {
      ReadReq req;
      if (!DecodeOrReject(frame, &req, resp, fatal, m_protocol_errors_)) return;
      ReadResp out;
      auto body = [&](Transaction& t) -> Status {
        Result<Transaction::RawRecord> r =
            t.ReadRaw(Oid{req.cluster, req.local}, req.vnum);
        if (!r.ok()) return r.status();
        out.bytes = std::move(r.value().bytes);
        out.type_code = r.value().type_code;
        out.vnum = r.value().vnum;
        return Status::OK();
      };
      const Status s =
          txn != nullptr ? body(*txn) : db_->RunReadTransaction(body);
      AppendReply(resp, s, s.ok() ? EncodeBody(out) : std::string());
      return;
    }

    case MsgType::kWrite: {
      WriteReq req;
      if (!DecodeOrReject(frame, &req, resp, fatal, m_protocol_errors_)) return;
      auto body = [&](Transaction& t) {
        return t.WriteRaw(Oid{req.cluster, req.local}, Slice(req.bytes));
      };
      AppendReply(resp,
                  txn != nullptr ? body(*txn) : db_->RunTransaction(body));
      return;
    }

    case MsgType::kInsert: {
      InsertReq req;
      if (!DecodeOrReject(frame, &req, resp, fatal, m_protocol_errors_)) return;
      OidResp out;
      auto body = [&](Transaction& t) -> Status {
        Result<Oid> r = t.InsertRaw(req.cluster, Slice(req.bytes));
        if (!r.ok()) return r.status();
        out.cluster = r.value().cluster;
        out.local = r.value().local;
        return Status::OK();
      };
      const Status s = txn != nullptr ? body(*txn) : db_->RunTransaction(body);
      AppendReply(resp, s, s.ok() ? EncodeBody(out) : std::string());
      return;
    }

    case MsgType::kDelete: {
      DeleteReq req;
      if (!DecodeOrReject(frame, &req, resp, fatal, m_protocol_errors_)) return;
      auto body = [&](Transaction& t) {
        return t.DeleteRaw(Oid{req.cluster, req.local});
      };
      AppendReply(resp,
                  txn != nullptr ? body(*txn) : db_->RunTransaction(body));
      return;
    }

    case MsgType::kEnsureCluster: {
      EnsureClusterReq req;
      if (!DecodeOrReject(frame, &req, resp, fatal, m_protocol_errors_)) return;
      Result<ClusterId> existing = db_->ClusterIdForName(req.type_name);
      if (!existing.ok()) {
        auto body = [&](Transaction& t) {
          return t.CreateClusterRaw(req.type_name);
        };
        const Status s =
            txn != nullptr ? body(*txn) : db_->RunTransaction(body);
        if (!s.ok() && !s.IsAlreadyExists()) {
          AppendReply(resp, s);
          return;
        }
        existing = db_->ClusterIdForName(req.type_name);
      }
      if (!existing.ok()) {
        AppendReply(resp, existing.status());
        return;
      }
      ClusterResp out;
      out.cluster = existing.value();
      AppendReply(resp, Status::OK(), EncodeBody(out));
      return;
    }

    case MsgType::kListClusters: {
      ListClustersResp out;
      auto body = [&](Transaction& t) -> Status {
        (void)t;  // The transaction's S(schema) lock stabilizes the catalog.
        out.clusters.clear();
        for (const auto& entry : db_->catalog().clusters) {
          ClusterInfo info;
          info.id = entry.id;
          info.type_name = entry.type_name;
          Result<uint32_t> n = db_->store().NumEntries(entry.table_root);
          if (n.ok()) info.entries = n.value();
          out.clusters.push_back(std::move(info));
        }
        return Status::OK();
      };
      const Status s =
          txn != nullptr ? body(*txn) : db_->RunReadTransaction(body);
      AppendReply(resp, s, s.ok() ? EncodeBody(out) : std::string());
      return;
    }

    case MsgType::kScan: {
      ScanReq req;
      if (!DecodeOrReject(frame, &req, resp, fatal, m_protocol_errors_)) return;
      uint64_t count = 0;
      Status s = Status::OK();
      if (txn != nullptr) {
        s = StreamScan(conn, *txn, req, &count);
      } else {
        // One-shot scans run in their own snapshot; no retry wrapper —
        // chunks already on the wire must not be emitted twice.
        Result<std::unique_ptr<Transaction>> r = db_->BeginSnapshot();
        if (!r.ok()) {
          s = r.status();
        } else {
          std::unique_ptr<Transaction> snap = r.TakeValue();
          s = StreamScan(conn, *snap, req, &count);
          Status closed = snap->Commit();
          if (s.ok()) {
            s = closed;
          } else {
            IgnoreStatus(closed, "server_scan_close");
          }
        }
      }
      ScanDone done;
      done.count = count;
      AppendReply(resp, s, s.ok() ? EncodeBody(done) : std::string());
      return;
    }

    case MsgType::kStatsz: {
      StatszResp out;
      out.text = RenderStatsText();
      AppendReply(resp, Status::OK(), EncodeBody(out));
      return;
    }

    default: {
      m_protocol_errors_->Add();
      *fatal = true;
      AppendReply(resp, Status::InvalidArgument(
                            "unknown message type " +
                            std::to_string(static_cast<unsigned>(frame.type))));
      return;
    }
  }
}

Status Server::StreamScan(const std::shared_ptr<Conn>& conn, Transaction& txn,
                          const ScanReq& req, uint64_t* count) {
  ScanChunk chunk;
  size_t chunk_bytes = 0;
  auto flush_chunk = [&]() -> Status {
    if (chunk.records.empty()) return Status::OK();
    std::string encoded;
    AppendFrame(&encoded, MsgType::kScanChunk, EncodeBody(chunk));
    chunk.records.clear();
    chunk_bytes = 0;
    return EmitFrames(conn, encoded);
  };

  ODE_RETURN_IF_ERROR(txn.ForEachHead(
      req.cluster, req.start,
      [&](const ObjectTable::Head& head, bool* stop) -> Status {
        // The walked head: a snapshot reads a visible one with one fetch.
        Result<Transaction::RawRecord> r =
            txn.ReadRaw(Oid{req.cluster, head.local}, kGenericVersion, &head);
        if (!r.ok()) {
          // Invisible to this snapshot, or deleted earlier in this
          // transaction: skip, the scan stays consistent.
          return r.status().IsNotFound() ? Status::OK() : r.status();
        }
        ScanRecord rec;
        rec.local = head.local;
        rec.type_code = r.value().type_code;
        rec.vnum = r.value().vnum;
        if (req.with_bytes != 0) rec.bytes = std::move(r.value().bytes);
        chunk_bytes += rec.bytes.size() + 16;
        chunk.records.push_back(std::move(rec));
        (*count)++;
        *stop = req.limit != 0 && *count >= req.limit;
        if (chunk.records.size() >= kScanChunkRecords ||
            chunk_bytes >= kScanChunkBytes) {
          return flush_chunk();
        }
        return Status::OK();
      }));
  return flush_chunk();
}

Status Server::EmitFrames(const std::shared_ptr<Conn>& conn,
                          const std::string& bytes) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.write_timeout_ms);
  {
    MutexLock lock(conn->mu);
    if (conn->closing || conn->fd < 0) {
      return Status::IOError("connection closed");
    }
    conn->out.append(bytes);
    Flush(*conn);
  }
  // Backpressure: the worker (not the event loop) absorbs a slow client,
  // bounded by write_timeout_ms. The connection is `busy`, so the loop
  // cannot close the fd underneath this poll.
  for (;;) {
    int fd;
    {
      MutexLock lock(conn->mu);
      if (conn->closing || conn->fd < 0) {
        return Status::IOError("connection closed");
      }
      if (conn->out.size() <= kOutHighWater) return Status::OK();
      fd = conn->fd;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      MutexLock lock(conn->mu);
      conn->closing = true;
      return Status::IOError("write timeout: client not draining responses");
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    ::poll(&p, 1, 50);
    MutexLock lock(conn->mu);
    Flush(*conn);
  }
}

std::string Server::RenderStatsText() const {
  return db_->metrics().TakeSnapshot().RenderText();
}

}  // namespace server
}  // namespace ode
