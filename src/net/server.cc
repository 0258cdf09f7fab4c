#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ipool::net {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

// The instrument tables are indexed by method (1-based on the wire).
size_t MethodIndex(Method method) {
  return static_cast<size_t>(method) - 1;
}

constexpr size_t kNumMethods = 5;
constexpr size_t kNumStatuses = 7;

// Static span names so ScopedSpan costs no allocation for the label itself.
const char* MethodSpanName(Method method) {
  switch (method) {
    case Method::kGetRecommendation:
      return "net.GetRecommendation";
    case Method::kPublishTelemetry:
      return "net.PublishTelemetry";
    case Method::kHealth:
      return "net.Health";
    case Method::kMetrics:
      return "net.Metrics";
    case Method::kTrace:
      return "net.Trace";
  }
  return "net.Unknown";
}

}  // namespace

// All mutable connection state shared with handler workers sits behind
// `mu`; the decoder and epoll bookkeeping are event-loop-only.
struct Server::Conn {
  explicit Conn(size_t max_payload) : decoder(max_payload) {}

  /// Encoded bytes not yet written to the socket.
  size_t Pending() const { return outbuf.size() - out_sent; }

  int fd = -1;
  FrameDecoder decoder;   // event-loop thread only
  bool want_write = false;  // EPOLLOUT registered; event-loop thread only

  std::mutex mu;
  std::string outbuf;   // encoded responses; [out_sent, size) unflushed
  size_t out_sent = 0;  // bytes of outbuf already written
  size_t inflight = 0;  // requests queued or executing on the pool
  bool closed = false;  // fd gone; late responses are dropped
};

// Per-(method, status) request counters + per-method latency histograms,
// created eagerly so scrapes show the full family at zero.
struct NetInstruments {
  obs::Counter* requests[kNumMethods][kNumStatuses] = {};
  obs::Histogram* latency[kNumMethods] = {};
  obs::Histogram* dispatch_queue[kNumMethods] = {};
};
namespace {
NetInstruments MakeInstruments(obs::MetricsRegistry* metrics) {
  NetInstruments out;
  for (size_t m = 0; m < kNumMethods; ++m) {
    const Method method = static_cast<Method>(m + 1);
    for (size_t s = 0; s < kNumStatuses; ++s) {
      out.requests[m][s] = metrics->GetCounter(
          "ipool_net_requests_total",
          {{"method", MethodToString(method)},
           {"status", WireStatusToString(static_cast<WireStatus>(s))}});
    }
    out.latency[m] = metrics->GetHistogram(
        "ipool_net_request_seconds", {{"method", MethodToString(method)}});
    out.dispatch_queue[m] = metrics->GetHistogram(
        "ipool_net_dispatch_queue_seconds",
        {{"method", MethodToString(method)}});
  }
  return out;
}
}  // namespace

Server::Server(const ServerConfig& config, Handler handler)
    : config_(config), handler_(std::move(handler)) {}

Result<std::unique_ptr<Server>> Server::Start(const ServerConfig& config,
                                              Handler handler) {
  if (handler == nullptr) {
    return Status::InvalidArgument("server needs a handler");
  }
  std::unique_ptr<Server> server(new Server(config, std::move(handler)));
  IPOOL_RETURN_NOT_OK(server->Bind());
  if (config.metrics != nullptr) {
    server->shed_counter_ = config.metrics->GetCounter("ipool_net_shed_total");
    server->protocol_error_counter_ =
        config.metrics->GetCounter("ipool_net_protocol_errors_total");
    server->connections_gauge_ =
        config.metrics->GetGauge("ipool_net_connections");
    server->connections_gauge_->Set(0.0);
    server->instruments_ =
        std::make_unique<NetInstruments>(MakeInstruments(config.metrics));
  }
  server->loop_ = std::thread([s = server.get()] { s->EventLoop(); });
  return server;
}

Status Server::Bind() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " +
                                   config_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind " + config_.bind_address +
                 StrFormat(":%u", config_.port));
  }
  if (listen(listen_fd_, static_cast<int>(
                             std::min<size_t>(config_.max_connections, 512))) <
      0) {
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  IPOOL_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Errno("epoll_ctl(wake)");
  }
  return Status::OK();
}

void Server::Wake() {
  const uint64_t one = 1;
  // A full eventfd counter is impossible in practice; ignore short writes.
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void Server::EventLoop() {
  std::vector<epoll_event> events(128);
  while (true) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (Idle() || NowSeconds() >= drain_deadline_seconds_.load(
                                        std::memory_order_acquire)) {
        break;
      }
    }
    const int n = epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), 20);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sensible left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drop = 0;
        [[maybe_unused]] ssize_t r = read(wake_fd_, &drop, sizeof(drop));
        continue;
      }
      if (fd == listen_fd_) {
        if (!draining) HandleAccept();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
      if ((events[i].events & EPOLLOUT) != 0) FlushWrites(conn);
    }
    // Responses enqueued by workers since the last pass: flush every
    // connection with pending output (cheap scan; connection counts in this
    // control plane are modest).
    for (auto it = conns_.begin(); it != conns_.end();) {
      std::shared_ptr<Conn> conn = it->second;
      ++it;  // FlushWrites may erase
      bool pending;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        pending = conn->Pending() != 0;
      }
      if (pending) FlushWrites(conn);
    }
  }
  // Drain finished (or timed out): close whatever is left.
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    close(conn->fd);
  }
  conns_.clear();
  if (connections_gauge_ != nullptr) connections_gauge_->Set(0.0);
}

void Server::HandleAccept() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: try next wakeup
    if (conns_.size() >= config_.max_connections) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(config_.max_payload_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections_gauge_ != nullptr) {
      connections_gauge_->Set(static_cast<double>(conns_.size()));
    }
  }
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n == 0) {
      CloseConn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CloseConn(conn);
      return;
    }
    Status fed = conn->decoder.Feed(buf, static_cast<size_t>(n));
    if (!fed.ok()) {
      // The stream cannot be re-synchronized after a framing error; a
      // response could itself be misread, so just close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      if (protocol_error_counter_ != nullptr) protocol_error_counter_->Add();
      CloseConn(conn);
      return;
    }
    while (conn->decoder.HasFrame()) {
      if (!DispatchFrame(conn, conn->decoder.Next())) return;
    }
    // One write for everything this read batch put in the buffer: inline
    // GETs, sheds and drain rejects (and every response when no pool is
    // wired). FlushWrites also enforces max_outbuf_bytes.
    if (!FlushWrites(conn)) return;
    if (static_cast<size_t>(n) < sizeof(buf)) return;
  }
}

bool Server::DispatchFrame(const std::shared_ptr<Conn>& conn, Frame frame) {
  if (frame.type != FrameType::kRequest) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    if (protocol_error_counter_ != nullptr) protocol_error_counter_->Add();
    CloseConn(conn);
    return false;
  }
  Frame reject;
  reject.type = FrameType::kResponse;
  reject.method = frame.method;
  reject.trace_id = frame.trace_id;
  reject.request_id = frame.request_id;
  if (draining_.load(std::memory_order_acquire)) {
    reject.status = WireStatus::kUnavailable;
    reject.payload = "server draining";
    std::lock_guard<std::mutex> lock(conn->mu);
    EnqueueLocked(conn, reject, -1.0);
    return true;
  }
  // GetRecommendation is a snapshot read that holds a shard mutex only to
  // copy a pointer and never waits on a writer's work, so the loop answers it
  // right here: no pool hand-off, no worker wake-up, and its response
  // shares the read batch's single write. Everything else may block
  // (Health takes the live plane's state lock) and goes to the pool.
  const bool run_inline = config_.pool == nullptr ||
                          frame.method == Method::kGetRecommendation;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->inflight >= config_.max_inflight_per_conn) {
      requests_shed_.fetch_add(1, std::memory_order_relaxed);
      if (shed_counter_ != nullptr) shed_counter_->Add();
      reject.status = WireStatus::kRetryAfter;
      reject.payload = "per-connection queue full";
      // Shed before execution: the client may retry unconditionally.
      EnqueueLocked(conn, reject, -1.0);
      return true;
    }
    if (!run_inline) ++conn->inflight;
  }
  const double start = NowSeconds();
  if (run_inline) {
    const Frame response = RunHandler(frame, start);
    std::lock_guard<std::mutex> lock(conn->mu);
    EnqueueLocked(conn, response, NowSeconds() - start);
    return true;
  }
  inflight_tasks_.fetch_add(1, std::memory_order_acq_rel);
  auto task = [this, conn, request = std::move(frame), start]() {
    const Frame response = RunHandler(request, start);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      --conn->inflight;
      EnqueueLocked(conn, response, NowSeconds() - start);
      // Opportunistic flush: a wake costs two eventfd syscalls plus an
      // event-loop pass per response, and nearly every response fits the
      // socket buffer. All fd writes happen under conn->mu, so this does
      // not race the event loop's FlushWrites; whatever does not fit (or a
      // write error) is left for the loop to flush or close on.
      if (!conn->closed) {
        WriteLocked(*conn);
        if (conn->Pending() != 0) Wake();
      }
    }
    if (inflight_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_cv_.notify_all();
    }
  };
  config_.pool->Submit(std::move(task), "net.request");
  return true;
}

Frame Server::RunHandler(const Frame& request, double start) {
  // Epoll-accept-to-handler-start latency: separates dispatch/queueing
  // pressure from handler cost. Measured for the inline path too, where it
  // reads ~0 and anchors the histogram's floor.
  const size_t mi = MethodIndex(request.method);
  if (instruments_ != nullptr && mi < kNumMethods) {
    instruments_->dispatch_queue[mi]->Observe(NowSeconds() - start,
                                              request.trace_id);
  }
  Frame response;
  {
    // The server-side request span adopts the client's trace id, so one
    // trace covers both processes; handler child spans nest under it.
    obs::ScopedSpan span(config_.tracer, MethodSpanName(request.method),
                         obs::SpanContext{request.trace_id, 0});
    response = handler_(request);
  }
  response.type = FrameType::kResponse;
  response.trace_id = request.trace_id;
  response.request_id = request.request_id;
  response.method = request.method;
  return response;
}

void Server::EnqueueLocked(const std::shared_ptr<Conn>& conn,
                           const Frame& response, double elapsed_seconds) {
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  const size_t m = MethodIndex(response.method);
  const size_t s = static_cast<size_t>(response.status);
  if (instruments_ != nullptr && m < kNumMethods && s < kNumStatuses) {
    instruments_->requests[m][s]->Add();
    if (elapsed_seconds >= 0.0) {
      // The trace id doubles as the bucket exemplar, so a slow bucket in a
      // scrape points straight at a trace to pull via the Trace method.
      instruments_->latency[m]->Observe(elapsed_seconds, response.trace_id);
    }
  }
  if (conn->closed) return;  // peer went away while we worked
  AppendFrame(response, &conn->outbuf);
}

bool Server::WriteLocked(Conn& conn) {
  bool ok = true;
  while (conn.Pending() != 0) {
    const ssize_t n = write(conn.fd, conn.outbuf.data() + conn.out_sent,
                            conn.Pending());
    if (n > 0) {
      conn.out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ok = false;  // broken pipe etc.
    break;
  }
  if (conn.Pending() == 0) {
    conn.outbuf.clear();
    conn.out_sent = 0;
  } else if (conn.out_sent > conn.outbuf.size() / 2) {
    // A peer that never drains the buffer would otherwise pin every byte
    // already sent; compacting only past half keeps the copying linear.
    conn.outbuf.erase(0, conn.out_sent);
    conn.out_sent = 0;
  }
  return ok;
}

bool Server::FlushWrites(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  bool residue = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return false;
    close_now = !WriteLocked(*conn) ||
                conn->Pending() > config_.max_outbuf_bytes;
    residue = conn->Pending() != 0;
  }
  if (close_now) {
    CloseConn(conn);
    return false;
  }
  UpdateEpollOut(conn, residue);
  return true;
}

void Server::UpdateEpollOut(const std::shared_ptr<Conn>& conn,
                            bool want_write) {
  if (conn->want_write == want_write) return;
  conn->want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    close(conn->fd);  // also removes it from the epoll set
  }
  conns_.erase(conn->fd);
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(static_cast<double>(conns_.size()));
  }
}

bool Server::Idle() {
  if (inflight_tasks_.load(std::memory_order_acquire) != 0) return false;
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->inflight != 0 || conn->Pending() != 0) return false;
  }
  return true;
}

void Server::Shutdown(double drain_timeout_seconds) {
  std::call_once(shutdown_once_, [&] {
    drain_deadline_seconds_.store(
        NowSeconds() + std::max(0.0, drain_timeout_seconds),
        std::memory_order_release);
    draining_.store(true, std::memory_order_release);
    Wake();
    if (loop_.joinable()) loop_.join();
    // Handler tasks that missed the drain window may still be running on
    // the pool; they only touch Conn (kept alive by shared_ptr) and the
    // wake fd, so wait for them before tearing those down.
    {
      std::unique_lock<std::mutex> lock(inflight_mu_);
      inflight_cv_.wait(lock, [this] {
        return inflight_tasks_.load(std::memory_order_acquire) == 0;
      });
    }
    if (listen_fd_ >= 0) close(listen_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
    listen_fd_ = wake_fd_ = epoll_fd_ = -1;
  });
}

Server::~Server() { Shutdown(config_.default_drain_timeout_seconds); }

}  // namespace ipool::net
