// Nonblocking epoll TCP service host for the ipool control plane.
//
// Threading model (see DESIGN.md "Serving layer"):
//   * One event-loop thread owns epoll, every socket, and all frame
//     decoding. Sockets are nonblocking and level-triggered.
//   * GetRecommendation requests run inline on the event-loop thread right
//     after they are decoded: the document read is a snapshot lookup that
//     holds a shard mutex only to copy a pointer, cheaper than the pool
//     hand-off it would otherwise pay for.
//     With no pool wired, every handler runs inline on the event loop
//     (fine for tests and tiny deployments).
//   * Every other request is dispatched onto an exec::ThreadPool (the
//     handler runs on a pool worker). Workers never touch epoll: a finished
//     handler appends the encoded response to the connection's outbound
//     buffer under its mutex, tries one opportunistic write, and nudges the
//     event loop through an eventfd if bytes remain.
//   * Flush rule: whatever the loop thread puts in a connection's outbound
//     buffer while handling one read (inline responses, sheds, drain
//     rejects) goes out in one write at the end of that read batch.
//
// Backpressure: each connection has a bounded in-flight budget
// (`max_inflight_per_conn`) of requests queued or executing on the pool.
// A request arriving over budget — inline GETs included — is shed: it is
// NOT executed and the client gets an explicit RETRY_AFTER response (count:
// ipool_net_shed_total), making retry unconditionally safe. A connection
// whose outbound buffer exceeds `max_outbuf_bytes` is closed (the peer
// stopped reading).
//
// Shutdown: Shutdown(t) stops accepting, lets in-flight handlers finish and
// responses flush for up to t seconds (new requests during the drain answer
// UNAVAILABLE), then closes everything. The destructor drains with the
// configured default.
#ifndef IPOOL_NET_SERVER_H_
#define IPOOL_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "net/frame.h"

namespace ipool {
namespace exec {
class ThreadPool;
}  // namespace exec
namespace obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
class Tracer;
}  // namespace obs
}  // namespace ipool

namespace ipool::net {

struct ServerConfig {
  /// Loopback by default; the serving layer is not hardened for the open
  /// internet.
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Handler executor for every method but GetRecommendation (which always
  /// runs on the event loop). Null runs all handlers inline on the event
  /// loop.
  exec::ThreadPool* pool = nullptr;
  /// Bounded per-connection queue: requests queued or executing on the
  /// pool. At the limit, new requests (GETs included) are shed with
  /// RETRY_AFTER.
  size_t max_inflight_per_conn = 64;
  /// Accept backlog + concurrent connection cap; excess accepts are closed
  /// immediately.
  size_t max_connections = 1024;
  size_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Close a connection whose unflushed responses exceed this.
  size_t max_outbuf_bytes = 64u << 20;
  /// Drain budget used by the destructor.
  double default_drain_timeout_seconds = 5.0;
  /// Server-side instruments (request/shed/error counters, connection
  /// gauge, per-method latency, dispatch queue wait). Null disables.
  obs::MetricsRegistry* metrics = nullptr;
  /// Request spans: each handled request records a per-method span adopting
  /// the trace id stamped in the frame header, so server-side timing joins
  /// the client's trace. Null disables. The tracer must be thread-safe for
  /// the wired pool (obs::Tracer is).
  obs::Tracer* tracer = nullptr;
};

struct NetInstruments;

class Server {
 public:
  /// Handles one decoded request; must be thread-safe when a pool is wired.
  /// GetRecommendation requests run on the event-loop thread, so the
  /// handler must answer them without blocking: a stall there stalls every
  /// connection.
  using Handler = std::function<Frame(const Frame&)>;

  /// Binds, listens, and starts the event loop. The returned server is
  /// pinned (unique_ptr) because workers capture a pointer to it.
  static Result<std::unique_ptr<Server>> Start(const ServerConfig& config,
                                               Handler handler);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolved when config.port was 0).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, finish in-flight work and flush
  /// responses for up to `drain_timeout_seconds`, then close. Idempotent;
  /// later calls return immediately.
  void Shutdown(double drain_timeout_seconds);
  void Shutdown() { Shutdown(config_.default_drain_timeout_seconds); }

  /// Lifetime counters (exact once shut down).
  uint64_t requests_handled() const {
    return requests_handled_.load(std::memory_order_relaxed);
  }
  uint64_t requests_shed() const {
    return requests_shed_.load(std::memory_order_relaxed);
  }
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  Server(const ServerConfig& config, Handler handler);
  Status Bind();
  void EventLoop();
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Admits one request and runs it inline or on the pool. False when the
  /// frame closed the connection.
  bool DispatchFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  /// Runs the handler under the request span and stamps the response
  /// header; `start` is when the frame was admitted.
  Frame RunHandler(const Frame& request, double start);
  /// Bumps the request counters, observes latency when `elapsed_seconds`
  /// >= 0, and appends the encoded response to the outbound buffer (unless
  /// the connection is closed). Requires `conn->mu`.
  void EnqueueLocked(const std::shared_ptr<Conn>& conn, const Frame& response,
                     double elapsed_seconds);
  /// Writes as much buffered output as the socket takes. Requires
  /// `conn.mu` and an open connection. False on a hard write error.
  static bool WriteLocked(Conn& conn);
  /// Event-loop flush: writes, then closes the connection on a write error
  /// or an outbound buffer over `max_outbuf_bytes`, else tracks EPOLLOUT.
  /// False when the connection is (now) closed.
  bool FlushWrites(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void UpdateEpollOut(const std::shared_ptr<Conn>& conn, bool want_write);
  void Wake();
  /// True when no connection has queued work or unflushed output.
  bool Idle();

  ServerConfig config_;
  Handler handler_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_;
  std::map<int, std::shared_ptr<Conn>> conns_;  // event-loop thread only

  std::atomic<bool> draining_{false};
  std::once_flag shutdown_once_;
  std::atomic<double> drain_deadline_seconds_{0.0};  // from loop start

  std::atomic<size_t> inflight_tasks_{0};  // handler tasks not yet finished
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;

  std::atomic<uint64_t> requests_handled_{0};
  std::atomic<uint64_t> requests_shed_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> connections_accepted_{0};

  // Instrument handles fetched once at Start (null when metrics disabled).
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* protocol_error_counter_ = nullptr;
  obs::Gauge* connections_gauge_ = nullptr;
  std::unique_ptr<NetInstruments> instruments_;
};

}  // namespace ipool::net

#endif  // IPOOL_NET_SERVER_H_
