// The request router: maps decoded request frames onto the control-plane
// stores, mirroring the production topology of §7 (pooling workers fetch
// recommendation documents, the monitoring pipeline appends telemetry, the
// dashboard scrapes metrics).
//
// Payloads are the repo's existing text formats, so the wire layer adds no
// second serialization scheme:
//   * GetRecommendation  — request: document key (e.g. "east-medium");
//                          response: the stored recommendation document
//                          (ParseRecommendation-compatible).
//   * PublishTelemetry   — request: one `metric,time,value` triple per
//                          line; response: empty. Appends must arrive in
//                          non-decreasing time order per metric (the
//                          telemetry-store contract).
//   * Health             — request: must be empty (anything else is
//                          rejected as INVALID_ARGUMENT); response: "ok",
//                          followed by live-control-plane fields
//                          (`live_<field> <value>` lines: tick counts, last
//                          tick status, max recommendation age, tuner
//                          counts, guardrail rejections) when a
//                          LiveControlPlane is wired in.
//   * Metrics            — response: Prometheus text exposition of the
//                          wired registry (obs::PrometheusText).
//   * Trace              — request: optional decimal span limit; response:
//                          the most recent finished server spans as JSONL
//                          (obs::SpansJsonl), newest last.
//
// Concurrency: the router itself holds no lock — the stores it fronts are
// sharded and internally synchronized (per-shard mutexes; see
// service/sharded_document_store.h and service/sharded_telemetry_store.h),
// replacing the single store_mutex() the pre-shard router exposed.
// GetRecommendation copies the shard's snapshot pointer under a mutex held
// only for that copy, then does a map lookup and copies the pre-serialized
// payload bytes with no lock held.
// PublishTelemetry applies each parse-validated batch with one lock
// acquisition per touched shard. Health and Metrics never touch a store
// lock at all (live status and instruments are read via atomics), so
// scrapes cannot contend with publishes. Handle() is therefore safe to
// dispatch from every worker of an exec::ThreadPool.
#ifndef IPOOL_NET_ROUTER_H_
#define IPOOL_NET_ROUTER_H_

#include <string>

#include "common/status.h"
#include "net/frame.h"

namespace ipool {
class ShardedDocumentStore;
class ShardedTelemetryStore;
namespace live {
class LiveControlPlane;
}  // namespace live
namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs
}  // namespace ipool

namespace ipool::net {

struct RouterConfig {
  /// Recommendation documents served to GetRecommendation. May be null
  /// (every lookup answers UNAVAILABLE).
  ShardedDocumentStore* documents = nullptr;
  /// Sink for PublishTelemetry. May be null (publishes answer UNAVAILABLE).
  ShardedTelemetryStore* telemetry = nullptr;
  /// Scrape target for Metrics. May be null (scrapes answer UNAVAILABLE).
  obs::MetricsRegistry* metrics = nullptr;
  /// Source for Trace and for per-method handler child spans. May be null
  /// (traces answer UNAVAILABLE, no spans are recorded). Typically the same
  /// tracer wired into ServerConfig so handler spans nest under the server's
  /// request span.
  obs::Tracer* tracer = nullptr;
  /// In-process streaming control plane (optional): Health folds its tick
  /// counters and recommendation staleness into the payload. The plane
  /// publishes through the same sharded stores, so its document swaps are
  /// atomic per shard with respect to served reads.
  const live::LiveControlPlane* live = nullptr;
};

/// Parses one `metric,time,value` telemetry line. Exposed for tests.
Result<std::string> ParseTelemetryLine(const std::string& line, double* time,
                                       double* value);

class Router {
 public:
  explicit Router(RouterConfig config) : config_(config) {}
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Builds the response frame for one request (request_id echoed, type
  /// kResponse). Errors become wire statuses with the Status message as
  /// payload; this never fails out-of-band.
  Frame Handle(const Frame& request);

  /// Wires the live control plane after construction — the plane is built
  /// against the same stores this router serves, so it typically does not
  /// exist yet when the RouterConfig is assembled. Call before serving
  /// starts; Handle() reads the pointer unsynchronized.
  void set_live(const live::LiveControlPlane* live) { config_.live = live; }

 private:
  Result<std::string> Dispatch(Method method, const std::string& payload);

  RouterConfig config_;
};

}  // namespace ipool::net

#endif  // IPOOL_NET_ROUTER_H_
