#include "net/router.h"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "live/live_control_plane.h"
#include "obs/export.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"

namespace ipool::net {

namespace {

/// Caps a PublishTelemetry batch: a single request appending more points
/// than this is a malformed client, not a workload.
constexpr size_t kMaxTelemetryLines = 4096;

/// Spans returned by a Trace request with an empty payload.
constexpr size_t kDefaultTraceSpanLimit = 256;

}  // namespace

Result<std::string> ParseTelemetryLine(const std::string& line, double* time,
                                       double* value) {
  const size_t first = line.find(',');
  if (first == std::string::npos) {
    return Status::InvalidArgument("telemetry line needs metric,time,value: " +
                                   line);
  }
  const size_t second = line.find(',', first + 1);
  if (second == std::string::npos ||
      line.find(',', second + 1) != std::string::npos) {
    return Status::InvalidArgument("telemetry line needs exactly 3 fields: " +
                                   line);
  }
  std::string metric = line.substr(0, first);
  if (metric.empty()) {
    return Status::InvalidArgument("telemetry line has empty metric name");
  }
  IPOOL_ASSIGN_OR_RETURN(*time,
                         ParseDouble(line.substr(first + 1,
                                                 second - first - 1)));
  IPOOL_ASSIGN_OR_RETURN(*value, ParseDouble(line.substr(second + 1)));
  return metric;
}

Result<std::string> Router::Dispatch(Method method,
                                     const std::string& payload) {
  switch (method) {
    case Method::kGetRecommendation: {
      obs::ScopedSpan span(config_.tracer, "router.GetRecommendation");
      if (config_.documents == nullptr) {
        return Status::Unavailable("no document store wired");
      }
      if (payload.empty()) {
        return Status::InvalidArgument("GetRecommendation needs a pool key");
      }
      // The snapshot read path: a shard-snapshot pointer copy, a map
      // lookup, and a copy of the pre-serialized payload bytes.
      std::shared_ptr<const std::string> doc =
          config_.documents->GetPayload(payload);
      if (doc == nullptr) {
        return Status::NotFound("document not found: " + payload);
      }
      return std::string(*doc);
    }
    case Method::kPublishTelemetry: {
      obs::ScopedSpan span(config_.tracer, "router.PublishTelemetry");
      if (config_.telemetry == nullptr) {
        return Status::Unavailable("no telemetry store wired");
      }
      // Validate the whole batch before touching the store so a malformed
      // tail cannot leave a half-applied append behind a retry.
      std::vector<ShardedTelemetryStore::BatchPoint> points;
      std::istringstream in(payload);
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (points.size() >= kMaxTelemetryLines) {
          return Status::InvalidArgument(
              StrFormat("telemetry batch exceeds %zu lines",
                        kMaxTelemetryLines));
        }
        ShardedTelemetryStore::BatchPoint point;
        IPOOL_ASSIGN_OR_RETURN(
            point.metric, ParseTelemetryLine(line, &point.time, &point.value));
        points.push_back(std::move(point));
      }
      if (points.empty()) {
        return Status::InvalidArgument("PublishTelemetry got no points");
      }
      // One lock acquisition per touched shard; each shard's slice of the
      // batch is validated against store order and applied all-or-nothing.
      IPOOL_RETURN_NOT_OK(config_.telemetry->RecordBatch(std::move(points)));
      return std::string();
    }
    case Method::kHealth: {
      // A Health probe carries no arguments; a payload means the client is
      // confused (wrong method byte, corrupted frame) and silently serving
      // it would mask the bug.
      if (!payload.empty()) {
        return Status::InvalidArgument("Health takes no payload");
      }
      if (config_.live == nullptr) return std::string("ok");
      const live::LiveStatus live = config_.live->Snapshot();
      return StrFormat(
          "ok\n"
          "live_ticks_total %llu\n"
          "live_ticks_failed %llu\n"
          "live_last_tick_status %s\n"
          "live_pools_published %zu\n"
          "live_max_recommendation_age_seconds %.3f\n"
          "live_tunes_total %llu\n"
          "live_tunes_switched %llu\n"
          "live_tunes_failed %llu\n"
          "live_pools_tuned %zu\n"
          "live_guardrail_rejections %llu\n",
          static_cast<unsigned long long>(live.ticks_total),
          static_cast<unsigned long long>(live.ticks_failed),
          live::TickStatusName(live.last_tick_status), live.pools_published,
          live.max_recommendation_age_seconds,
          static_cast<unsigned long long>(live.tunes_total),
          static_cast<unsigned long long>(live.tunes_switched),
          static_cast<unsigned long long>(live.tunes_failed),
          live.pools_tuned,
          static_cast<unsigned long long>(live.guardrail_rejections));
    }
    case Method::kMetrics: {
      obs::ScopedSpan span(config_.tracer, "router.Metrics");
      if (config_.metrics == nullptr) {
        return Status::Unavailable("no metrics registry wired");
      }
      // Fold tracer health (dropped/finished span gauges) into the scrape so
      // the loopback tests — and dashboards — can assert dropped == 0.
      if (config_.tracer != nullptr) {
        config_.tracer->PublishTo(config_.metrics);
      }
      // PrometheusText reads instruments via atomics; no store lock is
      // taken, so a scrape never contends with publishes or the live tick.
      return obs::PrometheusText(*config_.metrics);
    }
    case Method::kTrace: {
      if (config_.tracer == nullptr) {
        return Status::Unavailable("no tracer wired");
      }
      size_t limit = kDefaultTraceSpanLimit;
      if (!payload.empty()) {
        IPOOL_ASSIGN_OR_RETURN(const double parsed, ParseDouble(payload));
        if (parsed < 1.0) {
          return Status::InvalidArgument("trace span limit must be >= 1");
        }
        limit = static_cast<size_t>(parsed);
      }
      // The request's own span is still open, so it never shows up in its
      // own answer; newest spans last, truncated from the front.
      std::vector<obs::SpanRecord> spans = config_.tracer->FinishedSpans();
      if (spans.size() > limit) {
        spans.erase(spans.begin(),
                    spans.end() - static_cast<ptrdiff_t>(limit));
      }
      return obs::SpansJsonl(spans);
    }
  }
  return Status::InvalidArgument(
      StrFormat("unknown method %u", static_cast<unsigned>(method)));
}

Frame Router::Handle(const Frame& request) {
  Frame response;
  response.type = FrameType::kResponse;
  response.method = request.method;
  response.trace_id = request.trace_id;
  response.request_id = request.request_id;
  auto result = Dispatch(request.method, request.payload);
  if (result.ok()) {
    response.status = WireStatus::kOk;
    response.payload = std::move(result).value();
  } else {
    response.status = StatusToWireStatus(result.status());
    response.payload = result.status().message();
  }
  return response;
}

}  // namespace ipool::net
