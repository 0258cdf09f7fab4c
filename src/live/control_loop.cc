#include "live/control_loop.h"

#include <algorithm>
#include <memory>

#include "live/live_control_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/recommendation_io.h"
#include "service/sharded_telemetry_store.h"

namespace ipool {

Status ControlLoopConfig::Validate() const {
  if (run_interval_seconds <= 0.0) {
    return Status::InvalidArgument("run interval must be positive");
  }
  if (guardrail_mae_ratio <= 0.0 || recommendation_ttl_seconds <= 0.0) {
    return Status::InvalidArgument("guardrail ratio and TTL must be positive");
  }
  if (default_pool_size < 0) {
    return Status::InvalidArgument("default pool size must be >= 0");
  }
  return sim.Validate();  // the plane validates history_bins
}

ControlLoop::Target ControlLoop::TargetAt(
    const Result<ShardedDocumentStore::Document>& document, double now,
    const ControlLoopConfig& config) {
  if (document.ok() &&
      now - document->updated_at <= config.recommendation_ttl_seconds) {
    auto stored = ParseRecommendation(document->value);
    if (stored.ok()) return {stored->TargetAt(now), false};
  }
  return {config.default_pool_size, true};
}

Result<ControlLoopResult> ControlLoop::Run(
    const RecommendationEngine& engine, const ControlLoopConfig& config,
    const TimeSeries& demand, const std::vector<double>& request_events,
    const std::function<bool(size_t)>& fail_run) {
  IPOOL_RETURN_NOT_OK(config.Validate());
  if (demand.empty()) return Status::InvalidArgument("empty demand");
  obs::MetricsRegistry* metrics = config.obs.metrics;
  obs::ScopedSpan loop_span(config.obs.tracer, "control_loop");
  const size_t num_bins = demand.size();
  const double interval = demand.interval();
  TimeSeries counts;
  {
    obs::ScopedSpan ingest_span(config.obs.tracer, "telemetry_ingest");
    counts = BinEvents(request_events, demand.start(), interval, num_bins);
    if (metrics != nullptr) {
      metrics->GetCounter("ipool_telemetry_events_total")
          ->Add(request_events.size());
    }
  }

  // One pool, `demand.replay`, published as document `replay`.
  double now = demand.start();
  ShardedTelemetryStore telemetry(1);
  ShardedDocumentStore documents(1);
  live::LiveControlPlaneConfig plane_config;
  plane_config.bin_interval_seconds = interval;
  plane_config.history_bins = config.history_bins;
  plane_config.min_history_points = 1;
  plane_config.warm_refit = config.warm_refit;
  plane_config.guardrail_mae_ratio = config.guardrail_mae_ratio;
  plane_config.obs = config.obs;
  plane_config.clock = [&now] { return now; };
  IPOOL_ASSIGN_OR_RETURN(
      std::unique_ptr<live::LiveControlPlane> plane,
      live::LiveControlPlane::Create(&engine, &telemetry, &documents,
                                     plane_config));
  // Each elapsed bin lands as one point at its start, empty bins included,
  // so at a run the newest point is `now - interval` and the plane's window
  // is exactly [now - history_bins * interval, now).
  size_t appended = 0;
  auto append_until = [&](size_t end) -> Status {
    for (; appended < end; ++appended) {
      IPOOL_RETURN_NOT_OK(telemetry.Record(
          "demand.replay", demand.TimeAt(appended), counts.value(appended)));
    }
    return Status::OK();
  };

  ControlLoopResult result;
  result.applied_schedule.resize(num_bins);
  const size_t bins_per_run = std::max<size_t>(
      1, static_cast<size_t>(config.run_interval_seconds / interval));
  for (size_t bin = 0; bin < num_bins; ++bin) {
    now = demand.TimeAt(bin);
    if (bin > 0 && bin % bins_per_run == 0) {
      IPOOL_RETURN_NOT_OK(append_until(bin));
      if (fail_run && fail_run(result.pipeline_runs)) plane->InjectFailures(1);
      ++result.pipeline_runs;
      if (plane->TickOnce() == live::TickStatus::kFailed) {
        ++result.pipeline_failures;
      }
    }
    const Target target = TargetAt(documents.Get("replay"), now, config);
    result.applied_schedule[bin] = target.size;
    if (target.fallback) ++result.fallback_bins;
  }
  result.guardrail_rejections = plane->Snapshot().guardrail_rejections;
  if (metrics != nullptr) {
    metrics->GetCounter("ipool_fallback_bins_total")->Add(result.fallback_bins);
  }
  // Export the telemetry store's state (the whole trace).
  IPOOL_RETURN_NOT_OK(append_until(num_bins));
  telemetry.PublishTo(metrics);

  SimConfig sim_config = config.sim;
  sim_config.obs = sim_config.obs.OrElse(config.obs);
  IPOOL_ASSIGN_OR_RETURN(PoolSimulator simulator,
                         PoolSimulator::Create(sim_config));
  IPOOL_ASSIGN_OR_RETURN(
      result.sim, simulator.Run(request_events, result.applied_schedule,
                                interval, demand.TimeAt(num_bins - 1) +
                                              interval));
  return result;
}

Result<std::vector<ControlLoopResult>> ControlLoop::RunFleet(
    const RecommendationEngine& engine,
    const std::vector<FleetPoolSpec>& pools,
    const exec::ExecContext& exec) {
  // Every loop owns its stores, plane and simulator and only reads the
  // shared engine, so the fleet fans out with results still in spec order.
  // The whole obs context rides along — obs::Tracer keeps per-thread span
  // buffers. A pool's cost scales with its bins: the chunker keeps one
  // giant pool from serializing a chunk of small ones behind it.
  std::vector<ControlLoopResult> results(pools.size());
  std::vector<Status> statuses(pools.size());
  std::vector<double> costs(pools.size());
  for (size_t i = 0; i < pools.size(); ++i) {
    costs[i] = static_cast<double>(pools[i].demand.size()) + 1.0;
  }
  exec::ParallelFor(
      exec, 0, pools.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          auto result = Run(engine, pools[i].config, pools[i].demand,
                            pools[i].request_events);
          if (result.ok()) {
            results[i] = std::move(*result);
          } else {
            statuses[i] = result.status();
          }
        }
      },
      {.label = "service.run_fleet", .costs = costs.data()});
  // First error by pool index wins, matching a serial left-to-right loop.
  for (const Status& s : statuses) IPOOL_RETURN_NOT_OK(s);
  return results;
}

}  // namespace ipool
