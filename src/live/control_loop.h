// The replay: drives a demand trace through the live control plane on a
// virtual clock — one LiveControlPlane::TickOnce per pipeline run, the
// Pooling Worker's stale/default rule per bin (§7.6) — and scores the
// applied pool sizes with the event-driven pool simulator.
#ifndef IPOOL_LIVE_CONTROL_LOOP_H_
#define IPOOL_LIVE_CONTROL_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "core/recommendation_engine.h"
#include "exec/thread_pool.h"
#include "obs/obs_context.h"
#include "service/sharded_document_store.h"
#include "sim/pool_simulator.h"
#include "tsdata/time_series.h"

namespace ipool {

struct ControlLoopConfig {
  /// Cadence of pipeline runs (paper: e.g. 30 min, while each run emits a
  /// 1 h recommendation). Bins are the demand trace's.
  double run_interval_seconds = 1800.0;
  /// History fed to each run, in bins ending just before the run.
  size_t history_bins = 2880;  // one day at 30 s
  /// Warm-start forecaster training across runs (the SSA fast path).
  bool warm_refit = true;
  /// §7.5 guardrail ratio (LiveControlPlaneConfig::guardrail_mae_ratio).
  /// Loose enough to tolerate deliberate overshoot (alpha' near 1).
  double guardrail_mae_ratio = 3.0;
  /// Older recommendations are distrusted and the pool reverts to the
  /// default size (§7.6 "consecutive system failures").
  double recommendation_ttl_seconds = 3600.0;
  int64_t default_pool_size = 4;
  SimConfig sim;
  /// Observability sink (optional) for the plane and, unless wired
  /// explicitly, the simulator: a "control_loop" root span with
  /// "telemetry_ingest", one "live.tick" per run and "simulate" children.
  ObsContext obs;

  Status Validate() const;
};

struct ControlLoopResult {
  SimResult sim;
  /// The pool target actually applied per bin.
  std::vector<int64_t> applied_schedule;
  size_t pipeline_runs = 0;
  size_t pipeline_failures = 0;
  size_t guardrail_rejections = 0;
  /// Bins during which the pool ran on the default size.
  size_t fallback_bins = 0;
};

/// One pool of a fleet (a region x node-size pair): its own loop config,
/// demand trace and request events. Each pool's loop is fully independent.
struct FleetPoolSpec {
  ControlLoopConfig config;
  TimeSeries demand;
  std::vector<double> request_events;
};

class ControlLoop {
 public:
  /// `fail_run` (optional) returns true to crash a given pipeline run
  /// (0-based index) — the §7.6 fault-injection hook.
  static Result<ControlLoopResult> Run(
      const RecommendationEngine& engine, const ControlLoopConfig& config,
      const TimeSeries& demand, const std::vector<double>& request_events,
      const std::function<bool(size_t)>& fail_run = nullptr);

  /// Runs one control loop per fleet pool, fanned out over `exec`'s pool
  /// when one is wired in; results come back in spec order, bit-identical
  /// to running the loops serially.
  static Result<std::vector<ControlLoopResult>> RunFleet(
      const RecommendationEngine& engine,
      const std::vector<FleetPoolSpec>& pools,
      const exec::ExecContext& exec = {});

  /// The Pooling Worker's rule for the bin at `now`: the `document`'s
  /// target, or the default size (a fallback) when there is no document,
  /// it is older than the TTL, or it does not parse.
  struct Target {
    int64_t size = 0;
    bool fallback = false;
  };
  static Target TargetAt(
      const Result<ShardedDocumentStore::Document>& document, double now,
      const ControlLoopConfig& config);
};

}  // namespace ipool

#endif  // IPOOL_LIVE_CONTROL_LOOP_H_
