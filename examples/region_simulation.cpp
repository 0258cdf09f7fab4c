// Region simulation: a full day of the production control plane for one
// region, exercising every moving part of Figure 2 — telemetry ingestion,
// the live control plane retraining every 30 minutes on a virtual clock
// (with two injected crashes), recommendation documents in the Cosmos DB
// stand-in, the Pooling Worker's stale/default fallbacks, Arbitrator lease
// management with an unhealthy worker replacement, and the event-driven
// live-pool simulation scoring the final outcome.
#include <cstdio>

#include "common/strings.h"
#include "live/control_loop.h"
#include "service/monitoring.h"
#include "service/arbitrator.h"
#include "workload/demand_generator.h"

int main() {
  using namespace ipool;

  // --- the region's demand ----------------------------------------------------
  WorkloadConfig workload;
  workload.duration_days = 1.0;
  workload.base_rate_per_minute = 8.0;
  workload.hourly_spike_requests = 15.0;
  workload.diurnal_amplitude = 0.4;
  workload.seed = 2024;
  auto generator = DemandGenerator::Create(workload);
  TimeSeries demand = generator->GenerateBinned();
  auto events = generator->GenerateEvents();
  std::printf("Region demand: %zu requests over 24 h\n", events.size());

  // --- Arbitrator: pooling tasks leased to workers ------------------------------
  auto arbitrator = Arbitrator::Create({});
  for (const char* w : {"worker-a", "worker-b", "worker-c"}) {
    (void)arbitrator->AddWorker(w);
  }
  for (const char* item : {"session-pool", "cluster-pool", "ip-pipeline"}) {
    (void)arbitrator->AddWorkItem(item);
  }
  arbitrator->RunHealthCheck(0.0);
  std::printf("\nArbitrator assignments:\n");
  for (const char* item : {"session-pool", "cluster-pool", "ip-pipeline"}) {
    std::printf("  %-12s -> %s\n", item, arbitrator->OwnerOf(item)->c_str());
  }
  // worker-a goes down mid-day; its items must move.
  (void)arbitrator->SetWorkerHealth("worker-a", false);
  arbitrator->RunHealthCheck(12 * 3600.0);
  std::printf("After worker-a failure at 12:00:\n");
  for (const char* item : {"session-pool", "cluster-pool", "ip-pipeline"}) {
    std::printf("  %-12s -> %s\n", item, arbitrator->OwnerOf(item)->c_str());
  }

  // --- the ML pipeline ----------------------------------------------------------
  PipelineConfig pipeline;
  pipeline.model = ModelKind::kSsaPlus;
  pipeline.forecast.window = 96;
  pipeline.forecast.horizon = 48;
  pipeline.forecast.alpha_prime = 0.92;  // overshoot for high hit rate
  pipeline.saa.alpha_prime = 0.25;
  pipeline.saa.pool.tau_bins = 3;
  pipeline.saa.pool.stableness_bins = 10;
  pipeline.saa.pool.max_pool_size = 300;
  pipeline.recommendation_bins = 120;
  auto engine = RecommendationEngine::Create(pipeline);

  ControlLoopConfig loop;
  loop.run_interval_seconds = 1800.0;
  loop.history_bins = 720;  // train on the trailing 6 h
  loop.default_pool_size = 6;
  loop.sim.creation_latency_mean_seconds = 90.0;
  loop.sim.creation_latency_cv = 0.2;
  loop.sim.seed = 7;

  // Crash pipeline runs 10 and 11 (~5:00-5:30) to exercise §7.6 fallbacks.
  auto result = ControlLoop::Run(
      *engine, loop, demand, events,
      [](size_t run) { return run == 10 || run == 11; });
  if (!result.ok()) {
    std::fprintf(stderr, "control loop: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // --- the day's dashboard (the §7.5 monitoring metrics) ------------------------
  // Feed the monitoring system (the Kusto-backed dashboard of §7.5) and pull
  // a snapshot + alerts.
  AlertConfig alert_config;
  alert_config.min_hit_rate = 0.95;
  auto monitor = Monitor::Create(alert_config, CogsModel{},
                                 /*static_reference_pool=*/40);
  {
    double t = 0.0;
    for (size_t i = 0; i < result->pipeline_runs; ++i) {
      t += loop.run_interval_seconds;
      // Replay pipeline statuses in order: failures were runs 10 and 11.
      const PipelineStatus status = (i == 10 || i == 11)
                                        ? PipelineStatus::kFailed
                                        : PipelineStatus::kSucceeded;
      monitor->RecordPipelineRun(t, status);
      (void)monitor->CheckAlerts(t);
    }
    monitor->RecordClusterIdle(86400.0, result->sim.idle_cluster_seconds);
    monitor->RecordRecommendation(86400.0,
                                  static_cast<double>(result->applied_schedule.back()));
  }

  std::printf("\n===== Intelligent Pooling daily dashboard =====\n");
  std::printf("pipeline runs          : %zu (%zu failed, %zu guardrail)\n",
              result->pipeline_runs, result->pipeline_failures,
              result->guardrail_rejections);
  std::printf("fallback-to-default    : %zu bins\n", result->fallback_bins);
  const SimResult& sim = result->sim;
  std::printf("requests served        : %ld\n", sim.total_requests);
  std::printf("pool hit rate          : %.2f%%\n", 100.0 * sim.hit_rate);
  std::printf("avg / p99 / max wait   : %.2f / %.1f / %.1f s\n",
              sim.avg_wait_seconds, sim.p99_wait_seconds, sim.max_wait_seconds);
  std::printf("clusters created       : %ld (+%ld on-demand)\n",
              sim.clusters_created, sim.on_demand_created);
  std::printf("hydrations cancelled   : %ld, deleted on downsize: %ld\n",
              sim.hydrations_cancelled, sim.clusters_deleted);
  std::printf("idle cluster time      : %s\n",
              HumanDuration(sim.idle_cluster_seconds).c_str());
  CogsModel cogs;
  std::printf("idle COGS              : $%.2f\n",
              cogs.IdleDollars(sim.idle_cluster_seconds));
  DashboardSnapshot snap = monitor->Snapshot(86400.0);
  std::printf("COGS saved vs static-40: $%.2f\n", snap.cogs_saved_dollars);
  std::printf("alerts fired           : %zu\n", monitor->alerts().size());
  for (const Alert& alert : monitor->alerts()) {
    std::printf("  [%s] %s: %s\n", HumanClock(alert.time).c_str(),
                alert.kind.c_str(), alert.message.c_str());
  }
  return 0;
}
