#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/rng.h"
#include "core/recommendation_engine.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "live/control_loop.h"
#include "service/arbitrator.h"
#include "service/recommendation_io.h"
#include "service/sharded_document_store.h"
#include "service/telemetry_store.h"
#include "workload/demand_generator.h"

namespace ipool {
namespace {

// ---- telemetry store --------------------------------------------------------

TEST(TelemetryStoreTest, RecordAndQueryBinned) {
  TelemetryStore store;
  ASSERT_TRUE(store.RecordEvent("req", 5.0).ok());
  ASSERT_TRUE(store.RecordEvent("req", 35.0).ok());
  ASSERT_TRUE(store.RecordEvent("req", 36.0).ok());
  ASSERT_TRUE(store.Record("req", 65.0, 2.0).ok());

  auto binned = store.QueryBinned("req", 0.0, 30.0, 3);
  ASSERT_TRUE(binned.ok());
  EXPECT_DOUBLE_EQ(binned->value(0), 1.0);
  EXPECT_DOUBLE_EQ(binned->value(1), 2.0);
  EXPECT_DOUBLE_EQ(binned->value(2), 2.0);
}

TEST(TelemetryStoreTest, RejectsOutOfOrder) {
  TelemetryStore store;
  ASSERT_TRUE(store.RecordEvent("req", 10.0).ok());
  EXPECT_FALSE(store.RecordEvent("req", 5.0).ok());
  // Other metrics are independent.
  EXPECT_TRUE(store.RecordEvent("other", 1.0).ok());
}

TEST(TelemetryStoreTest, UnknownMetricIsZero) {
  TelemetryStore store;
  auto binned = store.QueryBinned("ghost", 0.0, 30.0, 4);
  ASSERT_TRUE(binned.ok());
  EXPECT_DOUBLE_EQ(binned->Sum(), 0.0);
  EXPECT_DOUBLE_EQ(store.Sum("ghost", 0, 100), 0.0);
  EXPECT_EQ(store.PointCount("ghost"), 0u);
}

TEST(TelemetryStoreTest, SumOverRange) {
  TelemetryStore store;
  for (double t : {1.0, 2.0, 3.0, 4.0}) ASSERT_TRUE(store.RecordEvent("m", t).ok());
  EXPECT_DOUBLE_EQ(store.Sum("m", 2.0, 4.0), 2.0);  // [2, 4): points 2, 3
  EXPECT_DOUBLE_EQ(store.LastTime("m"), 4.0);
}

TEST(TelemetryStoreTest, CountInRangeAndMetricNames) {
  TelemetryStore store;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    ASSERT_TRUE(store.Record("reqs", t, 10.0).ok());  // value != count
  }
  ASSERT_TRUE(store.RecordEvent("alerts", 2.0).ok());
  EXPECT_EQ(store.CountInRange("reqs", 2.0, 4.0), 2);  // [2, 4): points 2, 3
  EXPECT_EQ(store.CountInRange("reqs", 0.0, 100.0), 4);
  EXPECT_EQ(store.CountInRange("reqs", 4.5, 9.0), 0);
  EXPECT_EQ(store.CountInRange("ghost", 0.0, 100.0), 0);
  EXPECT_EQ(store.Metrics(), (std::vector<std::string>{"alerts", "reqs"}));
}

TEST(TelemetryStoreTest, PublishToExportsPerMetricGauges) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("m", 1.0, 2.0).ok());
  ASSERT_TRUE(store.Record("m", 5.0, 4.0).ok());
  obs::MetricsRegistry registry;
  store.PublishTo(&registry);
  const obs::LabelSet labels = {{"metric", "m"}};
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ipool_telemetry_points", labels)->value(), 2.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ipool_telemetry_value_sum", labels)->value(), 6.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ipool_telemetry_last_time", labels)->value(), 5.0);
  store.PublishTo(nullptr);  // no-op, not a crash
}

// ---- recommendation io ------------------------------------------------------

StoredRecommendation SampleStored() {
  StoredRecommendation stored;
  stored.recommendation.pool_size_per_bin = {3, 4, 5};
  stored.recommendation.predicted_demand = {1.5, 2.25, 3.0};
  stored.recommendation.model_name = "SSA+";
  stored.recommendation.pipeline = PipelineKind::kEndToEnd;
  stored.start_time = 7200.0;
  stored.interval_seconds = 30.0;
  return stored;
}

TEST(RecommendationIoTest, RoundTrips) {
  StoredRecommendation stored = SampleStored();
  auto parsed = ParseRecommendation(SerializeRecommendation(stored));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->recommendation.pool_size_per_bin,
            stored.recommendation.pool_size_per_bin);
  EXPECT_EQ(parsed->recommendation.model_name, "SSA+");
  EXPECT_EQ(parsed->recommendation.pipeline, PipelineKind::kEndToEnd);
  EXPECT_DOUBLE_EQ(parsed->start_time, 7200.0);
  EXPECT_DOUBLE_EQ(parsed->interval_seconds, 30.0);
  ASSERT_EQ(parsed->recommendation.predicted_demand.size(), 3u);
  EXPECT_NEAR(parsed->recommendation.predicted_demand[1], 2.25, 1e-9);
}

TEST(RecommendationIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseRecommendation("").ok());
  EXPECT_FALSE(ParseRecommendation("v2\npool=1").ok());
  EXPECT_FALSE(ParseRecommendation("v1\nnonsense").ok());
  EXPECT_FALSE(ParseRecommendation("v1\nmodel=x\n").ok());  // no schedule
}

TEST(RecommendationIoTest, TargetAtSelectsBin) {
  StoredRecommendation stored = SampleStored();
  EXPECT_EQ(stored.TargetAt(7200.0), 3);
  EXPECT_EQ(stored.TargetAt(7229.9), 3);
  EXPECT_EQ(stored.TargetAt(7230.0), 4);
  EXPECT_EQ(stored.TargetAt(7290.0), 5);   // past the window: last bin
  EXPECT_EQ(stored.TargetAt(99999.0), 5);  // stale fallback value
  EXPECT_EQ(stored.TargetAt(0.0), 3);      // before the window: first bin
}

TEST(RecommendationIoTest, RandomGarbageNeverCrashes) {
  // The pooling worker parses documents written by another service; hostile
  // or corrupt bytes must yield an error, never UB.
  Rng rng(55);
  const std::string alphabet = "v1\n=,.0123456789abcpoolmdei-+";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 120));
    for (size_t i = 0; i < len; ++i) {
      text += alphabet[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
    }
    auto parsed = ParseRecommendation(text);
    if (parsed.ok()) {
      // Anything accepted must at least be structurally sound.
      EXPECT_FALSE(parsed->recommendation.pool_size_per_bin.empty());
      EXPECT_GT(parsed->interval_seconds, 0.0);
    }
  }
}

TEST(RecommendationIoTest, RejectsOversizedDocument) {
  // A document over the byte cap is refused before any content parsing.
  std::string huge = "v1\npool=";
  huge.append(kMaxRecommendationBytes, '1');
  auto parsed = ParseRecommendation(huge);
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().ToString().find("exceeds cap") !=
              std::string::npos)
      << parsed.status().ToString();
}

TEST(RecommendationIoTest, RejectsDuplicateFields) {
  const std::string base = SerializeRecommendation(SampleStored());
  for (const char* dup :
       {"model=TST\n", "pipeline=E2E\n", "start=1\n", "interval=1\n",
        "pool=1\n", "demand=1\n"}) {
    EXPECT_FALSE(ParseRecommendation(base + dup).ok()) << dup;
  }
}

TEST(RecommendationIoTest, RejectsPartialNumericTokens) {
  // atof-style prefix parsing would accept all of these; strict parsing
  // treats a trailing-garbage numeral as corruption.
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=12abc\ninterval=30\npool=1\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1,2x,3\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1\ndemand=1.5.2\n")
          .ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=nan\npool=1\n").ok());
  // Floating-point pool sizes are not integers.
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1.5\n").ok());
}

TEST(RecommendationIoTest, RejectsEmptyListItemsAndNegativePools) {
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1,,2\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1,2,\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=3,-1\n").ok());
  EXPECT_FALSE(ParseRecommendation(
                   "v1\nstart=0\ninterval=30\npool=1\ndemand=1.0,,2.0\n")
                   .ok());
}

TEST(RecommendationIoTest, RejectsUnknownPipelineAndFields) {
  EXPECT_FALSE(ParseRecommendation(
                   "v1\npipeline=3-step\nstart=0\ninterval=30\npool=1\n")
                   .ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=30\npool=1\nbogus=1\n").ok());
  EXPECT_FALSE(
      ParseRecommendation("v1\nstart=0\ninterval=-30\npool=1\n").ok());
}

TEST(RecommendationIoTest, TruncatedSerializationRejected) {
  StoredRecommendation stored = SampleStored();
  const std::string full = SerializeRecommendation(stored);
  // Chopping the document anywhere before the pool line must fail.
  const size_t pool_pos = full.find("pool=");
  ASSERT_NE(pool_pos, std::string::npos);
  for (size_t cut : {size_t{0}, size_t{2}, pool_pos / 2, pool_pos}) {
    EXPECT_FALSE(ParseRecommendation(full.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

// ---- arbitrator -------------------------------------------------------------

TEST(ArbitratorTest, AssignsWorkToHealthyWorker) {
  auto arb = Arbitrator::Create({});
  ASSERT_TRUE(arb.ok());
  ASSERT_TRUE(arb->AddWorker("w1").ok());
  ASSERT_TRUE(arb->AddWorkItem("pool-task").ok());
  EXPECT_EQ(arb->RunHealthCheck(0.0), 1u);
  EXPECT_EQ(arb->OwnerOf("pool-task"), "w1");
}

TEST(ArbitratorTest, RejectsDuplicates) {
  auto arb = Arbitrator::Create({});
  ASSERT_TRUE(arb->AddWorker("w1").ok());
  EXPECT_FALSE(arb->AddWorker("w1").ok());
  ASSERT_TRUE(arb->AddWorkItem("t").ok());
  EXPECT_FALSE(arb->AddWorkItem("t").ok());
  EXPECT_FALSE(arb->SetWorkerHealth("ghost", true).ok());
}

TEST(ArbitratorTest, ReplacesUnhealthyWorker) {
  auto arb = Arbitrator::Create({});
  ASSERT_TRUE(arb->AddWorker("w1").ok());
  ASSERT_TRUE(arb->AddWorker("w2").ok());
  ASSERT_TRUE(arb->AddWorkItem("task").ok());
  arb->RunHealthCheck(0.0);
  const std::string original = *arb->OwnerOf("task");
  ASSERT_TRUE(arb->SetWorkerHealth(original, false).ok());
  arb->RunHealthCheck(10.0);
  ASSERT_TRUE(arb->OwnerOf("task").has_value());
  EXPECT_NE(*arb->OwnerOf("task"), original);
}

TEST(ArbitratorTest, HealthyLeaseIsRenewedNotReassigned) {
  ArbitratorConfig config;
  config.lease_duration_seconds = 100.0;
  auto arb = Arbitrator::Create(config);
  ASSERT_TRUE(arb->AddWorker("w1").ok());
  ASSERT_TRUE(arb->AddWorker("w2").ok());
  ASSERT_TRUE(arb->AddWorkItem("task").ok());
  arb->RunHealthCheck(0.0);
  const std::string owner = *arb->OwnerOf("task");
  // Run checks well past the lease: the healthy owner keeps renewing.
  for (double t = 50; t < 1000; t += 50) arb->RunHealthCheck(t);
  EXPECT_EQ(*arb->OwnerOf("task"), owner);
  EXPECT_EQ(arb->reassignments(), 1u);  // only the initial assignment
}

TEST(ArbitratorTest, NoHealthyWorkersLeavesUnassigned) {
  auto arb = Arbitrator::Create({});
  ASSERT_TRUE(arb->AddWorker("w1").ok());
  ASSERT_TRUE(arb->SetWorkerHealth("w1", false).ok());
  ASSERT_TRUE(arb->AddWorkItem("task").ok());
  EXPECT_EQ(arb->RunHealthCheck(0.0), 0u);
  EXPECT_FALSE(arb->OwnerOf("task").has_value());
  // Worker recovers: next check assigns.
  ASSERT_TRUE(arb->SetWorkerHealth("w1", true).ok());
  EXPECT_EQ(arb->RunHealthCheck(1.0), 1u);
  EXPECT_EQ(arb->OwnerOf("task"), "w1");
}

TEST(ArbitratorTest, BalancesLoadAcrossWorkers) {
  auto arb = Arbitrator::Create({});
  ASSERT_TRUE(arb->AddWorker("w1").ok());
  ASSERT_TRUE(arb->AddWorker("w2").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(arb->AddWorkItem("task-" + std::to_string(i)).ok());
  }
  arb->RunHealthCheck(0.0);
  EXPECT_EQ(arb->LoadOf("w1"), 2u);
  EXPECT_EQ(arb->LoadOf("w2"), 2u);
}

// ---- control loop -----------------------------------------------------------

PipelineConfig SsaPipeline() {
  PipelineConfig config;
  config.kind = PipelineKind::k2Step;
  config.model = ModelKind::kSsa;
  config.forecast.window = 48;
  config.forecast.horizon = 24;
  config.saa.alpha_prime = 0.4;
  config.saa.pool.tau_bins = 3;
  config.saa.pool.stableness_bins = 10;
  config.recommendation_bins = 120;
  return config;
}

// Control-loop pipeline: SSA+ with a strong overshoot bias, the deployed
// configuration. Plain SSA predicts the smooth mean with no margin and
// cannot reach high hit rates (the paper's §5.2 limitation).
PipelineConfig LoopPipeline() {
  PipelineConfig config = SsaPipeline();
  config.model = ModelKind::kSsaPlus;
  config.forecast.alpha_prime = 0.95;
  config.saa.alpha_prime = 0.2;
  return config;
}

ControlLoopConfig LoopConfig() {
  ControlLoopConfig config;
  config.run_interval_seconds = 1800.0;
  config.history_bins = 480;
  config.default_pool_size = 5;
  config.sim.creation_latency_mean_seconds = 90.0;
  return config;
}

TEST(ControlLoopTest, RunsEndToEnd) {
  auto engine = RecommendationEngine::Create(LoopPipeline());
  ASSERT_TRUE(engine.ok());
  WorkloadConfig wconfig;
  wconfig.duration_days = 0.5;
  wconfig.base_rate_per_minute = 6.0;
  wconfig.diurnal_amplitude = 0.0;
  wconfig.seed = 19;
  auto generator = DemandGenerator::Create(wconfig);
  TimeSeries demand = generator->GenerateBinned();
  auto events = generator->GenerateEvents();

  auto result = ControlLoop::Run(*engine, LoopConfig(), demand, events);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->applied_schedule.size(), demand.size());
  EXPECT_GT(result->pipeline_runs, 10u);
  EXPECT_EQ(result->sim.total_requests,
            static_cast<int64_t>(events.size()));
  // With a functioning loop the pool hit rate should be high.
  EXPECT_GT(result->sim.hit_rate, 0.8);
}

TEST(ControlLoopTest, ObservabilityCountsRunsAndNestsPhaseSpans) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  const ObsContext obs{&registry, &tracer};

  PipelineConfig pipeline = LoopPipeline();
  pipeline.obs = obs;  // the engine adds "forecast" / "solve" spans
  auto engine = RecommendationEngine::Create(pipeline);
  ASSERT_TRUE(engine.ok());
  WorkloadConfig wconfig;
  wconfig.duration_days = 0.25;
  wconfig.base_rate_per_minute = 6.0;
  wconfig.diurnal_amplitude = 0.0;
  wconfig.seed = 23;
  auto generator = DemandGenerator::Create(wconfig);
  TimeSeries demand = generator->GenerateBinned();
  auto events = generator->GenerateEvents();

  ControlLoopConfig config = LoopConfig();
  config.obs = obs;
  auto result = ControlLoop::Run(*engine, config, demand, events);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Metrics side: the plane's tick counter agrees with the loop's own
  // accounting and every run landed one tick-latency observation.
  uint64_t ticks = 0;
  for (const char* status : {"ok", "failed", "idle"}) {
    ticks += registry.GetCounter("ipool_live_ticks_total", {{"status", status}})
                 ->value();
  }
  EXPECT_EQ(ticks, result->pipeline_runs);
  EXPECT_EQ(registry.GetHistogram("ipool_live_tick_seconds")->count(),
            result->pipeline_runs);
  // Every run that published is an ok tick; failures and guardrail
  // rejections published nothing.
  const uint64_t ok_ticks =
      registry.GetCounter("ipool_live_ticks_total", {{"status", "ok"}})
          ->value();
  EXPECT_EQ(ok_ticks, result->pipeline_runs - result->pipeline_failures -
                          result->guardrail_rejections);
  EXPECT_GT(ok_ticks, 0u);
  EXPECT_EQ(
      registry.GetCounter("ipool_live_guardrail_rejections_total")->value(),
      result->guardrail_rejections);
  EXPECT_EQ(registry.GetCounter("ipool_telemetry_events_total")->value(),
            events.size());
  // The exporter path published the telemetry store's state: one point per
  // demand bin carrying every event.
  const obs::LabelSet replayed = {{"metric", "demand.replay"}};
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ipool_telemetry_points", replayed)->value(),
      static_cast<double>(demand.size()));
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ipool_telemetry_value_sum", replayed)->value(),
      static_cast<double>(events.size()));

  // Trace side: every "live.tick" span nests its stage children, and the
  // children's durations sum to no more than the parent's.
  const auto spans = tracer.FinishedSpans();
  ASSERT_EQ(tracer.dropped(), 0u);
  uint64_t root_id = 0;
  for (const auto& s : spans) {
    if (s.name == "control_loop") root_id = s.id;
  }
  ASSERT_NE(root_id, 0u);
  auto children_of = [&](const obs::SpanRecord& parent) {
    std::vector<const obs::SpanRecord*> children;
    for (const auto& child : spans) {
      if (child.parent_id == parent.id) children.push_back(&child);
    }
    return children;
  };
  auto has_child = [&](const obs::SpanRecord& parent, const char* name) {
    for (const auto* child : children_of(parent)) {
      if (child->name == name) return true;
    }
    return false;
  };
  size_t tick_spans = 0;
  size_t pool_spans = 0;
  bool saw_simulate = false;
  for (const auto& parent : spans) {
    if (parent.name == "simulate") {
      saw_simulate = true;
      EXPECT_EQ(parent.parent_id, root_id);
    }
    if (parent.name != "live.tick") continue;
    ++tick_spans;
    EXPECT_EQ(parent.parent_id, root_id);
    double child_total = 0.0;
    for (const auto* child : children_of(parent)) {
      EXPECT_GE(child->duration_seconds, 0.0);
      EXPECT_GE(child->start_seconds, parent.start_seconds - 1e-9);
      child_total += child->duration_seconds;
    }
    EXPECT_LE(child_total, parent.duration_seconds + 1e-9);
    // Every run reaches these stages, also when the guardrail holds the
    // recommendation back.
    for (const char* stage : {"live.snapshot", "live.refit_solve",
                              "live.publish"}) {
      EXPECT_TRUE(has_child(parent, stage))
          << "live.tick span missing child " << stage;
    }
    // The refit/solve stage runs the one replayed pool through the engine,
    // which adds its "forecast" / "solve" phases.
    for (const auto* stage : children_of(parent)) {
      if (stage->name != "live.refit_solve") continue;
      for (const auto* pool : children_of(*stage)) {
        EXPECT_EQ(pool->name, "live.pool");
        ++pool_spans;
        for (const char* phase : {"forecast", "solve"}) {
          EXPECT_TRUE(has_child(*pool, phase))
              << "live.pool span missing child " << phase;
        }
      }
    }
  }
  EXPECT_EQ(tick_spans, result->pipeline_runs);
  EXPECT_EQ(pool_spans, result->pipeline_runs);
  EXPECT_TRUE(saw_simulate);
}

TEST(ControlLoopTest, SurvivesInjectedFailures) {
  auto engine = RecommendationEngine::Create(LoopPipeline());
  WorkloadConfig wconfig;
  wconfig.duration_days = 0.5;
  wconfig.base_rate_per_minute = 6.0;
  wconfig.diurnal_amplitude = 0.0;
  wconfig.seed = 23;
  auto generator = DemandGenerator::Create(wconfig);
  TimeSeries demand = generator->GenerateBinned();
  auto events = generator->GenerateEvents();

  // Crash every other pipeline run: the previous recommendation (and
  // eventually the default) must carry the pool.
  auto result = ControlLoop::Run(*engine, LoopConfig(), demand, events,
                                 [](size_t run) { return run % 2 == 1; });
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->pipeline_failures, 0u);
  // Service stays up: requests still served at a reasonable hit rate.
  EXPECT_GT(result->sim.hit_rate, 0.6);
}

TEST(ControlLoopTest, AllFailuresFallBackToDefault) {
  auto engine = RecommendationEngine::Create(SsaPipeline());
  WorkloadConfig wconfig;
  wconfig.duration_days = 0.25;
  wconfig.base_rate_per_minute = 4.0;
  wconfig.seed = 29;
  auto generator = DemandGenerator::Create(wconfig);
  TimeSeries demand = generator->GenerateBinned();
  auto events = generator->GenerateEvents();

  auto result = ControlLoop::Run(*engine, LoopConfig(), demand, events,
                                 [](size_t) { return true; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pipeline_failures, result->pipeline_runs);
  // Every applied bin is the default pool size.
  for (int64_t n : result->applied_schedule) EXPECT_EQ(n, 5);
  EXPECT_EQ(result->fallback_bins, demand.size());
}

TEST(ControlLoopTest, WarmRefitMatchesColdSchedulesAndHitsWarmStarts) {
  // The warm_refit path (per-pool SsaWarmState carried across the plane's
  // ticks) must be a pure speedup: the applied schedule is identical
  // to forcing every pipeline run cold, and the SSA warm-start counters
  // prove the fast path actually engaged rather than silently refitting
  // from scratch every tick. The trace is hand-crafted rather than drawn
  // from DemandGenerator: per-bin counts follow an exact low-rank curve
  // (DC + one sinusoid = Hankel rank 3) with integer rounding as the only
  // noise (~5e-5 of the energy). That clean-spectrum regime is where the
  // subspace path engages — generator traces carry a Poisson/overdispersion
  // noise plateau that legitimately stays on the dense oracle.
  const double interval = 30.0;
  const size_t bins = 1440;  // half a day at 30 s
  std::vector<double> counts(bins);
  std::vector<double> events;
  for (size_t i = 0; i < bins; ++i) {
    const auto c = static_cast<size_t>(std::llround(
        40.0 + 20.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 64.0) +
        6.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 97.0)));
    counts[i] = static_cast<double>(c);
    for (size_t e = 0; e < c; ++e) {
      events.push_back(interval * (static_cast<double>(i) +
                                   (static_cast<double>(e) + 0.5) /
                                       static_cast<double>(c)));
    }
  }
  TimeSeries demand(0.0, interval, std::move(counts));

  auto run = [&](bool warm, obs::MetricsRegistry* registry) {
    PipelineConfig pipeline = LoopPipeline();
    pipeline.obs.metrics = registry;
    // Tie-free alpha: at 0.2 the per-block SAA cost has slope
    // 0.2*8 - 0.8*2 = 0 across whole pool-size intervals (10-bin blocks),
    // so every point of the plateau is optimal and last-bit forecast
    // differences pick different — equally optimal — schedules. 0.37 has no
    // integer zero-slope split, making the argmin unique and the schedule
    // comparison meaningful.
    pipeline.saa.alpha_prime = 0.37;
    auto engine = RecommendationEngine::Create(pipeline);
    EXPECT_TRUE(engine.ok());
    ControlLoopConfig config = LoopConfig();
    config.warm_refit = warm;
    return ControlLoop::Run(*engine, config, demand, events);
  };

  obs::MetricsRegistry warm_registry;
  obs::MetricsRegistry cold_registry;
  auto warm = run(true, &warm_registry);
  auto cold = run(false, &cold_registry);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  EXPECT_EQ(warm->applied_schedule, cold->applied_schedule);
  EXPECT_EQ(warm->pipeline_runs, cold->pipeline_runs);
  EXPECT_GT(warm->pipeline_runs, 2u);

  // Every run after the first should warm-start (same pool, sliding
  // window); the cold loop must record none.
  EXPECT_GT(
      warm_registry.GetCounter("ipool_ssa_warm_start_hits_total")->value(),
      0u);
  EXPECT_EQ(
      cold_registry.GetCounter("ipool_ssa_warm_start_hits_total")->value(),
      0u);
}

// The Pooling Worker's rule: a fresh document's bin target, its last bin
// while slightly outdated, and the default size — counted as a fallback —
// without a document, past the TTL, or when the document does not parse.
TEST(ControlLoopTest, TargetRuleFallsBackToDefault) {
  const StoredRecommendation stored = SampleStored();  // bins 3, 4, 5
  ShardedDocumentStore documents;
  documents.Put("fresh", SerializeRecommendation(stored), stored.start_time);
  documents.Put("corrupt", "garbage", stored.start_time);
  ControlLoopConfig config;
  config.recommendation_ttl_seconds = 3600.0;
  config.default_pool_size = 9;
  const struct {
    const char* key;
    double now;
    int64_t size;
    bool fallback;
  } cases[] = {
      {"missing", 100.0, 9, true},
      {"fresh", 7230.0, 4, false},
      {"fresh", 7200.0 + 3000.0, 5, false},  // within the TTL: last bin
      {"fresh", 7200.0 + 4000.0, 9, true},   // beyond the TTL
      {"corrupt", 7230.0, 9, true},
  };
  for (const auto& c : cases) {
    const ControlLoop::Target target =
        ControlLoop::TargetAt(documents.Get(c.key), c.now, config);
    EXPECT_EQ(target.size, c.size) << c.key << " at " << c.now;
    EXPECT_EQ(target.fallback, c.fallback) << c.key << " at " << c.now;
  }
}


// ---- control-loop goldens -----------------------------------------------

// A replay pinned bit for bit: FNV-1a over the applied schedule, the run
// accounting, and the bits of the simulated total wait. The values were
// captured from the replay's earlier implementation (its own worker loop
// over a plain document store), before the replay became a driver of the
// live control plane.
struct ReplayDigest {
  uint64_t schedule_hash = 0;
  size_t runs = 0;
  size_t failures = 0;
  size_t rejections = 0;
  size_t fallback_bins = 0;
  uint64_t total_wait_bits = 0;
};

ReplayDigest Digest(const ControlLoopResult& result) {
  ReplayDigest digest;
  uint64_t h = 1469598103934665603ULL;
  for (const int64_t size : result.applied_schedule) {
    const auto bits = static_cast<uint64_t>(size);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  digest.schedule_hash = h;
  digest.runs = result.pipeline_runs;
  digest.failures = result.pipeline_failures;
  digest.rejections = result.guardrail_rejections;
  digest.fallback_bins = result.fallback_bins;
  std::memcpy(&digest.total_wait_bits, &result.sim.total_wait_seconds,
              sizeof(digest.total_wait_bits));
  return digest;
}

void ExpectDigest(const ControlLoopResult& result,
                  const ReplayDigest& expected) {
  const ReplayDigest got = Digest(result);
  EXPECT_EQ(got.schedule_hash, expected.schedule_hash);
  EXPECT_EQ(got.runs, expected.runs);
  EXPECT_EQ(got.failures, expected.failures);
  EXPECT_EQ(got.rejections, expected.rejections);
  EXPECT_EQ(got.fallback_bins, expected.fallback_bins);
  EXPECT_EQ(got.total_wait_bits, expected.total_wait_bits);
}

/// Flat half-day trace of the RunsEndToEnd / SurvivesInjectedFailures tests.
std::pair<TimeSeries, std::vector<double>> FlatTrace(uint64_t seed) {
  WorkloadConfig wconfig;
  wconfig.duration_days = 0.5;
  wconfig.base_rate_per_minute = 6.0;
  wconfig.diurnal_amplitude = 0.0;
  wconfig.seed = seed;
  auto generator = DemandGenerator::Create(wconfig);
  return {generator->GenerateBinned(), generator->GenerateEvents()};
}

TEST(ControlLoopGoldenTest, RunsEndToEnd) {
  auto engine = RecommendationEngine::Create(LoopPipeline());
  ASSERT_TRUE(engine.ok());
  const auto [demand, events] = FlatTrace(19);
  auto result = ControlLoop::Run(*engine, LoopConfig(), demand, events);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectDigest(*result, {0xa7826497d8ae9923ULL, 23, 0, 1, 60,
                         0x40aced0fef724e12ULL});
}

TEST(ControlLoopGoldenTest, SurvivesInjectedFailures) {
  auto engine = RecommendationEngine::Create(LoopPipeline());
  ASSERT_TRUE(engine.ok());
  const auto [demand, events] = FlatTrace(23);
  auto result = ControlLoop::Run(*engine, LoopConfig(), demand, events,
                                 [](size_t run) { return run % 2 == 1; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectDigest(*result, {0x9a2c5bdf76432f4dULL, 23, 11, 2, 299,
                         0x40d31ebb2efda7f6ULL});
}

// A baseline forecasting 50x the window maximum trips the §7.5 guardrail on
// every run after the first at ratio 1.0.
TEST(ControlLoopGoldenTest, GuardrailRejectsGamma50Baseline) {
  PipelineConfig pipeline = SsaPipeline();
  pipeline.model = ModelKind::kBaseline;
  pipeline.forecast.gamma = 50.0;
  auto engine = RecommendationEngine::Create(pipeline);
  ASSERT_TRUE(engine.ok());
  const auto [demand, events] = FlatTrace(19);
  ControlLoopConfig config = LoopConfig();
  config.guardrail_mae_ratio = 1.0;
  auto result = ControlLoop::Run(*engine, config, demand, events);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->guardrail_rejections, 0u);
  ExpectDigest(*result, {0xf23d4a2a7d1c6f4eULL, 23, 0, 22, 1319,
                         0x40f47d308ab2f2f0ULL});
}

// examples/region_simulation's day: SSA+ over a diurnal trace with
// hourly spikes, runs 10 and 11 crashed.
TEST(ControlLoopGoldenTest, RegionSimulationDay) {
  WorkloadConfig workload;
  workload.duration_days = 1.0;
  workload.base_rate_per_minute = 8.0;
  workload.hourly_spike_requests = 15.0;
  workload.diurnal_amplitude = 0.4;
  workload.seed = 2024;
  auto generator = DemandGenerator::Create(workload);
  const TimeSeries demand = generator->GenerateBinned();
  const std::vector<double> events = generator->GenerateEvents();

  PipelineConfig pipeline;
  pipeline.model = ModelKind::kSsaPlus;
  pipeline.forecast.window = 96;
  pipeline.forecast.horizon = 48;
  pipeline.forecast.alpha_prime = 0.92;
  pipeline.saa.alpha_prime = 0.25;
  pipeline.saa.pool.tau_bins = 3;
  pipeline.saa.pool.stableness_bins = 10;
  pipeline.saa.pool.max_pool_size = 300;
  pipeline.recommendation_bins = 120;
  auto engine = RecommendationEngine::Create(pipeline);
  ASSERT_TRUE(engine.ok());

  ControlLoopConfig loop;
  loop.run_interval_seconds = 1800.0;
  loop.history_bins = 720;
  loop.default_pool_size = 6;
  loop.sim.creation_latency_mean_seconds = 90.0;
  loop.sim.creation_latency_cv = 0.2;
  loop.sim.seed = 7;
  auto result = ControlLoop::Run(
      *engine, loop, demand, events,
      [](size_t run) { return run == 10 || run == 11; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectDigest(*result, {0x29d19766c967074fULL, 47, 2, 0, 119,
                         0x40bc0d0b3a6ebc92ULL});
}

}  // namespace
}  // namespace ipool
