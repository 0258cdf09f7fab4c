// Tests for the src/live streaming control plane: the end-to-end scenario
// (telemetry spike in -> recommendation out, then decay), §7.6 fault
// tolerance (a failed tick keeps serving the previous snapshot while
// staleness rises), idle-vs-failed tick semantics, warm refits, the Health
// surface, and publish-while-tick concurrency (the TSan job runs this
// binary). All time is virtual: telemetry times are caller-supplied and the
// staleness clock is injected, so every assertion is deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/recommendation_engine.h"
#include "exec/thread_pool.h"
#include "live/live_control_plane.h"
#include "net/frame.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "service/sharded_document_store.h"
#include "service/recommendation_io.h"
#include "service/sharded_telemetry_store.h"
#include "service/tuning_io.h"

namespace ipool {
namespace {

using live::LiveControlPlane;
using live::LiveControlPlaneConfig;
using live::LiveStatus;
using live::TickStatus;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

net::Frame MakeRequest(net::Method method, std::string payload) {
  net::Frame frame;
  frame.type = net::FrameType::kRequest;
  frame.method = method;
  frame.request_id = 11;
  frame.payload = std::move(payload);
  return frame;
}

/// Publishes `count` equally spaced points through the router, the same
/// path a live client takes (so the test exercises the store mutex the
/// plane shares with served requests).
void PublishPoints(net::Router* router, const std::string& metric,
                   double start, size_t count, double value,
                   double interval = 30.0) {
  std::string payload;
  for (size_t i = 0; i < count; ++i) {
    payload += StrFormat("%s,%.1f,%.1f\n", metric.c_str(),
                         start + interval * static_cast<double>(i), value);
  }
  net::Frame response =
      router->Handle(MakeRequest(net::Method::kPublishTelemetry, payload));
  ASSERT_EQ(response.status, net::WireStatus::kOk) << response.payload;
}

/// Fetches and parses the served recommendation for `key`.
Result<StoredRecommendation> GetServed(net::Router* router,
                                       const std::string& key) {
  net::Frame response =
      router->Handle(MakeRequest(net::Method::kGetRecommendation, key));
  if (response.status != net::WireStatus::kOk) {
    return Status::NotFound(response.payload);
  }
  return ParseRecommendation(response.payload);
}

int64_t MaxPool(const StoredRecommendation& stored) {
  int64_t max = 0;
  for (int64_t size : stored.recommendation.pool_size_per_bin) {
    max = std::max(max, size);
  }
  return max;
}

/// Small deterministic pipeline: the baseline model forecasts
/// gamma * max(history), so served pool sizes track the window maximum and
/// the spike/decay scenario is exactly predictable.
PipelineConfig BaselinePipeline() {
  PipelineConfig config;
  config.model = ModelKind::kBaseline;
  config.recommendation_bins = 8;
  config.forecast.window = 16;
  config.forecast.horizon = 8;
  config.saa.pool.tau_bins = 1;
  config.saa.pool.stableness_bins = 4;
  return config;
}

/// A baseline forecasting 50x the window maximum: every forecast misses
/// steady demand by far more than any sane guardrail allows.
PipelineConfig Gamma50Pipeline() {
  PipelineConfig config = BaselinePipeline();
  config.forecast.gamma = 50.0;
  return config;
}

LiveControlPlaneConfig SmallLiveConfig() {
  LiveControlPlaneConfig config;
  config.bin_interval_seconds = 30.0;
  config.history_bins = 16;
  config.min_history_points = 8;
  return config;
}

TEST(LiveConfigTest, ValidateRejectsBadValues) {
  LiveControlPlaneConfig config;
  config.tick_interval_seconds = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = LiveControlPlaneConfig();
  config.demand_metric_prefix = "";
  EXPECT_FALSE(config.Validate().ok());
  config = LiveControlPlaneConfig();
  config.history_bins = 4;
  EXPECT_FALSE(config.Validate().ok());
  config = LiveControlPlaneConfig();
  config.min_history_points = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = LiveControlPlaneConfig();
  config.guardrail_mae_ratio = -1.0;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(LiveControlPlaneConfig().Validate().ok());

  ShardedTelemetryStore telemetry;
  ShardedDocumentStore documents;
  EXPECT_FALSE(LiveControlPlane::Create(nullptr, &telemetry, &documents,
                                        LiveControlPlaneConfig())
                   .ok());
}

// The ISSUE's end-to-end scenario: a demand spike injected through
// PublishTelemetry moves the served pool size within one tick, and once the
// spike ages out of the history window the pool decays back.
TEST(LiveControlPlaneTest, SpikeRaisesServedPoolThenDecays) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  double now = 0.0;
  LiveControlPlaneConfig config = SmallLiveConfig();
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  router.set_live(plane->get());

  // No telemetry yet: the tick is idle and nothing is served.
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kIdle);
  EXPECT_FALSE(GetServed(&router, "east").ok());

  // Steady demand of 4 -> the baseline forecast is flat 4.
  PublishPoints(&router, "demand.east", /*start=*/0.0, /*count=*/8,
                /*value=*/4.0);
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto steady = GetServed(&router, "east");
  ASSERT_TRUE(steady.ok()) << steady.status().ToString();
  // The recommendation starts one bin after the newest telemetry point.
  EXPECT_DOUBLE_EQ(steady->start_time, 210.0 + 30.0);
  const int64_t steady_max = MaxPool(*steady);
  EXPECT_GE(steady_max, 1);
  EXPECT_LE(steady_max, 8);

  // Spike to 40: the window maximum jumps, so the pool must grow.
  PublishPoints(&router, "demand.east", /*start=*/240.0, /*count=*/8,
                /*value=*/40.0);
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto spiked = GetServed(&router, "east");
  ASSERT_TRUE(spiked.ok());
  const int64_t spike_max = MaxPool(*spiked);
  EXPECT_GT(spike_max, steady_max);

  // 16 quiet bins push the spike out of the 16-bin window: decay.
  PublishPoints(&router, "demand.east", /*start=*/480.0, /*count=*/16,
                /*value=*/1.0);
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto decayed = GetServed(&router, "east");
  ASSERT_TRUE(decayed.ok());
  EXPECT_LT(MaxPool(*decayed), spike_max);

  // The loop's own metrics saw three ok ticks and one idle one.
  EXPECT_EQ(
      registry.GetCounter("ipool_live_ticks_total", {{"status", "ok"}})
          ->value(),
      3u);
  EXPECT_EQ(
      registry.GetCounter("ipool_live_ticks_total", {{"status", "idle"}})
          ->value(),
      1u);
  EXPECT_EQ(
      registry.GetCounter("ipool_live_ticks_total", {{"status", "failed"}})
          ->value(),
      0u);
}

// §7.6: a pool whose pipeline fails keeps serving its previous document
// while the staleness age keeps rising; the next good tick recovers.
TEST(LiveControlPlaneTest, FailedTickKeepsServingPreviousSnapshot) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());

  double now = 1000.0;
  LiveControlPlaneConfig config = SmallLiveConfig();
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());

  PublishPoints(&router, "demand.east", 0.0, 8, 4.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  net::Frame before =
      router.Handle(MakeRequest(net::Method::kGetRecommendation, "east"));
  ASSERT_EQ(before.status, net::WireStatus::kOk);

  // Inject a pipeline fault two minutes later: the tick fails, the served
  // payload is byte-identical, and the age gauge reports the stale window.
  now += 120.0;
  (*plane)->InjectFailures(1);
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kFailed);
  net::Frame during =
      router.Handle(MakeRequest(net::Method::kGetRecommendation, "east"));
  EXPECT_EQ(during.status, net::WireStatus::kOk);
  EXPECT_EQ(during.payload, before.payload);

  LiveStatus status = (*plane)->Snapshot();
  EXPECT_EQ(status.ticks_failed, 1u);
  EXPECT_EQ(status.last_tick_status, TickStatus::kFailed);
  EXPECT_TRUE(Contains(status.last_error, "injected"));
  EXPECT_DOUBLE_EQ(status.max_recommendation_age_seconds, 120.0);
  EXPECT_DOUBLE_EQ(
      registry
          .GetGauge("ipool_live_recommendation_age_seconds",
                    {{"pool", "east"}})
          ->value(),
      120.0);
  EXPECT_EQ(registry.GetCounter("ipool_live_pool_failures_total")->value(),
            1u);

  // Staleness keeps rising between ticks while the failure persists.
  now += 60.0;
  EXPECT_DOUBLE_EQ((*plane)->Snapshot().max_recommendation_age_seconds,
                   180.0);

  // The next tick (no fault) republishes and the age snaps back to zero.
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  status = (*plane)->Snapshot();
  EXPECT_EQ(status.last_tick_status, TickStatus::kOk);
  EXPECT_DOUBLE_EQ(status.max_recommendation_age_seconds, 0.0);
}

// Pools below the history floor are not yet pools: they are skipped and the
// tick counts as idle, never failed (the CI smoke job asserts zero failed
// ticks on a freshly started server).
TEST(LiveControlPlaneTest, InsufficientTelemetryIsIdleNotFailed) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  LiveControlPlaneConfig config = SmallLiveConfig();
  config.obs.metrics = &registry;
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());

  for (size_t i = 0; i < 4; ++i) {  // below min_history_points = 8
    ASSERT_TRUE(
        telemetry.Record("demand.young", 30.0 * static_cast<double>(i), 2.0)
            .ok());
  }
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kIdle);
  EXPECT_FALSE(documents.Get("young").ok());
  EXPECT_EQ(registry.GetCounter("ipool_live_pools_skipped_total")->value(),
            1u);
  EXPECT_EQ(
      registry.GetCounter("ipool_live_ticks_total", {{"status", "failed"}})
          ->value(),
      0u);

  // Metrics that do not carry the demand prefix are never pools.
  ASSERT_TRUE(telemetry.Record("latency.east", 0.0, 1.0).ok());
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kIdle);
  EXPECT_FALSE(documents.Get("latency.east").ok());
}

// --warm-refit carries per-pool SSA training state across ticks: the second
// tick's refit must warm-start (observable through the SSA counter).
TEST(LiveControlPlaneTest, WarmRefitReusesForecasterState) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;

  PipelineConfig pipeline;
  pipeline.model = ModelKind::kSsa;
  pipeline.recommendation_bins = 8;
  pipeline.forecast.window = 16;
  pipeline.forecast.ssa_rank = 4;
  pipeline.saa.pool.tau_bins = 1;
  pipeline.saa.pool.stableness_bins = 4;
  pipeline.obs.metrics = &registry;
  auto engine = RecommendationEngine::Create(pipeline);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  LiveControlPlaneConfig config;
  config.bin_interval_seconds = 30.0;
  config.history_bins = 64;
  config.min_history_points = 32;
  config.warm_refit = true;
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());

  for (size_t i = 0; i < 64; ++i) {  // a deterministic periodic series
    const double value = 5.0 + static_cast<double>(i % 8);
    ASSERT_TRUE(
        telemetry.Record("demand.ssa", 30.0 * static_cast<double>(i), value)
            .ok());
  }
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  const uint64_t hits_after_cold =
      registry.GetCounter("ipool_ssa_warm_start_hits_total")->value();

  // One more point slides the window; the refit reuses the cached state.
  ASSERT_TRUE(telemetry.Record("demand.ssa", 30.0 * 64.0, 5.0).ok());
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_GT(registry.GetCounter("ipool_ssa_warm_start_hits_total")->value(),
            hits_after_cold);
  EXPECT_TRUE(documents.Get("ssa").ok());
}

// Health folds the loop's tick counters and staleness into its payload once
// a plane is wired in.
TEST(LiveControlPlaneTest, HealthReportsLiveFields) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  auto plane =
      LiveControlPlane::Create(&*engine, &telemetry, &documents,
                               SmallLiveConfig());
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  net::Frame idle = router.Handle(MakeRequest(net::Method::kHealth, ""));
  ASSERT_EQ(idle.status, net::WireStatus::kOk);
  EXPECT_TRUE(Contains(idle.payload, "ok\n"));
  EXPECT_TRUE(Contains(idle.payload, "live_ticks_total 0"));
  EXPECT_TRUE(Contains(idle.payload, "live_last_tick_status idle"));
  EXPECT_TRUE(Contains(idle.payload, "live_guardrail_rejections 0\n"));

  PublishPoints(&router, "demand.east", 0.0, 8, 4.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  net::Frame live = router.Handle(MakeRequest(net::Method::kHealth, ""));
  EXPECT_TRUE(Contains(live.payload, "live_ticks_total 1"));
  EXPECT_TRUE(Contains(live.payload, "live_last_tick_status ok"));
  EXPECT_TRUE(Contains(live.payload, "live_pools_published 1"));
  EXPECT_TRUE(Contains(live.payload, "live_guardrail_rejections 0\n"));

  // A held-back recommendation shows up in the count.
  auto bad = RecommendationEngine::Create(Gamma50Pipeline());
  ASSERT_TRUE(bad.ok());
  LiveControlPlaneConfig guarded = SmallLiveConfig();
  guarded.guardrail_mae_ratio = 1.0;
  auto guarded_plane =
      LiveControlPlane::Create(&*bad, &telemetry, &documents, guarded);
  ASSERT_TRUE(guarded_plane.ok());
  router.set_live(guarded_plane->get());
  ASSERT_EQ((*guarded_plane)->TickOnce(), TickStatus::kOk);
  PublishPoints(&router, "demand.east", 240.0, 4, 4.0);
  ASSERT_EQ((*guarded_plane)->TickOnce(), TickStatus::kIdle);
  net::Frame rejected = router.Handle(MakeRequest(net::Method::kHealth, ""));
  EXPECT_TRUE(Contains(rejected.payload, "live_guardrail_rejections 1\n"));
}

// ---------------------------------------------------------------------------
// The §7.5 guardrail (guardrail_mae_ratio > 0).

/// Plane over fresh stores with the guardrail at `ratio` and a virtual
/// clock; owns everything so each test reads as its ticks.
struct GuardedPlane {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router{net::RouterConfig{&documents, &telemetry, &registry}};
  Result<RecommendationEngine> engine = Status::Internal("unset");
  std::unique_ptr<LiveControlPlane> plane;
  double now = 0.0;

  GuardedPlane(const PipelineConfig& pipeline, double ratio) {
    engine = RecommendationEngine::Create(pipeline);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    LiveControlPlaneConfig config = SmallLiveConfig();
    config.guardrail_mae_ratio = ratio;
    config.obs.metrics = &registry;
    config.clock = [this] { return now; };
    auto created =
        LiveControlPlane::Create(&*engine, &telemetry, &documents, config);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    plane = std::move(*created);
  }

  uint64_t rejections() {
    return registry.GetCounter("ipool_live_guardrail_rejections_total")
        ->value();
  }
};

// The second tick validates the first tick's forecast (50 x 4 per bin)
// against the 4s that landed since: it misses by 196 against a limit of
// about 5, so nothing is published. A rejection is not a failure — the tick
// is not kFailed and no pool failure is counted — but the previous document
// keeps serving and its age keeps rising.
TEST(LiveGuardrailTest, RejectsGamma50ForecastOnSecondTick) {
  GuardedPlane g(Gamma50Pipeline(), /*ratio=*/1.0);
  PublishPoints(&g.router, "demand.east", 0.0, 8, 4.0);
  ASSERT_EQ(g.plane->TickOnce(), TickStatus::kOk);  // no reference yet
  const auto first = g.documents.Get("east");
  ASSERT_TRUE(first.ok());

  g.now += 120.0;
  PublishPoints(&g.router, "demand.east", 240.0, 4, 4.0);
  const TickStatus second = g.plane->TickOnce();
  EXPECT_NE(second, TickStatus::kFailed);
  EXPECT_EQ(second, TickStatus::kIdle);
  EXPECT_EQ(g.documents.Get("east")->version, first->version);
  EXPECT_EQ(g.documents.Get("east")->value, first->value);
  EXPECT_EQ(g.rejections(), 1u);
  EXPECT_EQ(g.registry.GetCounter("ipool_live_pool_failures_total")->value(),
            0u);
  const LiveStatus status = g.plane->Snapshot();
  EXPECT_EQ(status.guardrail_rejections, 1u);
  EXPECT_EQ(status.ticks_failed, 0u);
  EXPECT_DOUBLE_EQ(status.max_recommendation_age_seconds, 120.0);
}

// The rejected forecast still becomes the next reference. After a jump
// from 1 to 40 the second tick's forecast of 1s misses (rejected), its own
// forecast of 40s matches the next bins, so the third tick publishes. Had
// the first tick's forecast of 1s stayed the reference, the third tick
// would have been rejected too.
TEST(LiveGuardrailTest, NextTickValidatesAgainstRejectedForecast) {
  GuardedPlane g(BaselinePipeline(), /*ratio=*/1.0);
  PublishPoints(&g.router, "demand.east", 0.0, 8, 1.0);
  ASSERT_EQ(g.plane->TickOnce(), TickStatus::kOk);
  PublishPoints(&g.router, "demand.east", 240.0, 4, 40.0);
  ASSERT_EQ(g.plane->TickOnce(), TickStatus::kIdle);
  ASSERT_EQ(g.rejections(), 1u);

  PublishPoints(&g.router, "demand.east", 360.0, 4, 40.0);
  EXPECT_EQ(g.plane->TickOnce(), TickStatus::kOk);
  EXPECT_EQ(g.rejections(), 1u);
  auto served = GetServed(&g.router, "east");
  ASSERT_TRUE(served.ok());
  EXPECT_DOUBLE_EQ(served->start_time, 480.0);
}

// A tick gap longer than the forecast: 12 bins elapse over an 8-bin
// forecast of 4s. Its actuals are the 8 bins from the forecast's start (all
// 4s, MAE 0), not the history tail, which ends in a spike to 40 (MAE 18
// against a limit of 14).
TEST(LiveGuardrailTest, LongGapReadsActualsFromForecastStart) {
  GuardedPlane g(BaselinePipeline(), /*ratio=*/1.0);
  PublishPoints(&g.router, "demand.east", 0.0, 8, 4.0);
  ASSERT_EQ(g.plane->TickOnce(), TickStatus::kOk);
  auto first = GetServed(&g.router, "east");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->recommendation.predicted_demand.size(), 8u);

  PublishPoints(&g.router, "demand.east", 240.0, 8, 4.0);
  PublishPoints(&g.router, "demand.east", 480.0, 4, 40.0);
  EXPECT_EQ(g.plane->TickOnce(), TickStatus::kOk);
  EXPECT_EQ(g.rejections(), 0u);
}

// Ratio 0 turns the guardrail off: the gamma-50 forecast that the check
// rejects above is published on every tick.
TEST(LiveGuardrailTest, RatioZeroNeverRejects) {
  GuardedPlane g(Gamma50Pipeline(), /*ratio=*/0.0);
  PublishPoints(&g.router, "demand.east", 0.0, 8, 4.0);
  ASSERT_EQ(g.plane->TickOnce(), TickStatus::kOk);
  const int64_t first_version = g.documents.Get("east")->version;
  PublishPoints(&g.router, "demand.east", 240.0, 4, 4.0);
  EXPECT_EQ(g.plane->TickOnce(), TickStatus::kOk);
  EXPECT_GT(g.documents.Get("east")->version, first_version);
  EXPECT_EQ(g.rejections(), 0u);
  EXPECT_EQ(g.plane->Snapshot().guardrail_rejections, 0u);
}

// The no-re-serialization contract end to end: a tick that sees no new
// telemetry republishes byte-identical documents, so the sharded store's
// payload_builds counter must stay flat — the serving path keeps handing
// out the same cached buffer and versions do not move.
TEST(LiveControlPlaneTest, UnchangedTicksDoNotReserialize) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        SmallLiveConfig());
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  PublishPoints(&router, "demand.east", 0.0, 8, 4.0);
  PublishPoints(&router, "demand.west", 0.0, 8, 6.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  const uint64_t builds_after_first = documents.payload_builds();
  EXPECT_GE(builds_after_first, 2u);
  const auto east = documents.Get("east");
  ASSERT_TRUE(east.ok());
  const std::shared_ptr<const std::string> east_payload =
      documents.GetPayload("east");

  // Three more ticks with no new telemetry: same forecasts, same bytes, so
  // no payload materializes and the served buffer is literally the same
  // object.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  }
  EXPECT_EQ(documents.payload_builds(), builds_after_first);
  EXPECT_EQ(documents.GetPayload("east"), east_payload);
  EXPECT_EQ(documents.Get("east")->version, east->version);

  // New telemetry that changes the forecast rebuilds exactly the changed
  // pool's payload.
  PublishPoints(&router, "demand.east", 240.0, 8, 40.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_EQ(documents.payload_builds(), builds_after_first + 1);
  EXPECT_NE(documents.GetPayload("east"), east_payload);
}

// ---------------------------------------------------------------------------
// Fleet auto-tuning inside the tick (tune_interval_seconds > 0).

/// Publishes a strongly periodic wave (period 16 bins, trough 1, peak 11)
/// scaled by `level` — the regime SSA models tightly and the baseline's
/// gamma * max flattens into pure overprovisioning.
void PublishWave(net::Router* router, const std::string& metric, double start,
                 size_t count, double level) {
  std::string payload;
  for (size_t i = 0; i < count; ++i) {
    const double phase = 2.0 * M_PI *
                         static_cast<double>(start / 30.0 + double(i)) / 16.0;
    const double value = level * (6.0 + 5.0 * std::sin(phase));
    payload += StrFormat("%s,%.1f,%.3f\n", metric.c_str(),
                         start + 30.0 * static_cast<double>(i), value);
  }
  net::Frame response =
      router->Handle(MakeRequest(net::Method::kPublishTelemetry, payload));
  ASSERT_EQ(response.status, net::WireStatus::kOk) << response.payload;
}

LiveControlPlaneConfig TunedLiveConfig() {
  LiveControlPlaneConfig config;
  config.bin_interval_seconds = 30.0;
  config.history_bins = 160;
  config.min_history_points = 96;
  config.tune_interval_seconds = 100.0;
  config.tuner.models = {ModelKind::kBaseline, ModelKind::kSsa};
  config.tuner.alphas = {0.3, 0.7};
  config.tuner.windows = {16};
  config.tuner.eval_bins = 64;
  config.tuner.min_train_bins = 32;
  config.tuner.refine_steps = 0;
  return config;
}

TEST(LiveConfigTest, ValidateRejectsBadTuningValues) {
  LiveControlPlaneConfig config = TunedLiveConfig();
  EXPECT_TRUE(config.Validate().ok());

  config.tune_interval_seconds = -1.0;
  EXPECT_FALSE(config.Validate().ok());

  config = TunedLiveConfig();
  config.tuning_doc_prefix = "";
  EXPECT_FALSE(config.Validate().ok());

  // The tuner's backtest cannot need more history than the plane snapshots.
  config = TunedLiveConfig();
  config.history_bins = 64;
  EXPECT_FALSE(config.Validate().ok());
}

// The tune stage publishes `tuning.<pool>`, the NEXT tick's resolve stage
// serves with it, and a kept re-tune republishes byte-identical text that
// the payload cache absorbs (no version churn, no re-serialization).
TEST(LiveControlPlaneTest, TuneStagePublishesDocAndServesWithIt) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  double now = 0.0;
  LiveControlPlaneConfig config = TunedLiveConfig();
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok()) << plane.status().ToString();
  router.set_live(plane->get());

  PublishWave(&router, "demand.east", 0.0, 160, 1.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);

  // The first tune ran and persisted a winner for the pool.
  LiveStatus status = (*plane)->Snapshot();
  EXPECT_EQ(status.tunes_total, 1u);
  EXPECT_EQ(status.tunes_failed, 0u);
  const auto doc = documents.Get("tuning.east");
  ASSERT_TRUE(doc.ok());
  auto stored = ParseTuning(doc->value);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored->pool, "east");
  // On a strongly periodic wave the periodic forecaster must beat the
  // baseline's flat gamma * max (which pays idle all trough long).
  EXPECT_EQ(stored->model, ModelKind::kSsa);

  // Within the tune cadence: the next tick resolves the doc into a
  // per-pool engine (pools_tuned flips to 1) but does not re-tune.
  now += 50.0;
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  status = (*plane)->Snapshot();
  EXPECT_EQ(status.tunes_total, 1u);
  EXPECT_EQ(status.pools_tuned, 1u);
  EXPECT_TRUE(GetServed(&router, "east").ok());

  // Past the cadence with unchanged telemetry: the re-tune keeps the
  // incumbent and republishes the SAME bytes — same version, same payload
  // object, no tune counted as switched.
  const int64_t version_before = documents.Get("tuning.east")->version;
  const std::shared_ptr<const std::string> payload_before =
      documents.GetPayload("tuning.east");
  now += 100.0;
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  status = (*plane)->Snapshot();
  EXPECT_EQ(status.tunes_total, 2u);
  EXPECT_EQ(status.tunes_switched, 1u);  // only the very first tune
  EXPECT_EQ(documents.Get("tuning.east")->version, version_before);
  EXPECT_EQ(documents.GetPayload("tuning.east"), payload_before);
}

// §7.6 on the tuning path: a corrupt (or truncated) tuning document never
// breaks the tick — the pool keeps serving on whatever engine it had, and
// the rejection is counted.
TEST(LiveControlPlaneTest, CorruptTuningDocKeepsServing) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  double now = 1000.0;
  LiveControlPlaneConfig config = TunedLiveConfig();
  // Cadence far in the future: this test drives the resolve stage only.
  config.tune_interval_seconds = 1e9;
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  PublishWave(&router, "demand.east", 0.0, 160, 1.0);
  documents.Put("tuning.east", "not a tuning document", now);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_TRUE(GetServed(&router, "east").ok());
  EXPECT_EQ((*plane)->Snapshot().pools_tuned, 0u);
  EXPECT_EQ(registry
                .GetCounter("ipool_live_tuning_docs_rejected_total", {})
                ->value(),
            1u);

  // A valid document recovers on the next tick: the pool flips onto its
  // per-pool engine and keeps serving.
  StoredTuning stored;
  stored.pool = "east";
  stored.model = ModelKind::kSsa;
  stored.alpha_prime = 0.5;
  stored.window = 16;
  documents.Put("tuning.east", SerializeTuning(stored), now);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_TRUE(GetServed(&router, "east").ok());
  EXPECT_EQ((*plane)->Snapshot().pools_tuned, 1u);
}

// The regime-change scenario end to end inside the plane: the pre-shift
// tune installs the periodic forecaster; after a permanent 6x level shift
// the re-tune demotes it for the shift-robust baseline, and the served
// tuning document switches models.
TEST(LiveControlPlaneTest, RegimeShiftSwitchesTunedModel) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());
  double now = 0.0;
  LiveControlPlaneConfig config = TunedLiveConfig();
  config.obs.metrics = &registry;
  config.clock = [&now] { return now; };
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  PublishWave(&router, "demand.east", 0.0, 160, 1.0);
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto first = ParseTuning(documents.Get("tuning.east")->value);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->model, ModelKind::kSsa);

  // The level shift: the same wave continues at 6x. The snapshot window
  // now trains on mostly pre-shift bins and evaluates on post-shift ones —
  // the periodic basis underpredicts 6x, the baseline's max adapts.
  PublishWave(&router, "demand.east", 160.0 * 30.0, 64, 6.0);
  now += 200.0;
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  auto second = ParseTuning(documents.Get("tuning.east")->value);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->model, ModelKind::kBaseline);

  const LiveStatus status = (*plane)->Snapshot();
  EXPECT_EQ(status.tunes_total, 2u);
  EXPECT_EQ(status.tunes_switched, 2u);  // first install + the demotion
  EXPECT_EQ(status.tunes_failed, 0u);

  // The next tick serves with the switched engine; serving never paused.
  ASSERT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  EXPECT_TRUE(GetServed(&router, "east").ok());
  EXPECT_EQ((*plane)->Snapshot().pools_tuned, 1u);
}

// Publish-while-tick: writers hammer the router while the Start()ed loop
// snapshots and publishes against the same store mutex. The TSan job runs
// this binary; any lock-discipline slip between the three tick stages and
// the served paths is a data-race report here.
TEST(LiveControlPlaneTest, ConcurrentPublishWhileTicking) {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  net::Router router(net::RouterConfig{&documents, &telemetry, &registry});

  auto engine = RecommendationEngine::Create(BaselinePipeline());
  ASSERT_TRUE(engine.ok());

  exec::ThreadPool pool(2);
  LiveControlPlaneConfig config = SmallLiveConfig();
  config.tick_interval_seconds = 0.002;
  config.min_history_points = 4;
  config.exec.pool = &pool;
  config.obs.metrics = &registry;
  auto plane = LiveControlPlane::Create(&*engine, &telemetry, &documents,
                                        config);
  ASSERT_TRUE(plane.ok());
  router.set_live(plane->get());

  (*plane)->Start();
  (*plane)->Start();  // idempotent

  constexpr size_t kWriters = 4;
  constexpr size_t kBatches = 60;
  std::atomic<size_t> write_failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string metric = StrFormat("demand.writer-%zu", w);
      for (size_t b = 0; b < kBatches; ++b) {
        const std::string line = StrFormat(
            "%s,%.1f,%.1f\n", metric.c_str(),
            30.0 * static_cast<double>(b), 3.0);
        net::Frame response = router.Handle(
            MakeRequest(net::Method::kPublishTelemetry, line));
        if (response.status != net::WireStatus::kOk) {
          write_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread reader([&] {
    for (size_t i = 0; i < 200; ++i) {
      router.Handle(MakeRequest(net::Method::kGetRecommendation,
                                "writer-0"));
      router.Handle(MakeRequest(net::Method::kHealth, ""));
      router.Handle(MakeRequest(net::Method::kMetrics, ""));
    }
  });
  for (std::thread& t : writers) t.join();
  reader.join();
  (*plane)->Stop();
  (*plane)->Stop();  // idempotent

  EXPECT_EQ(write_failures.load(), 0u);
  LiveStatus status = (*plane)->Snapshot();
  EXPECT_GE(status.ticks_total, 1u);
  EXPECT_EQ(status.ticks_failed, 0u);

  // A final synchronous tick after the writers drain must publish the fleet.
  EXPECT_EQ((*plane)->TickOnce(), TickStatus::kOk);
  for (size_t w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(documents.Get(StrFormat("writer-%zu", w)).ok());
  }
}

}  // namespace
}  // namespace ipool
