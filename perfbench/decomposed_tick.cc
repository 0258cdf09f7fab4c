#include "decomposed_tick.h"

#include "exec/thread_pool.h"
#include "forecast/forecaster.h"
#include "open_loop.h"
#include "service/recommendation_io.h"
#include "service/tuning_io.h"
#include "solver/saa_optimizer.h"

namespace perfbench {

using ipool::Recommendation;
using ipool::RecommendationEngine;
using ipool::Result;
using ipool::Status;

Result<std::unique_ptr<DecomposedTick>> DecomposedTick::Create(
    const RecommendationEngine* engine, ipool::ShardedTelemetryStore* telemetry,
    const ipool::live::LiveControlPlaneConfig& config) {
  const ipool::PipelineConfig& pipeline = engine->config();
  if (pipeline.kind != ipool::PipelineKind::k2Step ||
      pipeline.smoothing_factor_bins != 0 || pipeline.smooth_recommendation) {
    return Status::InvalidArgument(
        "decomposed tick replays only the plain 2-step pipeline");
  }
  auto tick = std::unique_ptr<DecomposedTick>(
      new DecomposedTick(engine, telemetry, config));
  if (config.tune_interval_seconds > 0.0) {
    // The same geometry pinning LiveControlPlane::Create applies.
    ipool::autotune::FleetTunerConfig tuner = config.tuner;
    tuner.pool = pipeline.saa.pool;
    tuner.forecast = pipeline.forecast;
    tuner.forecast.ssa_warm = nullptr;
    tuner.forecast.exec = {};
    tuner.forecast.obs = {};
    if (tuner.exec.pool == nullptr) tuner.exec = config.exec;
    if (!tuner.obs.enabled()) tuner.obs = config.obs;
    IPOOL_ASSIGN_OR_RETURN(tick->tuner_,
                           ipool::autotune::FleetTuner::Create(tuner));
  }
  return tick;
}

const RecommendationEngine* DecomposedTick::Resolve(const std::string& pool) {
  auto doc = documents_.Get(config_.tuning_doc_prefix + pool);
  if (!doc.ok()) {
    pool_engines_.erase(pool);
    return nullptr;
  }
  auto it = pool_engines_.find(pool);
  if (it != pool_engines_.end() && it->second.doc_version == doc->version) {
    return it->second.engine.get();
  }
  auto parsed = ipool::ParseTuning(doc->value);
  if (parsed.ok()) {
    ipool::PipelineConfig pipeline = engine_->config();
    pipeline.model = parsed->model;
    pipeline.forecast.window = parsed->window;
    pipeline.saa.alpha_prime = parsed->alpha_prime;
    auto built = RecommendationEngine::Create(pipeline);
    if (built.ok()) {
      PoolEngine& slot = pool_engines_[pool];
      slot.doc_version = doc->version;
      slot.active = {parsed->model, parsed->alpha_prime, parsed->window};
      slot.engine = std::make_unique<RecommendationEngine>(std::move(*built));
      return slot.engine.get();
    }
  }
  it = pool_engines_.find(pool);
  return it != pool_engines_.end() ? it->second.engine.get() : nullptr;
}

namespace {

struct PoolWork {
  std::string key;
  ipool::TimeSeries history;
  double last_time = 0.0;
  const RecommendationEngine* engine = nullptr;
  Result<Recommendation> result = Status::Internal("not computed");
  PoolCalls calls;
};

// RecommendationEngine::Run's 2-step path, call by call.
Result<Recommendation> RunTwoStep(const RecommendationEngine& engine,
                                  const ipool::TimeSeries& history,
                                  ipool::ForecastWarmState* warm,
                                  PoolCalls* calls) {
  const ipool::PipelineConfig& config = engine.config();
  ipool::ForecastParams params = config.forecast;
  params.ssa_warm = warm != nullptr ? &warm->ssa : nullptr;
  IPOOL_ASSIGN_OR_RETURN(std::unique_ptr<ipool::Forecaster> forecaster,
                         ipool::CreateForecaster(config.model, params));
  calls->model = forecaster->name();
  double t = SteadyNow();
  IPOOL_RETURN_NOT_OK(warm != nullptr ? forecaster->Refit(history)
                                      : forecaster->Fit(history));
  calls->refit_s = SteadyNow() - t;
  t = SteadyNow();
  IPOOL_ASSIGN_OR_RETURN(std::vector<double> predicted,
                         forecaster->Forecast(config.recommendation_bins));
  calls->predict_s = SteadyNow() - t;

  t = SteadyNow();
  const double forecast_start =
      history.start() +
      history.interval() * static_cast<double>(history.size());
  ipool::TimeSeries predicted_series(forecast_start, history.interval(),
                                     predicted);
  IPOOL_ASSIGN_OR_RETURN(ipool::SaaOptimizer optimizer,
                         ipool::SaaOptimizer::Create(config.saa));
  IPOOL_ASSIGN_OR_RETURN(ipool::PoolSchedule schedule,
                         optimizer.Optimize(predicted_series));
  calls->optimize_s = SteadyNow() - t;

  Recommendation rec;
  rec.pool_size_per_bin = schedule.pool_size_per_bin;
  rec.predicted_demand = std::move(predicted);
  rec.model_name = forecaster->name();
  rec.pipeline = ipool::PipelineKind::k2Step;
  return rec;
}

}  // namespace

DecomposedTickResult DecomposedTick::Run(double wall) {
  DecomposedTickResult out;

  double t = SteadyNow();
  std::vector<PoolWork> work;
  for (const std::string& metric : telemetry_->Metrics()) {
    if (metric.rfind(config_.demand_metric_prefix, 0) != 0) continue;
    std::string key = metric.substr(config_.demand_metric_prefix.size());
    if (key.empty()) continue;
    auto view = telemetry_->SnapshotBinned(
        metric, config_.bin_interval_seconds, config_.history_bins);
    if (!view.ok()) {
      PoolWork item;
      item.key = std::move(key);
      item.result = view.status();
      work.push_back(std::move(item));
      continue;
    }
    if (view->point_count < config_.min_history_points) continue;
    PoolWork item;
    item.key = std::move(key);
    item.last_time = view->last_time;
    item.history = std::move(view->history);
    work.push_back(std::move(item));
  }
  out.snapshot_s = SteadyNow() - t;

  if (tuner_ != nullptr) {
    t = SteadyNow();
    for (PoolWork& item : work) item.engine = Resolve(item.key);
    out.resolve_s = SteadyNow() - t;
  }

  t = SteadyNow();
  if (!work.empty()) {
    std::vector<ipool::ForecastWarmState*> warm(work.size(), nullptr);
    if (config_.warm_refit) {
      for (size_t i = 0; i < work.size(); ++i) warm[i] = &warm_[work[i].key];
    }
    ipool::exec::ParallelForOptions options;
    options.label = "perfbench.pool";
    ipool::exec::ParallelFor(
        config_.exec, 0, work.size(),
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            PoolWork& item = work[i];
            if (item.history.empty()) continue;
            const RecommendationEngine* engine =
                item.engine != nullptr ? item.engine : engine_;
            item.result = RunTwoStep(*engine, item.history, warm[i],
                                     &item.calls);
          }
        },
        options);
  }
  out.compute_s = SteadyNow() - t;

  std::vector<ipool::ShardedDocumentStore::PutOp> puts;
  for (PoolWork& item : work) {
    if (!item.result.ok()) {
      out.ok = false;
      out.error = item.key + ": " + item.result.status().ToString();
      continue;
    }
    out.pools.push_back(item.calls);
    ipool::StoredRecommendation stored;
    stored.recommendation = std::move(*item.result);
    stored.start_time = item.last_time + config_.bin_interval_seconds;
    stored.interval_seconds = config_.bin_interval_seconds;
    t = SteadyNow();
    std::string bytes = ipool::SerializeRecommendation(stored);
    const double dt = SteadyNow() - t;
    out.serialize_doc_s.push_back(dt);
    out.serialize_s += dt;
    out.documents.emplace_back(item.key, bytes);
    puts.push_back({item.key, std::move(bytes), stored.start_time});
  }
  out.puts = puts.size();
  const uint64_t builds_before = documents_.payload_builds();
  t = SteadyNow();
  if (!puts.empty()) documents_.PutBatch(std::move(puts));
  out.put_batch_s = SteadyNow() - t;
  out.payload_builds = documents_.payload_builds() - builds_before;

  if (tuner_ != nullptr) {
    t = SteadyNow();
    std::vector<ipool::ShardedDocumentStore::PutOp> tuning_puts;
    for (PoolWork& item : work) {
      if (item.history.empty()) continue;
      auto it = last_tuned_.find(item.key);
      if (it != last_tuned_.end() &&
          wall - it->second < config_.tune_interval_seconds) {
        continue;
      }
      last_tuned_[item.key] = wall;
      const ipool::autotune::TuningCandidate* incumbent = nullptr;
      auto active = pool_engines_.find(item.key);
      if (active != pool_engines_.end() && active->second.engine != nullptr) {
        incumbent = &active->second.active;
      }
      const double t_pool = SteadyNow();
      ipool::autotune::PoolTuneResult tuned =
          tuner_->TunePool(item.key, item.history, incumbent);
      out.tune_pool_s.push_back(SteadyNow() - t_pool);
      out.tunes.push_back(tuned);
      if (!tuned.ok) continue;
      ipool::StoredTuning stored;
      stored.pool = item.key;
      stored.model = tuned.winner.model;
      stored.alpha_prime = tuned.winner.alpha_prime;
      stored.window = tuned.winner.window;
      std::string bytes = ipool::SerializeTuning(stored);
      const std::string key = config_.tuning_doc_prefix + item.key;
      out.documents.emplace_back(key, bytes);
      tuning_puts.push_back({key, std::move(bytes), wall});
    }
    if (!tuning_puts.empty()) documents_.PutBatch(std::move(tuning_puts));
    out.tune_s = SteadyNow() - t;
  }
  return out;
}

}  // namespace perfbench
