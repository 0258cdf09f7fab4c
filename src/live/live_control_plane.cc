#include "live/live_control_plane.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/recommendation_io.h"
#include "service/tuning_io.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"
#include "tsdata/metrics.h"
#include "tsdata/time_series.h"

namespace ipool::live {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Did `predicted` (from `forecast_start`) miss the actuals in `history`
// (bins ending at `now`) by more than ratio * (mean(history) + 1)? Its
// actuals start at index H - elapsed, not at the tail H - bins.
bool GuardrailTrips(const std::vector<double>& predicted,
                    double forecast_start, double now,
                    const TimeSeries& history, double ratio) {
  const size_t h = history.size();
  const auto elapsed = static_cast<size_t>(
      std::max(0.0, (now - forecast_start) / history.interval()));
  const auto bins =
      static_cast<ptrdiff_t>(std::min(predicted.size(), elapsed));
  if (bins == 0 || elapsed > h) return false;
  const auto actual =
      history.values().begin() + static_cast<ptrdiff_t>(h - elapsed);
  auto mae = Mae({actual, actual + bins},
                 {predicted.begin(), predicted.begin() + bins});
  return mae.ok() &&
         *mae > ratio * (history.Sum() / static_cast<double>(h) + 1.0);
}

}  // namespace

const char* TickStatusName(TickStatus status) {
  switch (status) {
    case TickStatus::kIdle:
      return "idle";
    case TickStatus::kOk:
      return "ok";
    case TickStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

Status LiveControlPlaneConfig::Validate() const {
  if (tick_interval_seconds <= 0.0) {
    return Status::InvalidArgument("tick interval must be positive");
  }
  if (demand_metric_prefix.empty()) {
    return Status::InvalidArgument("demand metric prefix must be non-empty");
  }
  if (bin_interval_seconds <= 0.0) {
    return Status::InvalidArgument("bin interval must be positive");
  }
  if (history_bins < 8) {
    return Status::InvalidArgument("history_bins must be >= 8");
  }
  if (min_history_points == 0) {
    return Status::InvalidArgument("min_history_points must be >= 1");
  }
  if (!(guardrail_mae_ratio >= 0.0)) {
    return Status::InvalidArgument("guardrail_mae_ratio must be >= 0");
  }
  if (tune_interval_seconds < 0.0) {
    return Status::InvalidArgument("tune interval must be >= 0");
  }
  if (tune_interval_seconds > 0.0) {
    if (tuning_doc_prefix.empty()) {
      return Status::InvalidArgument("tuning doc prefix must be non-empty");
    }
    // The tuner backtests on the tick's own snapshots, which are always
    // exactly history_bins long — reject geometries where every tune would
    // fail for lack of bins.
    if (history_bins < tuner.eval_bins + tuner.min_train_bins) {
      return Status::InvalidArgument(StrFormat(
          "history_bins %zu cannot cover tuner eval_bins %zu + "
          "min_train_bins %zu",
          history_bins, tuner.eval_bins, tuner.min_train_bins));
    }
  }
  return Status::OK();
}

struct LiveControlPlane::PoolWork {
  std::string key;
  TimeSeries history;
  /// Virtual time of the newest telemetry point (the recommendation starts
  /// one bin later).
  double last_time = 0.0;
  /// Per-pool engine override resolved from the pool's tuning document;
  /// null serves with the shared engine.
  const RecommendationEngine* engine = nullptr;
  Result<Recommendation> result = Status::Internal("not computed");
  /// The guardrail held this pool's fresh recommendation back.
  bool rejected = false;
};

Result<std::unique_ptr<LiveControlPlane>> LiveControlPlane::Create(
    const RecommendationEngine* engine, ShardedTelemetryStore* telemetry,
    ShardedDocumentStore* documents, const LiveControlPlaneConfig& config) {
  IPOOL_RETURN_NOT_OK(config.Validate());
  if (engine == nullptr || telemetry == nullptr || documents == nullptr) {
    return Status::InvalidArgument("null dependency");
  }
  auto plane = std::unique_ptr<LiveControlPlane>(
      new LiveControlPlane(engine, telemetry, documents, config));
  if (config.tune_interval_seconds > 0.0) {
    // Pin the tuner's backtest geometry to the serving engine so a tuning
    // score means exactly what serving with that config would do; callers
    // only shape the search (grid, rungs, hysteresis...).
    autotune::FleetTunerConfig tuner_config = config.tuner;
    tuner_config.pool = engine->config().saa.pool;
    tuner_config.forecast = engine->config().forecast;
    tuner_config.forecast.ssa_warm = nullptr;
    tuner_config.forecast.exec = {};
    tuner_config.forecast.obs = {};
    if (tuner_config.exec.pool == nullptr) {
      tuner_config.exec = plane->config_.exec;
    }
    if (!tuner_config.obs.enabled()) tuner_config.obs = plane->config_.obs;
    IPOOL_ASSIGN_OR_RETURN(plane->tuner_,
                           autotune::FleetTuner::Create(tuner_config));
  }
  return plane;
}

LiveControlPlane::LiveControlPlane(const RecommendationEngine* engine,
                                   ShardedTelemetryStore* telemetry,
                                   ShardedDocumentStore* documents,
                                   const LiveControlPlaneConfig& config)
    : engine_(engine),
      telemetry_(telemetry),
      documents_(documents),
      config_(config) {
  if (!config_.clock) config_.clock = SteadySeconds;
  if (obs::MetricsRegistry* metrics = config_.obs.metrics;
      metrics != nullptr) {
    // Pre-register every status series so a scrape can assert
    // {status="failed"} == 0 before any tick has failed.
    ticks_ok_ = metrics->GetCounter("ipool_live_ticks_total",
                                    {{"status", "ok"}});
    ticks_failed_ = metrics->GetCounter("ipool_live_ticks_total",
                                        {{"status", "failed"}});
    ticks_idle_ = metrics->GetCounter("ipool_live_ticks_total",
                                      {{"status", "idle"}});
    pool_failures_ = metrics->GetCounter("ipool_live_pool_failures_total");
    pools_skipped_ = metrics->GetCounter("ipool_live_pools_skipped_total");
    pools_published_gauge_ = metrics->GetGauge("ipool_live_pools_published");
    tick_seconds_ = metrics->GetHistogram("ipool_live_tick_seconds");
    tuning_docs_rejected_ =
        metrics->GetCounter("ipool_live_tuning_docs_rejected_total");
    guardrail_rejections_ =
        metrics->GetCounter("ipool_live_guardrail_rejections_total");
    pools_tuned_gauge_ = metrics->GetGauge("ipool_live_pools_tuned");
  }
}

const RecommendationEngine* LiveControlPlane::ResolveEngine(
    const std::string& pool) {
  auto doc = documents_->Get(config_.tuning_doc_prefix + pool);
  if (!doc.ok()) {
    // No (or deleted) tuning document: the pool serves with the shared
    // engine again.
    pool_engines_.erase(pool);
    return nullptr;
  }
  auto it = pool_engines_.find(pool);
  if (it != pool_engines_.end() && it->second.doc_version == doc->version) {
    return it->second.engine.get();
  }
  Status error = Status::OK();
  auto parsed = ParseTuning(doc->value);
  if (parsed.ok()) {
    PipelineConfig pipeline = engine_->config();
    pipeline.model = parsed->model;
    pipeline.forecast.window = parsed->window;
    pipeline.saa.alpha_prime = parsed->alpha_prime;
    auto built = RecommendationEngine::Create(pipeline);
    if (built.ok()) {
      PoolEngine& slot = pool_engines_[pool];
      slot.doc_version = doc->version;
      slot.active = autotune::TuningCandidate{parsed->model,
                                              parsed->alpha_prime,
                                              parsed->window};
      slot.engine =
          std::make_unique<RecommendationEngine>(std::move(*built));
      return slot.engine.get();
    }
    error = built.status();
  } else {
    error = parsed.status();
  }
  // §7.6 posture: a corrupt or unbuildable tuning document must not take
  // the pool down — whatever engine served before keeps serving, and the
  // document is re-tried next tick (a fixed document is picked up without
  // a restart).
  if (tuning_docs_rejected_ != nullptr) tuning_docs_rejected_->Add(1);
  it = pool_engines_.find(pool);
  return it != pool_engines_.end() ? it->second.engine.get() : nullptr;
}

LiveControlPlane::~LiveControlPlane() { Stop(); }

void LiveControlPlane::Start() {
  std::lock_guard<std::mutex> lock(ticker_mu_);
  if (ticker_.joinable()) return;
  stop_requested_ = false;
  ticker_ = std::thread([this] { ThreadMain(); });
}

void LiveControlPlane::Stop() {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    stop_requested_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

void LiveControlPlane::ThreadMain() {
  std::unique_lock<std::mutex> lock(ticker_mu_);
  while (!stop_requested_) {
    lock.unlock();
    TickOnce();
    lock.lock();
    ticker_cv_.wait_for(
        lock,
        std::chrono::duration<double>(config_.tick_interval_seconds),
        [this] { return stop_requested_; });
  }
}

TickStatus LiveControlPlane::TickOnce() {
  obs::ScopedSpan tick_span(config_.obs.tracer, "live.tick");
  obs::ScopedTimer tick_timer(tick_seconds_);

  // Stage 1: snapshot. No global lock: each pool's point count, last time
  // and binned history come from ONE shard shared-lock acquisition
  // (SnapshotBinned), so every pool's view is internally consistent even
  // while publishers keep appending to other shards.
  std::vector<PoolWork> work;
  size_t skipped = 0;
  {
    obs::ScopedSpan span(config_.obs.tracer, "live.snapshot");
    for (const std::string& metric : telemetry_->Metrics()) {
      if (metric.rfind(config_.demand_metric_prefix, 0) != 0) continue;
      std::string key = metric.substr(config_.demand_metric_prefix.size());
      if (key.empty()) continue;
      auto view = telemetry_->SnapshotBinned(
          metric, config_.bin_interval_seconds, config_.history_bins);
      if (!view.ok()) {
        PoolWork item;
        item.key = std::move(key);
        item.result = view.status();  // pipeline failure for this pool
        work.push_back(std::move(item));
        continue;
      }
      if (view->point_count < config_.min_history_points) {
        ++skipped;
        continue;
      }
      PoolWork item;
      item.key = std::move(key);
      // `history_bins` bins ending with (and including) the newest point.
      item.last_time = view->last_time;
      item.history = std::move(view->history);
      work.push_back(std::move(item));
    }
  }
  if (pools_skipped_ != nullptr && skipped > 0) pools_skipped_->Add(skipped);

  // Stage 1.5: resolve each pool's serving engine from its `tuning.<pool>`
  // document (serial — it touches the pool_engines_ cache). Documents
  // published by the PREVIOUS tick's tune stage take effect here, so the
  // tuning document is the single source of truth for what serves.
  if (tuner_ != nullptr) {
    obs::ScopedSpan span(config_.obs.tracer, "live.resolve");
    for (PoolWork& item : work) {
      item.engine = ResolveEngine(item.key);
    }
  }

  // Stage 2: compute, store lock released. Warm-state map nodes are created
  // serially here so the parallel bodies only touch their own pool's entry.
  if (!work.empty()) {
    obs::ScopedSpan span(config_.obs.tracer, "live.refit_solve");
    std::vector<ForecastWarmState*> warm(work.size(), nullptr);
    if (config_.warm_refit) {
      for (size_t i = 0; i < work.size(); ++i) {
        warm[i] = &warm_[work[i].key];
      }
    }
    exec::ParallelForOptions options;
    options.label = "live.pool";
    exec::ParallelFor(
        config_.exec, 0, work.size(),
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            PoolWork& item = work[i];
            if (item.history.empty()) continue;  // snapshot already failed
            size_t budget =
                injected_failures_.load(std::memory_order_relaxed);
            bool inject = false;
            while (budget > 0 && !inject) {
              inject = injected_failures_.compare_exchange_weak(
                  budget, budget - 1, std::memory_order_relaxed);
            }
            if (inject) {
              item.result = Status::Internal("injected live-tick failure");
              continue;
            }
            obs::ScopedSpan pool_span(config_.obs.tracer, "live.pool");
            const RecommendationEngine* engine =
                item.engine != nullptr ? item.engine : engine_;
            item.result = engine->Run(item.history, warm[i]);
          }
        },
        options);
  }

  // Stage 2.5: guardrail (§7.5), serial. A trip holds the pool's fresh
  // recommendation back; the fresh forecast is the next reference anyway.
  size_t rejected = 0;
  if (config_.guardrail_mae_ratio > 0.0) {
    for (PoolWork& item : work) {
      if (!item.result.ok()) continue;
      const double start = item.last_time + config_.bin_interval_seconds;
      auto [it, first] = last_forecast_.try_emplace(item.key);
      item.rejected = !first && GuardrailTrips(it->second.second,
                                               it->second.first, start,
                                               item.history,
                                               config_.guardrail_mae_ratio);
      rejected += item.rejected ? 1 : 0;
      it->second = {start, item.result->predicted_demand};
    }
  }
  if (guardrail_rejections_ != nullptr && rejected > 0) {
    guardrail_rejections_->Add(rejected);
  }

  // Stage 3: publish every fresh recommendation through PutBatch — ops are
  // grouped by shard and each shard's snapshot swaps exactly once, so
  // readers of a shard see either none or all of this tick's writes to it.
  // Unchanged serialized documents reuse the store's cached payload bytes
  // (payload_builds stays flat). Failed and guardrail-rejected pools are
  // not touched: their previous document keeps serving (§7.6).
  const double wall = Now();
  size_t published = 0;
  size_t failed = 0;
  std::string last_error;
  {
    obs::ScopedSpan span(config_.obs.tracer, "live.publish");
    std::vector<ShardedDocumentStore::PutOp> puts;
    for (PoolWork& item : work) {
      if (!item.result.ok() || item.rejected) continue;
      StoredRecommendation stored;
      stored.recommendation = std::move(*item.result);
      stored.start_time = item.last_time + config_.bin_interval_seconds;
      stored.interval_seconds = config_.bin_interval_seconds;
      puts.push_back(ShardedDocumentStore::PutOp{
          item.key, SerializeRecommendation(stored), stored.start_time});
      ++published;
    }
    if (!puts.empty()) documents_->PutBatch(std::move(puts));
  }
  for (const PoolWork& item : work) {
    if (item.result.ok()) continue;
    ++failed;
    last_error = StrFormat("pool %s: %s", item.key.c_str(),
                           item.result.status().ToString().c_str());
  }
  if (pool_failures_ != nullptr && failed > 0) pool_failures_->Add(failed);

  // Stage 4: tune. Pools whose last tune is at least tune_interval_seconds
  // old re-run the successive-halving search over the history snapshotted
  // in stage 1, and every successful tune republishes `tuning.<pool>` — a
  // kept incumbent re-serializes byte-identically, so the store's payload
  // cache absorbs it (no version bump, stage 1.5's engine cache stays
  // warm). A failed/degenerate tune publishes nothing and does NOT fail
  // the tick: the incumbent config keeps serving (§7.6).
  size_t tunes_run = 0, tunes_switched = 0, tunes_failed = 0;
  std::string last_tune_error;
  if (tuner_ != nullptr) {
    obs::ScopedSpan span(config_.obs.tracer, "live.tune");
    std::vector<ShardedDocumentStore::PutOp> puts;
    for (PoolWork& item : work) {
      if (item.history.empty()) continue;  // snapshot failed this tick
      auto it = last_tuned_.find(item.key);
      if (it != last_tuned_.end() &&
          wall - it->second < config_.tune_interval_seconds) {
        continue;
      }
      last_tuned_[item.key] = wall;
      const autotune::TuningCandidate* incumbent = nullptr;
      auto active = pool_engines_.find(item.key);
      if (active != pool_engines_.end() && active->second.engine != nullptr) {
        incumbent = &active->second.active;
      }
      autotune::PoolTuneResult tuned =
          tuner_->TunePool(item.key, item.history, incumbent);
      ++tunes_run;
      if (!tuned.ok) {
        ++tunes_failed;
        if (!tuned.error.empty()) {
          last_tune_error = StrFormat("pool %s: %s", item.key.c_str(),
                                      tuned.error.c_str());
        }
        continue;
      }
      if (tuned.switched) ++tunes_switched;
      StoredTuning stored;
      stored.pool = item.key;
      stored.model = tuned.winner.model;
      stored.alpha_prime = tuned.winner.alpha_prime;
      stored.window = tuned.winner.window;
      puts.push_back(ShardedDocumentStore::PutOp{
          config_.tuning_doc_prefix + item.key, SerializeTuning(stored),
          wall});
    }
    if (!puts.empty()) documents_->PutBatch(std::move(puts));
  }

  const TickStatus status = failed > 0   ? TickStatus::kFailed
                            : published > 0 ? TickStatus::kOk
                                            : TickStatus::kIdle;
  switch (status) {
    case TickStatus::kOk:
      if (ticks_ok_ != nullptr) ticks_ok_->Add(1);
      break;
    case TickStatus::kFailed:
      if (ticks_failed_ != nullptr) ticks_failed_->Add(1);
      break;
    case TickStatus::kIdle:
      if (ticks_idle_ != nullptr) ticks_idle_->Add(1);
      break;
  }

  // Status + per-pool bookkeeping, then the age gauges (ages refresh once
  // per tick; between ticks the scrape sees the last tick's view).
  double max_age = 0.0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++status_.ticks_total;
    status_.ticks_ok += status == TickStatus::kOk ? 1 : 0;
    status_.ticks_failed += status == TickStatus::kFailed ? 1 : 0;
    status_.ticks_idle += status == TickStatus::kIdle ? 1 : 0;
    status_.last_tick_status = status;
    if (!last_error.empty()) status_.last_error = last_error;
    status_.guardrail_rejections += rejected;
    for (const PoolWork& item : work) {
      if (item.rejected) continue;  // not a failure; its age keeps rising
      PoolState& state = pool_states_[item.key];
      if (item.result.ok()) {
        state.last_published = wall;
        ++state.publishes;
        state.consecutive_failures = 0;
      } else {
        ++state.consecutive_failures;
      }
    }
    for (const auto& [key, state] : pool_states_) {
      if (state.publishes == 0) continue;
      const double age = std::max(0.0, wall - state.last_published);
      max_age = std::max(max_age, age);
      if (config_.obs.metrics != nullptr) {
        config_.obs.metrics
            ->GetGauge("ipool_live_recommendation_age_seconds",
                       {{"pool", key}})
            ->Set(age);
      }
    }
    status_.pools_published = 0;
    for (const auto& [key, state] : pool_states_) {
      if (state.publishes > 0) ++status_.pools_published;
    }
    status_.max_recommendation_age_seconds = max_age;
    if (pools_published_gauge_ != nullptr) {
      pools_published_gauge_->Set(
          static_cast<double>(status_.pools_published));
    }
    status_.tunes_total += tunes_run;
    status_.tunes_switched += tunes_switched;
    status_.tunes_failed += tunes_failed;
    if (!last_tune_error.empty()) status_.last_tune_error = last_tune_error;
    status_.pools_tuned = 0;
    for (const auto& [key, slot] : pool_engines_) {
      if (slot.engine != nullptr) ++status_.pools_tuned;
    }
    if (pools_tuned_gauge_ != nullptr) {
      pools_tuned_gauge_->Set(static_cast<double>(status_.pools_tuned));
    }
  }
  return status;
}

LiveStatus LiveControlPlane::Snapshot() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  LiveStatus out = status_;
  // Recompute ages against "now" so Health reports staleness that keeps
  // rising while ticks fail, not the age frozen at the last tick.
  const double wall = Now();
  double max_age = 0.0;
  for (const auto& [key, state] : pool_states_) {
    if (state.publishes == 0) continue;
    max_age = std::max(max_age, std::max(0.0, wall - state.last_published));
  }
  out.max_recommendation_age_seconds = max_age;
  return out;
}

}  // namespace ipool::live
