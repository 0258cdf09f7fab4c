// The determinism contract of DESIGN.md "Execution & parallelism", enforced
// end to end: every parallelized path — blocked nn/linalg MatMul (forward
// and backward), deep-model training with an ambient pool, SweepPareto,
// fleet solves and the fleet control loop — must produce results
// bit-identical to its serial execution at every thread count. Run under
// TSan in CI, so these double as data-race coverage of the runtime.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "autotune/fleet_tuner.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "forecast/forecaster.h"
#include "forecast/ssa.h"
#include "linalg/matrix.h"
#include "live/control_loop.h"
#include "nn/gradcheck.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "nn/ops.h"
#include "sim/multi_pool.h"
#include "solver/saa_optimizer.h"
#include "tsdata/time_series.h"
#include "workload/demand_generator.h"

namespace ipool {
namespace {

// The thread counts every contract is checked at: serial baseline aside,
// one thread (pure dispatch reordering), two, and whatever the host has.
std::vector<size_t> ThreadCounts() {
  return {1, 2, std::max<size_t>(1, std::thread::hardware_concurrency())};
}

TimeSeries SyntheticDemand(size_t bins, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(bins);
  for (size_t i = 0; i < bins; ++i) {
    // Diurnal-ish shape with noise, non-negative integers like real counts.
    const double base = 6.0 + 4.0 * std::sin(static_cast<double>(i) / 40.0);
    values[i] = std::floor(base + rng.Uniform(0.0, 3.0));
  }
  return TimeSeries(0.0, 30.0, std::move(values));
}

nn::Tensor RandomTensor(const nn::Shape& shape, Rng& rng,
                        bool requires_grad) {
  nn::Tensor t = nn::Tensor::Zeros(shape, requires_grad);
  for (double& v : t.mutable_value()) v = rng.Uniform(-1.0, 1.0);
  return t;
}

TEST(ParallelDeterminismTest, NnMatMulForwardAndBackwardBitIdentical) {
  // Odd sizes so chunk boundaries never align with the matrix shape; 131
  // rows keeps the range above the flops-based inline threshold (grain
  // 16384/(23*19) = 37, fan-out needs >= 74 rows) so the pooled runs truly
  // take the parallel path — guarded by the tasks_executed assertion below.
  auto run = [](exec::ThreadPool* pool) {
    exec::ScopedPool scope(pool);
    Rng rng(11);
    nn::Tensor a = RandomTensor({131, 23}, rng, true);
    nn::Tensor b = RandomTensor({23, 19}, rng, true);
    nn::Tensor loss = nn::SumAll(nn::Mul(nn::MatMul(a, b), nn::MatMul(a, b)));
    EXPECT_TRUE(loss.Backward().ok());
    return std::tuple<std::vector<double>, std::vector<double>,
                      std::vector<double>>(loss.value(), a.grad(), b.grad());
  };
  const auto serial = run(nullptr);
  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool pool(threads);
    const auto parallel = run(&pool);
    // Fan-out proof, not a scheduling assertion: ParallelFor returns once
    // the chunks drain (often all claimed by the caller before a worker
    // wakes), but Wait() retires every submitted driver task, so a zero
    // counter here can only mean the range never left the inline path.
    pool.Wait();
    EXPECT_GT(pool.tasks_executed(), 0u) << threads << " threads: inline?";
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel)) << threads;
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel)) << threads;
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel)) << threads;
  }
}

TEST(ParallelDeterminismTest, BlockedMatMulBackwardPassesGradCheck) {
  // The row-blocked backward against central finite differences, with a
  // live ambient pool so the parallel code path itself is what's checked.
  exec::ThreadPool pool(2);
  exec::ScopedPool scope(&pool);
  Rng rng(5);
  // 64*16*32 multiply-adds clear the 16384-flop inline threshold in both the
  // forward and the dB backward ParallelFor, so the blocked parallel kernels
  // are what the finite differences check (see tasks_executed assertion).
  nn::Tensor a = RandomTensor({64, 16}, rng, true);
  nn::Tensor b = RandomTensor({16, 32}, rng, true);
  auto report = nn::CheckGradients(
      [&] { return nn::SumAll(nn::Mul(nn::MatMul(a, b), nn::MatMul(a, b))); },
      {a, b});
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->max_relative_error, 1e-5);
  EXPECT_GT(report->elements_checked, 0u);
  pool.Wait();  // retire submitted drivers so the counter is settled
  EXPECT_GT(pool.tasks_executed(), 0u);
}

TEST(ParallelDeterminismTest, LinalgMatMulBitIdentical) {
  Rng rng(17);
  std::vector<double> da(53 * 29), db(29 * 31);
  for (double& v : da) v = rng.Uniform(0.0, 1.0);
  for (double& v : db) v = rng.Uniform(0.0, 1.0);
  const Matrix a = *Matrix::FromRowMajor(53, 29, da);
  const Matrix b = *Matrix::FromRowMajor(29, 31, db);
  const Matrix serial = *MatMul(a, b);
  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool pool(threads);
    exec::ScopedPool scope(&pool);
    const Matrix parallel = *MatMul(a, b);
    EXPECT_EQ(serial.data(), parallel.data()) << threads;
  }
}

TEST(ParallelDeterminismTest, CostSeededFanOutBitIdentical) {
  // Cost-weighted chunk boundaries come from CostAwarePartition — like
  // Partition, a pure function of (costs, n, parts, grain), never of the
  // worker count or scheduling — so a cost-seeded fan-out must stay
  // bit-identical to serial at 1/2/hw threads even though each run claims
  // the chunks in a different order. Skewed per-index work mirrors the
  // table1/fig5 deep-model-cell-next-to-baseline-cell shape.
  const size_t n = 113;
  std::vector<double> costs(n);
  for (size_t i = 0; i < n; ++i) costs[i] = i % 9 == 0 ? 40.0 : 1.0;
  auto cell = [](size_t i) {
    Rng rng(exec::DeriveTaskSeed(77, i));
    const size_t rounds = 50 + (i % 9 == 0 ? 2000 : 0);
    double acc = 0.0;
    for (size_t r = 0; r < rounds; ++r) {
      acc += rng.Uniform(-1.0, 1.0) * std::sin(static_cast<double>(r + i));
    }
    return acc;
  };
  const exec::ParallelForOptions options{.label = "test.cost_cells",
                                         .costs = costs.data()};
  const auto serial = exec::ParallelMap(static_cast<exec::ThreadPool*>(nullptr),
                                        n, cell, options);
  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool pool(threads);
    const auto parallel = exec::ParallelMap(&pool, n, cell, options);
    pool.Wait();
    EXPECT_GT(pool.tasks_executed(), 0u) << threads << " threads: inline?";
    EXPECT_EQ(serial, parallel) << threads;
  }
}

TEST(ParallelDeterminismTest, SsaFitRefitAndForecastBitIdentical) {
  // The SSA fast path fans three stages over the ambient pool — the blocked
  // MatMuls inside the subspace iteration, the rank-major W = H^T U build,
  // and the diagonal-averaging reconstruction — each with a fixed
  // per-element accumulation order, so cold Fit and warm Refit forecasts
  // must be bit-identical to serial at every thread count.
  // High signal-to-noise on purpose: the subspace path engages only when
  // the retained components stand clear of the noise floor (sparse-traffic
  // spectra go to the dense oracle, which has its own coverage).
  Rng rng(77);
  std::vector<double> base(520);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = 40.0 + 20.0 * std::sin(static_cast<double>(i) / 8.0) +
              rng.Uniform(0.0, 3.0);
  }
  const TimeSeries full(0.0, 30.0, std::move(base));
  const std::vector<double> v = full.values();
  const TimeSeries first(full.start(), full.interval(),
                         std::vector<double>(v.begin(), v.begin() + 512));
  const TimeSeries second(full.start() + 8.0 * full.interval(),
                          full.interval(),
                          std::vector<double>(v.begin() + 8, v.end()));
  auto run = [&](exec::ThreadPool* pool) {
    SsaForecaster::Options options;
    options.window = 96;
    options.exec.pool = pool;
    SsaForecaster ssa(options);
    EXPECT_TRUE(ssa.Fit(first).ok());
    EXPECT_EQ(ssa.fit_path(), SsaForecaster::FitPath::kSubspace);
    auto cold = ssa.Forecast(48);
    EXPECT_TRUE(cold.ok());
    EXPECT_TRUE(ssa.Refit(second).ok());
    EXPECT_TRUE(ssa.warm_gram_hit());
    auto warm = ssa.Forecast(48);
    EXPECT_TRUE(warm.ok());
    return std::pair<std::vector<double>, std::vector<double>>(*cold, *warm);
  };
  const auto serial = run(nullptr);
  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool pool(threads);
    const auto parallel = run(&pool);
    pool.Wait();
    EXPECT_GT(pool.tasks_executed(), 0u) << threads << " threads: inline?";
    EXPECT_EQ(serial.first, parallel.first) << threads;
    EXPECT_EQ(serial.second, parallel.second) << threads;
  }
}

TEST(ParallelDeterminismTest, DeepForecasterFitBitIdentical) {
  // Full seeded training with the exec context wired through ForecastParams:
  // the ambient pool reaches every MatMul of forward and backward passes.
  const TimeSeries history = SyntheticDemand(480, 23);
  auto run = [&](exec::ThreadPool* pool) {
    ForecastParams params;
    params.window = 48;
    params.horizon = 24;
    params.epochs = 2;
    params.stride = 8;
    params.seed = 9;
    params.exec.pool = pool;
    auto forecaster = CreateForecaster(ModelKind::kMwdn, params);
    EXPECT_TRUE(forecaster.ok());
    EXPECT_TRUE((*forecaster)->Fit(history).ok());
    auto prediction = (*forecaster)->Forecast(24);
    EXPECT_TRUE(prediction.ok());
    return *prediction;
  };
  const std::vector<double> serial = run(nullptr);
  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool pool(threads);
    EXPECT_EQ(serial, run(&pool)) << threads;
  }
}

TEST(ParallelDeterminismTest, SweepParetoBitIdentical) {
  const TimeSeries planning = SyntheticDemand(300, 31);
  const TimeSeries actual = SyntheticDemand(300, 32);
  PoolModelConfig pool_config;
  pool_config.tau_bins = 3;
  pool_config.stableness_bins = 10;
  pool_config.max_pool_size = 60;
  const std::vector<double> alphas = {0.9, 0.5, 0.2, 0.05, 0.01};

  auto serial = SweepPareto(planning, actual, pool_config, alphas);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->size(), alphas.size());
  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool pool(threads);
    auto parallel = SweepPareto(planning, actual, pool_config, alphas, {},
                                {&pool});
    ASSERT_TRUE(parallel.ok()) << threads;
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i].alpha_prime, (*parallel)[i].alpha_prime);
      EXPECT_EQ((*serial)[i].metrics.idle_cluster_seconds,
                (*parallel)[i].metrics.idle_cluster_seconds)
          << threads << " alpha " << alphas[i];
      EXPECT_EQ((*serial)[i].metrics.wait_request_seconds,
                (*parallel)[i].metrics.wait_request_seconds);
      EXPECT_EQ((*serial)[i].metrics.pool_hits, (*parallel)[i].metrics.pool_hits);
    }
  }
}

TEST(ParallelDeterminismTest, SweepParetoPropagatesObsIntoSolves) {
  // The sweep used to drop the caller's ObsContext on the floor; every
  // per-alpha solve must now record into the shared registry, serial and
  // parallel alike (metrics are lock-free; the tracer only rides serially).
  const TimeSeries planning = SyntheticDemand(200, 41);
  PoolModelConfig pool_config;
  pool_config.tau_bins = 3;
  pool_config.stableness_bins = 10;
  pool_config.max_pool_size = 40;
  const std::vector<double> alphas = {0.5, 0.1, 0.02};

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  auto serial = SweepPareto(planning, planning, pool_config, alphas,
                            {&registry, &tracer});
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(registry.GetHistogram("ipool_solve_seconds", {{"path", "dp"}})
                ->count(),
            alphas.size());
  // Serial sweep (null exec) keeps tracing: one "solve" span per alpha.
  EXPECT_EQ(tracer.FinishedSpans().size(), alphas.size());

  obs::MetricsRegistry parallel_registry;
  obs::Tracer parallel_tracer;
  exec::ThreadPool pool(2);
  auto parallel = SweepPareto(planning, planning, pool_config, alphas,
                              {&parallel_registry, &parallel_tracer}, {&pool});
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel_registry
                .GetHistogram("ipool_solve_seconds", {{"path", "dp"}})
                ->count(),
            alphas.size());
  // The tracer keeps per-thread span buffers, so the parallel sweep records
  // one "solve" span per alpha too — just like the serial pass.
  EXPECT_EQ(parallel_tracer.FinishedSpans().size(), alphas.size());
  EXPECT_EQ(parallel_tracer.dropped(), 0u);
}

TEST(ParallelDeterminismTest, FleetSolvesBitIdentical) {
  std::vector<FleetSolveSpec> specs;
  for (size_t c = 0; c < 4; ++c) {
    FleetSolveSpec spec;
    spec.demand = SyntheticDemand(240, 50 + c);
    spec.saa.alpha_prime = 0.1 + 0.2 * static_cast<double>(c);
    spec.saa.pool.tau_bins = 3;
    spec.saa.pool.stableness_bins = 10;
    spec.saa.pool.max_pool_size = 50;
    spec.period_bins = c % 2 == 0 ? 0 : 120;  // mix full DP and periodic
    specs.push_back(std::move(spec));
  }
  auto serial = SolveFleetSchedules(specs);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->size(), specs.size());
  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool pool(threads);
    auto parallel = SolveFleetSchedules(specs, {&pool});
    ASSERT_TRUE(parallel.ok()) << threads;
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i].pool_size_per_bin,
                (*parallel)[i].pool_size_per_bin)
          << threads << " spec " << i;
      EXPECT_EQ((*serial)[i].objective, (*parallel)[i].objective);
    }
  }
}

TEST(ParallelDeterminismTest, FleetSolveErrorsReportFirstFailingSpec) {
  std::vector<FleetSolveSpec> specs(2);
  specs[0].demand = SyntheticDemand(240, 60);
  specs[0].saa.pool.tau_bins = 3;
  specs[0].saa.pool.stableness_bins = 10;
  specs[1] = specs[0];
  specs[1].saa.alpha_prime = 2.0;  // invalid: must be in [0, 1]
  exec::ThreadPool pool(2);
  auto result = SolveFleetSchedules(specs, {&pool});
  EXPECT_FALSE(result.ok());
}

TEST(ParallelDeterminismTest, ControlLoopFleetBitIdentical) {
  PipelineConfig pipeline;
  pipeline.kind = PipelineKind::k2Step;
  pipeline.model = ModelKind::kSsa;
  pipeline.forecast.window = 48;
  pipeline.forecast.horizon = 24;
  pipeline.saa.alpha_prime = 0.4;
  pipeline.saa.pool.tau_bins = 3;
  pipeline.saa.pool.stableness_bins = 10;
  pipeline.recommendation_bins = 120;
  auto engine = RecommendationEngine::Create(pipeline);
  ASSERT_TRUE(engine.ok());

  std::vector<FleetPoolSpec> pools;
  for (size_t p = 0; p < 3; ++p) {
    WorkloadConfig wconfig;
    wconfig.duration_days = 0.25;
    wconfig.base_rate_per_minute = 4.0 + 2.0 * static_cast<double>(p);
    wconfig.diurnal_amplitude = 0.0;
    wconfig.seed = 70 + p;
    auto generator = DemandGenerator::Create(wconfig);
    FleetPoolSpec spec;
    spec.demand = generator->GenerateBinned();
    spec.request_events = generator->GenerateEvents();
    spec.config.run_interval_seconds = 1800.0;
    spec.config.history_bins = 480;
    spec.config.default_pool_size = 5;
    spec.config.sim.creation_latency_mean_seconds = 90.0;
    pools.push_back(std::move(spec));
  }

  auto serial = ControlLoop::RunFleet(*engine, pools);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->size(), pools.size());
  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool thread_pool(threads);
    auto parallel = ControlLoop::RunFleet(*engine, pools, {&thread_pool});
    ASSERT_TRUE(parallel.ok()) << threads;
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i].applied_schedule, (*parallel)[i].applied_schedule)
          << threads << " pool " << i;
      EXPECT_EQ((*serial)[i].pipeline_runs, (*parallel)[i].pipeline_runs);
      EXPECT_EQ((*serial)[i].sim.total_requests,
                (*parallel)[i].sim.total_requests);
      EXPECT_EQ((*serial)[i].sim.total_wait_seconds,
                (*parallel)[i].sim.total_wait_seconds);
      EXPECT_EQ((*serial)[i].sim.idle_cluster_seconds,
                (*parallel)[i].sim.idle_cluster_seconds);
    }
  }
}

// The fleet auto-tuner's search fans (model, window) groups over the pool
// with cost-seeded chunking; the winning config and its score must be
// bit-identical to the serial search at every thread count — a tuner that
// flips its winner with the machine would churn serving configs.
TEST(ParallelDeterminismTest, FleetTunerWinnerBitIdentical) {
  WorkloadConfig workload = RegimeShiftProfile(/*seed=*/7, /*shift_day=*/2.0);
  workload.duration_days = 0.5;
  auto generator = DemandGenerator::Create(workload);
  ASSERT_TRUE(generator.ok());
  const TimeSeries trace = generator->GenerateBinned();

  autotune::FleetTunerConfig config;
  config.models = {ModelKind::kBaseline, ModelKind::kSsa, ModelKind::kSsaPlus};
  config.alphas = {0.2, 0.5, 0.8};
  config.windows = {32, 48};
  config.eval_bins = 120;
  config.min_train_bins = 32;

  auto serial_tuner = autotune::FleetTuner::Create(config);
  ASSERT_TRUE(serial_tuner.ok());
  const autotune::PoolTuneResult serial =
      (*serial_tuner)->TunePool("p", trace, nullptr);
  ASSERT_TRUE(serial.ok) << serial.error;

  for (size_t threads : ThreadCounts()) {
    exec::ThreadPool pool(threads);
    autotune::FleetTunerConfig parallel_config = config;
    parallel_config.exec.pool = &pool;
    auto tuner = autotune::FleetTuner::Create(parallel_config);
    ASSERT_TRUE(tuner.ok());
    const autotune::PoolTuneResult parallel =
        (*tuner)->TunePool("p", trace, nullptr);
    ASSERT_TRUE(parallel.ok) << threads << ": " << parallel.error;
    EXPECT_EQ(parallel.winner, serial.winner) << threads;
    EXPECT_EQ(parallel.winner_score, serial.winner_score) << threads;
    EXPECT_EQ(parallel.candidates, serial.candidates) << threads;
  }
}

// Warm re-tunes (memo + SSA warm state populated) must reproduce the cold
// result bit-for-bit — the warm path is a cache, never an approximation.
TEST(ParallelDeterminismTest, FleetTunerWarmEqualsCold) {
  WorkloadConfig workload = RegimeShiftProfile(/*seed=*/9, /*shift_day=*/2.0);
  workload.duration_days = 0.5;
  auto generator = DemandGenerator::Create(workload);
  ASSERT_TRUE(generator.ok());
  const TimeSeries trace = generator->GenerateBinned();

  autotune::FleetTunerConfig config;
  config.models = {ModelKind::kBaseline, ModelKind::kSsa};
  config.alphas = {0.3, 0.7};
  config.windows = {48};
  config.eval_bins = 120;
  config.min_train_bins = 32;

  exec::ThreadPool pool(2);
  config.exec.pool = &pool;
  auto tuner = autotune::FleetTuner::Create(config);
  ASSERT_TRUE(tuner.ok());
  const autotune::PoolTuneResult cold = (*tuner)->TunePool("p", trace, nullptr);
  ASSERT_TRUE(cold.ok) << cold.error;
  const autotune::PoolTuneResult warm =
      (*tuner)->TunePool("p", trace, nullptr);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_GT(warm.memo_hits, 0u);
  EXPECT_EQ(warm.winner, cold.winner);
  EXPECT_EQ(warm.winner_score, cold.winner_score);
}

}  // namespace
}  // namespace ipool
