#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "forecast/deep_base.h"
#include "forecast/forecaster.h"
#include "forecast/models.h"
#include "forecast/ssa.h"
#include "linalg/simd_kernels.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tsdata/metrics.h"
#include "tsdata/time_series.h"
#include "workload/demand_generator.h"

namespace ipool {
namespace {

// A clean periodic series: sin with period 32 bins plus a trendless offset.
TimeSeries SineSeries(size_t n, double amplitude = 2.0, double offset = 4.0,
                      double period = 32.0) {
  std::vector<double> vals(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = offset + amplitude * std::sin(2 * M_PI * static_cast<double>(i) / period);
  }
  return TimeSeries(0.0, 30.0, std::move(vals));
}

TimeSeries NoisySineSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  TimeSeries ts = SineSeries(n);
  for (size_t i = 0; i < n; ++i) {
    ts.value(i) = std::max(0.0, ts.value(i) + rng.Normal(0.0, 0.3));
  }
  return ts;
}

ForecastParams FastParams() {
  ForecastParams params;
  params.window = 32;
  params.horizon = 8;
  params.epochs = 3;
  params.batch_size = 8;
  params.stride = 4;
  params.seed = 5;
  return params;
}

// ---- params validation ------------------------------------------------------

TEST(ForecastParamsTest, Validation) {
  EXPECT_TRUE(ForecastParams{}.Validate().ok());
  ForecastParams p;
  p.window = 2;
  EXPECT_FALSE(p.Validate().ok());
  p = ForecastParams{};
  p.horizon = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = ForecastParams{};
  p.alpha_prime = 2.0;
  EXPECT_FALSE(p.Validate().ok());
  p = ForecastParams{};
  p.learning_rate = 0.0;
  EXPECT_FALSE(p.Validate().ok());
}

// ---- window dataset ---------------------------------------------------------

TEST(WindowDatasetTest, CutsExpectedSamples) {
  std::vector<double> series = {0, 1, 2, 3, 4, 5, 6, 7};
  auto ds = BuildWindowDataset(series, 3, 2, 1);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->inputs.size(), 4u);  // starts 0..3
  EXPECT_EQ(ds->inputs[0], (std::vector<double>{0, 1, 2}));
  EXPECT_EQ(ds->targets[0], (std::vector<double>{3, 4}));
  EXPECT_EQ(ds->inputs[3], (std::vector<double>{3, 4, 5}));
  EXPECT_EQ(ds->targets[3], (std::vector<double>{6, 7}));
}

TEST(WindowDatasetTest, StrideSkips) {
  std::vector<double> series(20, 1.0);
  auto ds = BuildWindowDataset(series, 4, 2, 3);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->inputs.size(), 5u);  // starts 0,3,6,9,12
}

TEST(WindowDatasetTest, RejectsTooShort) {
  EXPECT_FALSE(BuildWindowDataset({1, 2, 3}, 3, 2, 1).ok());
  EXPECT_FALSE(BuildWindowDataset({1, 2, 3}, 0, 2, 1).ok());
}

// ---- baseline ----------------------------------------------------------------

TEST(BaselineTest, PredictsGammaTimesMax) {
  NoIntelligenceForecaster baseline(1.2);
  TimeSeries ts(0.0, 30.0, {1, 5, 3});
  ASSERT_TRUE(baseline.Fit(ts).ok());
  auto f = baseline.Forecast(4);
  ASSERT_TRUE(f.ok());
  for (double v : *f) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(BaselineTest, RequiresFitAndData) {
  NoIntelligenceForecaster baseline(1.0);
  EXPECT_FALSE(baseline.Forecast(3).ok());
  EXPECT_FALSE(baseline.Fit(TimeSeries(0, 30, {})).ok());
}

// ---- SSA ---------------------------------------------------------------------

TEST(SsaTest, RequiresMinimumHistory) {
  SsaForecaster ssa({});
  EXPECT_FALSE(ssa.Fit(TimeSeries(0, 30, {1, 2, 3})).ok());
  EXPECT_FALSE(ssa.Forecast(5).ok());
}

TEST(SsaTest, ReconstructionTracksCleanSignal) {
  SsaForecaster::Options options;
  options.window = 32;
  options.max_rank = 6;
  SsaForecaster ssa(options);
  TimeSeries ts = SineSeries(256);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  double err = 0.0;
  for (size_t i = 0; i < ts.size(); ++i) {
    err += std::fabs(ssa.reconstruction()[i] - ts.value(i));
  }
  err /= static_cast<double>(ts.size());
  EXPECT_LT(err, 0.05);
}

TEST(SsaTest, ForecastsCleanSineAccurately) {
  SsaForecaster::Options options;
  options.window = 48;
  options.max_rank = 6;
  SsaForecaster ssa(options);
  const size_t n = 256;
  TimeSeries ts = SineSeries(n);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto f = ssa.Forecast(32);
  ASSERT_TRUE(f.ok());
  TimeSeries truth = SineSeries(n + 32);
  double mae = 0.0;
  for (size_t i = 0; i < 32; ++i) {
    mae += std::fabs((*f)[i] - truth.value(n + i));
  }
  mae /= 32.0;
  EXPECT_LT(mae, 0.15) << "SSA should extrapolate a clean periodic signal";
}

TEST(SsaTest, HandlesConstantSeries) {
  SsaForecaster ssa({});
  TimeSeries ts(0.0, 30.0, std::vector<double>(64, 5.0));
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto f = ssa.Forecast(10);
  ASSERT_TRUE(f.ok());
  for (double v : *f) EXPECT_NEAR(v, 5.0, 0.5);
}

TEST(SsaTest, ForecastNonNegative) {
  SsaForecaster ssa({});
  TimeSeries ts = NoisySineSeries(200, 3);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto f = ssa.Forecast(64);
  ASSERT_TRUE(f.ok());
  for (double v : *f) EXPECT_GE(v, 0.0);
}

TEST(SsaTest, ZeroHorizonYieldsEmpty) {
  SsaForecaster ssa({});
  TimeSeries ts = SineSeries(64);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto f = ssa.Forecast(0);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->empty());
}

// ---- deep models (smoke + learning) ------------------------------------------

class DeepModelTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(DeepModelTest, FitsAndForecasts) {
  auto forecaster = CreateForecaster(GetParam(), FastParams());
  ASSERT_TRUE(forecaster.ok());
  TimeSeries ts = NoisySineSeries(160, 11);
  ASSERT_TRUE((*forecaster)->Fit(ts).ok());
  auto f = (*forecaster)->Forecast(20);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_EQ(f->size(), 20u);
  for (double v : *f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 100.0);  // sane range for a series with max ~6
  }
}

TEST_P(DeepModelTest, RejectsTooShortHistory) {
  auto forecaster = CreateForecaster(GetParam(), FastParams());
  ASSERT_TRUE(forecaster.ok());
  TimeSeries ts = SineSeries(16);
  EXPECT_FALSE((*forecaster)->Fit(ts).ok());
}

TEST_P(DeepModelTest, DeterministicForSameSeed) {
  TimeSeries ts = NoisySineSeries(160, 13);
  std::vector<double> first;
  for (int run = 0; run < 2; ++run) {
    auto forecaster = CreateForecaster(GetParam(), FastParams());
    ASSERT_TRUE(forecaster.ok());
    ASSERT_TRUE((*forecaster)->Fit(ts).ok());
    auto f = (*forecaster)->Forecast(10);
    ASSERT_TRUE(f.ok());
    if (run == 0) {
      first = *f;
    } else {
      EXPECT_EQ(*f, first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDeepModels, DeepModelTest,
                         ::testing::Values(ModelKind::kMwdn, ModelKind::kTst,
                                           ModelKind::kInceptionTime,
                                           ModelKind::kSsaPlus),
                         [](const auto& info) {
                           std::string name = ModelKindToString(info.param);
                           name.erase(std::remove(name.begin(), name.end(), '+'),
                                      name.end());
                           return name;
                         });

TEST(DeepModelTest, MwdnBeatsUntrainedOnPeriodicSignal) {
  // After training, mWDN should beat the naive mean prediction on a clean
  // periodic signal.
  ForecastParams params = FastParams();
  params.epochs = 30;
  params.batch_size = 4;
  params.stride = 2;
  params.horizon = 16;
  MwdnForecaster model(params);
  const size_t n = 320;
  TimeSeries ts = SineSeries(n);
  ASSERT_TRUE(model.Fit(ts).ok());
  // Evaluate over two full periods so phase luck cannot help either side.
  const size_t eval = 64;
  auto f = model.Forecast(eval);
  ASSERT_TRUE(f.ok());
  TimeSeries truth = SineSeries(n + eval);
  std::vector<double> actual;
  std::vector<double> mean_pred(eval, ts.Mean());
  for (size_t i = 0; i < eval; ++i) actual.push_back(truth.value(n + i));
  const double model_mae = *Mae(actual, *f);
  const double mean_mae = *Mae(actual, mean_pred);
  EXPECT_LT(model_mae, mean_mae);
}

TEST(DeepModelTest, AlphaPrimeShiftsForecastUpward) {
  // Training with a strong underprediction penalty must produce forecasts
  // that sit above those trained with a strong overprediction penalty.
  TimeSeries ts = NoisySineSeries(240, 17);
  auto forecast_with_alpha = [&](double alpha) {
    ForecastParams params = FastParams();
    params.epochs = 10;
    params.alpha_prime = alpha;
    MwdnForecaster model(params);
    EXPECT_TRUE(model.Fit(ts).ok());
    auto f = model.Forecast(16);
    EXPECT_TRUE(f.ok());
    double mean = 0.0;
    for (double v : *f) mean += v;
    return mean / 16.0;
  };
  const double high_alpha = forecast_with_alpha(0.9);  // punish undershoot
  const double low_alpha = forecast_with_alpha(0.1);   // punish overshoot
  EXPECT_GT(high_alpha, low_alpha);
}

// ---- SSA+ hybrid -------------------------------------------------------------

TEST(SsaPlusTest, CorrectorIsTiny) {
  SsaPlusForecaster model(FastParams());
  TimeSeries ts = NoisySineSeries(240, 23);
  ASSERT_TRUE(model.Fit(ts).ok());
  // The paper says approximately 30 parameters.
  EXPECT_LE(model.corrector_parameter_count(), 40u);
  EXPECT_GE(model.corrector_parameter_count(), 15u);
}

TEST(SsaPlusTest, AlphaControlsOvershoot) {
  TimeSeries ts = NoisySineSeries(280, 29);
  auto mean_forecast = [&](double alpha) {
    ForecastParams params = FastParams();
    params.alpha_prime = alpha;
    SsaPlusForecaster model(params);
    EXPECT_TRUE(model.Fit(ts).ok());
    auto f = model.Forecast(32);
    EXPECT_TRUE(f.ok());
    double mean = 0.0;
    for (double v : *f) mean += v;
    return mean / 32.0;
  };
  EXPECT_GT(mean_forecast(0.95), mean_forecast(0.05));
}

TEST(SsaPlusTest, TracksCleanSignal) {
  ForecastParams params = FastParams();
  params.alpha_prime = 0.5;
  SsaPlusForecaster model(params);
  const size_t n = 320;
  TimeSeries ts = SineSeries(n);
  ASSERT_TRUE(model.Fit(ts).ok());
  auto f = model.Forecast(16);
  ASSERT_TRUE(f.ok());
  TimeSeries truth = SineSeries(n + 16);
  double mae = 0.0;
  for (size_t i = 0; i < 16; ++i) mae += std::fabs((*f)[i] - truth.value(n + i));
  mae /= 16.0;
  EXPECT_LT(mae, 0.8);
}

TEST(SsaTest, RankCapBinds) {
  TimeSeries ts = NoisySineSeries(256, 41);
  SsaForecaster::Options capped;
  capped.window = 32;
  capped.max_rank = 2;
  capped.energy_threshold = 0.99999;
  SsaForecaster ssa(capped);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  EXPECT_LE(ssa.chosen_rank(), 2u);
}

TEST(SsaTest, EnergyThresholdBindsBeforeRankCap) {
  TimeSeries ts = SineSeries(256);  // clean: ~3 components carry the energy
  SsaForecaster::Options options;
  options.window = 32;
  options.max_rank = 20;
  options.energy_threshold = 0.99;
  SsaForecaster ssa(options);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  EXPECT_LT(ssa.chosen_rank(), 8u);
}

TEST(SsaTest, WindowClampedForShortHistory) {
  SsaForecaster::Options options;
  options.window = 500;  // longer than n/2: must clamp, not fail
  SsaForecaster ssa(options);
  TimeSeries ts = SineSeries(64);
  EXPECT_TRUE(ssa.Fit(ts).ok());
  EXPECT_TRUE(ssa.Forecast(8).ok());
}

// ---- SSA training fast path -------------------------------------------------

void ExpectForecastsClose(const std::vector<double>& a,
                          const std::vector<double>& b, double rel) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const double tol = rel * std::max({1.0, std::fabs(a[i]), std::fabs(b[i])});
    EXPECT_NEAR(a[i], b[i], tol) << "bin " << i;
  }
}

TEST(SsaFastPathTest, SubspaceMatchesJacobiForecasts) {
  TimeSeries ts = NoisySineSeries(512, 47);
  SsaForecaster::Options options;
  options.window = 96;
  SsaForecaster fast(options);
  ASSERT_TRUE(fast.Fit(ts).ok());
  EXPECT_EQ(fast.fit_path(), SsaForecaster::FitPath::kSubspace);
  EXPECT_GT(fast.subspace_iterations(), 0u);

  SsaForecaster::Options reference_options = options;
  reference_options.force_jacobi = true;
  SsaForecaster reference(reference_options);
  ASSERT_TRUE(reference.Fit(ts).ok());
  EXPECT_EQ(reference.fit_path(), SsaForecaster::FitPath::kJacobi);

  EXPECT_EQ(fast.chosen_rank(), reference.chosen_rank());
  ExpectForecastsClose(*fast.Forecast(48), *reference.Forecast(48), 1e-6);
  // The in-sample reconstruction agrees too.
  ASSERT_EQ(fast.reconstruction().size(), reference.reconstruction().size());
  for (size_t i = 0; i < fast.reconstruction().size(); ++i) {
    EXPECT_NEAR(fast.reconstruction()[i], reference.reconstruction()[i], 1e-6);
  }
}

TEST(SsaFastPathTest, RefitMatchesColdFitOverSlidingRun) {
  // A control-loop run: the history window slides forward a few bins per
  // tick. One warm forecaster Refit()s tick after tick; a fresh cold fit is
  // the oracle each tick.
  const size_t window_bins = 384;
  const size_t shift = 2;
  const size_t ticks = 8;
  TimeSeries full = NoisySineSeries(window_bins + shift * ticks, 53);
  SsaForecaster::Options options;
  options.window = 48;

  SsaForecaster warm(options);
  size_t gram_hits = 0;
  size_t basis_hits = 0;
  for (size_t t = 0; t <= ticks; ++t) {
    TimeSeries view = full.Slice(t * shift, t * shift + window_bins);
    ASSERT_TRUE(warm.Refit(view).ok()) << "tick " << t;
    if (warm.warm_gram_hit()) ++gram_hits;
    if (warm.warm_basis_hit()) ++basis_hits;

    SsaForecaster cold(options);
    ASSERT_TRUE(cold.Fit(view).ok()) << "tick " << t;
    EXPECT_EQ(warm.chosen_rank(), cold.chosen_rank()) << "tick " << t;
    ExpectForecastsClose(*warm.Forecast(24), *cold.Forecast(24), 1e-6);
  }
  // Every tick after the first must have reused the cached state: the Gram
  // slid (shift * L << K here) and the eigenbasis warm-started.
  EXPECT_EQ(gram_hits, ticks);
  EXPECT_EQ(basis_hits, ticks);
}

TEST(SsaFastPathTest, RefitHandlesGeometryChange) {
  // A refit whose history length changed cannot reuse anything — it must
  // silently behave like a cold fit.
  SsaForecaster::Options options;
  options.window = 32;
  SsaForecaster warm(options);
  ASSERT_TRUE(warm.Refit(NoisySineSeries(256, 59)).ok());
  TimeSeries shorter = NoisySineSeries(200, 59);
  ASSERT_TRUE(warm.Refit(shorter).ok());
  EXPECT_FALSE(warm.warm_gram_hit());

  SsaForecaster cold(options);
  ASSERT_TRUE(cold.Fit(shorter).ok());
  ExpectForecastsClose(*warm.Forecast(16), *cold.Forecast(16), 1e-6);
}

TEST(SsaFastPathTest, SpikeAtEndFallsBackToLevelOnBothPaths) {
  // Zeros with a single trailing spike make the Gram's only nonzero entry
  // the (L-1, L-1) corner: u = e_{L-1}, nu^2 = 1, and the recurrence is
  // degenerate. Both eigensolve paths must take the level-forecast fallback.
  std::vector<double> vals(16, 0.0);
  vals.back() = 100.0;
  TimeSeries ts(0.0, 30.0, vals);
  SsaForecaster::Options options;
  options.window = 8;
  for (bool force_jacobi : {false, true}) {
    options.force_jacobi = force_jacobi;
    SsaForecaster ssa(options);
    ASSERT_TRUE(ssa.Fit(ts).ok()) << "force_jacobi " << force_jacobi;
    auto forecast = ssa.Forecast(4);
    ASSERT_TRUE(forecast.ok());
    for (double v : *forecast) {
      EXPECT_NEAR(v, 100.0 / 16.0, 1e-9);  // the series mean
    }
  }
}

TEST(SsaFastPathTest, SharedWarmStateCrossesInstances) {
  // The control-loop pattern: each tick constructs a fresh forecaster, but
  // the warm state lives outside and carries the training across.
  SsaWarmState shared;
  SsaForecaster::Options options;
  options.window = 48;
  options.warm = &shared;
  TimeSeries full = NoisySineSeries(400, 61);

  SsaForecaster first(options);
  ASSERT_TRUE(first.Fit(full.Slice(0, 384)).ok());
  EXPECT_TRUE(shared.valid);

  SsaForecaster second(options);
  ASSERT_TRUE(second.Refit(full.Slice(2, 386)).ok());
  EXPECT_TRUE(second.warm_gram_hit());
  EXPECT_TRUE(second.warm_basis_hit());
}

TEST(SsaFastPathTest, FitMetricsAndSpansRecorded) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  SsaForecaster::Options options;
  options.window = 48;
  options.obs.metrics = &metrics;
  options.obs.tracer = &tracer;
  TimeSeries full = NoisySineSeries(400, 67);
  SsaForecaster ssa(options);
  ASSERT_TRUE(ssa.Fit(full.Slice(0, 384)).ok());
  ASSERT_TRUE(ssa.Refit(full.Slice(2, 386)).ok());

  EXPECT_EQ(
      metrics.GetHistogram("ipool_ssa_fit_seconds", {{"path", "subspace"}})
          ->count(),
      2u);
  EXPECT_GE(metrics.GetHistogram("ipool_ssa_subspace_iters")->count(), 2u);
  EXPECT_GE(metrics.GetCounter("ipool_ssa_warm_start_hits_total")->value(), 1u);
  EXPECT_GE(metrics.GetCounter("ipool_ssa_gram_reuse_total")->value(), 1u);

  std::vector<std::string> names;
  for (const auto& span : tracer.FinishedSpans()) names.push_back(span.name);
  for (const char* phase :
       {"ssa.gram", "ssa.eigen", "ssa.reconstruct", "ssa.recurrence"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << "missing span " << phase;
  }
}

TEST(SsaFastPathTest, SubspaceRejectionsCountedByReason) {
  // A Table-1 pool at the serve shape (480 bins, L = 96): the subspace
  // iteration converges, but the energy threshold keeps components past its
  // resolved head, so the dense oracle decides.
  WorkloadConfig config = RegionNodeProfile(Region::kWestUs2, NodeSize::kSmall,
                                            /*seed=*/5);
  config.duration_days = 0.5;
  auto generator = DemandGenerator::Create(config);
  ASSERT_TRUE(generator.ok());
  obs::MetricsRegistry metrics;
  SsaForecaster::Options options;
  options.window = 96;
  options.obs.metrics = &metrics;
  SsaForecaster noisy(options);
  ASSERT_TRUE(noisy.Fit(generator->GenerateBinned().Slice(960, 1440)).ok());
  EXPECT_EQ(noisy.fit_path(), SsaForecaster::FitPath::kJacobi);
  auto rejected = [&](const char* reason) {
    return metrics
        .GetCounter("ipool_ssa_subspace_rejected_total", {{"reason", reason}})
        ->value();
  };
  EXPECT_EQ(rejected("head_short"), 1u);
  EXPECT_EQ(rejected("unconverged"), 0u);

  // A clean periodic series is accepted on the subspace path: no count.
  SsaForecaster clean(options);
  ASSERT_TRUE(clean.Fit(SineSeries(480)).ok());
  EXPECT_EQ(clean.fit_path(), SsaForecaster::FitPath::kSubspace);
  EXPECT_EQ(rejected("head_short"), 1u);
  EXPECT_EQ(rejected("unconverged"), 0u);
}

TEST(SsaPlusTest, RefitWarmStartsTheFinalSsaFit) {
  ForecastParams params = FastParams();
  params.window = 48;
  ForecastWarmState warm;
  params.ssa_warm = &warm.ssa;
  // High-SNR series (noise energy ~5e-5 of total): the subspace fast path
  // only engages when its converged head covers the energy-selected rank,
  // which a near-threshold noise floor would deny on both fits.
  Rng rng(71);
  std::vector<double> vals(400);
  for (size_t i = 0; i < 400; ++i) {
    vals[i] = 40.0 +
              20.0 * std::sin(2 * M_PI * static_cast<double>(i) / 32.0) +
              rng.Normal(0.0, 0.3);
  }
  TimeSeries full(0.0, 30.0, std::move(vals));

  SsaPlusForecaster model(params);
  ASSERT_TRUE(model.Fit(full.Slice(0, 384)).ok());
  EXPECT_TRUE(warm.ssa.valid);
  ASSERT_TRUE(model.Refit(full.Slice(2, 386)).ok());
  ASSERT_NE(model.ssa(), nullptr);
  EXPECT_TRUE(model.ssa()->warm_basis_hit());
}

// ---- SSA+ corrector: fused kernel vs autograd ----------------------------------

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// Corrector samples shaped like SSA+'s anchor probes: a scaled SSA
// prediction, day/hour phases, a recent level and the step position, with
// the exact zeros real rows carry (step 0 of every chunk, phase 0 at
// midnight and on the hour) and truths on both sides of the prediction.
SsaPlusCorrector::Samples CorrectorSamples(uint64_t seed, size_t count) {
  Rng rng(seed);
  SsaPlusCorrector::Samples samples;
  constexpr size_t kChunk = 16;
  for (size_t i = 0; i < count; ++i) {
    const size_t step = i % kChunk;
    const double t = 1800.0 * static_cast<double>(i / kChunk) +
                     30.0 * static_cast<double>(step);
    const double tod = std::fmod(t, 86400.0) / 86400.0;
    const double toh = std::fmod(t, 3600.0) / 3600.0;
    const double pred = rng.Uniform(0.1, 0.9);
    const double row[SsaPlusCorrector::kFeatures] = {
        pred,
        std::sin(2 * M_PI * tod),
        std::cos(2 * M_PI * tod),
        std::sin(2 * M_PI * toh),
        std::cos(2 * M_PI * toh),
        0.5 + 0.1 * static_cast<double>(i / kChunk % 3),
        static_cast<double>(step) / static_cast<double>(kChunk)};
    samples.Add(row, pred, std::max(0.0, pred + rng.Normal(0.05, 0.2)));
  }
  return samples;
}

// The autograd trainer SSA+ ran before the fused kernel, moved here verbatim
// as the reference the kernel must reproduce bit for bit.
void AutogradTrain(nn::Dense& corrector1, nn::Dense& corrector2,
                   const SsaPlusCorrector::Samples& samples, size_t num_train,
                   size_t corrector_epochs, double alpha_prime) {
  std::vector<nn::Tensor> parameters =
      nn::CollectParameters({&corrector1, &corrector2});
  nn::Adam adam(parameters, 0.03);
  for (size_t epoch = 0; epoch < corrector_epochs; ++epoch) {
    adam.ZeroGrad();
    for (size_t i = 0; i < num_train; ++i) {
      nn::Tensor features = nn::Tensor::FromVector(std::vector<double>(
          samples.row(i), samples.row(i) + SsaPlusCorrector::kFeatures));
      nn::Tensor delta =
          corrector2.Forward(nn::Relu(corrector1.Forward(features)));
      nn::Tensor corrected = nn::AddScalar(delta, samples.ssa_pred[i]);
      nn::Tensor target = nn::Tensor::FromVector({samples.truth[i]});
      nn::Tensor loss = nn::AsymmetricLoss(corrected, target, alpha_prime);
      ASSERT_TRUE(loss.Backward().ok());
    }
    const double inv = 1.0 / static_cast<double>(num_train);
    for (nn::Tensor& p : parameters) {
      for (double& g : p.mutable_grad()) g *= inv;
    }
    adam.Step();
  }
}

TEST(SsaPlusCorrectorTest, FusedTrainingIsBitIdenticalToAutograd) {
  const SsaPlusCorrector::Samples samples = CorrectorSamples(83, 128);
  const size_t num_train = samples.size() * 3 / 4;
  for (simd::IsaLevel isa : {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
    if (isa == simd::IsaLevel::kAvx2 && !simd::Avx2Available()) continue;
    simd::ScopedForceIsa force(isa);
    for (double alpha : {0.0, 0.05, 0.3, 0.5, 0.9, 1.0}) {
      SCOPED_TRACE(StrFormat("isa %s alpha' %.2f", simd::IsaName(isa), alpha));
      Rng fused_rng(7);
      SsaPlusCorrector fused(fused_rng);
      fused.Train(samples, num_train, 60, alpha);

      Rng reference_rng(7);
      nn::Dense corrector1(SsaPlusCorrector::kFeatures,
                           SsaPlusCorrector::kHidden, reference_rng);
      nn::Dense corrector2(SsaPlusCorrector::kHidden, 1, reference_rng);
      AutogradTrain(corrector1, corrector2, samples, num_train, 60, alpha);

      const std::vector<nn::Tensor> reference =
          nn::CollectParameters({&corrector1, &corrector2});
      ASSERT_EQ(fused.Parameters().size(), reference.size());
      for (size_t p = 0; p < reference.size(); ++p) {
        EXPECT_EQ(Bits(fused.Parameters()[p].value()),
                  Bits(reference[p].value()))
            << "parameter " << p;
      }
      // Inference: the fused forward against Dense::Forward on every row.
      for (size_t i = 0; i < samples.size(); ++i) {
        nn::Tensor features = nn::Tensor::FromVector(std::vector<double>(
            samples.row(i), samples.row(i) + SsaPlusCorrector::kFeatures));
        const double expected =
            corrector2.Forward(nn::Relu(corrector1.Forward(features))).scalar();
        EXPECT_EQ(Bits({fused.Delta(samples.row(i))}), Bits({expected}))
            << "row " << i;
      }
    }
  }
}

// ---- SSA+ golden bytes --------------------------------------------------------
//
// SSA+ forecasts pinned byte for byte: Forecast(120) hashes (FNV-1a over the
// IEEE bytes) plus whether the validation gate engaged the corrector, over
// six Table-1 profiles and a clean sine at four alpha' values, and one warm
// Refit per series. The table was captured from the autograd-trained
// corrector; every later corrector kernel must reproduce it exactly, at every
// instruction set and thread count.

constexpr size_t kGoldenBins = 256;

uint64_t HashDoubles(const std::vector<double>& values) {
  uint64_t hash = 14695981039346656037ull;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// kGoldenBins + 2 points (the warm case slides by two bins): Table-1 rows
// sliced from 08:00, when their diurnal ramp is under way.
std::vector<std::pair<std::string, TimeSeries>> GoldenSeries() {
  std::vector<std::pair<std::string, TimeSeries>> out;
  for (Region region : {Region::kWestUs2, Region::kEastUs2}) {
    for (NodeSize size : {NodeSize::kSmall, NodeSize::kMedium, NodeSize::kLarge}) {
      WorkloadConfig config = RegionNodeProfile(region, size, /*seed=*/11);
      config.duration_days = 0.5;
      auto generator = DemandGenerator::Create(config);
      EXPECT_TRUE(generator.ok());
      const size_t begin = 8 * 120;  // 08:00 at 30 s bins
      out.emplace_back(RegionToString(region) + "-" + NodeSizeToString(size),
                       generator->GenerateBinned().Slice(
                           begin, begin + kGoldenBins + 2));
    }
  }
  out.emplace_back("sine", SineSeries(kGoldenBins + 2, 6.0, 10.0, 48.0));
  return out;
}

struct GoldenCase {
  const char* series;
  double alpha_prime;
  bool refit;  // Fit on [0, n) then a warm Refit on [2, n + 2)
  uint64_t forecast_hash;
  bool use_corrector;
};

constexpr GoldenCase kSsaPlusGolden[] = {
    {"West US 2-Small", 0.05, false, 0xe25cc286a37975ffull, true},
    {"West US 2-Small", 0.30, false, 0x0680e3caa88362c8ull, true},
    {"West US 2-Small", 0.50, false, 0xbf7a780e5285bb3dull, false},
    {"West US 2-Small", 0.90, false, 0x2fc80fff0bfd07d3ull, true},
    {"West US 2-Small", 0.90, true, 0x3806d416edd8f00cull, true},
    {"West US 2-Medium", 0.05, false, 0x2411a9f6eda999cfull, true},
    {"West US 2-Medium", 0.30, false, 0x01ef811ff31a8c79ull, true},
    {"West US 2-Medium", 0.50, false, 0x9cae4c43f6d118a6ull, false},
    {"West US 2-Medium", 0.90, false, 0xbcdfe08b11bd9683ull, true},
    {"West US 2-Medium", 0.90, true, 0x11887d654018d657ull, true},
    {"West US 2-Large", 0.05, false, 0x60b4b975ca6880c7ull, true},
    {"West US 2-Large", 0.30, false, 0x8780db271c9ccf8bull, true},
    {"West US 2-Large", 0.50, false, 0xe1851ec75f696538ull, false},
    {"West US 2-Large", 0.90, false, 0x10160a50fdeea6e5ull, true},
    {"West US 2-Large", 0.90, true, 0x867222f13f6f63e3ull, true},
    {"East US 2-Small", 0.05, false, 0xec13552435e3e313ull, true},
    {"East US 2-Small", 0.30, false, 0x847dc08a5296f3b2ull, true},
    {"East US 2-Small", 0.50, false, 0x5e86de576818bf2eull, false},
    {"East US 2-Small", 0.90, false, 0x6c8b62d002e19125ull, true},
    {"East US 2-Small", 0.90, true, 0x1dd00941fbbfffc1ull, true},
    {"East US 2-Medium", 0.05, false, 0xcea617f92a0721c2ull, true},
    {"East US 2-Medium", 0.30, false, 0xe0a72a2b9dda3df0ull, true},
    {"East US 2-Medium", 0.50, false, 0xe5c5fa6b71ec437aull, false},
    {"East US 2-Medium", 0.90, false, 0xde05da56223fda28ull, true},
    {"East US 2-Medium", 0.90, true, 0x2ffa236a1cbd967full, true},
    {"East US 2-Large", 0.05, false, 0xb9d904c7c2934be2ull, true},
    {"East US 2-Large", 0.30, false, 0x29871e13b1fe7ba8ull, true},
    {"East US 2-Large", 0.50, false, 0x25d45378afdf502bull, false},
    {"East US 2-Large", 0.90, false, 0xbb5a41028e2e2dc5ull, true},
    {"East US 2-Large", 0.90, true, 0xa4c47668918151c7ull, true},
    {"sine", 0.05, false, 0xb15648c91e8d81edull, false},
    {"sine", 0.30, false, 0xb15648c91e8d81edull, false},
    {"sine", 0.50, false, 0xb15648c91e8d81edull, false},
    {"sine", 0.90, false, 0xb15648c91e8d81edull, false},
    {"sine", 0.90, true, 0xca621a48d24fee5aull, true},
};

std::string GoldenLine(const GoldenCase& c) {
  return StrFormat("    {\"%s\", %.2f, %s, 0x%016llxull, %s},", c.series,
                   c.alpha_prime, c.refit ? "true" : "false",
                   static_cast<unsigned long long>(c.forecast_hash),
                   c.use_corrector ? "true" : "false");
}

std::vector<GoldenCase> ComputeSsaPlusGolden(exec::ThreadPool* pool) {
  std::vector<GoldenCase> out;
  static const auto series = GoldenSeries();
  for (const auto& [name, full] : series) {
    for (double alpha : {0.05, 0.3, 0.5, 0.9}) {
      for (bool refit : {false, true}) {
        if (refit && alpha != 0.9) continue;
        ForecastParams params;
        params.window = 32;
        params.horizon = 16;
        params.alpha_prime = alpha;
        params.exec.pool = pool;
        ForecastWarmState warm;
        params.ssa_warm = &warm.ssa;
        SsaPlusForecaster model(params);
        TimeSeries last = full.Slice(0, kGoldenBins);
        EXPECT_TRUE(model.Fit(last).ok());
        if (refit) {
          last = full.Slice(2, kGoldenBins + 2);
          EXPECT_TRUE(model.Refit(last).ok());
        }
        auto forecast = model.Forecast(120);
        EXPECT_TRUE(forecast.ok());
        // The corrector is engaged iff SSA+ differs from its own base SSA.
        SsaForecaster::Options options;
        options.window = params.window;
        options.max_rank = params.ssa_rank;
        options.seed = params.seed;
        SsaForecaster base(options);
        EXPECT_TRUE(base.Fit(last).ok());
        auto base_forecast = base.Forecast(120);
        EXPECT_TRUE(base_forecast.ok());
        out.push_back({name.c_str(), alpha, refit, HashDoubles(*forecast),
                       *forecast != *base_forecast});
      }
    }
  }
  return out;
}

class SsaPlusGoldenTest
    : public ::testing::TestWithParam<std::tuple<simd::IsaLevel, size_t>> {};

TEST_P(SsaPlusGoldenTest, ForecastBytesMatchTheAutogradCapture) {
  const auto [isa, threads] = GetParam();
  if (isa == simd::IsaLevel::kAvx2 && !simd::Avx2Available()) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  simd::ScopedForceIsa force(isa);
  exec::ThreadPool pool(
      threads > 0 ? threads
                  : std::max(1u, std::thread::hardware_concurrency()));
  const std::vector<GoldenCase> actual = ComputeSsaPlusGolden(&pool);
  bool all_match = actual.size() == std::size(kSsaPlusGolden);
  for (size_t i = 0; all_match && i < actual.size(); ++i) {
    all_match = GoldenLine(actual[i]) == GoldenLine(kSsaPlusGolden[i]);
  }
  if (!all_match) {
    std::string table;
    for (const GoldenCase& c : actual) table += GoldenLine(c) + "\n";
    ADD_FAILURE() << "SSA+ forecasts drifted from the golden capture; "
                     "actual table:\n"
                  << table;
  }
  size_t engaged = 0;
  for (const GoldenCase& c : actual) engaged += c.use_corrector ? 1 : 0;
  // Both gate outcomes are covered.
  EXPECT_GT(engaged, 0u);
  EXPECT_LT(engaged, actual.size());
}

INSTANTIATE_TEST_SUITE_P(
    IsaAndThreads, SsaPlusGoldenTest,
    ::testing::Combine(
        ::testing::Values(simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2),
        // Pool sizes; 0 = one thread per hardware thread.
        ::testing::Values(size_t{1}, size_t{2}, size_t{0})),
    [](const auto& info) {
      const size_t threads = std::get<1>(info.param);
      return std::string(simd::IsaName(std::get<0>(info.param))) + "_" +
             (threads == 0 ? std::string("hw") : std::to_string(threads)) +
             "threads";
    });

TEST(DeepModelTest, EarlyStoppingRunsFewerEpochs) {
  TimeSeries ts = SineSeries(320);  // clean signal: validation converges fast
  ForecastParams with_stop = FastParams();
  with_stop.epochs = 40;
  with_stop.early_stopping = true;
  MwdnForecaster stopped(with_stop);
  ASSERT_TRUE(stopped.Fit(ts).ok());

  ForecastParams without = with_stop;
  without.early_stopping = false;
  MwdnForecaster full(without);
  ASSERT_TRUE(full.Fit(ts).ok());

  EXPECT_LT(stopped.epochs_run(), 40u);
  EXPECT_EQ(full.epochs_run(), 40u);
}

TEST(DeepModelTest, RefittingReplacesTheModel) {
  // The production pipeline retrains the same forecaster object in a loop;
  // a second Fit must fully supersede the first.
  ForecastParams params = FastParams();
  params.epochs = 40;  // enough Adam steps to pull the head to the new level
  MwdnForecaster model(params);
  TimeSeries low(0.0, 30.0, std::vector<double>(160, 1.0));
  TimeSeries high(0.0, 30.0, std::vector<double>(160, 9.0));
  ASSERT_TRUE(model.Fit(low).ok());
  ASSERT_TRUE(model.Fit(high).ok());
  auto f = model.Forecast(8);
  ASSERT_TRUE(f.ok());
  for (double v : *f) EXPECT_GT(v, 4.0);  // tracks the new level, not the old
}

// ---- factory ------------------------------------------------------------------

TEST(FactoryTest, CoversAllKindsAndNames) {
  for (ModelKind kind :
       {ModelKind::kBaseline, ModelKind::kSsa, ModelKind::kSsaPlus,
        ModelKind::kMwdn, ModelKind::kTst, ModelKind::kInceptionTime}) {
    auto forecaster = CreateForecaster(kind, FastParams());
    ASSERT_TRUE(forecaster.ok()) << ModelKindToString(kind);
    EXPECT_EQ((*forecaster)->name(), ModelKindToString(kind));
  }
}

TEST(FactoryTest, RejectsBadParams) {
  ForecastParams params = FastParams();
  params.horizon = 0;
  EXPECT_FALSE(CreateForecaster(ModelKind::kSsa, params).ok());
}

}  // namespace
}  // namespace ipool
