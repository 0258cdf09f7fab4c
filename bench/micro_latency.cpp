// §4.2 / §7.4: end-to-end latency micro-benchmarks (google-benchmark). The
// paper requires the whole train-infer-optimize loop to finish in seconds so
// it can rerun every few minutes; these benches verify each stage's cost and
// the DP-vs-LP solver gap on this implementation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/recommendation_engine.h"
#include "exec/thread_pool.h"
#include "forecast/forecaster.h"
#include "forecast/models.h"
#include "forecast/ssa.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simd_kernels.h"
#include "linalg/subspace.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "solver/saa_optimizer.h"
#include "tsdata/smoothing.h"
#include "workload/demand_generator.h"

namespace {

using namespace ipool;

TimeSeries MakeDemand(size_t bins, uint64_t seed = 17) {
  WorkloadConfig config;
  config.duration_days = static_cast<double>(bins) / 2880.0;
  config.base_rate_per_minute = 6.0;
  config.hourly_spike_requests = 10.0;
  config.seed = seed;
  auto generator = DemandGenerator::Create(config);
  return generator->GenerateBinned();
}

void BM_SaaOptimizerDp(benchmark::State& state) {
  TimeSeries demand = MakeDemand(static_cast<size_t>(state.range(0)));
  SaaConfig config;
  config.pool.tau_bins = 3;
  config.pool.stableness_bins = 10;
  config.pool.max_pool_size = 200;
  config.alpha_prime = 0.3;
  auto optimizer = SaaOptimizer::Create(config);
  for (auto _ : state) {
    auto schedule = optimizer->Optimize(demand);
    benchmark::DoNotOptimize(schedule);
  }
  state.SetLabel("exact block DP");
}
BENCHMARK(BM_SaaOptimizerDp)->Arg(120)->Arg(1440)->Arg(2880)->Arg(20160)
    ->Unit(benchmark::kMillisecond);

void BM_SaaOptimizerLp(benchmark::State& state) {
  TimeSeries demand = MakeDemand(static_cast<size_t>(state.range(0)));
  SaaConfig config;
  config.pool.tau_bins = 3;
  config.pool.stableness_bins = 10;
  config.pool.max_pool_size = 200;
  config.alpha_prime = 0.3;
  auto optimizer = SaaOptimizer::Create(config);
  for (auto _ : state) {
    auto schedule = optimizer->OptimizeLp(demand);
    benchmark::DoNotOptimize(schedule);
  }
  state.SetLabel("two-phase simplex on Eqs 4-11");
}
BENCHMARK(BM_SaaOptimizerLp)->Arg(60)->Arg(120)->Unit(benchmark::kMillisecond);

// ---- SIMD microkernels ----------------------------------------------------
// Scalar vs dispatched (AVX2+FMA where the CPU has it) cost of the
// primitives the nn/linalg/SSA inner loops are built from. Arg 0 is the
// vector length (96 = one SSA window row, 1024 = a deep-model GEMM tile);
// arg 1 == 1 pins the scalar reference via ScopedForceIsa. Results are
// bit-identical between the two rows by the simd_kernels.h contract — these
// benches measure only the speed gap.

std::vector<double> KernelOperand(size_t n, double phase) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.37 * static_cast<double>(i) + phase);
  }
  return v;
}

void BM_SimdDot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> a = KernelOperand(n, 0.0);
  const std::vector<double> b = KernelOperand(n, 1.0);
  std::optional<simd::ScopedForceIsa> force;
  if (state.range(1) != 0) force.emplace(simd::IsaLevel::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
  }
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimdDot)
    ->Args({96, 1})->Args({96, 0})->Args({1024, 1})->Args({1024, 0})
    ->Unit(benchmark::kNanosecond);

void BM_SimdMulAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> src = KernelOperand(n, 0.0);
  std::vector<double> dst = KernelOperand(n, 2.0);
  std::optional<simd::ScopedForceIsa> force;
  if (state.range(1) != 0) force.emplace(simd::IsaLevel::kScalar);
  for (auto _ : state) {
    simd::MulAdd(dst.data(), src.data(), 1e-3, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimdMulAdd)
    ->Args({96, 1})->Args({96, 0})->Args({1024, 1})->Args({1024, 0})
    ->Unit(benchmark::kNanosecond);

// One Jacobi rotation of two rows (96 = one SSA-window row of A or V^T).
void BM_SimdRotate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = KernelOperand(n, 0.0);
  std::vector<double> y = KernelOperand(n, 2.0);
  const double c = std::cos(1e-3);
  const double s = std::sin(1e-3);
  std::optional<simd::ScopedForceIsa> force;
  if (state.range(1) != 0) force.emplace(simd::IsaLevel::kScalar);
  for (auto _ : state) {
    simd::Rotate(x.data(), y.data(), c, s, n);
    benchmark::DoNotOptimize(x.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimdRotate)
    ->Args({96, 1})->Args({96, 0})->Args({1024, 1})->Args({1024, 0})
    ->Unit(benchmark::kNanosecond);

// Hankel-free Gram of the SSA trajectory matrix via the sliding-diagonal
// identity: O(L*K + L^2) time, O(L^2) space, the L x K Hankel never exists.
// This is phase 1 of every SSA fit on the control loop's hot path.
void BM_HankelGram(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  TimeSeries history = MakeDemand(2880);
  const std::vector<double>& series = history.values();
  for (auto _ : state) {
    auto gram = HankelGram(series, window);
    benchmark::DoNotOptimize(gram);
  }
  state.SetLabel("sliding-diagonal identity, no L x K materialization");
}
BENCHMARK(BM_HankelGram)->Arg(96)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// The same build pinned to the scalar reference kernel: the gap to
// BM_HankelGram is the SIMD win on the first-row Dot (the O(window * K)
// term); the O(window^2) slide recurrence is scalar either way.
void BM_HankelGramScalar(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  TimeSeries history = MakeDemand(2880);
  const std::vector<double>& series = history.values();
  simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
  for (auto _ : state) {
    auto gram = HankelGram(series, window);
    benchmark::DoNotOptimize(gram);
  }
  state.SetLabel("forced-scalar reference build");
}
BENCHMARK(BM_HankelGramScalar)->Arg(96)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// Warm-refit path: slide an existing Gram forward by `shift` bins instead of
// rebuilding. Each iteration pays one window^2 copy (to keep the slide from
// compounding) plus the O(window^2 * shift) update itself.
void BM_SlideHankelGram(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  constexpr size_t kShift = 8;
  TimeSeries history = MakeDemand(2880);
  const std::vector<double>& series = history.values();
  const Matrix base = *HankelGram(
      std::vector<double>(series.begin(),
                          series.end() - static_cast<ptrdiff_t>(kShift)),
      window);
  for (auto _ : state) {
    Matrix gram = base;
    benchmark::DoNotOptimize(SlideHankelGram(gram, series, window, kShift));
  }
  state.SetLabel("shift 8: copy + incremental update");
}
BENCHMARK(BM_SlideHankelGram)->Arg(96)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

namespace {
// The eigensolver benches share one SSA-style Gram: a strong diurnal + surge
// demand window whose spectrum has a well-gapped head, the regime the
// subspace path accepts.
Matrix SsaStyleGram(size_t window) {
  TimeSeries history = MakeDemand(2880, /*seed=*/29);
  std::vector<double> y = history.values();
  const double scale = std::max(1.0, history.Max());
  for (double& v : y) v /= scale;
  auto gram = HankelGram(y, window);
  return std::move(gram).value();
}

// The Gram a live-plane SSA fit actually solves: 480 bins (the serve shape)
// of the east-medium Table-1 profile from 08:00, scaled like SsaForecaster.
// Its noise floor reaches the rank-selection energy, so the subspace path
// rejects it as head_short and every fit at this shape runs dense Jacobi.
Matrix Table1ServeGram(size_t window) {
  WorkloadConfig config =
      RegionNodeProfile(Region::kEastUs2, NodeSize::kMedium, /*seed=*/11);
  config.duration_days = 0.5;
  auto generator = DemandGenerator::Create(config);
  const size_t begin = 8 * 120;  // 08:00 at 30 s bins
  const TimeSeries history =
      generator->GenerateBinned().Slice(begin, begin + 480);
  const double scale = std::max(1.0, history.Max());
  Matrix gram = std::move(HankelGram(history.values(), window)).value();
  for (double& g : gram.data()) g *= 1.0 / (scale * scale);
  return gram;
}
}  // namespace

// Dense Jacobi, all L pairs, O(L^3) per sweep. Arg 1 picks the Gram: 0 = the
// gapped SsaStyleGram, 1 = the head_short Table1ServeGram the live tick runs.
void BM_TopEigenJacobi(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  const bool table1 = state.range(1) != 0;
  const Matrix gram = table1 ? Table1ServeGram(window) : SsaStyleGram(window);
  for (auto _ : state) {
    auto eig = SymmetricEigen(gram);
    benchmark::DoNotOptimize(eig);
  }
  state.SetLabel(table1 ? "dense Jacobi, Table-1 serve Gram"
                        : "dense Jacobi, gapped Gram");
}
BENCHMARK(BM_TopEigenJacobi)->Args({96, 0})->Args({256, 0})->Args({96, 1})
    ->Unit(benchmark::kMillisecond);

// New SSA eigensolve: block power + Rayleigh-Ritz for the top max_rank
// pairs only, O(L^2 * r) per iteration.
void BM_TopEigenSubspace(benchmark::State& state) {
  const Matrix gram = SsaStyleGram(static_cast<size_t>(state.range(0)));
  SubspaceOptions options;
  options.converge_energy = 0.995;  // SSA's rank-selection threshold
  size_t iters = 0;
  for (auto _ : state) {
    auto eig = SubspaceTopEigen(gram, 12, options);
    benchmark::DoNotOptimize(eig);
    if (eig.ok()) iters = eig->iterations;
  }
  state.SetLabel("block power + Rayleigh-Ritz, top 12+4 pairs, " +
                 std::to_string(iters) + " iters");
}
BENCHMARK(BM_TopEigenSubspace)->Arg(96)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_SsaFit(benchmark::State& state) {
  TimeSeries history = MakeDemand(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    SsaForecaster::Options options;
    options.window = 96;
    SsaForecaster ssa(options);
    benchmark::DoNotOptimize(ssa.Fit(history));
  }
}
BENCHMARK(BM_SsaFit)->Arg(720)->Arg(2880)->Unit(benchmark::kMillisecond);

// Arg(480) is the live plane's serve shape: 4 h of 30 s bins, window 96,
// horizon 48, alpha' 0.9.
void BM_SsaPlusFitAndForecast(benchmark::State& state) {
  TimeSeries history = MakeDemand(static_cast<size_t>(state.range(0)));
  ForecastParams params;
  params.window = 96;
  params.horizon = 48;
  params.alpha_prime = 0.9;
  for (auto _ : state) {
    auto forecaster = CreateForecaster(ModelKind::kSsaPlus, params);
    benchmark::DoNotOptimize((*forecaster)->Fit(history));
    auto forecast = (*forecaster)->Forecast(120);
    benchmark::DoNotOptimize(forecast);
  }
  state.SetLabel("deployed model: full retrain + 1h forecast");
}
BENCHMARK(BM_SsaPlusFitAndForecast)->Arg(480)->Arg(720)->Arg(2880)
    ->Unit(benchmark::kMillisecond);

// The corrector's share of an SSA+ refit at the serve shape: 8 anchors x 48
// steps = 384 samples, 288 trained for 60 full-batch epochs. Rows are built
// from the demand series (a one-bin-lag prediction against the next bin);
// the kernel's cost does not depend on their values.
void BM_SsaPlusCorrectorTrain(benchmark::State& state) {
  const TimeSeries history = MakeDemand(480);
  const double scale = std::max(1.0, history.Max());
  SsaPlusCorrector::Samples samples;
  for (size_t i = 1; i <= 384; ++i) {
    const double t = history.TimeAt(i);
    const double pred = history.value(i - 1) / scale;
    const double row[SsaPlusCorrector::kFeatures] = {
        pred,
        std::sin(2 * M_PI * t / 86400.0),
        std::cos(2 * M_PI * t / 86400.0),
        std::sin(2 * M_PI * std::fmod(t, 3600.0) / 3600.0),
        std::cos(2 * M_PI * std::fmod(t, 3600.0) / 3600.0),
        pred,
        static_cast<double>(i % 48) / 48.0};
    samples.Add(row, pred, history.value(i) / scale);
  }
  for (auto _ : state) {
    Rng rng(7);
    SsaPlusCorrector corrector(rng);
    corrector.Train(samples, 288, 60, 0.9);
    benchmark::DoNotOptimize(corrector.Delta(samples.row(0)));
  }
  state.SetLabel("7-4-1 corrector, 288 samples x 60 epochs");
}
BENCHMARK(BM_SsaPlusCorrectorTrain)->Unit(benchmark::kMillisecond);

void BM_EndToEndPipeline(benchmark::State& state) {
  TimeSeries history = MakeDemand(2880);
  PipelineConfig config;
  config.model = ModelKind::kSsaPlus;
  config.forecast.window = 96;
  config.forecast.horizon = 48;
  config.saa.alpha_prime = 0.3;
  config.recommendation_bins = 120;
  auto engine = RecommendationEngine::Create(config);
  for (auto _ : state) {
    auto rec = engine->Run(history);
    benchmark::DoNotOptimize(rec);
  }
  state.SetLabel("train + infer + optimize, 1-day history (paper: seconds)");
}
BENCHMARK(BM_EndToEndPipeline)->Unit(benchmark::kMillisecond);

// Cost of an instrumentation point when no ObsContext is wired: every hot
// path pays exactly this (a null check per span/timer/counter site).
void BM_ObsDisabled(benchmark::State& state) {
  ObsContext ctx;  // default: disabled
  for (auto _ : state) {
    obs::ScopedSpan span(ctx.tracer, "noop");
    obs::ScopedTimer timer(nullptr);
    benchmark::DoNotOptimize(ctx);
  }
  state.SetLabel("null span + null timer (hot-path overhead when off)");
}
BENCHMARK(BM_ObsDisabled)->Unit(benchmark::kNanosecond);

// Same instrumentation point with a live registry + tracer: span begin/end,
// histogram observe, counter increment (handles pre-fetched, as hot paths
// should).
void BM_ObsEnabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::Histogram* latency = registry.GetHistogram("bench_phase_seconds");
  obs::Counter* runs = registry.GetCounter("bench_runs_total");
  for (auto _ : state) {
    obs::ScopedSpan span(&tracer, "phase");
    obs::ScopedTimer timer(latency);
    runs->Add(1);
    benchmark::DoNotOptimize(registry);
  }
  state.SetLabel("span + histogram timer + counter (pre-fetched handles)");
}
BENCHMARK(BM_ObsEnabled)->Unit(benchmark::kNanosecond);

void BM_MaxFilter(benchmark::State& state) {
  TimeSeries demand = MakeDemand(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TimeSeries filtered = MaxFilter(demand, 20);
    benchmark::DoNotOptimize(filtered);
  }
}
BENCHMARK(BM_MaxFilter)->Arg(2880)->Arg(40320)->Unit(benchmark::kMicrosecond);

// Dispatch overhead of an empty-body ParallelFor over a pool of
// `state.range(0)` threads: group setup, chunk claiming and the final
// wake-up, with no useful work to amortize them. This is the fixed cost a
// hot path pays for fanning out — the grain heuristics in nn/linalg exist
// to keep real work far above it. Thread count 0 measures the serial-inline
// short-circuit (no pool), the floor every ParallelFor call site pays when
// parallelism is off.
void BM_ParallelForDispatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<exec::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<exec::ThreadPool>(threads);
  const exec::ExecContext exec{pool.get()};
  for (auto _ : state) {
    exec::ParallelFor(exec, 0, 1024, [](size_t lo, size_t hi) {
      // Empty body: measure dispatch, not work.
      benchmark::DoNotOptimize(lo);
      benchmark::DoNotOptimize(hi);
    });
  }
  state.SetLabel(threads == 0 ? "serial-inline short-circuit"
                              : "empty-body fan-out + join");
}
BENCHMARK(BM_ParallelForDispatch)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// The serving layer's per-frame integrity cost: CRC-32 over a request-sized
// (64 B) and a document-sized (1536 B) buffer. Crc32 runs the same
// slicing-by-8 kernel as the frame CRC every encode and decode pays.
void BM_FrameCrc(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::string bytes(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_FrameCrc)->Arg(64)->Arg(1536)->Unit(benchmark::kNanosecond);

// Encoding one GetRecommendation response carrying a document-sized payload:
// header, CRC and payload copy, as the server does once per response.
void BM_EncodeFrame(benchmark::State& state) {
  net::Frame frame;
  frame.type = net::FrameType::kResponse;
  frame.method = net::Method::kGetRecommendation;
  frame.trace_id = 0x0123456789abcdefULL;
  frame.request_id = 42;
  frame.payload.assign(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    std::string wire = net::EncodeFrame(frame);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_EncodeFrame)->Arg(1536)->Unit(benchmark::kNanosecond);

}  // namespace

BENCHMARK_MAIN();
