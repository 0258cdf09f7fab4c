#include "forecast/ssa.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "exec/scratch.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simd_kernels.h"
#include "linalg/subspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ipool {

namespace {
/// Extra subspace directions iterated beyond max_rank; the whole block is
/// cached as the next tick's warm start.
constexpr size_t kSubspaceOversample = 4;
/// Incremental Gram slides tolerated before a full rebuild is forced, to
/// bound floating-point drift of the running updates.
constexpr size_t kMaxSlidesBeforeRebuild = 16;
}  // namespace

Status SsaForecaster::Fit(const TimeSeries& history) {
  return FitImpl(history, /*allow_warm=*/false);
}

Status SsaForecaster::Refit(const TimeSeries& history) {
  return FitImpl(history, /*allow_warm=*/true);
}

Status SsaForecaster::FitImpl(const TimeSeries& history, bool allow_warm) {
  const auto fit_start = std::chrono::steady_clock::now();
  obs::MetricsRegistry* metrics = options_.obs.metrics;
  obs::Tracer* tracer = options_.obs.tracer;

  const size_t n = history.size();
  if (n < 8) {
    return Status::InvalidArgument(
        StrFormat("SSA needs at least 8 points, got %zu", n));
  }
  // Clamp the embedding window into [2, n/2].
  effective_window_ = std::clamp<size_t>(options_.window, 2, n / 2);
  const size_t len = effective_window_;
  const size_t k = n - len + 1;

  // Install the configured pool as the ambient one so the eigensolve's
  // MatMuls and the reconstruction fan out; leave a caller-installed
  // ambient pool in place when none is configured here.
  std::optional<exec::ScopedPool> ambient;
  if (options_.exec.enabled()) ambient.emplace(options_.exec);

  // Normalize for numeric stability of the eigensolve.
  scale_ = std::max(1.0, history.Max());
  std::vector<double> raw = history.values();
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = raw[i] / scale_;

  fallback_level_ = 0.0;
  for (double v : y) fallback_level_ += v;
  fallback_level_ /= static_cast<double>(n);
  use_fallback_ = false;

  SsaWarmState* warm = options_.warm != nullptr ? options_.warm : &own_warm_;
  if (!allow_warm) warm->valid = false;
  const bool geometry_match = warm->valid && warm->window == len &&
                              warm->n == n && warm->raw.size() == n &&
                              warm->interval == history.interval();

  // ---- Phase 1: Gram, raw units, Hankel-free. A refit whose window slid
  // forward over verified-identical data updates the cached Gram in place
  // (O(L^2 * shift)); everything else rebuilds via the sliding-diagonal
  // HankelGram (O(L*K + L^2)). The L x K trajectory matrix never exists.
  Matrix gram_raw;
  warm_gram_hit_ = false;
  bool gram_reused = false;
  size_t applied_shift = 0;
  {
    obs::ScopedSpan span(tracer, "ssa.gram");
    if (geometry_match && history.interval() > 0.0) {
      const double fshift =
          (history.start() - warm->start) / history.interval();
      const double rounded = std::nearbyint(fshift);
      if (rounded >= 0.0 && std::fabs(fshift - rounded) < 1e-6 &&
          rounded < static_cast<double>(n)) {
        const size_t shift = static_cast<size_t>(rounded);
        bool overlap = true;
        for (size_t i = 0; i + shift < n && overlap; ++i) {
          overlap = warm->raw[i + shift] == raw[i];
        }
        // Slide only while cheaper than a rebuild (O(L^2 * s) vs O(L * K)),
        // and rebuild periodically regardless to bound FP drift.
        const bool cheap = shift * len <= 2 * k;
        if (overlap && cheap &&
            warm->slides_since_rebuild < kMaxSlidesBeforeRebuild) {
          if (shift == 0) {
            gram_raw = std::move(warm->gram_raw);
            gram_reused = true;
          } else {
            std::vector<double> combined = std::move(warm->raw);
            combined.insert(combined.end(), raw.end() - shift, raw.end());
            gram_raw = std::move(warm->gram_raw);
            if (SlideHankelGram(gram_raw, combined, len, shift).ok()) {
              gram_reused = true;
              applied_shift = shift;
            }
          }
        }
      }
    }
    if (!gram_reused) {
      IPOOL_ASSIGN_OR_RETURN(gram_raw, HankelGram(raw, len));
    }
    warm_gram_hit_ = gram_reused;
  }

  // Scaled view for the eigensolve: HankelGram(y) == HankelGram(raw)/scale^2
  // and eigenvectors are scale-invariant, so the cached Gram survives
  // per-tick scale changes.
  const double inv_scale2 = 1.0 / (scale_ * scale_);
  Matrix gram_scaled(len, len);
  for (size_t i = 0; i < len * len; ++i) {
    gram_scaled.data()[i] = gram_raw.data()[i] * inv_scale2;
  }

  // ---- Phase 2: top-r eigensolve. Subspace iteration (warm-started from
  // the previous tick's basis when available) with the dense Jacobi solve as
  // the stall-fallback oracle.
  const size_t want = std::max<size_t>(1, std::min(options_.max_rank, len));

  // Total spectrum energy is the exact Gram trace (sum of ALL sigma^2),
  // identical on both eigensolve paths, so the rank choice never depends on
  // how many eigenpairs were extracted.
  double total_energy = 0.0;
  for (size_t i = 0; i < len; ++i) total_energy += gram_scaled(i, i);
  const auto energy_rank = [&](const std::vector<double>& vals,
                               size_t avail) {
    size_t rank = 0;
    double captured = 0.0;
    while (rank < avail && rank < options_.max_rank &&
           captured < options_.energy_threshold * total_energy) {
      captured += std::max(vals[rank], 0.0);
      ++rank;
    }
    return std::min(std::max<size_t>(rank, 1), std::max<size_t>(avail, 1));
  };

  std::vector<double> eigvals;
  Matrix eigvecs;
  fit_path_ = FitPath::kNone;
  subspace_iterations_ = 0;
  warm_basis_hit_ = false;
  {
    obs::ScopedSpan span(tracer, "ssa.eigen");
    bool solved = false;
    if (!options_.force_jacobi) {
      SubspaceOptions sopt;
      sopt.oversample = kSubspaceOversample;
      sopt.seed = options_.seed;
      // Near machine precision, not the solver default: the recurrence
      // forecast amplifies eigenvector error by orders of magnitude over a
      // recursive horizon, and downstream provisioning rounds to integers —
      // warm and cold solves must agree far below that boundary. Accepted
      // spectra are well-gapped (contraction << 1/2 per iteration), so the
      // extra digits cost only a few more block power steps.
      sopt.tol = 1e-14;
      // Rank selection below keeps components only up to energy_threshold,
      // so the eigensolve need not polish pairs past it (noise-floor
      // directions with ~unit contraction per iteration).
      sopt.converge_energy =
          std::clamp(options_.energy_threshold, 0.0, 1.0);
      const bool basis_usable = geometry_match && warm->basis.rows() == len &&
                                warm->basis.cols() > 0;
      if (basis_usable) sopt.warm_start = &warm->basis;
      Result<SubspaceEigenResult> sub =
          SubspaceTopEigen(gram_scaled, want, sopt);
      // Accept only if the residual-converged head covers every component
      // rank selection will retain. The tail past the head (a noise cluster
      // the iteration cannot split) is returned best-effort and differs
      // between warm and cold starting blocks — retaining any of it would
      // change the model vs the Jacobi reference and make refits drift from
      // cold fits. When the energy threshold reaches into that cluster the
      // dense oracle below decides, exactly as before the fast path.
      const bool converged = sub.ok() && sub->converged;
      if (converged &&
          energy_rank(sub->values,
                      std::min(sub->values.size(), sub->vectors.cols())) <=
              sub->converged_columns) {
        eigvals = std::move(sub->values);
        eigvecs = std::move(sub->vectors);
        subspace_iterations_ = sub->iterations;
        fit_path_ =
            sub->used_dense_fallback ? FitPath::kJacobi : FitPath::kSubspace;
        warm_basis_hit_ = basis_usable;
        solved = true;
      } else if (metrics != nullptr) {
        // Why the dense oracle runs: the iteration stalled (or failed), or
        // it converged but the energy-selected rank reaches past the
        // resolved head into the noise cluster.
        metrics
            ->GetCounter("ipool_ssa_subspace_rejected_total",
                         {{"reason", converged ? "head_short" : "unconverged"}})
            ->Add();
      }
    }
    if (!solved) {
      IPOOL_ASSIGN_OR_RETURN(EigenDecomposition eig,
                             SymmetricEigen(gram_scaled));
      eigvals = std::move(eig.values);
      eigvecs = std::move(eig.vectors);
      fit_path_ = FitPath::kJacobi;
    }
  }

  // Pick rank: top components until the energy threshold, capped.
  const size_t avail = std::min(eigvals.size(), eigvecs.cols());
  const size_t rank = energy_rank(eigvals, avail);
  chosen_rank_ = rank;

  // ---- Phase 3: rank-major Hankel-free reconstruction. With u_r the left
  // singular vectors, sigma_r u_r v_r^T == u_r w_r^T for w_r = H^T u_r, and
  // w_r[j] = sum_i y[i+j] u_r[i] needs only the series. Diagonal averaging
  // then reads W back per output bin. Both loops fan out over the ambient
  // pool; every element is computed independently in a fixed r-then-i
  // order, so results are bit-identical at any thread count (the PR-2
  // determinism contract).
  {
    obs::ScopedSpan span(tracer, "ssa.reconstruct");
    Matrix w(rank, k);
    exec::ParallelFor(
        exec::Current(), 0, rank,
        [&](size_t lo, size_t hi) {
          // Column gather reuses per-thread scratch across chunk iterations.
          exec::ScratchScope scratch;
          double* u = scratch.Doubles(len);
          for (size_t r = lo; r < hi; ++r) {
            for (size_t i = 0; i < len; ++i) u[i] = eigvecs(i, r);
            double* wrow = w.data().data() + r * k;
            for (size_t j = 0; j < k; ++j) {
              wrow[j] = simd::Dot(y.data() + j, u, len);
            }
          }
        },
        {exec::Chunking::kDynamic, 1});
    reconstruction_.assign(n, 0.0);
    const size_t eig_cols = eigvecs.cols();
    const double* eig_data = eigvecs.data().data();
    const double* w_data = w.data().data();
    exec::ParallelFor(
        exec::Current(), 0, n,
        [&](size_t lo, size_t hi) {
          for (size_t d = lo; d < hi; ++d) {
            const size_t i0 = d >= k ? d - k + 1 : 0;
            const size_t i1 = std::min(len - 1, d);
            // Anti-diagonal d pairs the eigvec column (strided, row-major)
            // with the W row walked backwards from d - i0 — the
            // StridedRevDot shape, vectorized as gather + reversed load.
            const size_t span = i1 - i0 + 1;
            double acc = 0.0;
            for (size_t r = 0; r < rank; ++r) {
              acc += simd::StridedRevDot(eig_data + i0 * eig_cols + r,
                                         eig_cols,
                                         w_data + r * k + (d - i0), span);
            }
            reconstruction_[d] =
                (acc / static_cast<double>(span)) * scale_;
          }
        },
        {exec::Chunking::kDynamic, 64});
  }

  // ---- Phase 4: linear recurrence from the left singular vectors:
  // R = (1 / (1 - nu^2)) * sum_r pi_r * P_r^flat, with pi_r the last
  // coordinate of u_r and P_r^flat its first L-1 coordinates.
  {
    obs::ScopedSpan span(tracer, "ssa.recurrence");
    double nu2 = 0.0;
    for (size_t r = 0; r < rank; ++r) {
      const double pi = eigvecs(len - 1, r);
      nu2 += pi * pi;
    }
    if (nu2 >= 1.0 - 1e-9) {
      // Degenerate recurrence (the series is essentially captured by the
      // last embedding coordinate); fall back to level forecasting rather
      // than emit garbage — the robustness guardrail of §7.5 in miniature.
      use_fallback_ = true;
      recurrence_.clear();
    } else {
      recurrence_.assign(len - 1, 0.0);
      for (size_t r = 0; r < rank; ++r) {
        const double pi = eigvecs(len - 1, r);
        if (pi == 0.0) continue;
        for (size_t i = 0; i + 1 < len; ++i) {
          recurrence_[i] += pi * eigvecs(i, r);
        }
      }
      const double inv = 1.0 / (1.0 - nu2);
      for (double& c : recurrence_) c *= inv;
    }
  }
  fitted_ = true;

  // ---- Warm-state write-back (always, even on the fallback path): the
  // next Refit starts from this tick's Gram and singular subspace.
  const size_t keep = std::min(eigvecs.cols(), want + kSubspaceOversample);
  Matrix basis(len, keep);
  for (size_t c = 0; c < keep; ++c) {
    for (size_t i = 0; i < len; ++i) basis(i, c) = eigvecs(i, c);
  }
  warm->window = len;
  warm->n = n;
  warm->start = history.start();
  warm->interval = history.interval();
  warm->raw = std::move(raw);
  warm->gram_raw = std::move(gram_raw);
  warm->basis = std::move(basis);
  warm->slides_since_rebuild =
      gram_reused ? warm->slides_since_rebuild + (applied_shift > 0 ? 1 : 0)
                  : 0;
  warm->valid = true;

  if (metrics != nullptr) {
    const char* path =
        fit_path_ == FitPath::kSubspace ? "subspace" : "jacobi";
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      fit_start)
            .count();
    metrics->GetHistogram("ipool_ssa_fit_seconds", {{"path", path}})
        ->Observe(seconds);
    if (fit_path_ == FitPath::kSubspace) {
      metrics
          ->GetHistogram("ipool_ssa_subspace_iters", {},
                         {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96})
          ->Observe(static_cast<double>(subspace_iterations_));
    }
    if (warm_basis_hit_ || warm_gram_hit_) {
      metrics->GetCounter("ipool_ssa_warm_start_hits_total")->Add();
    }
    if (warm_gram_hit_) {
      metrics->GetCounter("ipool_ssa_gram_reuse_total")->Add();
    }
  }
  return Status::OK();
}

Result<std::vector<double>> SsaForecaster::Forecast(size_t horizon) {
  if (!fitted_) return Status::FailedPrecondition("SSA not fitted");
  if (horizon == 0) return std::vector<double>{};

  std::vector<double> out;
  out.reserve(horizon);
  if (use_fallback_) {
    out.assign(horizon, std::max(0.0, fallback_level_ * scale_));
    return out;
  }

  const size_t len = effective_window_;
  // Rolling buffer of the last L-1 values in scaled units.
  std::vector<double> tail(len - 1);
  const size_t n = reconstruction_.size();
  for (size_t i = 0; i < len - 1; ++i) {
    tail[i] = reconstruction_[n - (len - 1) + i] / scale_;
  }
  for (size_t h = 0; h < horizon; ++h) {
    double next = 0.0;
    for (size_t i = 0; i + 1 < len; ++i) next += recurrence_[i] * tail[i];
    // Guard against numerical blow-up of an unstable recurrence: clamp to a
    // generous multiple of the observed range.
    next = std::clamp(next, -10.0, 10.0);
    out.push_back(std::max(0.0, next * scale_));
    std::rotate(tail.begin(), tail.begin() + 1, tail.end());
    tail.back() = next;
  }
  return out;
}

}  // namespace ipool
