#include "forecast/models.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "linalg/simd_kernels.h"
#include "nn/optimizer.h"

namespace ipool {

namespace {
constexpr double kSecondsPerDay = 86400.0;
}

// ---- NoIntelligenceForecaster ----------------------------------------------

Status NoIntelligenceForecaster::Fit(const TimeSeries& history) {
  if (history.empty()) return Status::InvalidArgument("empty history");
  if (gamma_ <= 0.0) return Status::InvalidArgument("gamma must be positive");
  level_ = gamma_ * history.Max();
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> NoIntelligenceForecaster::Forecast(
    size_t horizon) {
  if (!fitted_) return Status::FailedPrecondition("baseline not fitted");
  return std::vector<double>(horizon, std::max(0.0, level_));
}

// ---- MwdnForecaster ----------------------------------------------------------

void MwdnForecaster::BuildModel(Rng& rng) {
  levels_.clear();
  band_rnns_.clear();
  for (size_t i = 0; i < kLevels; ++i) {
    levels_.push_back(std::make_unique<nn::WaveletLevel>(rng));
  }
  // One LSTM per frequency band (detail of each level + final
  // approximation), as in the original mWDN, plus a skip connection from
  // the recent raw window (the sigmoid-squashed wavelet coefficients lose
  // absolute level, which the skip restores).
  for (size_t i = 0; i < kLevels + 1; ++i) {
    band_rnns_.push_back(std::make_unique<nn::Lstm>(1, kBandHidden, rng));
  }
  const size_t w = params().window;
  skip_dim_ = std::min<size_t>(24, w);
  feature_dim_ = (kLevels + 1) * kBandHidden + skip_dim_;
  const size_t hidden = 32;
  head1_ = std::make_unique<nn::Dense>(feature_dim_, hidden, rng);
  head2_ = std::make_unique<nn::Dense>(hidden, params().horizon, rng);
}

nn::Tensor MwdnForecaster::ForwardWindow(const nn::Tensor& input) const {
  nn::Tensor x = nn::Reshape(input, {1, input.size()});
  nn::Tensor features;
  for (size_t i = 0; i < kLevels; ++i) {
    auto level = levels_[i]->Forward(x);
    // Detail band -> sequence {len, 1} -> LSTM final hidden.
    nn::Tensor detail_seq =
        nn::Reshape(level.detail, {level.detail.cols(), 1});
    nn::Tensor band = band_rnns_[i]->ForwardSequence(detail_seq);
    features = i == 0 ? band : nn::ConcatVec(features, band);
    x = level.approximation;
    if (i + 1 == kLevels) {
      nn::Tensor approx_seq = nn::Reshape(x, {x.cols(), 1});
      features = nn::ConcatVec(
          features, band_rnns_[kLevels]->ForwardSequence(approx_seq));
    }
  }
  nn::Tensor skip =
      nn::SliceVec(input, input.size() - skip_dim_, input.size());
  features = nn::ConcatVec(features, skip);
  nn::Tensor hidden = nn::Relu(head1_->Forward(features));
  return head2_->Forward(hidden);
}

std::vector<nn::Tensor> MwdnForecaster::ModelParameters() const {
  std::vector<nn::Tensor> params;
  for (const auto& level : levels_) {
    auto p = level->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const auto& rnn : band_rnns_) {
    auto p = rnn->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const nn::Dense* d : {head1_.get(), head2_.get()}) {
    auto p = d->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

// ---- TstForecaster -----------------------------------------------------------

void TstForecaster::BuildModel(Rng& rng) {
  input_proj_ = std::make_unique<nn::Dense>(1, kDModel, rng);
  blocks_.clear();
  for (int i = 0; i < 2; ++i) {
    blocks_.push_back(
        std::make_unique<nn::TransformerBlock>(kDModel, kHeads, kFfDim, rng));
  }
  head_ = std::make_unique<nn::Dense>(kDModel, params().horizon, rng);
  positional_ = nn::SinusoidalPositionalEncoding(params().window, kDModel);
}

nn::Tensor TstForecaster::ForwardWindow(const nn::Tensor& input) const {
  const size_t w = input.size();
  nn::Tensor steps = nn::Reshape(input, {w, 1});
  nn::Tensor embedded = input_proj_->ForwardRows(steps);  // {w, d}
  embedded = nn::Add(embedded, positional_);
  for (const auto& block : blocks_) embedded = block->Forward(embedded);
  // Mean over time steps: transpose to {d, w}, average each row.
  nn::Tensor pooled = nn::MeanRows(nn::Transpose(embedded));  // {d}
  return head_->Forward(pooled);
}

std::vector<nn::Tensor> TstForecaster::ModelParameters() const {
  std::vector<nn::Tensor> params = input_proj_->Parameters();
  for (const auto& block : blocks_) {
    auto p = block->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  auto p = head_->Parameters();
  params.insert(params.end(), p.begin(), p.end());
  return params;
}

// ---- InceptionTimeForecaster -------------------------------------------------

void InceptionTimeForecaster::BuildModel(Rng& rng) {
  blocks_.clear();
  const size_t channels = 4 * kFilters;
  for (int i = 0; i < 2; ++i) {
    InceptionBlock block;
    const size_t c_in = i == 0 ? 1 : channels;
    size_t branch_in = c_in;
    if (i > 0) {
      // Bottleneck keeps the parameter count down (as in InceptionTime).
      block.bottleneck = std::make_unique<nn::Conv1d>(c_in, kFilters, 1, rng);
      branch_in = kFilters;
    }
    block.conv_small = std::make_unique<nn::Conv1d>(branch_in, kFilters, 9, rng);
    block.conv_mid = std::make_unique<nn::Conv1d>(branch_in, kFilters, 19, rng);
    block.conv_large = std::make_unique<nn::Conv1d>(branch_in, kFilters, 39, rng);
    block.pool_proj = std::make_unique<nn::Conv1d>(c_in, kFilters, 1, rng);
    blocks_.push_back(std::move(block));
  }
  head_ = std::make_unique<nn::Dense>(channels, params().horizon, rng);
}

nn::Tensor InceptionTimeForecaster::ForwardBlock(const InceptionBlock& block,
                                                 const nn::Tensor& x) const {
  nn::Tensor branch_in = x;
  if (block.bottleneck) branch_in = block.bottleneck->Forward(x);
  nn::Tensor small = block.conv_small->Forward(branch_in);
  nn::Tensor mid = block.conv_mid->Forward(branch_in);
  nn::Tensor large = block.conv_large->Forward(branch_in);
  nn::Tensor pooled = block.pool_proj->Forward(nn::MaxPool1dSame(x, 3));
  nn::Tensor merged = nn::ConcatRows(nn::ConcatRows(small, mid),
                                     nn::ConcatRows(large, pooled));
  return nn::Relu(merged);
}

nn::Tensor InceptionTimeForecaster::ForwardWindow(
    const nn::Tensor& input) const {
  nn::Tensor x = nn::Reshape(input, {1, input.size()});
  for (const auto& block : blocks_) x = ForwardBlock(block, x);
  nn::Tensor pooled = nn::MeanRows(x);  // global average pooling -> {channels}
  return head_->Forward(pooled);
}

std::vector<nn::Tensor> InceptionTimeForecaster::ModelParameters() const {
  std::vector<nn::Tensor> params;
  auto absorb = [&params](const nn::Conv1d* conv) {
    if (conv == nullptr) return;
    auto p = conv->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  for (const auto& block : blocks_) {
    absorb(block.bottleneck.get());
    absorb(block.conv_small.get());
    absorb(block.conv_mid.get());
    absorb(block.conv_large.get());
    absorb(block.pool_proj.get());
  }
  auto p = head_->Parameters();
  params.insert(params.end(), p.begin(), p.end());
  return params;
}

// ---- SsaPlusCorrector --------------------------------------------------------

namespace {
constexpr double kCorrectorLearningRate = 0.03;

std::vector<nn::Tensor> InitCorrectorParameters(Rng& rng) {
  const nn::Dense hidden(SsaPlusCorrector::kFeatures, SsaPlusCorrector::kHidden,
                         rng);
  const nn::Dense output(SsaPlusCorrector::kHidden, 1, rng);
  return nn::CollectParameters({&hidden, &output});
}
}  // namespace

void SsaPlusCorrector::Samples::Add(const double* row, double ssa_pred_scaled,
                                    double truth_scaled) {
  features.insert(features.end(), row, row + kFeatures);
  ssa_pred.push_back(ssa_pred_scaled);
  truth.push_back(truth_scaled);
}

SsaPlusCorrector::SsaPlusCorrector(Rng& rng)
    : params_(InitCorrectorParameters(rng)) {
  PackHidden();
}

void SsaPlusCorrector::PackHidden() {
  const double* w1 = params_[0].value().data();
  for (size_t kk = 0; kk < kFeatures; ++kk) {
    for (size_t j = 0; j < kHidden; ++j) {
      w1t_[j * kFeatures + kk] = w1[kk * kHidden + j];
    }
  }
}

double SsaPlusCorrector::Forward(const double* features, double* hidden) const {
  const double* b1 = params_[1].value().data();
  for (size_t j = 0; j < kHidden; ++j) {
    const double pre =
        simd::Dot(features, w1t_.data() + j * kFeatures, kFeatures) + b1[j];
    hidden[j] = pre > 0.0 ? pre : 0.0;
  }
  return simd::Dot(hidden, params_[2].value().data(), kHidden) +
         params_[3].value()[0];
}

double SsaPlusCorrector::Delta(const double* features) const {
  double hidden[kHidden];
  return Forward(features, hidden);
}

void SsaPlusCorrector::Train(const Samples& samples, size_t num_train,
                             size_t epochs, double alpha_prime) {
  nn::Adam adam(params_, kCorrectorLearningRate);
  const double inv = 1.0 / static_cast<double>(num_train);
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    adam.ZeroGrad();
    PackHidden();
    const double* w2 = params_[2].value().data();
    double* gw1 = params_[0].mutable_grad().data();
    double* gb1 = params_[1].mutable_grad().data();
    double* gw2 = params_[2].mutable_grad().data();
    double* gb2 = params_[3].mutable_grad().data();
    for (size_t i = 0; i < num_train; ++i) {
      const double* x = samples.row(i);
      double hidden[kHidden];
      const double corrected = Forward(x, hidden) + samples.ssa_pred[i];
      const double diff = samples.truth[i] - corrected;
      // Eq 12 backward in the autograd's order: the overshoot branch
      // (Relu(-diff), weight 1 - alpha') lands before the undershoot branch
      // (Relu(diff), weight alpha'). Sub negates it for the prediction; the
      // AddScalar / RowBroadcastAdd / Reshape hops pass it through. (Their
      // 0 + g seeds only normalize the sign of a zero, which no parameter
      // gradient can observe: every accumulator starts at +0.)
      const double g_diff = (1.0 - alpha_prime) * (diff < 0.0 ? 1.0 : 0.0) *
                                -1.0 +
                            alpha_prime * (diff > 0.0 ? 1.0 : 0.0);
      const double g_out = -g_diff;
      gb2[0] += g_out;
      // Output MatMul backward (n = 1, so its length-1 Dot and MulAdd are one
      // multiply each): dW2 skips zero activations, and Relu passes the
      // hidden gradient only where the unit fired.
      double g_pre[kHidden];
      for (size_t j = 0; j < kHidden; ++j) {
        g_pre[j] = 0.0;
        if (hidden[j] == 0.0) continue;
        gw2[j] += hidden[j] * g_out;
        g_pre[j] = g_out * w2[j];
      }
      // Hidden RowBroadcastAdd + MatMul backward: dB1 += g, dW1 row kk +=
      // x[kk] * g, skipping zero features as MatMulBackward does.
      for (size_t j = 0; j < kHidden; ++j) gb1[j] += g_pre[j];
      for (size_t kk = 0; kk < kFeatures; ++kk) {
        if (x[kk] == 0.0) continue;
        simd::MulAdd(gw1 + kk * kHidden, g_pre, x[kk], kHidden);
      }
    }
    for (nn::Tensor& p : params_) {
      for (double& g : p.mutable_grad()) g *= inv;
    }
    adam.Step();
  }
  PackHidden();
}

// ---- SsaPlusForecaster -------------------------------------------------------

void SsaPlusForecaster::Features(double ssa_pred_scaled,
                                 double time_of_day_fraction,
                                 double time_of_hour_fraction,
                                 double recent_level_scaled,
                                 double step_fraction, double* row) {
  row[0] = ssa_pred_scaled;
  row[1] = std::sin(2 * M_PI * time_of_day_fraction);
  row[2] = std::cos(2 * M_PI * time_of_day_fraction);
  row[3] = std::sin(2 * M_PI * time_of_hour_fraction);
  row[4] = std::cos(2 * M_PI * time_of_hour_fraction);
  row[5] = recent_level_scaled;
  row[6] = step_fraction;
}

size_t SsaPlusForecaster::corrector_parameter_count() const {
  size_t count = 0;
  if (corrector_) {
    for (const nn::Tensor& p : corrector_->Parameters()) count += p.size();
  }
  return count;
}

Status SsaPlusForecaster::Fit(const TimeSeries& history) {
  return FitImpl(history, /*warm=*/false);
}

Status SsaPlusForecaster::Refit(const TimeSeries& history) {
  return FitImpl(history, /*warm=*/true);
}

Status SsaPlusForecaster::FitImpl(const TimeSeries& history, bool warm) {
  IPOOL_RETURN_NOT_OK(params_.Validate());
  const size_t n = history.size();
  if (n < 64) {
    return Status::InvalidArgument(
        StrFormat("SSA+ needs at least 64 points, got %zu", n));
  }
  scale_ = std::max(1.0, history.Max());
  interval_seconds_ = history.interval();
  history_end_time_ =
      history.start() + history.interval() * static_cast<double>(n);

  // Collect (ssa prediction, truth, time-of-day) triples by fitting SSA on
  // growing prefixes and forecasting the next chunk — the residuals teach
  // the corrector the systematic over/undershoot of SSA on this workload.
  // Anchor-prefix fits are throwaway probes over varying geometries: they
  // run cold and never touch the cross-tick warm state (which the final
  // full-history fit below owns).
  SsaForecaster::Options ssa_options;
  ssa_options.window = params_.window;
  ssa_options.max_rank = params_.ssa_rank;
  ssa_options.seed = params_.seed;
  ssa_options.exec = params_.exec;

  SsaPlusCorrector::Samples samples;
  constexpr size_t kAnchors = 8;
  const size_t first_anchor = std::max<size_t>(n / 2, 32);
  const size_t chunk = std::min(params_.horizon, n / 10 + 1);
  for (size_t a = 0; a < kAnchors; ++a) {
    const size_t anchor =
        first_anchor + a * std::max<size_t>(1, (n - first_anchor - chunk) /
                                                   std::max<size_t>(1, kAnchors - 1));
    if (anchor + 1 >= n) break;
    SsaForecaster ssa(ssa_options);
    Status fit = ssa.Fit(history.Slice(0, anchor));
    if (!fit.ok()) continue;
    const size_t steps = std::min(chunk, n - anchor);
    auto forecast = ssa.Forecast(steps);
    if (!forecast.ok()) continue;
    // Demand level over the window preceding the anchor, known at forecast
    // time.
    const size_t lookback = std::min<size_t>(anchor, 20);
    double recent = 0.0;
    for (size_t b = anchor - lookback; b < anchor; ++b) {
      recent += history.value(b);
    }
    recent /= static_cast<double>(std::max<size_t>(1, lookback)) * scale_;
    for (size_t i = 0; i < steps; ++i) {
      const double t = history.TimeAt(anchor + i);
      const double tod = std::fmod(t, kSecondsPerDay) / kSecondsPerDay;
      const double toh = std::fmod(t, 3600.0) / 3600.0;
      const double ssa_pred_scaled = (*forecast)[i] / scale_;
      double row[SsaPlusCorrector::kFeatures];
      Features(ssa_pred_scaled, tod, toh, recent,
               static_cast<double>(i) /
                   static_cast<double>(std::max<size_t>(1, steps)),
               row);
      samples.Add(row, ssa_pred_scaled, history.value(anchor + i) / scale_);
    }
  }
  if (samples.size() == 0) {
    return Status::Internal("SSA+ could not assemble corrector samples");
  }

  // The trailing 25% of samples are held out to validate that the learned
  // correction actually helps; if it does not, the correction is disabled
  // and SSA+ degrades gracefully to plain SSA (a §7.5-style guardrail).
  Rng rng(params_.seed);
  corrector_.emplace(rng);
  const size_t num_train = std::max<size_t>(1, samples.size() * 3 / 4);
  corrector_->Train(samples, num_train, std::max<size_t>(params_.epochs * 5, 60),
                    params_.alpha_prime);

  // Validation gate over the held-out tail.
  double corrected_loss = 0.0;
  double raw_loss = 0.0;
  size_t num_val = 0;
  for (size_t i = num_train; i < samples.size(); ++i) {
    const double truth = samples.truth[i];
    auto pinball = [&](double pred) {
      const double diff = truth - pred;
      return diff > 0 ? params_.alpha_prime * diff
                      : -(1.0 - params_.alpha_prime) * diff;
    };
    corrected_loss +=
        pinball(samples.ssa_pred[i] + corrector_->Delta(samples.row(i)));
    raw_loss += pinball(samples.ssa_pred[i]);
    ++num_val;
  }
  // Engage the correction only when it beats raw SSA by a clear margin on
  // held-out data; marginal corrections are noise and are dropped.
  use_corrector_ = num_val > 0 && corrected_loss <= 0.97 * raw_loss;

  // Final SSA over the full history for inference, plus the recent level
  // feature frozen at the end of the history. This fit carries the warm
  // state: a Refit of the hybrid reuses the previous tick's SSA training
  // state here (the corrector is tiny and always retrains from scratch).
  SsaForecaster::Options final_options = ssa_options;
  final_options.warm = params_.ssa_warm;
  final_options.obs = params_.obs;
  ssa_.emplace(final_options);
  IPOOL_RETURN_NOT_OK(warm ? ssa_->Refit(history) : ssa_->Fit(history));
  const size_t lookback = std::min<size_t>(n, 20);
  recent_level_scaled_ = 0.0;
  for (size_t b = n - lookback; b < n; ++b) {
    recent_level_scaled_ += history.value(b);
  }
  recent_level_scaled_ /= static_cast<double>(lookback) * scale_;
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> SsaPlusForecaster::Forecast(size_t horizon) {
  if (!fitted_) return Status::FailedPrecondition("SSA+ not fitted");
  IPOOL_ASSIGN_OR_RETURN(std::vector<double> base, ssa_->Forecast(horizon));
  if (!use_corrector_) {
    return base;
  }
  std::vector<double> out(horizon);
  for (size_t i = 0; i < horizon; ++i) {
    const double t =
        history_end_time_ + interval_seconds_ * static_cast<double>(i);
    const double tod = std::fmod(t, kSecondsPerDay) / kSecondsPerDay;
    const double toh = std::fmod(t, 3600.0) / 3600.0;
    double row[SsaPlusCorrector::kFeatures];
    Features(base[i] / scale_, tod, toh, recent_level_scaled_,
             static_cast<double>(i) /
                 static_cast<double>(std::max<size_t>(1, horizon)),
             row);
    out[i] = std::max(0.0, base[i] + corrector_->Delta(row) * scale_);
  }
  return out;
}

// ---- factory -----------------------------------------------------------------

std::string ModelKindToString(ModelKind kind) {
  switch (kind) {
    case ModelKind::kBaseline:
      return "Baseline";
    case ModelKind::kSsa:
      return "SSA";
    case ModelKind::kSsaPlus:
      return "SSA+";
    case ModelKind::kMwdn:
      return "mWDN";
    case ModelKind::kTst:
      return "TST";
    case ModelKind::kInceptionTime:
      return "IncpT";
  }
  return "Unknown";
}

Result<ModelKind> ModelKindFromString(const std::string& name) {
  for (ModelKind kind :
       {ModelKind::kBaseline, ModelKind::kSsa, ModelKind::kSsaPlus,
        ModelKind::kMwdn, ModelKind::kTst, ModelKind::kInceptionTime}) {
    if (name == ModelKindToString(kind)) return kind;
  }
  return Status::InvalidArgument("unknown model kind: " + name);
}

Result<std::unique_ptr<Forecaster>> CreateForecaster(
    ModelKind kind, const ForecastParams& params) {
  IPOOL_RETURN_NOT_OK(params.Validate());
  switch (kind) {
    case ModelKind::kBaseline:
      return std::unique_ptr<Forecaster>(
          new NoIntelligenceForecaster(params.gamma));
    case ModelKind::kSsa: {
      SsaForecaster::Options options;
      options.window = params.window;
      options.max_rank = params.ssa_rank;
      options.seed = params.seed;
      options.warm = params.ssa_warm;
      options.obs = params.obs;
      options.exec = params.exec;
      return std::unique_ptr<Forecaster>(new SsaForecaster(options));
    }
    case ModelKind::kSsaPlus:
      return std::unique_ptr<Forecaster>(new SsaPlusForecaster(params));
    case ModelKind::kMwdn:
      return std::unique_ptr<Forecaster>(new MwdnForecaster(params));
    case ModelKind::kTst:
      return std::unique_ptr<Forecaster>(new TstForecaster(params));
    case ModelKind::kInceptionTime:
      return std::unique_ptr<Forecaster>(new InceptionTimeForecaster(params));
  }
  return Status::InvalidArgument("unknown model kind");
}

}  // namespace ipool
