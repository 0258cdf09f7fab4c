#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simd_kernels.h"
#include "linalg/subspace.h"
#include "workload/demand_generator.h"

namespace ipool {
namespace {

TEST(MatrixTest, FromRowMajorValidatesSize) {
  EXPECT_FALSE(Matrix::FromRowMajor(2, 2, {1, 2, 3}).ok());
  auto m = Matrix::FromRowMajor(2, 2, {1, 2, 3, 4});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)(0, 1), 2.0);
  EXPECT_DOUBLE_EQ((*m)(1, 0), 3.0);
}

TEST(MatrixTest, IdentityAndTranspose) {
  Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);

  auto m = *Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, MatMul) {
  auto a = *Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  auto b = *Matrix::FromRowMajor(3, 2, {7, 8, 9, 10, 11, 12});
  auto c = MatMul(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ((*c)(0, 0), 58.0);
  EXPECT_DOUBLE_EQ((*c)(0, 1), 64.0);
  EXPECT_DOUBLE_EQ((*c)(1, 0), 139.0);
  EXPECT_DOUBLE_EQ((*c)(1, 1), 154.0);
}

TEST(MatrixTest, MatMulRejectsMismatch) {
  EXPECT_FALSE(MatMul(Matrix(2, 3), Matrix(2, 3)).ok());
}

TEST(MatrixTest, MatVec) {
  auto a = *Matrix::FromRowMajor(2, 2, {1, 2, 3, 4});
  auto y = MatVec(a, {5, 6});
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)[0], 17.0);
  EXPECT_DOUBLE_EQ((*y)[1], 39.0);
  EXPECT_FALSE(MatVec(a, {1, 2, 3}).ok());
}

TEST(MatrixTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
}

TEST(HankelTest, Layout) {
  auto h = HankelMatrix({1, 2, 3, 4, 5}, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->rows(), 3u);
  EXPECT_EQ(h->cols(), 3u);
  EXPECT_DOUBLE_EQ((*h)(0, 0), 1.0);
  EXPECT_DOUBLE_EQ((*h)(2, 2), 5.0);
  EXPECT_DOUBLE_EQ((*h)(1, 1), 3.0);
}

TEST(HankelTest, RejectsBadWindow) {
  EXPECT_FALSE(HankelMatrix({1, 2}, 0).ok());
  EXPECT_FALSE(HankelMatrix({1, 2}, 3).ok());
}

TEST(HankelGramTest, MatchesExplicitProduct) {
  Rng rng(17);
  std::vector<double> series(23);
  for (double& v : series) v = rng.Uniform(-2, 2);
  const size_t window = 7;
  auto gram = HankelGram(series, window);
  ASSERT_TRUE(gram.ok());
  auto h = *HankelMatrix(series, window);
  auto reference = *MatMul(h, h.Transpose());
  for (size_t i = 0; i < window; ++i) {
    for (size_t j = 0; j < window; ++j) {
      EXPECT_NEAR((*gram)(i, j), reference(i, j), 1e-10) << i << "," << j;
      EXPECT_DOUBLE_EQ((*gram)(i, j), (*gram)(j, i));
    }
  }
}

TEST(HankelGramTest, RejectsBadWindow) {
  EXPECT_FALSE(HankelGram({1, 2}, 0).ok());
  EXPECT_FALSE(HankelGram({1, 2}, 3).ok());
}

TEST(HankelGramTest, SlideMatchesRebuild) {
  Rng rng(91);
  std::vector<double> combined(40);
  for (double& v : combined) v = rng.Uniform(-1, 3);
  const size_t window = 6;
  for (size_t shift : {size_t{1}, size_t{3}, size_t{7}}) {
    const size_t n = combined.size() - shift;
    std::vector<double> old_series(combined.begin(),
                                   combined.begin() + static_cast<ptrdiff_t>(n));
    std::vector<double> new_series(combined.begin() + static_cast<ptrdiff_t>(shift),
                                   combined.end());
    Matrix gram = *HankelGram(old_series, window);
    ASSERT_TRUE(SlideHankelGram(gram, combined, window, shift).ok());
    Matrix rebuilt = *HankelGram(new_series, window);
    for (size_t i = 0; i < window; ++i) {
      for (size_t j = 0; j < window; ++j) {
        EXPECT_NEAR(gram(i, j), rebuilt(i, j), 1e-9)
            << "shift " << shift << " @" << i << "," << j;
      }
    }
  }
}

TEST(HankelGramTest, SlideValidatesShapes) {
  Matrix gram(4, 4);
  EXPECT_FALSE(SlideHankelGram(gram, {1, 2, 3}, 6, 1).ok());
  Matrix wrong(3, 4);
  EXPECT_FALSE(
      SlideHankelGram(wrong, {1, 2, 3, 4, 5, 6, 7, 8}, 4, 1).ok());
}

TEST(SubspaceTest, MatchesJacobiOnRandomPsd) {
  Rng rng(7);
  const size_t n = 24;
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.Uniform(-1, 1);
  Matrix a = *MatMul(b, b.Transpose());  // symmetric PSD
  const size_t want = 5;
  auto sub = SubspaceTopEigen(a, want);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->converged);
  EXPECT_FALSE(sub->used_dense_fallback);
  auto jac = *SymmetricEigen(a);
  for (size_t i = 0; i < want; ++i) {
    EXPECT_NEAR(sub->values[i], jac.values[i],
                1e-7 * std::max(1.0, std::fabs(jac.values[i])))
        << "eigenvalue " << i;
    // Eigenvectors match up to sign.
    double dot = 0.0;
    for (size_t r = 0; r < n; ++r) dot += sub->vectors(r, i) * jac.vectors(r, i);
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-5) << "eigenvector " << i;
  }
}

TEST(SubspaceTest, RankDeficientMatrix) {
  // Rank-2 PSD matrix of size 16: the wanted block is wider than the rank.
  Rng rng(13);
  const size_t n = 16;
  Matrix b(n, 2);
  for (auto& v : b.data()) v = rng.Uniform(-1, 1);
  Matrix a = *MatMul(b, b.Transpose());
  auto sub = SubspaceTopEigen(a, 5);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->converged);
  auto jac = *SymmetricEigen(a);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(sub->values[i], jac.values[i], 1e-8 * std::max(1.0, jac.values[0]));
  }
  // Trailing eigenvalues are (numerically) zero.
  EXPECT_NEAR(sub->values[2], 0.0, 1e-8 * std::max(1.0, jac.values[0]));
}

TEST(SubspaceTest, NearDegenerateSpectrum) {
  // Two leading eigenvalues separated by 1e-9: the subspace they span is
  // well-conditioned even though the individual vectors are not.
  const size_t n = 12;
  Rng rng(29);
  // Random orthogonal basis via Gram matrix eigenvectors.
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.Uniform(-1, 1);
  auto basis = (*SymmetricEigen(*MatMul(b, b.Transpose()))).vectors;
  std::vector<double> spectrum = {2.0, 2.0 - 1e-9, 1.0, 0.5, 0.25,
                                  0.1, 0.05, 0.01, 0.005, 0.001, 0.0005, 0.0};
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < n; ++k) {
        acc += basis(i, k) * spectrum[k] * basis(j, k);
      }
      a(i, j) = acc;
    }
  }
  auto sub = SubspaceTopEigen(a, 4);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->converged);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(sub->values[i], spectrum[i], 1e-7);
  }
  // The degenerate pair's 2-D Ritz subspace matches the planted one: the
  // projection of each Ritz vector onto span{basis_0, basis_1} has unit
  // norm even if the individual vectors rotated within the plane.
  for (size_t i = 0; i < 2; ++i) {
    double p0 = 0.0;
    double p1 = 0.0;
    for (size_t r = 0; r < n; ++r) {
      p0 += sub->vectors(r, i) * basis(r, 0);
      p1 += sub->vectors(r, i) * basis(r, 1);
    }
    EXPECT_NEAR(p0 * p0 + p1 * p1, 1.0, 1e-5) << "Ritz vector " << i;
  }
}

TEST(SubspaceTest, DenseFallbackOnTinyMatrix) {
  auto a = *Matrix::FromRowMajor(2, 2, {2, 1, 1, 2});
  auto sub = SubspaceTopEigen(a, 2);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->used_dense_fallback);
  EXPECT_TRUE(sub->converged);
  EXPECT_NEAR(sub->values[0], 3.0, 1e-10);
  EXPECT_NEAR(sub->values[1], 1.0, 1e-10);
}

TEST(SubspaceTest, DeterministicGivenSeed) {
  Rng rng(55);
  const size_t n = 20;
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.Uniform(-1, 1);
  Matrix a = *MatMul(b, b.Transpose());
  auto first = SubspaceTopEigen(a, 4);
  auto second = SubspaceTopEigen(a, 4);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->iterations, second->iterations);
  ASSERT_EQ(first->values.size(), second->values.size());
  for (size_t i = 0; i < first->values.size(); ++i) {
    EXPECT_DOUBLE_EQ(first->values[i], second->values[i]);
  }
  for (size_t i = 0; i < first->vectors.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(first->vectors.data()[i], second->vectors.data()[i]);
  }
}

TEST(SubspaceTest, WarmStartConvergesFaster) {
  Rng rng(99);
  const size_t n = 32;
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.Uniform(-1, 1);
  Matrix a = *MatMul(b, b.Transpose());
  auto cold = SubspaceTopEigen(a, 4);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->converged);
  // Perturb the matrix slightly (a control-loop tick) and restart from the
  // previous basis: convergence should take no more iterations than cold.
  Matrix perturbed = a;
  for (size_t i = 0; i < n; ++i) perturbed(i, i) += 1e-6;
  SubspaceOptions warm_options;
  warm_options.warm_start = &cold->vectors;
  auto warm = SubspaceTopEigen(perturbed, 4, warm_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->converged);
  EXPECT_LE(warm->iterations, cold->iterations);
  EXPECT_LE(warm->iterations, 3u);
}

TEST(SubspaceTest, RejectsBadInput) {
  EXPECT_FALSE(SubspaceTopEigen(Matrix(2, 3), 1).ok());
  EXPECT_FALSE(SubspaceTopEigen(Matrix(), 1).ok());
  EXPECT_FALSE(SubspaceTopEigen(Matrix::Identity(4), 0).ok());
}

TEST(EigenTest, DiagonalMatrix) {
  auto m = *Matrix::FromRowMajor(3, 3, {3, 0, 0, 0, 1, 0, 0, 0, 2});
  auto eig = SymmetricEigen(m);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig->values[2], 1.0, 1e-10);
}

TEST(EigenTest, KnownSymmetric) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  auto m = *Matrix::FromRowMajor(2, 2, {2, 1, 1, 2});
  auto eig = SymmetricEigen(m);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  const double v0 = eig->vectors(0, 0);
  const double v1 = eig->vectors(1, 0);
  EXPECT_NEAR(std::fabs(v0), 1.0 / std::sqrt(2.0), 1e-8);
  EXPECT_NEAR(v0, v1, 1e-8);
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(EigenTest, ReconstructsRandomSymmetric) {
  Rng rng(21);
  const size_t n = 12;
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = rng.Uniform(-2, 2);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  auto eig = SymmetricEigen(m);
  ASSERT_TRUE(eig.ok());
  // Check A v_i = lambda_i v_i for each pair.
  for (size_t i = 0; i < n; ++i) {
    auto vi = eig->vectors.Col(i);
    auto av = *MatVec(m, vi);
    for (size_t r = 0; r < n; ++r) {
      EXPECT_NEAR(av[r], eig->values[i] * vi[r], 1e-8);
    }
  }
}

// The solver as it stood before the padded, transposed-V layout and
// simd::Rotate: column pass, row pass and V pass as three plain loops over
// full row-major storage. SymmetricEigen must reproduce it byte for byte.
EigenDecomposition ReferenceJacobi(const Matrix& input, size_t max_sweeps = 64,
                                   double tol = 1e-12) {
  const size_t n = input.rows();
  Matrix a = input;
  Matrix v = Matrix::Identity(n);
  auto exact_off2 = [&]() {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) s += a(i, j) * a(i, j);
    }
    return s;
  };
  const double scale = std::max(1.0, a.Norm());
  const double off2_limit = 0.5 * (tol * scale) * (tol * scale);
  double off2 = exact_off2();
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (sweep > 0 && sweep % 4 == 0) off2 = exact_off2();
    if (off2 <= off2_limit) {
      off2 = exact_off2();
      if (off2 <= off2_limit) break;
    }
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        off2 = std::max(0.0, off2 - apq * apq);
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t i, size_t j) { return a(i, i) > a(j, j); });
  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    out.values[i] = a(order[i], order[i]);
    for (size_t r = 0; r < n; ++r) out.vectors(r, i) = v(r, order[i]);
  }
  return out;
}

Matrix RandomSymmetric(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = rng.Uniform(-2, 2);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

// The Gram SsaForecaster hands the solver at the live plane's serve shape:
// 480 bins (4 h of 30 s bins) of a Table-1 profile from 08:00, window 96,
// scaled by the history maximum. Spectra whose noise floor the rank
// selection reaches into, so the subspace path rejects them (head_short)
// and every SSA fit at this shape runs the dense solver.
std::vector<std::pair<std::string, Matrix>> ServeShapeTable1Grams() {
  constexpr size_t kBins = 480;
  constexpr size_t kWindow = 96;
  std::vector<std::pair<std::string, Matrix>> out;
  for (Region region : {Region::kWestUs2, Region::kEastUs2}) {
    for (NodeSize size :
         {NodeSize::kSmall, NodeSize::kMedium, NodeSize::kLarge}) {
      WorkloadConfig config = RegionNodeProfile(region, size, /*seed=*/11);
      config.duration_days = 0.5;
      auto generator = DemandGenerator::Create(config);
      EXPECT_TRUE(generator.ok());
      const size_t begin = 8 * 120;
      const TimeSeries history =
          generator->GenerateBinned().Slice(begin, begin + kBins);
      const double scale = std::max(1.0, history.Max());
      Matrix gram = *HankelGram(history.values(), kWindow);
      for (double& g : gram.data()) g *= 1.0 / (scale * scale);
      out.emplace_back(RegionToString(region) + "-" + NodeSizeToString(size),
                       std::move(gram));
    }
  }
  return out;
}

bool SameBytes(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(SymmetricEigenTest, MatchesReferenceJacobiBitForBit) {
  std::vector<std::pair<std::string, Matrix>> cases;
  // Sizes around the 4-wide Rotate body and its tails, and around the
  // padded row stride (96 and 128 are even line counts that get padded).
  for (size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 96, 97, 128}) {
    cases.emplace_back("random n=" + std::to_string(n),
                       RandomSymmetric(n, 500 + n));
  }
  for (auto& gram : ServeShapeTable1Grams()) cases.push_back(std::move(gram));
  // Two decoupled blocks: every cross-block a(p, q) stays an exact zero, so
  // those pairs take the |apq| <= 1e-300 skip.
  Matrix blocks(12, 12);
  const Matrix upper = RandomSymmetric(5, 77);
  const Matrix lower = RandomSymmetric(7, 78);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) blocks(i, j) = upper(i, j);
  }
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = 0; j < 7; ++j) blocks(5 + i, 5 + j) = lower(i, j);
  }
  cases.emplace_back("block-diagonal", blocks);

  for (const auto& [name, m] : cases) {
    const EigenDecomposition want = ReferenceJacobi(m);
    for (simd::IsaLevel level :
         {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
      simd::ScopedForceIsa force(level);
      auto got = SymmetricEigen(m);
      ASSERT_TRUE(got.ok()) << name;
      EXPECT_TRUE(SameBytes(got->values, want.values))
          << name << " isa " << simd::IsaName(simd::ActiveIsa());
      EXPECT_TRUE(SameBytes(got->vectors.data(), want.vectors.data()))
          << name << " isa " << simd::IsaName(simd::ActiveIsa());
    }
  }
  // The skip kept the blocks apart: every eigenvector lives in one block.
  const auto eig = *SymmetricEigen(blocks);
  for (size_t i = 0; i < 12; ++i) {
    double upper_mass = 0.0;
    double lower_mass = 0.0;
    for (size_t r = 0; r < 12; ++r) {
      (r < 5 ? upper_mass : lower_mass) += std::fabs(eig.vectors(r, i));
    }
    EXPECT_TRUE(upper_mass == 0.0 || lower_mass == 0.0) << "vector " << i;
  }
}

// ---- SIMD microkernels: the dispatch contract of simd_kernels.h ----------
// Every kernel must produce BIT-IDENTICAL results on every IsaLevel, across
// odd lengths that exercise the 8-wide main loop, the 4-wide loop and the
// scalar tail in every combination. On hosts without AVX2+FMA forcing kAvx2
// degrades to scalar and the comparisons hold trivially.

std::vector<double> RandomKernelVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-3.0, 3.0);
  return v;
}

// The odd sizes: empty, pure tail, one full vector, vector+tail, etc.
const size_t kKernelSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                               12, 15, 16, 17, 31, 32, 33, 100};

TEST(SimdKernelTest, ScopedForceIsaPinsAndRestoresDispatch) {
  const simd::IsaLevel ambient = simd::ActiveIsa();
  if (!simd::Avx2Available()) {
    EXPECT_EQ(ambient, simd::IsaLevel::kScalar);
  }
  {
    simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
    EXPECT_EQ(simd::ActiveIsa(), simd::IsaLevel::kScalar);
    {
      // Nested force restores the outer pin, not the ambient default.
      simd::ScopedForceIsa inner(simd::IsaLevel::kAvx2);
      EXPECT_EQ(simd::ActiveIsa(), simd::Avx2Available()
                                       ? simd::IsaLevel::kAvx2
                                       : simd::IsaLevel::kScalar);
    }
    EXPECT_EQ(simd::ActiveIsa(), simd::IsaLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveIsa(), ambient);
  EXPECT_STREQ(simd::IsaName(simd::IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::IsaName(simd::IsaLevel::kAvx2), "avx2");
}

TEST(SimdKernelTest, DotBitIdenticalAcrossIsaLevels) {
  for (size_t n : kKernelSizes) {
    const auto a = RandomKernelVec(n, 900 + n);
    const auto b = RandomKernelVec(n, 1900 + n);
    double scalar = 0.0;
    double dispatched = 0.0;
    {
      simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
      scalar = simd::Dot(a.data(), b.data(), n);
    }
    {
      simd::ScopedForceIsa force(simd::IsaLevel::kAvx2);
      dispatched = simd::Dot(a.data(), b.data(), n);
    }
    EXPECT_EQ(scalar, dispatched) << "n=" << n;
    // And against the definition itself: eight strided fma lanes, the fixed
    // pairwise reduction, then a sequential fused tail.
    double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
      for (size_t l = 0; l < 8; ++l) {
        lane[l] = std::fma(a[k + l], b[k + l], lane[l]);
      }
    }
    double want = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                  ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for (; k < n; ++k) want = std::fma(a[k], b[k], want);
    EXPECT_EQ(scalar, want) << "n=" << n;
  }
}

TEST(SimdKernelTest, MulAddBitIdenticalToPlainLoopOnEveryIsa) {
  for (size_t n : kKernelSizes) {
    const auto src = RandomKernelVec(n, 300 + n);
    const auto init = RandomKernelVec(n, 1300 + n);
    const double scale = 1.0 / 3.0;  // not exactly representable: real
                                     // rounding on every element
    std::vector<double> want = init;
    for (size_t j = 0; j < n; ++j) want[j] += scale * src[j];
    for (simd::IsaLevel level :
         {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
      simd::ScopedForceIsa force(level);
      std::vector<double> dst = init;
      simd::MulAdd(dst.data(), src.data(), scale, n);
      EXPECT_EQ(dst, want) << "n=" << n << " isa "
                           << simd::IsaName(simd::ActiveIsa());
    }
  }
}

TEST(SimdKernelTest, StridedRevDotBitIdenticalAcrossIsaLevels) {
  // a is a strided column of a row-major matrix; b is walked backwards from
  // its anchor. Odd strides and the kKernelSizes lengths hit the gather
  // main loop and every tail shape.
  for (const size_t stride : {1u, 3u, 8u}) {
    for (size_t n : kKernelSizes) {
      const auto a = RandomKernelVec(n * stride + 1, 700 + n * stride);
      const auto rev = RandomKernelVec(n + 1, 1700 + n);
      // Anchor b at its last element so b[-t] stays in bounds for t < n.
      const double* b = rev.data() + (n == 0 ? 0 : n - 1);
      double scalar = 0.0;
      double dispatched = 0.0;
      {
        simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
        scalar = simd::StridedRevDot(a.data(), stride, b, n);
      }
      {
        simd::ScopedForceIsa force(simd::IsaLevel::kAvx2);
        dispatched = simd::StridedRevDot(a.data(), stride, b, n);
      }
      EXPECT_EQ(scalar, dispatched) << "n=" << n << " stride=" << stride;
      // And against the definition itself: four strided fma lanes, the
      // fixed (l0+l1)+(l2+l3) reduction, then a sequential fused tail.
      double lane[4] = {0, 0, 0, 0};
      size_t t = 0;
      for (; t + 4 <= n; t += 4) {
        for (size_t l = 0; l < 4; ++l) {
          lane[l] = std::fma(a[(t + l) * stride],
                             b[-static_cast<ptrdiff_t>(t + l)], lane[l]);
        }
      }
      double want = (lane[0] + lane[1]) + (lane[2] + lane[3]);
      for (; t < n; ++t) {
        want = std::fma(a[t * stride], b[-static_cast<ptrdiff_t>(t)], want);
      }
      EXPECT_EQ(scalar, want) << "n=" << n << " stride=" << stride;
    }
  }
}

TEST(SimdKernelTest, RotateBitIdenticalAcrossIsaLevels) {
  // Lengths 0..37 cover the empty call, every tail width and several full
  // 4-wide bodies.
  const double c = std::cos(0.3);
  const double s = std::sin(0.3);  // neither exactly representable
  for (size_t n = 0; n <= 37; ++n) {
    const auto x0 = RandomKernelVec(n, 2300 + n);
    const auto y0 = RandomKernelVec(n, 3300 + n);
    std::vector<double> want_x = x0;
    std::vector<double> want_y = y0;
    for (size_t j = 0; j < n; ++j) {
      want_x[j] = c * x0[j] - s * y0[j];
      want_y[j] = s * x0[j] + c * y0[j];
    }
    for (simd::IsaLevel level :
         {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
      simd::ScopedForceIsa force(level);
      std::vector<double> x = x0;
      std::vector<double> y = y0;
      simd::Rotate(x.data(), y.data(), c, s, n);
      EXPECT_EQ(x, want_x) << "n=" << n << " isa "
                           << simd::IsaName(simd::ActiveIsa());
      EXPECT_EQ(y, want_y) << "n=" << n << " isa "
                           << simd::IsaName(simd::ActiveIsa());
    }
  }
}

TEST(SimdKernelTest, MatMulMatVecDotBitIdenticalAcrossIsa) {
  // Odd shapes so row lengths hit main loop + tail; compare the full
  // public entry points under forced scalar vs dispatched.
  const std::vector<std::array<size_t, 3>> shapes = {
      {1, 1, 1}, {3, 7, 5}, {17, 9, 11}, {5, 33, 2}, {23, 16, 8}};
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = *Matrix::FromRowMajor(m, k, RandomKernelVec(m * k, m + k));
    const Matrix b = *Matrix::FromRowMajor(k, n, RandomKernelVec(k * n, k + n));
    const auto x = RandomKernelVec(k, 7 * k + 1);
    auto run = [&] {
      auto c = *MatMul(a, b);
      auto y = *MatVec(a, x);
      auto d = Dot(x, x);
      return std::tuple<std::vector<double>, std::vector<double>, double>(
          c.data(), std::move(y), d);
    };
    simd::ScopedForceIsa scalar(simd::IsaLevel::kScalar);
    const auto want = run();
    {
      simd::ScopedForceIsa dispatched(simd::IsaLevel::kAvx2);
      EXPECT_EQ(run(), want) << m << "x" << k << "x" << n;
    }
  }
}

TEST(SimdKernelTest, HankelGramBitIdenticalAcrossIsaAndSlideConsistent) {
  const auto series = RandomKernelVec(97, 4242);
  const size_t window = 31;
  auto run = [&] { return (*HankelGram(series, window)).data(); };
  simd::ScopedForceIsa scalar(simd::IsaLevel::kScalar);
  const auto want = run();
  {
    simd::ScopedForceIsa dispatched(simd::IsaLevel::kAvx2);
    EXPECT_EQ(run(), want);
    // The incremental slide must land on the same Gram the kernelized
    // from-scratch build produces for the shifted series.
    const size_t shift = 8;
    auto gram = *HankelGram(
        std::vector<double>(series.begin(), series.end() - shift), window);
    ASSERT_TRUE(SlideHankelGram(gram, series, window, shift).ok());
    const auto shifted = *HankelGram(
        std::vector<double>(series.begin() + shift, series.end()), window);
    for (size_t i = 0; i < window; ++i) {
      for (size_t j = 0; j < window; ++j) {
        EXPECT_NEAR(gram(i, j), shifted(i, j), 1e-9 * (1.0 + std::fabs(gram(i, j))));
      }
    }
  }
}

}  // namespace
}  // namespace ipool
