#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/strings.h"
#include "linalg/simd_kernels.h"

namespace ipool {

namespace {

// Row stride of the solver's working matrices, in doubles. Each rotation
// walks a column pair with this stride; a stride of an even number of cache
// lines (n = 96 is 12 lines of 64 bytes) folds that walk onto a fraction of
// the L1 sets and evicts itself, so rows are padded to an odd line count.
size_t PaddedStride(size_t n) {
  size_t lines = (n + 7) / 8;
  if (lines % 2 == 0) ++lines;
  return lines * 8;
}

}  // namespace

Result<EigenDecomposition> SymmetricEigen(const Matrix& input,
                                          size_t max_sweeps, double tol) {
  if (input.rows() != input.cols()) {
    return Status::InvalidArgument(
        StrFormat("SymmetricEigen requires square matrix, got %zux%zu",
                  input.rows(), input.cols()));
  }
  const size_t n = input.rows();
  const size_t ld = PaddedStride(n);
  // `a` is a full (both-triangle) working copy of the input. `vt` accumulates
  // the eigenvectors transposed: row k of vt is column k of V, so a
  // rotation's update of V, like its row update of A, touches two contiguous
  // rows and runs through simd::Rotate.
  std::vector<double> a(n * ld, 0.0);
  std::vector<double> vt(n * ld, 0.0);
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(input.data().begin() + static_cast<ptrdiff_t>(i * n), n,
                a.begin() + static_cast<ptrdiff_t>(i * ld));
    vt[i * ld + i] = 1.0;
  }

  auto exact_off2 = [&]() {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double* row = &a[i * ld];
      for (size_t j = i + 1; j < n; ++j) s += row[j] * row[j];
    }
    return s;
  };

  const double scale = std::max(1.0, input.Norm());
  // Convergence when sqrt(2 * off2) <= tol * scale.
  const double off2_limit = 0.5 * (tol * scale) * (tol * scale);
  // Each Jacobi rotation zeroes a(p, q) and preserves the off-diagonal
  // Frobenius mass of every other entry, so the upper-triangle sum of
  // squares drops by exactly apq^2 per rotation. Maintaining it
  // incrementally replaces the O(n^2) per-sweep recomputation; an exact
  // refresh every few sweeps plus a verify-before-break bound FP drift in
  // both directions (premature and missed convergence).
  double off2 = exact_off2();
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (sweep > 0 && sweep % 4 == 0) off2 = exact_off2();
    if (off2 <= off2_limit) {
      off2 = exact_off2();
      if (off2 <= off2_limit) break;
    }
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * ld + q];
        if (std::fabs(apq) <= 1e-300) continue;
        off2 = std::max(0.0, off2 - apq * apq);
        const double app = a[p * ld + p];
        const double aqq = a[q * ld + q];
        const double theta = (aqq - app) / (2.0 * apq);
        // Smaller-magnitude root for numerical stability.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Columns p and q of A first (the strided walk), then rows p and q,
        // which read the four (p|q, p|q) entries the column pass rewrote.
        // The walk takes four rows per step and issues their loads before
        // any store: the compiler cannot prove the rows disjoint, so a
        // one-row loop serializes every load behind the previous stores.
        double* row = a.data();
        size_t k = 0;
        for (; k + 4 <= n; k += 4, row += 4 * ld) {
          double x[4];
          double y[4];
          for (size_t u = 0; u < 4; ++u) {
            x[u] = row[u * ld + p];
            y[u] = row[u * ld + q];
          }
          for (size_t u = 0; u < 4; ++u) {
            row[u * ld + p] = c * x[u] - s * y[u];
            row[u * ld + q] = s * x[u] + c * y[u];
          }
        }
        for (; k < n; ++k, row += ld) {
          const double akp = row[p];
          const double akq = row[q];
          row[p] = c * akp - s * akq;
          row[q] = s * akp + c * akq;
        }
        simd::Rotate(&a[p * ld], &a[q * ld], c, s, n);
        simd::Rotate(&vt[p * ld], &vt[q * ld], c, s, n);
      }
    }
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
    return a[i * ld + i] > a[j * ld + j];
  });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    out.values[i] = a[order[i] * ld + order[i]];
    const double* v = &vt[order[i] * ld];
    for (size_t r = 0; r < n; ++r) out.vectors(r, i) = v[r];
  }
  return out;
}

}  // namespace ipool
