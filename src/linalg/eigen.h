// Symmetric eigendecomposition by the cyclic Jacobi method: the dense
// oracle behind every SSA fit and the subspace solver's Rayleigh-Ritz step.
#ifndef IPOOL_LINALG_EIGEN_H_
#define IPOOL_LINALG_EIGEN_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace ipool {

struct EigenDecomposition {
  /// Descending eigenvalues.
  std::vector<double> values;
  /// Column i of `vectors` is the unit eigenvector for values[i].
  Matrix vectors;
};

/// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
/// Returns InvalidArgument for non-square input. Symmetry is assumed but not
/// enforced: each rotation reads and writes BOTH triangles of a full working
/// copy, the two triangles drift apart at rounding level as sweeps proceed,
/// and later rotations read the drifted entries. The results (and every SSA
/// model built on them) depend on that drift, which is why the solver keeps
/// full storage — a symmetric-storage variant would change model bits.
Result<EigenDecomposition> SymmetricEigen(const Matrix& a,
                                          size_t max_sweeps = 64,
                                          double tol = 1e-12);

}  // namespace ipool

#endif  // IPOOL_LINALG_EIGEN_H_
