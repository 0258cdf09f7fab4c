// Vectorized microkernels under the blocked MatMul, the nn forward/backward
// GEMM paths, the SSA Gram/reconstruction hot loops and the Jacobi
// eigensolver. Four primitives cover every inner loop in the codebase:
//
//   Dot(a, b, n)          -> sum_k a[k] * b[k]       (reduction)
//   MulAdd(dst, src, s, n) : dst[j] += s * src[j]    (axpy)
//   StridedRevDot(a, stride, b, n)
//                         -> sum_t a[t*stride] * b[-t]
//     (the SSA diagonal-averaging shape: a column of a row-major matrix
//      against a row walked backwards)
//   Rotate(x, y, c, s, n)  : (x[j], y[j]) <- (c*x[j] - s*y[j],
//                                             s*x[j] + c*y[j])
//     (a Jacobi/Givens plane rotation of two rows)
//
// Dispatch contract (see DESIGN.md "SIMD kernels & runtime dispatch"):
//  * The instruction set is resolved ONCE per process (AVX2+FMA when the CPU
//    reports both, scalar otherwise; IPOOL_SIMD=scalar forces the fallback).
//    Every caller in a process therefore runs the same kernel, which keeps
//    the serial-vs-parallel determinism contract intact: thread count never
//    changes which code computes an element.
//  * Each kernel's scalar fallback is BIT-IDENTICAL to its vector path. For
//    MulAdd and Rotate that is free: the vector bodies perform exactly the
//    IEEE multiplies and adds of the scalar loop per element (no FMA
//    contraction), so both also reproduce the historical plain-loop results
//    bit for bit. For Dot the accumulation order is part of the
//    kernel's definition: eight lane accumulators striding the input, a fixed
//    ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)) reduction, then the scalar tail — with fused
//    multiply-adds throughout (std::fma on the scalar path, vfmadd on the
//    vector path; both are correctly-rounded fused ops, so the paths agree
//    exactly). Dot's results differ from a naive sequential loop by normal
//    reassociation error; callers that need the historical order must not
//    use it.
//  * ScopedForceIsa pins the dispatch for tests and micro-benchmarks that
//    compare the paths. It is process-global and not thread-safe; use it
//    only from single-threaded setup code.
#ifndef IPOOL_LINALG_SIMD_KERNELS_H_
#define IPOOL_LINALG_SIMD_KERNELS_H_

#include <cstddef>

namespace ipool::simd {

enum class IsaLevel {
  kScalar,  // portable C++, bit-identical reference
  kAvx2,    // AVX2 + FMA (x86-64)
};

/// The instruction set the kernels below are currently dispatching to.
/// Resolved from CPUID and IPOOL_SIMD on first use, then fixed for the
/// process unless a ScopedForceIsa overrides it.
IsaLevel ActiveIsa();

/// "scalar" or "avx2" — for bench labels and log lines.
const char* IsaName(IsaLevel level);

/// True when this build/CPU can execute the kAvx2 kernels.
bool Avx2Available();

/// sum_k a[k] * b[k] under the lane-blocked fused-multiply-add semantics
/// described above. Identical results on every IsaLevel.
double Dot(const double* a, const double* b, size_t n);

/// dst[j] += scale * src[j] for j in [0, n). One IEEE multiply + one IEEE
/// add per element (never fused), so results are bit-identical to the plain
/// scalar loop on every IsaLevel.
void MulAdd(double* dst, const double* src, double scale, size_t n);

/// x[j] <- c * x[j] - s * y[j] and y[j] <- s * x[j] + c * y[j] for j in
/// [0, n), both from the old x[j], y[j]. Two IEEE multiplies and one IEEE
/// subtract/add per output (never fused), so results are bit-identical to
/// the plain scalar loop on every IsaLevel. x and y must not overlap.
void Rotate(double* x, double* y, double c, double s, size_t n);

/// sum_t a[t*stride] * b[-t] for t in [0, n) — the SSA diagonal-averaging
/// inner loop (strided column of the eigvec matrix against a reversed slice
/// of a W row). Fixed semantics on every IsaLevel: four lane accumulators
/// (lane l owns t with t % 4 == l), fused multiply-adds, a
/// (l0+l1)+(l2+l3) reduction, then a sequential fused tail — the scalar
/// path mirrors the AVX2 gather/permute path bit for bit. Like Dot, results
/// differ from a naive sequential loop by normal reassociation error.
/// `b` points at the t = 0 element; the kernel reads b[-(n-1)] .. b[0].
double StridedRevDot(const double* a, size_t stride, const double* b,
                     size_t n);

/// Pins ActiveIsa() to `level` for this object's lifetime (restores the
/// previous pin on destruction). Forcing kAvx2 on a CPU without AVX2 is
/// ignored (the dispatch stays scalar). Process-global; single-threaded
/// setup code only.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(IsaLevel level);
  ~ScopedForceIsa();
  ScopedForceIsa(const ScopedForceIsa&) = delete;
  ScopedForceIsa& operator=(const ScopedForceIsa&) = delete;

 private:
  int previous_;
};

}  // namespace ipool::simd

#endif  // IPOOL_LINALG_SIMD_KERNELS_H_
