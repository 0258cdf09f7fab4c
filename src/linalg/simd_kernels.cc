#include "linalg/simd_kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define IPOOL_SIMD_X86 1
#include <immintrin.h>
#else
#define IPOOL_SIMD_X86 0
#endif

namespace ipool::simd {

namespace {

// Test/bench override; -1 means "use the resolved default". Relaxed atomics:
// ScopedForceIsa is documented single-threaded-setup-only, the atomic just
// keeps concurrent readers defined.
std::atomic<int> g_forced{-1};

bool CpuHasAvx2Fma() {
#if IPOOL_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

IsaLevel ResolveDefault() {
  if (const char* env = std::getenv("IPOOL_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) return IsaLevel::kScalar;
    // Any other value (including "avx2") falls through to CPU detection:
    // requesting an ISA the CPU lacks must not crash the process.
  }
  return CpuHasAvx2Fma() ? IsaLevel::kAvx2 : IsaLevel::kScalar;
}

// The Dot kernel's fixed semantics: eight lane accumulators striding the
// input (lane l owns elements k with k % 8 == l), reduced as
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then a sequential fused tail.
// Eight lanes = two AVX2 vectors, enough independent FMA chains to cover the
// ~4-cycle FMA latency on one port-rich core.
constexpr size_t kDotLanes = 8;

double DotScalar(const double* a, const double* b, size_t n) {
  double lane[kDotLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t k = 0;
  for (; k + kDotLanes <= n; k += kDotLanes) {
    for (size_t l = 0; l < kDotLanes; ++l) {
      lane[l] = std::fma(a[k + l], b[k + l], lane[l]);
    }
  }
  double acc = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
               ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  for (; k < n; ++k) acc = std::fma(a[k], b[k], acc);
  return acc;
}

void MulAddScalar(double* dst, const double* src, double scale, size_t n) {
  for (size_t j = 0; j < n; ++j) dst[j] += scale * src[j];
}

void RotateScalar(double* x, double* y, double c, double s, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    const double xj = x[j];
    const double yj = y[j];
    x[j] = c * xj - s * yj;
    y[j] = s * xj + c * yj;
  }
}

// StridedRevDot's fixed semantics: four lane accumulators (one AVX2 vector —
// the gather port, not FMA latency, bounds this kernel, so one chain is
// enough), lane l owns t with t % 4 == l, reduced (l0+l1)+(l2+l3), then a
// sequential fused tail.
constexpr size_t kRevDotLanes = 4;

double StridedRevDotScalar(const double* a, size_t stride, const double* b,
                           size_t n) {
  double lane[kRevDotLanes] = {0, 0, 0, 0};
  size_t t = 0;
  for (; t + kRevDotLanes <= n; t += kRevDotLanes) {
    for (size_t l = 0; l < kRevDotLanes; ++l) {
      lane[l] = std::fma(a[(t + l) * stride],
                         b[-static_cast<ptrdiff_t>(t + l)], lane[l]);
    }
  }
  double acc = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; t < n; ++t) {
    acc = std::fma(a[t * stride], b[-static_cast<ptrdiff_t>(t)], acc);
  }
  return acc;
}

#if IPOOL_SIMD_X86

__attribute__((target("avx2,fma"))) double DotAvx2(const double* a,
                                                   const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + kDotLanes <= n; k += kDotLanes) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + k + 4),
                           _mm256_loadu_pd(b + k + 4), acc1);
  }
  // Reduce in the exact lane order the scalar reference uses.
  alignas(32) double lane[kDotLanes];
  _mm256_store_pd(lane, acc0);
  _mm256_store_pd(lane + 4, acc1);
  double acc = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
               ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  for (; k < n; ++k) acc = std::fma(a[k], b[k], acc);
  return acc;
}

__attribute__((target("avx2,fma"))) void MulAddAvx2(double* dst,
                                                    const double* src,
                                                    double scale, size_t n) {
  // Deliberately mul-then-add, NOT vfmadd: each element must see exactly the
  // two roundings of the scalar loop so MulAdd stays bit-identical to the
  // historical plain-C++ inner loops.
  const __m256d vs = _mm256_set1_pd(scale);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256d p0 = _mm256_mul_pd(vs, _mm256_loadu_pd(src + j));
    const __m256d p1 = _mm256_mul_pd(vs, _mm256_loadu_pd(src + j + 4));
    _mm256_storeu_pd(dst + j, _mm256_add_pd(_mm256_loadu_pd(dst + j), p0));
    _mm256_storeu_pd(dst + j + 4,
                     _mm256_add_pd(_mm256_loadu_pd(dst + j + 4), p1));
  }
  for (; j + 4 <= n; j += 4) {
    const __m256d p = _mm256_mul_pd(vs, _mm256_loadu_pd(src + j));
    _mm256_storeu_pd(dst + j, _mm256_add_pd(_mm256_loadu_pd(dst + j), p));
  }
  for (; j < n; ++j) dst[j] += scale * src[j];
}

__attribute__((target("avx2,fma"))) void RotateAvx2(double* x, double* y,
                                                    double c, double s,
                                                    size_t n) {
  // Like MulAdd, two IEEE multiplies and one IEEE sub/add per output, never
  // vfmadd, so each element rounds exactly as RotateScalar's does.
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vx = _mm256_loadu_pd(x + j);
    const __m256d vy = _mm256_loadu_pd(y + j);
    _mm256_storeu_pd(x + j, _mm256_sub_pd(_mm256_mul_pd(vc, vx),
                                          _mm256_mul_pd(vs, vy)));
    _mm256_storeu_pd(y + j, _mm256_add_pd(_mm256_mul_pd(vs, vx),
                                          _mm256_mul_pd(vc, vy)));
  }
  RotateScalar(x + j, y + j, c, s, n - j);
}

__attribute__((target("avx2,fma"))) double StridedRevDotAvx2(
    const double* a, size_t stride, const double* b, size_t n) {
  // Lane l of the gather reads a[(t+l)*stride]; the b vector is a contiguous
  // load of b[-t-3..-t] reversed by permute so lane l holds b[-(t+l)] —
  // exactly the scalar reference's lane ownership.
  const long long s = static_cast<long long>(stride);
  const __m256i idx = _mm256_set_epi64x(3 * s, 2 * s, s, 0);
  __m256d acc = _mm256_setzero_pd();
  size_t t = 0;
  for (; t + kRevDotLanes <= n; t += kRevDotLanes) {
    const __m256d va = _mm256_i64gather_pd(a + t * stride, idx, 8);
    const __m256d vb = _mm256_permute4x64_pd(
        _mm256_loadu_pd(b - static_cast<ptrdiff_t>(t) - 3), 0x1B);
    acc = _mm256_fmadd_pd(va, vb, acc);
  }
  alignas(32) double lane[kRevDotLanes];
  _mm256_store_pd(lane, acc);
  double out = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; t < n; ++t) {
    out = std::fma(a[t * stride], b[-static_cast<ptrdiff_t>(t)], out);
  }
  return out;
}

#endif  // IPOOL_SIMD_X86

}  // namespace

bool Avx2Available() { return CpuHasAvx2Fma(); }

IsaLevel ActiveIsa() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<IsaLevel>(forced);
  static const IsaLevel resolved = ResolveDefault();
  return resolved;
}

const char* IsaName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ScopedForceIsa::ScopedForceIsa(IsaLevel level)
    : previous_(g_forced.load(std::memory_order_relaxed)) {
  if (level == IsaLevel::kAvx2 && !CpuHasAvx2Fma()) level = IsaLevel::kScalar;
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

ScopedForceIsa::~ScopedForceIsa() {
  g_forced.store(previous_, std::memory_order_relaxed);
}

double Dot(const double* a, const double* b, size_t n) {
#if IPOOL_SIMD_X86
  if (ActiveIsa() == IsaLevel::kAvx2) return DotAvx2(a, b, n);
#endif
  return DotScalar(a, b, n);
}

void MulAdd(double* dst, const double* src, double scale, size_t n) {
#if IPOOL_SIMD_X86
  if (ActiveIsa() == IsaLevel::kAvx2) {
    MulAddAvx2(dst, src, scale, n);
    return;
  }
#endif
  MulAddScalar(dst, src, scale, n);
}

void Rotate(double* x, double* y, double c, double s, size_t n) {
#if IPOOL_SIMD_X86
  if (ActiveIsa() == IsaLevel::kAvx2) {
    RotateAvx2(x, y, c, s, n);
    return;
  }
#endif
  RotateScalar(x, y, c, s, n);
}

double StridedRevDot(const double* a, size_t stride, const double* b,
                     size_t n) {
#if IPOOL_SIMD_X86
  if (ActiveIsa() == IsaLevel::kAvx2) {
    return StridedRevDotAvx2(a, stride, b, n);
  }
#endif
  return StridedRevDotScalar(a, stride, b, n);
}

}  // namespace ipool::simd
