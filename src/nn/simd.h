#ifndef OPENBG_NN_SIMD_H_
#define OPENBG_NN_SIMD_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace openbg::nn::simd {

/// Table of the data-parallel primitives every hot loop in the repo reduces
/// to. One table per backend (scalar reference, AVX2+FMA, NEON); the active
/// table is picked once at startup from the CPU and the OPENBG_KERNEL
/// environment override, so callers pay one indirect call per *vector*, not
/// per element.
///
/// Numerical contract: every backend computes the same mathematical result,
/// but vector backends reassociate sums (8-lane partial accumulators), so
/// floats may differ from the scalar reference in the low bits — see
/// DESIGN.md "SIMD kernel dispatch" for the tolerance policy. Within one
/// backend, results are deterministic and thread-count independent: all
/// functions here are pure (or write only caller-owned memory) and safe to
/// call concurrently.
struct KernelTable {
  const char* name;

  /// sum_i a[i] * b[i].
  float (*dot)(const float* a, const float* b, size_t n);
  /// y[i] += alpha * x[i].
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  /// x[i] *= alpha.
  void (*scale)(float alpha, float* x, size_t n);
  /// sum_i |a[i] - b[i]|.
  float (*l1_distance)(const float* a, const float* b, size_t n);
  /// sum_i (a[i] - b[i])^2.
  float (*l2_distance_squared)(const float* a, const float* b, size_t n);
  /// C = alpha * op(A) op(B) + beta * C over row-major buffers with leading
  /// dimensions (BLAS sgemm shape: op(A) is m x k, op(B) is k x n). The
  /// vector backends special-case matrix-vector shapes (m == 1 or n == 1)
  /// into dot/axpy loops and run genuine m x n x k problems through a
  /// register-blocked packed kernel.
  void (*gemm)(bool trans_a, bool trans_b, size_t m, size_t n, size_t k,
               float alpha, const float* a, size_t lda, const float* b,
               size_t ldb, float beta, float* c, size_t ldc);

  // ---- float row scan (exact top-K tail scoring, src/kge/topk) -----------

  /// Over `num_rows` rows stored back to back, `dim` floats each:
  /// out[r] = l1_distance(q, rows + r*dim), bitwise, when bound is +inf.
  /// With a smaller bound, out[r] may instead be any v with
  /// bound < v <= the exact distance (a NaN distance counts as +inf, the
  /// rank a NaN score takes): a row provably farther than `bound` may stop
  /// early. Values <= bound, and NaN, are always exact.
  void (*scan_l1)(const float* q, const float* rows, size_t num_rows,
                  size_t dim, float bound, float* out);
  /// scan_l1 over the rows idx[0, n) of `rows`, in that order:
  /// out[j] scores rows + idx[j]*dim under scan_l1's contract. Indices may
  /// repeat and come in any order.
  void (*scan_l1_indexed)(const float* q, const float* rows,
                          const uint32_t* idx, size_t n, size_t dim,
                          float bound, float* out);

  /// Over `num_rows` rows of 16 uint8 codes stored back to back, with
  /// sad(r) = sum_i |q[i] - codes[16*r + i]| (exact in every backend, at
  /// most 16 * 255): writes every r with sad(r) <= max_sad to idx, in
  /// ascending order, and returns how many it wrote. `idx` has room for
  /// num_rows entries; the ones past the returned count are unspecified.
  /// The top-K scan's prefilter reads these codes in place of the float
  /// rows.
  size_t (*sad_u8x16_select)(const uint8_t* q, const uint8_t* codes,
                             size_t num_rows, uint32_t max_sad,
                             uint32_t* idx);

  // ---- int8 kernels (quantized ANN scans, src/ann) -----------------------
  // The integer kernels accumulate exactly in int32, so every backend
  // returns bit-identical results (n * 127 * 127 needs n > 2^17 to overflow
  // int32; embedding dims are << that). The mixed int8/float scans dequantize
  // in registers; their float sums reassociate like the float kernels above.

  /// sum_i a[i] * b[i], exact int32 accumulation.
  int32_t (*dot_i8)(const int8_t* a, const int8_t* b, size_t n);
  /// sum_i |a[i] - b[i]|, exact int32 accumulation.
  int32_t (*l1_distance_i8)(const int8_t* a, const int8_t* b, size_t n);
  /// Row scan, dot metric, both sides quantized:
  ///   out[r] = (q_scale * scales[r]) * dot_i8(q, rows + r*dim)
  /// Integer inner loop; one dequant multiply per row, kept in registers.
  void (*scan_dot_i8)(const int8_t* q, float q_scale, const int8_t* rows,
                      const float* scales, size_t num_rows, size_t dim,
                      float* out);
  /// Row scan, L1 metric, float query against quantized rows:
  ///   out[r] = sum_i |q[i] - scales[r] * rows[r*dim + i]|
  /// int8 -> float convert and per-row scale multiply stay in registers.
  void (*scan_l1_i8)(const float* q, const int8_t* rows, const float* scales,
                     size_t num_rows, size_t dim, float* out);
};

/// The always-available scalar reference backend.
const KernelTable& Scalar();

/// The dispatched backend: best supported CPU backend, unless the
/// OPENBG_KERNEL environment variable (read once, at first use) says
/// otherwise. Values: "scalar" forces the reference path, "auto" (or unset)
/// picks the best, an explicit backend name ("avx2", "neon") selects it if
/// supported. Unknown or unsupported values fall back to "auto" with a
/// warning.
const KernelTable& Active();

/// Backends usable on this machine ("scalar" always included).
std::vector<std::string> SupportedKernels();

/// Test/bench hook: override dispatch at runtime. Accepts the same values
/// as OPENBG_KERNEL; returns false (and leaves dispatch unchanged) when the
/// named backend is not supported on this CPU. Not thread-safe against
/// concurrent kernel calls — flip it only between parallel regions.
bool ForceKernel(const std::string& name);

// ---- Convenience wrappers over the active table --------------------------

inline float Dot(const float* a, const float* b, size_t n) {
  return Active().dot(a, b, n);
}
inline void Axpy(float alpha, const float* x, float* y, size_t n) {
  Active().axpy(alpha, x, y, n);
}
inline void Scale(float alpha, float* x, size_t n) {
  Active().scale(alpha, x, n);
}
inline float L1Distance(const float* a, const float* b, size_t n) {
  return Active().l1_distance(a, b, n);
}
inline float L2DistanceSquared(const float* a, const float* b, size_t n) {
  return Active().l2_distance_squared(a, b, n);
}
inline float Norm2(const float* a, size_t n) {
  return std::sqrt(Active().dot(a, a, n));
}
inline int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  return Active().dot_i8(a, b, n);
}
inline int32_t L1DistanceI8(const int8_t* a, const int8_t* b, size_t n) {
  return Active().l1_distance_i8(a, b, n);
}

}  // namespace openbg::nn::simd

#endif  // OPENBG_NN_SIMD_H_
