#include "nn/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/logging.h"

#if defined(__x86_64__) || defined(_M_X64)
#define OPENBG_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define OPENBG_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace openbg::nn::simd {
namespace {

// Register-blocking shape shared by every vector backend: the micro-kernel
// computes an MR x NR tile of C, packed panels are zero-padded to these
// multiples so edge tiles need no special kernel.
constexpr size_t kMr = 6;
constexpr size_t kNr = 16;
// Cache blocking: KC sizes the packed panels' k extent (A panel kMr*KC and
// B panel kNr*KC both fit L1), MC/NC bound the packed block footprints.
constexpr size_t kKc = 256;
constexpr size_t kMc = 72;   // multiple of kMr
constexpr size_t kNc = 256;  // multiple of kNr

// Row accessors for the L1 row scans: row j of a table stored back to
// back, or the table row idx[j]. Each backend writes its scan once, over
// an accessor, and both KernelTable entries instantiate it.
struct ContiguousRows {
  const float* rows;
  size_t dim;
  const float* operator()(size_t j) const { return rows + j * dim; }
};
struct IndexedRows {
  const float* rows;
  const uint32_t* idx;
  size_t dim;
  const float* operator()(size_t j) const {
    return rows + size_t{idx[j]} * dim;
  }
};

// The per-row scan of the backends without a blocked one. It ignores
// `bound`: an exact value always satisfies the scan contract.
template <float (*kL1)(const float*, const float*, size_t), typename RowAt>
void ScanL1PerRow(const float* q, RowAt row_at, size_t num_rows, size_t dim,
                  float* out) {
  for (size_t r = 0; r < num_rows; ++r) out[r] = kL1(q, row_at(r), dim);
}

// ------------------------------------------------------------------ scalar
// The reference backend. Bit-for-bit the pre-SIMD behavior of this repo
// (float accumulators, left-to-right sums), so OPENBG_KERNEL=scalar
// reproduces historical numbers exactly.

namespace scalar {

float Dot(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

float L1Distance(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

float L2DistanceSquared(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void ApplyBeta(float beta, size_t m, size_t n, float* c, size_t ldc) {
  if (beta == 1.0f) return;
  for (size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      std::memset(crow, 0, n * sizeof(float));
    } else {
      for (size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

void Gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k,
          float alpha, const float* a, size_t lda, const float* b,
          size_t ldb, float beta, float* c, size_t ldc) {
  ApplyBeta(beta, m, n, c, ldc);
  // Four loop-order specializations keep the innermost loop contiguous.
  if (!trans_a && !trans_b) {
    for (size_t i = 0; i < m; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * ldc;
      for (size_t p = 0; p < k; ++p) {
        float av = alpha * arow[p];
        if (av == 0.0f) continue;
        const float* brow = b + p * ldb;
        for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!trans_a && trans_b) {
    for (size_t i = 0; i < m; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * ldc;
      for (size_t j = 0; j < n; ++j) {
        crow[j] += alpha * Dot(arow, b + j * ldb, k);
      }
    }
  } else if (trans_a && !trans_b) {
    for (size_t p = 0; p < k; ++p) {
      const float* arow = a + p * lda;  // a is k x m
      const float* brow = b + p * ldb;
      for (size_t i = 0; i < m; ++i) {
        float av = alpha * arow[i];
        if (av == 0.0f) continue;
        float* crow = c + i * ldc;
        for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    for (size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      for (size_t j = 0; j < n; ++j) {
        // sum_p a(p,i) * b(j,p)
        float s = 0.0f;
        const float* brow = b + j * ldb;
        for (size_t p = 0; p < k; ++p) s += a[p * lda + i] * brow[p];
        crow[j] += alpha * s;
      }
    }
  }
}

void ScanL1(const float* q, const float* rows, size_t num_rows, size_t dim,
            float /*bound*/, float* out) {
  ScanL1PerRow<L1Distance>(q, ContiguousRows{rows, dim}, num_rows, dim, out);
}

void ScanL1Indexed(const float* q, const float* rows, const uint32_t* idx,
                   size_t n, size_t dim, float /*bound*/, float* out) {
  ScanL1PerRow<L1Distance>(q, IndexedRows{rows, idx, dim}, n, dim, out);
}

// Appends every row r in [begin, num_rows) with SAD <= max_sad to idx from
// idx[n] on and returns the new count. Branch-free: every row's index is
// written, and the count moves past it only when it is selected. n <= r
// throughout, so the write stays within idx's num_rows entries.
size_t SadU8x16SelectFrom(const uint8_t* q, const uint8_t* codes,
                          size_t begin, size_t num_rows, uint32_t max_sad,
                          uint32_t* idx, size_t n) {
  for (size_t r = begin; r < num_rows; ++r) {
    const uint8_t* row = codes + r * 16;
    uint32_t s = 0;
    for (size_t i = 0; i < 16; ++i) {
      s += static_cast<uint32_t>(std::abs(static_cast<int>(q[i]) - row[i]));
    }
    idx[n] = static_cast<uint32_t>(r);
    n += s <= max_sad;
  }
  return n;
}

size_t SadU8x16Select(const uint8_t* q, const uint8_t* codes, size_t num_rows,
                      uint32_t max_sad, uint32_t* idx) {
  return SadU8x16SelectFrom(q, codes, 0, num_rows, max_sad, idx, 0);
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  int32_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
}

int32_t L1DistanceI8(const int8_t* a, const int8_t* b, size_t n) {
  int32_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    s += std::abs(static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]));
  }
  return s;
}

void ScanDotI8(const int8_t* q, float q_scale, const int8_t* rows,
               const float* scales, size_t num_rows, size_t dim, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = (q_scale * scales[r]) *
             static_cast<float>(DotI8(q, rows + r * dim, dim));
  }
}

void ScanL1I8(const float* q, const int8_t* rows, const float* scales,
              size_t num_rows, size_t dim, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    const int8_t* row = rows + r * dim;
    const float s = scales[r];
    float acc = 0.0f;
    for (size_t i = 0; i < dim; ++i) {
      acc += std::fabs(q[i] - s * static_cast<float>(row[i]));
    }
    out[r] = acc;
  }
}

}  // namespace scalar

// ----------------------------------------------------- shared gemm driver
// The blocked driver is backend-independent: packing is plain C++, the
// per-backend micro-kernel and dot/axpy/scale primitives arrive as function
// pointers. Matrix-vector shapes short-circuit into dot/axpy loops — a
// packed kernel would waste (kMr*kNr)/k of its FMAs on zero padding there.

using MicroKernelFn = void (*)(size_t kc, const float* a, const float* b,
                               float* out);

// Element (i, p) of op(A) for an m x k operand stored row-major at `a`.
inline float OpA(bool trans_a, const float* a, size_t lda, size_t i,
                 size_t p) {
  return trans_a ? a[p * lda + i] : a[i * lda + p];
}
// Element (p, j) of op(B) for a k x n operand.
inline float OpB(bool trans_b, const float* b, size_t ldb, size_t p,
                 size_t j) {
  return trans_b ? b[j * ldb + p] : b[p * ldb + j];
}

// Packs an mc x kc block of op(A) starting at (row0, col0) into kMr-row
// panels: panel ip holds column-interleaved rows [ip*kMr, ip*kMr + kMr),
// zero-padded past mc.
void PackA(bool trans_a, const float* a, size_t lda, size_t row0,
           size_t col0, size_t mc, size_t kc, float* packed) {
  for (size_t ip = 0; ip < mc; ip += kMr) {
    for (size_t p = 0; p < kc; ++p) {
      for (size_t i = 0; i < kMr; ++i) {
        *packed++ = (ip + i < mc)
                        ? OpA(trans_a, a, lda, row0 + ip + i, col0 + p)
                        : 0.0f;
      }
    }
  }
}

// Packs a kc x nc block of op(B) starting at (row0, col0) into kNr-column
// panels, zero-padded past nc.
void PackB(bool trans_b, const float* b, size_t ldb, size_t row0,
           size_t col0, size_t kc, size_t nc, float* packed) {
  for (size_t jp = 0; jp < nc; jp += kNr) {
    for (size_t p = 0; p < kc; ++p) {
      for (size_t j = 0; j < kNr; ++j) {
        *packed++ = (jp + j < nc)
                        ? OpB(trans_b, b, ldb, row0 + p, col0 + jp + j)
                        : 0.0f;
      }
    }
  }
}

struct GemmPrims {
  float (*dot)(const float*, const float*, size_t);
  void (*axpy)(float, const float*, float*, size_t);
  void (*scale)(float, float*, size_t);
  MicroKernelFn micro_kernel;
};

void GemmDriver(const GemmPrims& prims, bool trans_a, bool trans_b, size_t m,
                size_t n, size_t k, float alpha, const float* a, size_t lda,
                const float* b, size_t ldb, float beta, float* c,
                size_t ldc) {
  if (m == 0 || n == 0) return;
  // GEMV fast paths. op(A)'s row 0 is contiguous when !trans_a; op(B)'s
  // column j is contiguous when trans_b (or trivially when ldb == 1).
  if (m == 1 && !trans_a) {
    if (beta == 0.0f) {
      std::memset(c, 0, n * sizeof(float));
    } else if (beta != 1.0f) {
      prims.scale(beta, c, n);
    }
    if (trans_b) {
      for (size_t j = 0; j < n; ++j) {
        c[j] += alpha * prims.dot(a, b + j * ldb, k);
      }
    } else {
      for (size_t p = 0; p < k; ++p) {
        float av = alpha * a[p];
        if (av == 0.0f) continue;
        prims.axpy(av, b + p * ldb, c, n);
      }
    }
    return;
  }
  if (n == 1 && !trans_a && (trans_b || ldb == 1)) {
    // c[i] = beta c[i] + alpha <A row i, b>, b contiguous either way.
    for (size_t i = 0; i < m; ++i) {
      float acc = alpha * prims.dot(a + i * lda, b, k);
      c[i * ldc] = (beta == 0.0f) ? acc : beta * c[i * ldc] + acc;
    }
    return;
  }

  scalar::ApplyBeta(beta, m, n, c, ldc);
  thread_local std::vector<float> packed_a;
  thread_local std::vector<float> packed_b;
  float tile[kMr * kNr];
  for (size_t jc = 0; jc < n; jc += kNc) {
    const size_t nc = std::min(kNc, n - jc);
    const size_t nc_padded = (nc + kNr - 1) / kNr * kNr;
    for (size_t pc = 0; pc < k; pc += kKc) {
      const size_t kc = std::min(kKc, k - pc);
      packed_b.resize(nc_padded * kc);
      PackB(trans_b, b, ldb, pc, jc, kc, nc, packed_b.data());
      for (size_t ic = 0; ic < m; ic += kMc) {
        const size_t mc = std::min(kMc, m - ic);
        const size_t mc_padded = (mc + kMr - 1) / kMr * kMr;
        packed_a.resize(mc_padded * kc);
        PackA(trans_a, a, lda, ic, pc, mc, kc, packed_a.data());
        for (size_t jr = 0; jr < nc; jr += kNr) {
          const float* bp = packed_b.data() + (jr / kNr) * kc * kNr;
          const size_t nr = std::min(kNr, nc - jr);
          for (size_t ir = 0; ir < mc; ir += kMr) {
            const float* ap = packed_a.data() + (ir / kMr) * kc * kMr;
            const size_t mr = std::min(kMr, mc - ir);
            prims.micro_kernel(kc, ap, bp, tile);
            for (size_t i = 0; i < mr; ++i) {
              float* crow = c + (ic + ir + i) * ldc + jc + jr;
              const float* trow = tile + i * kNr;
              for (size_t j = 0; j < nr; ++j) {
                crow[j] += alpha * trow[j];
              }
            }
          }
        }
      }
    }
  }
}

// -------------------------------------------------------------------- AVX2
// Compiled with per-function target attributes so a generic x86-64 build
// still carries these bodies; dispatch gates them behind a CPUID check.

#if OPENBG_SIMD_X86

// Adds the upper 128-bit half of `v` onto the lower: [v0+v4, .., v3+v7].
__attribute__((target("avx2,fma"))) inline __m128 FoldHalves(__m256 v) {
  return _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
}

// ((v0+v4)+(v1+v5))+((v2+v6)+(v3+v7)): every 8-lane float reduction in this
// backend sums in exactly this order.
__attribute__((target("avx2,fma"))) inline float Hsum(__m256 v) {
  __m128 lo = FoldHalves(v);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

// Hsum of four vectors at once: lane j is Hsum(vj) bit for bit. Each
// operand sits in the same hadd position Hsum's own two hadds give it, so
// even NaN propagation matches.
__attribute__((target("avx2,fma"))) inline __m128 Hsum4(__m256 v0, __m256 v1,
                                                        __m256 v2,
                                                        __m256 v3) {
  return _mm_hadd_ps(_mm_hadd_ps(FoldHalves(v0), FoldHalves(v1)),
                     _mm_hadd_ps(FoldHalves(v2), FoldHalves(v3)));
}

namespace avx2 {

__attribute__((target("avx2,fma")))
float Dot(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float s = Hsum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

__attribute__((target("avx2,fma")))
void Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy);
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma")))
void Scale(float alpha, float* x, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2,fma")))
float L1Distance(const float* a, const float* b, size_t n) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                              _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_add_ps(acc0, _mm256_andnot_ps(sign_mask, d0));
    acc1 = _mm256_add_ps(acc1, _mm256_andnot_ps(sign_mask, d1));
  }
  for (; i + 8 <= n; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_add_ps(acc0, _mm256_andnot_ps(sign_mask, d));
  }
  float s = Hsum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

__attribute__((target("avx2,fma")))
float L2DistanceSquared(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                              _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float s = Hsum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

// acc + |q - row[0..8)|, L1Distance's lane update.
__attribute__((target("avx2,fma"))) inline __m256 AddAbsDiff(
    __m256 acc, __m256 q, const float* row, __m256 sign_mask) {
  return _mm256_add_ps(
      acc, _mm256_andnot_ps(sign_mask, _mm256_sub_ps(q, _mm256_loadu_ps(row))));
}

// The row scan takes four rows per step, one row's arithmetic unchanged:
// each keeps L1Distance's acc0/acc1 lane split, 16- and 8-wide loops and
// scalar tail, and Hsum4 reduces the four together with Hsum's pairing, so
// every exact out[r] is bitwise L1Distance's. The q loads and the
// reduction's shuffles are shared by the four rows; rows past the last
// multiple of four go through L1Distance itself.
template <typename RowAt>
__attribute__((target("avx2,fma")))
void ScanL1Rows(const float* q, RowAt row_at, size_t num_rows, size_t dim,
                float bound, float* out) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m128 vbound = _mm_set1_ps(bound);
  // Summing non-negative floats is monotone, so the four rows' sums after
  // their first 16 dims are lower bounds of the final ones: once all four
  // exceed `bound`, they are valid outputs and the rest of the rows is
  // skipped.
  const bool may_exit =
      dim > 16 && bound < std::numeric_limits<float>::infinity();
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const float* r0 = row_at(r);
    const float* r1 = row_at(r + 1);
    const float* r2 = row_at(r + 2);
    const float* r3 = row_at(r + 3);
    __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
    __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
    __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
    __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
    bool exited = false;
    size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      const __m256 q1 = _mm256_loadu_ps(q + i + 8);
      a00 = AddAbsDiff(a00, q0, r0 + i, sign_mask);
      a01 = AddAbsDiff(a01, q1, r0 + i + 8, sign_mask);
      a10 = AddAbsDiff(a10, q0, r1 + i, sign_mask);
      a11 = AddAbsDiff(a11, q1, r1 + i + 8, sign_mask);
      a20 = AddAbsDiff(a20, q0, r2 + i, sign_mask);
      a21 = AddAbsDiff(a21, q1, r2 + i + 8, sign_mask);
      a30 = AddAbsDiff(a30, q0, r3 + i, sign_mask);
      a31 = AddAbsDiff(a31, q1, r3 + i + 8, sign_mask);
      if (i == 0 && may_exit) {
        const __m128 partial =
            Hsum4(_mm256_add_ps(a00, a01), _mm256_add_ps(a10, a11),
                  _mm256_add_ps(a20, a21), _mm256_add_ps(a30, a31));
        if (_mm_movemask_ps(_mm_cmpgt_ps(partial, vbound)) == 0xF) {
          _mm_storeu_ps(out + r, partial);
          exited = true;
          break;
        }
      }
    }
    if (exited) continue;
    for (; i + 8 <= dim; i += 8) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      a00 = AddAbsDiff(a00, q0, r0 + i, sign_mask);
      a10 = AddAbsDiff(a10, q0, r1 + i, sign_mask);
      a20 = AddAbsDiff(a20, q0, r2 + i, sign_mask);
      a30 = AddAbsDiff(a30, q0, r3 + i, sign_mask);
    }
    float s[4];
    _mm_storeu_ps(s, Hsum4(_mm256_add_ps(a00, a01), _mm256_add_ps(a10, a11),
                           _mm256_add_ps(a20, a21), _mm256_add_ps(a30, a31)));
    for (; i < dim; ++i) {
      s[0] += std::fabs(q[i] - r0[i]);
      s[1] += std::fabs(q[i] - r1[i]);
      s[2] += std::fabs(q[i] - r2[i]);
      s[3] += std::fabs(q[i] - r3[i]);
    }
    std::memcpy(out + r, s, sizeof(s));
  }
  for (; r < num_rows; ++r) out[r] = L1Distance(q, row_at(r), dim);
}

__attribute__((target("avx2,fma")))
void ScanL1(const float* q, const float* rows, size_t num_rows, size_t dim,
            float bound, float* out) {
  ScanL1Rows(q, ContiguousRows{rows, dim}, num_rows, dim, bound, out);
}

__attribute__((target("avx2,fma")))
void ScanL1Indexed(const float* q, const float* rows, const uint32_t* idx,
                   size_t n, size_t dim, float bound, float* out) {
  ScanL1Rows(q, IndexedRows{rows, idx, dim}, n, dim, bound, out);
}

// The select kernel below leaves the sums of rows 0-7 of a group in the
// 32-bit lane order [0, 2, 4, 6, 1, 3, 5, 7], so row i's bit in its
// compare mask is kRowBit[i]. For each mask: the rows whose bits are set,
// in ascending order (zero-padded), and how many there are.
constexpr uint32_t kRowBit[8] = {0, 4, 1, 5, 2, 6, 3, 7};
struct SelectLanes {
  uint32_t rows[256][8];
  uint32_t count[256];
};
constexpr SelectLanes MakeSelectLanes() {
  SelectLanes t{};
  for (uint32_t m = 0; m < 256; ++m) {
    for (uint32_t row = 0; row < 8; ++row) {
      if ((m >> kRowBit[row]) & 1) t.rows[m][t.count[m]++] = row;
    }
  }
  return t;
}
constexpr SelectLanes kSelectLanes = MakeSelectLanes();

// Eight rows per four 32 B loads. _mm256_sad_epu8 against the query codes
// (repeated in both halves) leaves each row's two 8-byte half sums in two
// 64-bit lanes, each at most 8 * 255. Shifting the second of two such
// vectors up 32 bits and adding puts two rows' halves side by side, and one
// 64-bit unpack pair lines up each row's low half with its high half, so
// one add gives all eight sums. Only the SADs and unpacks need the
// shuffle port; the lane order they leave is undone by kSelectLanes, not
// by another shuffle. Comparing the sums with max_sad gives a mask of the
// selected rows, and one 32 B store of r + kSelectLanes.rows[mask]
// appends them without a branch: the count advances by the mask's
// popcount, and the store ends at idx[n + 7] with n <= r, inside the
// caller's num_rows entries.
__attribute__((target("avx2")))
size_t SadU8x16Select(const uint8_t* q, const uint8_t* codes, size_t num_rows,
                      uint32_t max_sad, uint32_t* idx) {
  const __m128i q16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  const __m256i qq = _mm256_set_m128i(q16, q16);
  // Sums are at most 16 * 255, so a clamped threshold compares as signed.
  const __m256i vmax = _mm256_set1_epi32(
      static_cast<int>(std::min<uint32_t>(max_sad, 16 * 255)));
  const __m256i eight = _mm256_set1_epi32(8);
  __m256i vr = _mm256_setzero_si256();
  size_t n = 0;
  size_t r = 0;
  for (; r + 8 <= num_rows; r += 8) {
    const __m256i* p = reinterpret_cast<const __m256i*>(codes + r * 16);
    // 64-bit lanes [r0 lo, r0 hi | r1 lo, r1 hi], then r2/r3, r4/r5, r6/r7.
    const __m256i s01 = _mm256_sad_epu8(_mm256_loadu_si256(p), qq);
    const __m256i s23 = _mm256_sad_epu8(_mm256_loadu_si256(p + 1), qq);
    const __m256i s45 = _mm256_sad_epu8(_mm256_loadu_si256(p + 2), qq);
    const __m256i s67 = _mm256_sad_epu8(_mm256_loadu_si256(p + 3), qq);
    // 32-bit lanes [r0 lo, r2 lo, r0 hi, r2 hi | r1 lo, r3 lo, r1 hi, r3 hi]
    // and the same for r4..r7.
    const __m256i t = _mm256_add_epi32(s01, _mm256_slli_epi64(s23, 32));
    const __m256i u = _mm256_add_epi32(s45, _mm256_slli_epi64(s67, 32));
    // [r0, r2, r4, r6 | r1, r3, r5, r7].
    const __m256i sums = _mm256_add_epi32(_mm256_unpacklo_epi64(t, u),
                                          _mm256_unpackhi_epi64(t, u));
    const __m256i over = _mm256_cmpgt_epi32(sums, vmax);
    const int keep = _mm256_movemask_ps(_mm256_castsi256_ps(over)) ^ 0xFF;
    const __m256i rows = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kSelectLanes.rows[keep]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + n),
                        _mm256_add_epi32(rows, vr));
    n += kSelectLanes.count[keep];
    vr = _mm256_add_epi32(vr, eight);
  }
  return scalar::SadU8x16SelectFrom(q, codes, r, num_rows, max_sad, idx, n);
}

// 6x16 micro-kernel: 12 YMM accumulators + 2 B lanes + 1 A broadcast stay
// resident in the 16 architectural registers; panels arrive packed and
// zero-padded, so no edge logic here.
__attribute__((target("avx2,fma")))
void MicroKernel(size_t kc, const float* a, const float* b, float* out) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    b += kNr;
    __m256 av;
    av = _mm256_set1_ps(a[0]);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_set1_ps(a[1]);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_set1_ps(a[2]);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_set1_ps(a[3]);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_set1_ps(a[4]);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_set1_ps(a[5]);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
    a += kMr;
  }
  _mm256_storeu_ps(out + 0 * kNr, c00);
  _mm256_storeu_ps(out + 0 * kNr + 8, c01);
  _mm256_storeu_ps(out + 1 * kNr, c10);
  _mm256_storeu_ps(out + 1 * kNr + 8, c11);
  _mm256_storeu_ps(out + 2 * kNr, c20);
  _mm256_storeu_ps(out + 2 * kNr + 8, c21);
  _mm256_storeu_ps(out + 3 * kNr, c30);
  _mm256_storeu_ps(out + 3 * kNr + 8, c31);
  _mm256_storeu_ps(out + 4 * kNr, c40);
  _mm256_storeu_ps(out + 4 * kNr + 8, c41);
  _mm256_storeu_ps(out + 5 * kNr, c50);
  _mm256_storeu_ps(out + 5 * kNr + 8, c51);
}

void Gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k,
          float alpha, const float* a, size_t lda, const float* b,
          size_t ldb, float beta, float* c, size_t ldc) {
  static const GemmPrims prims = {Dot, Axpy, Scale, MicroKernel};
  GemmDriver(prims, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta,
             c, ldc);
}

__attribute__((target("avx2"))) inline int32_t HsumI32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(lo);
}

// int8 pairs widen to int16 (no overflow: |a*b| <= 127^2), madd_epi16 sums
// adjacent pairs into exact int32 lanes.
__attribute__((target("avx2")))
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  int32_t s = HsumI32(acc);
  for (; i < n; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
}

__attribute__((target("avx2")))
int32_t L1DistanceI8(const int8_t* a, const int8_t* b, size_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    __m256i d = _mm256_abs_epi16(_mm256_sub_epi16(va, vb));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, ones));
  }
  int32_t s = HsumI32(acc);
  for (; i < n; ++i) {
    s += std::abs(static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]));
  }
  return s;
}

__attribute__((target("avx2,fma")))
void ScanDotI8(const int8_t* q, float q_scale, const int8_t* rows,
               const float* scales, size_t num_rows, size_t dim, float* out) {
  // Same dequant expression as the scalar backend — the int32 accumulations
  // are exact, so scan_dot_i8 is bit-identical across backends.
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = (q_scale * scales[r]) *
             static_cast<float>(DotI8(q, rows + r * dim, dim));
  }
}

__attribute__((target("avx2,fma")))
void ScanL1I8(const float* q, const int8_t* rows, const float* scales,
              size_t num_rows, size_t dim, float* out) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  for (size_t r = 0; r < num_rows; ++r) {
    const int8_t* row = rows + r * dim;
    const float sc = scales[r];
    const __m256 vs = _mm256_set1_ps(sc);
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      __m256i w = _mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + i)));
      __m256 rf = _mm256_cvtepi32_ps(w);
      // q - scale*row, dequant fused into the fnmadd — never hits memory.
      __m256 d = _mm256_fnmadd_ps(vs, rf, _mm256_loadu_ps(q + i));
      acc = _mm256_add_ps(acc, _mm256_andnot_ps(sign_mask, d));
    }
    float s = Hsum(acc);
    for (; i < dim; ++i) {
      s += std::fabs(q[i] - sc * static_cast<float>(row[i]));
    }
    out[r] = s;
  }
}

}  // namespace avx2

#endif  // OPENBG_SIMD_X86

// -------------------------------------------------------------------- NEON
// aarch64 mandates NEON, so no runtime feature check is needed — the whole
// backend is simply the default there.

#if OPENBG_SIMD_NEON

namespace neon {

inline float Hsum(float32x4_t v) { return vaddvq_f32(v); }

float Dot(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float s = Hsum(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_n_f32(vld1q_f32(y + i), vld1q_f32(x + i), alpha));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(float alpha, float* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_n_f32(vld1q_f32(x + i), alpha));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

float L1Distance(const float* a, const float* b, size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = vaddq_f32(acc, vabdq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  float s = Hsum(acc);
  for (; i < n; ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

float L2DistanceSquared(const float* a, const float* b, size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc = vfmaq_f32(acc, d, d);
  }
  float s = Hsum(acc);
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

// 6x16 micro-kernel mirroring the AVX2 one: 24 q-register accumulators plus
// the 4 B lanes fit aarch64's 32 vector registers.
void MicroKernel(size_t kc, const float* a, const float* b, float* out) {
  float32x4_t acc[kMr][4];
  for (size_t i = 0; i < kMr; ++i) {
    for (size_t j = 0; j < 4; ++j) acc[i][j] = vdupq_n_f32(0.0f);
  }
  for (size_t p = 0; p < kc; ++p) {
    float32x4_t b0 = vld1q_f32(b);
    float32x4_t b1 = vld1q_f32(b + 4);
    float32x4_t b2 = vld1q_f32(b + 8);
    float32x4_t b3 = vld1q_f32(b + 12);
    b += kNr;
    for (size_t i = 0; i < kMr; ++i) {
      const float av = a[i];
      acc[i][0] = vfmaq_n_f32(acc[i][0], b0, av);
      acc[i][1] = vfmaq_n_f32(acc[i][1], b1, av);
      acc[i][2] = vfmaq_n_f32(acc[i][2], b2, av);
      acc[i][3] = vfmaq_n_f32(acc[i][3], b3, av);
    }
    a += kMr;
  }
  for (size_t i = 0; i < kMr; ++i) {
    for (size_t j = 0; j < 4; ++j) vst1q_f32(out + i * kNr + j * 4, acc[i][j]);
  }
}

void Gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k,
          float alpha, const float* a, size_t lda, const float* b,
          size_t ldb, float beta, float* c, size_t ldc) {
  static const GemmPrims prims = {Dot, Axpy, Scale, MicroKernel};
  GemmDriver(prims, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta,
             c, ldc);
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    int16x8_t va = vmovl_s8(vld1_s8(a + i));
    int16x8_t vb = vmovl_s8(vld1_s8(b + i));
    acc = vmlal_s16(acc, vget_low_s16(va), vget_low_s16(vb));
    acc = vmlal_s16(acc, vget_high_s16(va), vget_high_s16(vb));
  }
  int32_t s = vaddvq_s32(acc);
  for (; i < n; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
}

int32_t L1DistanceI8(const int8_t* a, const int8_t* b, size_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Widening absolute difference is exact (|a-b| <= 254 fits int16).
    int16x8_t d = vabdl_s8(vld1_s8(a + i), vld1_s8(b + i));
    acc = vpadalq_s16(acc, d);
  }
  int32_t s = vaddvq_s32(acc);
  for (; i < n; ++i) {
    s += std::abs(static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]));
  }
  return s;
}

void ScanL1(const float* q, const float* rows, size_t num_rows, size_t dim,
            float /*bound*/, float* out) {
  ScanL1PerRow<L1Distance>(q, ContiguousRows{rows, dim}, num_rows, dim, out);
}

void ScanL1Indexed(const float* q, const float* rows, const uint32_t* idx,
                   size_t n, size_t dim, float /*bound*/, float* out) {
  ScanL1PerRow<L1Distance>(q, IndexedRows{rows, idx, dim}, n, dim, out);
}

void ScanDotI8(const int8_t* q, float q_scale, const int8_t* rows,
               const float* scales, size_t num_rows, size_t dim, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = (q_scale * scales[r]) *
             static_cast<float>(DotI8(q, rows + r * dim, dim));
  }
}

void ScanL1I8(const float* q, const int8_t* rows, const float* scales,
              size_t num_rows, size_t dim, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    const int8_t* row = rows + r * dim;
    const float sc = scales[r];
    float32x4_t acc = vdupq_n_f32(0.0f);
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      int16x8_t w = vmovl_s8(vld1_s8(row + i));
      float32x4_t f0 = vcvtq_f32_s32(vmovl_s16(vget_low_s16(w)));
      float32x4_t f1 = vcvtq_f32_s32(vmovl_s16(vget_high_s16(w)));
      float32x4_t d0 = vfmsq_n_f32(vld1q_f32(q + i), f0, sc);
      float32x4_t d1 = vfmsq_n_f32(vld1q_f32(q + i + 4), f1, sc);
      acc = vaddq_f32(acc, vabsq_f32(d0));
      acc = vaddq_f32(acc, vabsq_f32(d1));
    }
    float s = Hsum(acc);
    for (; i < dim; ++i) {
      s += std::fabs(q[i] - sc * static_cast<float>(row[i]));
    }
    out[r] = s;
  }
}

}  // namespace neon

#endif  // OPENBG_SIMD_NEON

// ---------------------------------------------------------------- dispatch

constexpr KernelTable kScalarTable = {
    "scalar",          scalar::Dot,
    scalar::Axpy,      scalar::Scale,
    scalar::L1Distance, scalar::L2DistanceSquared,
    scalar::Gemm,
    scalar::ScanL1,    scalar::ScanL1Indexed,
    scalar::SadU8x16Select,
    scalar::DotI8,     scalar::L1DistanceI8,
    scalar::ScanDotI8, scalar::ScanL1I8,
};

#if OPENBG_SIMD_X86
constexpr KernelTable kAvx2Table = {
    "avx2",           avx2::Dot,
    avx2::Axpy,       avx2::Scale,
    avx2::L1Distance, avx2::L2DistanceSquared,
    avx2::Gemm,
    avx2::ScanL1,     avx2::ScanL1Indexed,
    avx2::SadU8x16Select,
    avx2::DotI8,      avx2::L1DistanceI8,
    avx2::ScanDotI8,  avx2::ScanL1I8,
};
bool Avx2Supported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif

#if OPENBG_SIMD_NEON
constexpr KernelTable kNeonTable = {
    "neon",           neon::Dot,
    neon::Axpy,       neon::Scale,
    neon::L1Distance, neon::L2DistanceSquared,
    neon::Gemm,
    neon::ScanL1,     neon::ScanL1Indexed,
    scalar::SadU8x16Select,  // exact integers: no NEON version
    neon::DotI8,      neon::L1DistanceI8,
    neon::ScanDotI8,  neon::ScanL1I8,
};
#endif

const KernelTable* PickAuto() {
#if OPENBG_SIMD_X86
  if (Avx2Supported()) return &kAvx2Table;
#endif
#if OPENBG_SIMD_NEON
  return &kNeonTable;
#endif
  return &kScalarTable;
}

// nullptr = request names a backend this CPU cannot run.
const KernelTable* ResolveName(const std::string& name) {
  if (name.empty() || name == "auto") return PickAuto();
  if (name == "scalar") return &kScalarTable;
#if OPENBG_SIMD_X86
  if (name == "avx2" && Avx2Supported()) return &kAvx2Table;
#endif
#if OPENBG_SIMD_NEON
  if (name == "neon") return &kNeonTable;
#endif
  return nullptr;
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const KernelTable& Scalar() { return kScalarTable; }

const KernelTable& Active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    const char* env = std::getenv("OPENBG_KERNEL");
    const std::string req = env == nullptr ? "" : env;
    t = ResolveName(req);
    if (t == nullptr) {
      OPENBG_LOG(Warning) << "OPENBG_KERNEL=" << req
                          << " unknown or unsupported here; using auto";
      t = PickAuto();
    }
    // Racing first calls all resolve to the same table; the store is
    // idempotent.
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

std::vector<std::string> SupportedKernels() {
  std::vector<std::string> names = {"scalar"};
#if OPENBG_SIMD_X86
  if (Avx2Supported()) names.push_back("avx2");
#endif
#if OPENBG_SIMD_NEON
  names.push_back("neon");
#endif
  return names;
}

bool ForceKernel(const std::string& name) {
  const KernelTable* t = ResolveName(name);
  if (t == nullptr) return false;
  g_active.store(t, std::memory_order_release);
  return true;
}

}  // namespace openbg::nn::simd
