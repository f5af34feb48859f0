#include "nn/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace openbg::nn {
namespace {

// Restores auto dispatch when a test that forces a backend exits, so test
// order never leaks a forced kernel into later tests.
struct ScopedKernel {
  explicit ScopedKernel(const std::string& name) {
    ok = simd::ForceKernel(name);
  }
  ~ScopedKernel() { simd::ForceKernel("auto"); }
  bool ok;
};

std::vector<float> RandomVector(util::Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng->UniformDouble() * 2.0 - 1.0);
  }
  return v;
}

// Lengths straddling every vector-width boundary the backends care about:
// below one lane group (1, 7), exactly one (8), one plus a tail (9), and
// the same around the 16-wide unrolled loop (63, 64, 65).
const size_t kLengths[] = {1, 7, 8, 9, 63, 64, 65, 100, 256, 1000};

// Reassociated 8-lane sums differ from the scalar left-to-right fold in the
// low bits; the bound scales with the number of terms (values are in
// [-1, 1], so per-term magnitude is O(1)).
float SumTolerance(size_t n) { return 1e-5f * static_cast<float>(n + 8); }

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  auto kernels = simd::SupportedKernels();
  EXPECT_NE(std::find(kernels.begin(), kernels.end(), "scalar"),
            kernels.end());
  EXPECT_TRUE(simd::ForceKernel("scalar"));
  EXPECT_STREQ(simd::Active().name, "scalar");
  EXPECT_TRUE(simd::ForceKernel("auto"));
}

TEST(SimdDispatchTest, UnsupportedNameIsRejected) {
  EXPECT_FALSE(simd::ForceKernel("no-such-backend"));
}

TEST(SimdParityTest, ReductionsMatchScalar) {
  const auto& scalar = simd::Scalar();
  util::Rng rng(101);
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const auto& k = simd::Active();
    for (size_t n : kLengths) {
      std::vector<float> a = RandomVector(&rng, n);
      std::vector<float> b = RandomVector(&rng, n);
      EXPECT_NEAR(k.dot(a.data(), b.data(), n),
                  scalar.dot(a.data(), b.data(), n), SumTolerance(n))
          << name << " dot n=" << n;
      EXPECT_NEAR(k.l1_distance(a.data(), b.data(), n),
                  scalar.l1_distance(a.data(), b.data(), n), SumTolerance(n))
          << name << " l1 n=" << n;
      EXPECT_NEAR(k.l2_distance_squared(a.data(), b.data(), n),
                  scalar.l2_distance_squared(a.data(), b.data(), n),
                  SumTolerance(n))
          << name << " l2 n=" << n;
    }
  }
}

TEST(SimdParityTest, ElementwiseMatchScalar) {
  const auto& scalar = simd::Scalar();
  util::Rng rng(102);
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const auto& k = simd::Active();
    for (size_t n : kLengths) {
      std::vector<float> x = RandomVector(&rng, n);
      std::vector<float> y = RandomVector(&rng, n);
      std::vector<float> y_ref = y;
      k.axpy(0.37f, x.data(), y.data(), n);
      scalar.axpy(0.37f, x.data(), y_ref.data(), n);
      for (size_t i = 0; i < n; ++i) {
        // FMA fuses a*x+y into one rounding; allow 1-ulp-ish slack.
        EXPECT_NEAR(y[i], y_ref[i], 1e-6f) << name << " axpy n=" << n;
      }
      std::vector<float> s = x, s_ref = x;
      k.scale(-1.75f, s.data(), n);
      scalar.scale(-1.75f, s_ref.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_FLOAT_EQ(s[i], s_ref[i]) << name << " scale n=" << n;
      }
    }
  }
}

TEST(SimdParityTest, GemmMatchesScalarAcrossShapesAndTransposes) {
  const auto& scalar = simd::Scalar();
  util::Rng rng(103);
  struct Shape {
    size_t m, n, k;
  };
  // Odd/even mixes around the 6x16 register tile, GEMV shapes (m == 1 and
  // n == 1), and one shape big enough to take several cache-block trips.
  const Shape shapes[] = {{1, 1, 1},   {2, 3, 4},   {6, 16, 8},  {7, 17, 9},
                          {5, 33, 63}, {13, 5, 65}, {1, 64, 65}, {64, 1, 65},
                          {1, 1, 300}, {96, 80, 72}};
  const float alphas[] = {1.0f, 0.5f};
  const float betas[] = {0.0f, 1.0f, -0.25f};
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const auto& kt = simd::Active();
    for (const Shape& s : shapes) {
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          // Stored dims: op(A) is m x k, op(B) is k x n.
          const size_t lda = ta ? s.m : s.k;
          const size_t ldb = tb ? s.k : s.n;
          std::vector<float> a = RandomVector(&rng, s.m * s.k);
          std::vector<float> b = RandomVector(&rng, s.k * s.n);
          std::vector<float> c0 = RandomVector(&rng, s.m * s.n);
          for (float alpha : alphas) {
            for (float beta : betas) {
              std::vector<float> c = c0, c_ref = c0;
              kt.gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(),
                      ldb, beta, c.data(), s.n);
              scalar.gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda,
                          b.data(), ldb, beta, c_ref.data(), s.n);
              const float tol = SumTolerance(s.k);
              for (size_t i = 0; i < s.m * s.n; ++i) {
                ASSERT_NEAR(c[i], c_ref[i], tol)
                    << name << " gemm m=" << s.m << " n=" << s.n
                    << " k=" << s.k << " ta=" << ta << " tb=" << tb
                    << " alpha=" << alpha << " beta=" << beta << " i=" << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, GemmAlphaZeroScalesCOnly) {
  util::Rng rng(104);
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    std::vector<float> a = RandomVector(&rng, 12);
    std::vector<float> b = RandomVector(&rng, 12);
    std::vector<float> c = RandomVector(&rng, 9);
    std::vector<float> expected = c;
    for (float& x : expected) x *= 0.5f;
    simd::Active().gemm(false, false, 3, 3, 4, 0.0f, a.data(), 4, b.data(),
                        3, 0.5f, c.data(), 3);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_FLOAT_EQ(c[i], expected[i]) << name;
    }
  }
}

// The Matrix-level nn::Gemm wrapper must ride the dispatched table: under
// each forced backend its output must match a raw simd::Active().gemm call
// exactly, which fails if the wrapper bypasses dispatch.
TEST(SimdParityTest, MatrixGemmMatchesRawKernel) {
  util::Rng rng(105);
  const size_t m = 9, n = 20, k = 33;
  Matrix a(m, k), b(k, n), c(m, n);
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.UniformDouble();
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.UniformDouble();
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    c.Fill(0.0f);
    Gemm(a, false, b, false, 1.0f, 0.0f, &c);
    std::vector<float> c_raw(m * n, 0.0f);
    simd::Active().gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(),
                        n, 0.0f, c_raw.data(), n);
    for (size_t i = 0; i < m * n; ++i) {
      EXPECT_FLOAT_EQ(c.data()[i], c_raw[i]) << name;
    }
  }
}

TEST(SimdParityTest, RowDotsMatchesPerRowDot) {
  util::Rng rng(106);
  const size_t rows = 37, cols = 24;
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  }
  std::vector<float> q = RandomVector(&rng, cols);
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    // Full-width and prefix-width queries (ComplEx scores over 2*dim, text
    // models over dim <= cols).
    for (size_t d : {cols, cols / 2}) {
      std::vector<float> out;
      RowDots(m, q.data(), d, &out);
      ASSERT_EQ(out.size(), rows);
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_NEAR(out[r], simd::Dot(m.Row(r), q.data(), d),
                    SumTolerance(d))
            << name << " row=" << r << " d=" << d;
      }
    }
  }
}

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// A scan table of random rows with planted oddities: a NaN element, a row
// that is all NaN, +inf and -inf elements, and rows duplicating row 0.
std::vector<float> ScanTable(util::Rng* rng, size_t num_rows, size_t dim) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> rows = RandomVector(rng, num_rows * dim);
  auto row = [&](size_t r) { return rows.data() + (r % num_rows) * dim; };
  row(1)[dim / 2] = std::numeric_limits<float>::quiet_NaN();
  std::fill(row(2), row(2) + dim, std::numeric_limits<float>::quiet_NaN());
  row(3)[0] = kInf;
  row(4)[dim - 1] = -kInf;
  row(5)[0] = kInf;
  row(5)[dim - 1] = -kInf;
  for (size_t r : {size_t{6}, num_rows - 1}) {
    std::copy(row(0), row(0) + dim, row(r));
  }
  return rows;
}

// scan_l1 against the same backend's l1_distance, over every width 1..70
// and 128 (the 16-wide loop, the 8-wide step and the scalar tail in every
// combination) and row counts that leave a partial 4-row block. With bound
// +inf each output is bitwise the per-row result, NaN payloads included.
// With a finite bound, an output may stop short of the exact distance but
// never at or below the bound: bound < v <= exact, a NaN exact counting as
// +inf.
TEST(SimdParityTest, ScanL1MatchesPerRowL1Bitwise) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<size_t> dims(70);
  std::iota(dims.begin(), dims.end(), size_t{1});
  dims.push_back(128);
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const simd::KernelTable& kt = simd::Active();
    util::Rng rng(107);
    size_t cut_short = 0;
    for (size_t dim : dims) {
      for (size_t num_rows : {size_t{1}, size_t{6}, size_t{13}, size_t{39}}) {
        const std::vector<float> rows = ScanTable(&rng, num_rows, dim);
        const std::vector<float> q = RandomVector(&rng, dim);
        std::vector<float> l1(num_rows), out(num_rows);
        for (size_t r = 0; r < num_rows; ++r) {
          l1[r] = kt.l1_distance(q.data(), rows.data() + r * dim, dim);
        }
        // -inf and -1 sit below every distance; 0.3*dim about halfway
        // through the random rows' (mean |q - row| is 2/3 per dim).
        for (float bound : {kInf, -kInf, -1.0f, 0.3f * dim}) {
          kt.scan_l1(q.data(), rows.data(), num_rows, dim, bound, out.data());
          for (size_t r = 0; r < num_rows; ++r) {
            const float exact = l1[r];
            if (Bits(out[r]) == Bits(exact)) continue;
            ++cut_short;
            EXPECT_TRUE(out[r] > bound &&
                        (std::isnan(exact) || out[r] <= exact))
                << name << " scan_l1 dim=" << dim << " rows=" << num_rows
                << " r=" << r << " bound=" << bound << ": " << out[r]
                << " vs exact " << exact;
            ASSERT_NE(bound, kInf) << name << " inexact at bound +inf";
          }
        }
      }
    }
    // The blocked backend's early exit must actually run in this sweep.
    if (name == "avx2") {
      EXPECT_GT(cut_short, 0u);
    }
  }
}

// scan_l1_indexed against the same backend's l1_distance of the row each
// index names, under scan_l1's contract: exact and bitwise at bound +inf;
// at a finite bound either exact or cut short above it (a NaN exact
// counting as +inf). The indices come shuffled, repeated and descending,
// over row counts 0-9 and two that leave a partial 4-row group, widths on
// both sides of the 16-dim exit and every loop's tail, and a table with
// NaN and +/-inf rows.
TEST(SimdParityTest, ScanL1IndexedMatchesPerRowL1Bitwise) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr size_t kTableRows = 13;
  std::vector<size_t> counts(10);
  std::iota(counts.begin(), counts.end(), size_t{0});
  counts.push_back(27);
  counts.push_back(50);
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const simd::KernelTable& kt = simd::Active();
    util::Rng rng(109);
    size_t cut_short = 0;
    for (size_t dim : {size_t{17}, size_t{24}, size_t{64}, size_t{70}}) {
      const std::vector<float> rows = ScanTable(&rng, kTableRows, dim);
      const std::vector<float> q = RandomVector(&rng, dim);
      std::vector<float> l1(kTableRows);
      for (size_t r = 0; r < kTableRows; ++r) {
        l1[r] = kt.l1_distance(q.data(), rows.data() + r * dim, dim);
      }
      for (size_t n : counts) {
        for (int order = 0; order < 3; ++order) {
          // Random draws repeat and come out of order; then a descending
          // run and a run repeating the all-NaN row.
          std::vector<uint32_t> idx(n);
          for (size_t j = 0; j < n; ++j) {
            const size_t row = order == 0   ? rng.Uniform(kTableRows)
                               : order == 1 ? (n - j) % kTableRows
                                            : 2;
            idx[j] = static_cast<uint32_t>(row);
          }
          for (float bound : {kInf, -kInf, -1.0f, 0.3f * dim}) {
            // A sentinel past the end: the kernel writes n outputs.
            std::vector<float> out(n + 1, 12345.0f);
            kt.scan_l1_indexed(q.data(), rows.data(), idx.data(), n, dim,
                               bound, out.data());
            ASSERT_EQ(out[n], 12345.0f) << name << " wrote past end";
            for (size_t j = 0; j < n; ++j) {
              const float exact = l1[idx[j]];
              if (Bits(out[j]) == Bits(exact)) continue;
              ++cut_short;
              EXPECT_TRUE(out[j] > bound &&
                          (std::isnan(exact) || out[j] <= exact))
                  << name << " scan_l1_indexed dim=" << dim << " n=" << n
                  << " j=" << j << " row=" << idx[j] << " bound=" << bound
                  << ": " << out[j] << " vs exact " << exact;
              ASSERT_NE(bound, kInf) << name << " inexact at bound +inf";
            }
          }
        }
      }
    }
    // The blocked backend's early exit must actually run in this sweep.
    if (name == "avx2") {
      EXPECT_GT(cut_short, 0u);
    }
  }
}

// sad_u8x16_select against a plain per-row sum, on every backend: row
// counts 0-17 and 257 leave every partial 8-row group, with and without a
// whole group before it, the codes mix random bytes with the extremes 0,
// 1, 128 and 255 on both sides (|0 - 255| is the largest term, 16 * 255
// the largest sum), and every threshold from 0 to 16 * 255 runs, plus two
// above it. The selection must be exactly {r : sad(r) <= max_sad} in
// ascending order. As a row's SAD is the least threshold selecting it,
// this pins every row's SAD as well.
TEST(SimdParityTest, SadU8x16SelectMatchesPerRowSum) {
  constexpr uint8_t kEdges[] = {0, 1, 128, 255};
  constexpr uint32_t kMaxSad = 16 * 255;
  std::vector<size_t> counts(18);
  std::iota(counts.begin(), counts.end(), size_t{0});
  counts.push_back(257);
  std::vector<uint32_t> thresholds(kMaxSad + 1);
  std::iota(thresholds.begin(), thresholds.end(), 0u);
  thresholds.push_back(kMaxSad + 1);
  thresholds.push_back(std::numeric_limits<uint32_t>::max());
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const simd::KernelTable& kt = simd::Active();
    util::Rng rng(111);
    for (size_t num_rows : counts) {
      for (int trial = 0; trial < 8; ++trial) {
        auto draw = [&] {
          return trial < 4 ? kEdges[rng.Uniform(4)]
                           : static_cast<uint8_t>(rng.Uniform(256));
        };
        uint8_t q[16];
        for (uint8_t& x : q) x = draw();
        std::vector<uint8_t> codes(num_rows * 16);
        for (uint8_t& x : codes) x = draw();
        if (num_rows > 0 && trial == 0) {
          // One row as far from q as codes go.
          for (size_t i = 0; i < 16; ++i) codes[i] = q[i] < 128 ? 255 : 0;
        }
        std::vector<uint32_t> sad(num_rows, 0);
        for (size_t r = 0; r < num_rows; ++r) {
          for (size_t i = 0; i < 16; ++i) {
            sad[r] += static_cast<uint32_t>(
                std::abs(int{q[i]} - int{codes[r * 16 + i]}));
          }
        }
        std::vector<uint32_t> want;
        for (uint32_t max_sad : thresholds) {
          want.clear();
          for (size_t r = 0; r < num_rows; ++r) {
            if (sad[r] <= max_sad) want.push_back(static_cast<uint32_t>(r));
          }
          // A sentinel past the end: idx has room for num_rows entries.
          std::vector<uint32_t> idx(num_rows + 1, 0xDEADBEEFu);
          const size_t m = kt.sad_u8x16_select(q, codes.data(), num_rows,
                                               max_sad, idx.data());
          ASSERT_EQ(idx[num_rows], 0xDEADBEEFu) << name << " wrote past end";
          idx.resize(m);
          ASSERT_EQ(idx, want) << name << " rows=" << num_rows
                               << " trial=" << trial
                               << " max_sad=" << max_sad;
        }
      }
    }
  }
}

std::vector<int8_t> RandomCodes(util::Rng* rng, size_t n) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(static_cast<int>(rng->Uniform(255)) - 127);
  }
  return v;
}

// Int8 kernels back the ANN scan path, whose determinism guarantee rests on
// them: the integer reductions must be *exactly* equal across backends (the
// accumulator is a plain int32 sum, associative in any order), and the
// quantized dot-scan must be *bitwise* equal because all backends compute
// the identical dequant expression (q_scale * scale[r]) * float(int_acc).
// Sweep every width 1..1000 so no lane-boundary tail goes untested (8- and
// 16-wide groups, the 32-wide unroll, and every remainder of each).
TEST(SimdParityTest, Int8ReductionsExactlyMatchScalarAllWidths) {
  const auto& scalar = simd::Scalar();
  util::Rng rng(108);
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const auto& k = simd::Active();
    for (size_t n = 1; n <= 1000; ++n) {
      std::vector<int8_t> a = RandomCodes(&rng, n);
      std::vector<int8_t> b = RandomCodes(&rng, n);
      ASSERT_EQ(k.dot_i8(a.data(), b.data(), n),
                scalar.dot_i8(a.data(), b.data(), n))
          << name << " dot_i8 n=" << n;
      ASSERT_EQ(k.l1_distance_i8(a.data(), b.data(), n),
                scalar.l1_distance_i8(a.data(), b.data(), n))
          << name << " l1_i8 n=" << n;
    }
  }
}

TEST(SimdParityTest, Int8DotScanBitwiseMatchesScalarAllWidths) {
  const auto& scalar = simd::Scalar();
  util::Rng rng(109);
  const size_t kRows = 3;
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const auto& k = simd::Active();
    for (size_t dim = 1; dim <= 1000; ++dim) {
      std::vector<int8_t> q = RandomCodes(&rng, dim);
      std::vector<int8_t> rows = RandomCodes(&rng, kRows * dim);
      std::vector<float> scales(kRows);
      for (float& s : scales) {
        s = 1e-3f + static_cast<float>(rng.UniformDouble()) * 0.01f;
      }
      const float q_scale = 0.0123f;
      std::vector<float> out(kRows), out_ref(kRows);
      k.scan_dot_i8(q.data(), q_scale, rows.data(), scales.data(), kRows,
                    dim, out.data());
      scalar.scan_dot_i8(q.data(), q_scale, rows.data(), scales.data(),
                         kRows, dim, out_ref.data());
      for (size_t r = 0; r < kRows; ++r) {
        ASSERT_EQ(out[r], out_ref[r])
            << name << " scan_dot_i8 dim=" << dim << " row=" << r;
      }
    }
  }
}

TEST(SimdParityTest, Int8L1ScanMatchesScalarAllWidths) {
  const auto& scalar = simd::Scalar();
  util::Rng rng(110);
  const size_t kRows = 3;
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const auto& k = simd::Active();
    for (size_t dim = 1; dim <= 1000; ++dim) {
      std::vector<float> q = RandomVector(&rng, dim);
      std::vector<int8_t> rows = RandomCodes(&rng, kRows * dim);
      std::vector<float> scales(kRows);
      for (float& s : scales) {
        s = 1e-3f + static_cast<float>(rng.UniformDouble()) * 0.01f;
      }
      std::vector<float> out(kRows), out_ref(kRows);
      k.scan_l1_i8(q.data(), rows.data(), scales.data(), kRows, dim,
                   out.data());
      scalar.scan_l1_i8(q.data(), rows.data(), scales.data(), kRows, dim,
                        out_ref.data());
      for (size_t r = 0; r < kRows; ++r) {
        // Float accumulation reassociates across lanes; same bound as the
        // float reductions above.
        ASSERT_NEAR(out[r], out_ref[r], SumTolerance(dim))
            << name << " scan_l1_i8 dim=" << dim << " row=" << r;
      }
    }
  }
}

// Randomized sweep: many small odd shapes, both vector ops and gemm, to
// shake out tail-handling bugs the fixed grids might miss.
TEST(SimdParityTest, RandomizedShapes) {
  const auto& scalar = simd::Scalar();
  util::Rng rng(107);
  for (const std::string& name : simd::SupportedKernels()) {
    ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok) << name;
    const auto& kt = simd::Active();
    for (int trial = 0; trial < 50; ++trial) {
      const size_t n = 1 + rng.Uniform(130);
      std::vector<float> a = RandomVector(&rng, n);
      std::vector<float> b = RandomVector(&rng, n);
      EXPECT_NEAR(kt.dot(a.data(), b.data(), n),
                  scalar.dot(a.data(), b.data(), n), SumTolerance(n))
          << name << " n=" << n;
      const size_t m = 1 + rng.Uniform(9);
      const size_t cols = 1 + rng.Uniform(20);
      const size_t k = 1 + rng.Uniform(40);
      std::vector<float> ga = RandomVector(&rng, m * k);
      std::vector<float> gb = RandomVector(&rng, k * cols);
      std::vector<float> c(m * cols, 0.0f), c_ref(m * cols, 0.0f);
      kt.gemm(false, false, m, cols, k, 1.0f, ga.data(), k, gb.data(), cols,
              0.0f, c.data(), cols);
      scalar.gemm(false, false, m, cols, k, 1.0f, ga.data(), k, gb.data(),
                  cols, 0.0f, c_ref.data(), cols);
      for (size_t i = 0; i < c.size(); ++i) {
        ASSERT_NEAR(c[i], c_ref[i], SumTolerance(k))
            << name << " m=" << m << " n=" << cols << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace openbg::nn
