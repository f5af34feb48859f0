#ifndef OPENBG_KGE_TOPK_H_
#define OPENBG_KGE_TOPK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "kge/model.h"

namespace openbg::kge {

/// One ranked candidate tail of a top-K answer, with its exact score.
struct ScoredEntity {
  uint32_t id = 0;  // dataset-dense entity id
  float score = 0.0f;

  friend bool operator==(const ScoredEntity&, const ScoredEntity&) = default;
};

/// `a` ranks strictly before `b` in a top-K answer: higher score first,
/// lower id on ties. A total order, so top-K selection is deterministic —
/// what makes cached and recomputed answers, and the exact, fused and ANN
/// paths, byte-identical. NaN scores (a diverged model) rank as -inf:
/// comparing raw NaN would break strict weak ordering, which is UB in the
/// heap ops.
inline bool RanksBefore(const ScoredEntity& a, const ScoredEntity& b) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const float as = std::isnan(a.score) ? kNegInf : a.score;
  const float bs = std::isnan(b.score) ? kNegInf : b.score;
  if (as != bs) return as > bs;
  return a.id < b.id;
}

/// The k best candidates pushed so far under RanksBefore, in O(log k) per
/// push. The result depends only on the set of candidates pushed, not on
/// their order, and a candidate scoring below Threshold() can never enter —
/// so a caller may skip such candidates without changing the answer.
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) { heap_.reserve(k + 1); }

  /// The admission test stays inline: SelectTopK runs it once per entity,
  /// and only the rare entrant pays for the out-of-line heap update.
  void Push(const ScoredEntity& cand) {
    if (heap_.size() < k_ || (k_ > 0 && RanksBefore(cand, heap_.front()))) {
      Insert(cand);
    }
  }

  /// Every candidate that could still enter scores >= this (or is NaN, or
  /// ties it): the worst kept score once k candidates are kept, -inf while
  /// the heap is not full or its worst kept score is NaN (which ranks as
  /// -inf, so a lower-id NaN or -inf could still displace it). Needs k > 0.
  float Threshold() const {
    if (heap_.size() < k_ || std::isnan(heap_.front().score)) {
      return -std::numeric_limits<float>::infinity();
    }
    return heap_.front().score;
  }

  /// The kept candidates, best first. Leaves the heap empty.
  std::vector<ScoredEntity> Take() {
    std::sort_heap(heap_.begin(), heap_.end(), RanksBefore);
    return std::move(heap_);
  }

 private:
  void Insert(const ScoredEntity& cand);

  size_t k_;
  // The worst kept candidate sits at the front: make_heap puts the
  // comparator's maximum on top, and under RanksBefore-as-less that is the
  // element ranking last.
  std::vector<ScoredEntity> heap_;
};

/// Top-k of `scores` (indexed by entity id) under RanksBefore.
std::vector<ScoredEntity> SelectTopK(const std::vector<float>& scores,
                                     size_t k);

/// uint8 codes of the first kDims dims of every row of an L1 tail-scan
/// table, under one global scale s: code = round(clamp(x / s, -128, 127))
/// + 128, so x is about s * (code - 128). TopKTails reads these 16 bytes
/// per row to skip rows that provably cannot enter the top K, and rescores
/// the rest exactly (DESIGN.md §8 has the proof).
class PrefixCodes {
 public:
  static constexpr size_t kDims = 16;
  /// The largest SAD of two code rows.
  static constexpr uint32_t kMaxSad = kDims * 255;

  /// Codes of every row of `table`. Builds none (empty()) when the table
  /// has no more than kDims columns or the scale of its prefix is 0.
  void Build(const nn::Matrix& table);

  bool empty() const { return codes_.empty(); }
  size_t bytes() const { return codes_.size(); }
  const uint8_t* Row(size_t r) const { return codes_.data() + r * kDims; }

  /// Writes the codes of q[0, kDims) to `out` and returns their
  /// quantization error sum_i |q[i] - s * (out[i] - 128)|, or a negative
  /// value when a prefix value is not finite (no row may then be skipped).
  double EncodeQuery(const float* q, uint8_t* out) const;

  /// The largest code SAD a row may have and still score
  /// l1_distance(q, row, dim) <= bound, for a query whose codes carry
  /// `query_err` >= 0: a row above it cannot pass the bound. kMaxSad
  /// (nothing skipped) when the bound is too loose or not finite.
  uint32_t MaxSad(float bound, double query_err, size_t dim) const;

 private:
  // code - 128 for one value; NaN takes 0, so every value has a code.
  int Quantize(double x) const;

  std::vector<uint8_t> codes_;
  double scale_ = 0.0;
  // The largest quantization error sum_i |x_i - s * (code_i - 128)| of a
  // row whose prefix is finite. A row with a non-finite prefix value
  // scores NaN or +inf, which cannot enter once the bound is finite.
  double max_row_err_ = 0.0;
};

/// What TopKTails did. `rescored` counts rows scored in float; the rest
/// were skipped on their codes.
struct TopKStats {
  uint64_t rescored = 0;
};

/// Top-k tails of (h, r), byte-identical to
/// SelectTopK(ScoreTails(h, r), k) under every kernel backend. A model with
/// a tail-scan spec is scored and selected in one pass over its table:
/// row blocks are scanned into a stack buffer with the heap's current
/// Threshold() as the scan bound, and only rows that can still enter reach
/// the heap. Once that bound is finite, an L1 spec with prefix codes scans
/// the codes first and rescores only rows whose codes may pass it. Any
/// other model falls back to ScoreTails + SelectTopK. `stats`, when given,
/// is added to.
std::vector<ScoredEntity> TopKTails(const KgeModel& model, uint32_t h,
                                    uint32_t r, size_t k,
                                    TopKStats* stats = nullptr);

}  // namespace openbg::kge

#endif  // OPENBG_KGE_TOPK_H_
