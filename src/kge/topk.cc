#include "kge/topk.h"

#include "nn/simd.h"
#include "util/logging.h"

namespace openbg::kge {
namespace {

// Rows per scan call: the scores live in a 1 KiB stack buffer, and the
// heap's threshold is re-read between blocks.
constexpr size_t kScanBlock = 256;

// Calls fn(i) for every i < n whose value may enter the heap: v[i] not
// above `limit` for a distance (kDistance), not below it for a score. NaN
// always passes — the heap alone decides where it ranks.
template <bool kDistance, typename Fn>
void ForEachEntrant(const float* v, size_t n, float limit, Fn&& fn) {
  for (size_t i = 0; i < n; ++i) {
    if (kDistance ? !(v[i] > limit) : !(v[i] < limit)) fn(i);
  }
}

}  // namespace

void TopKHeap::Insert(const ScoredEntity& cand) {
  if (heap_.size() < k_) {
    heap_.push_back(cand);
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), RanksBefore);
    heap_.back() = cand;
  }
  std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
}

std::vector<ScoredEntity> SelectTopK(const std::vector<float>& scores,
                                     size_t k) {
  TopKHeap heap(std::min(k, scores.size()));
  for (uint32_t id = 0; id < scores.size(); ++id) heap.Push({id, scores[id]});
  return heap.Take();
}

void PrefixCodes::Build(const nn::Matrix& table) {
  codes_.clear();
  scale_ = 0.0;
  max_row_err_ = 0.0;
  if (table.cols() <= kDims) return;
  float max_abs = 0.0f;
  for (size_t r = 0; r < table.rows(); ++r) {
    const float* row = table.Row(r);
    for (size_t i = 0; i < kDims; ++i) {
      if (std::isfinite(row[i])) {
        max_abs = std::max(max_abs, std::fabs(row[i]));
      }
    }
  }
  scale_ = static_cast<double>(max_abs) / 127.0;
  if (scale_ == 0.0) return;
  codes_.resize(table.rows() * kDims);
  for (size_t r = 0; r < table.rows(); ++r) {
    const float* row = table.Row(r);
    uint8_t* code = codes_.data() + r * kDims;
    double err = 0.0;
    for (size_t i = 0; i < kDims; ++i) {
      const int v = Quantize(row[i]);
      code[i] = static_cast<uint8_t>(v + 128);
      err += std::fabs(row[i] - scale_ * v);
    }
    if (std::isfinite(err)) max_row_err_ = std::max(max_row_err_, err);
  }
}

int PrefixCodes::Quantize(double x) const {
  if (std::isnan(x)) return 0;
  // Rounds half up: the shifted value lies in [0.5, 255.5], where the
  // conversion's truncation is a floor. Any rounding would do, since the
  // errors are measured from the codes chosen.
  return static_cast<int>(std::clamp(x / scale_, -128.0, 127.0) + 128.5) -
         128;
}

double PrefixCodes::EncodeQuery(const float* q, uint8_t* out) const {
  double err = 0.0;
  for (size_t i = 0; i < kDims; ++i) {
    if (!std::isfinite(q[i])) return -1.0;
    const int v = Quantize(q[i]);
    out[i] = static_cast<uint8_t>(v + 128);
    err += std::fabs(q[i] - scale_ * v);
  }
  return err;
}

uint32_t PrefixCodes::MaxSad(float bound, double query_err, size_t dim) const {
  // A computed l1_distance of dim terms is at least (1 - gamma) times the
  // exact one, so a row passing `bound` has exact distance <= max_dist.
  const double n_u = static_cast<double>(dim) * 0x1p-24;
  if (!(bound < std::numeric_limits<float>::infinity()) || n_u >= 0.5) {
    return kMaxSad;
  }
  const double gamma = n_u / (1.0 - n_u);
  const double max_dist = static_cast<double>(bound) / (1.0 - gamma);
  // Its prefix distance is at least scale * SAD minus both codes' errors.
  // The 1e-6 covers the rounding of these few double operations.
  const double sad = (max_dist + query_err + max_row_err_) / scale_ + 1e-6;
  if (sad >= kMaxSad) return kMaxSad;
  return static_cast<uint32_t>(std::max(sad, 0.0));
}

std::vector<ScoredEntity> TopKTails(const KgeModel& model, uint32_t h,
                                    uint32_t r, size_t k, TopKStats* stats) {
  TailScanSpec spec;
  if (!model.GetTailScanSpec(&spec) || spec.table == nullptr) {
    std::vector<float> scores;
    model.ScoreTails(h, r, &scores);
    if (stats != nullptr) stats->rescored += scores.size();
    return SelectTopK(scores, k);
  }
  std::vector<float> q;
  model.TailScanQuery(h, r, &q);
  const size_t n = model.num_entities();
  const size_t dim = q.size();
  OPENBG_CHECK(spec.table->rows() >= n && spec.table->cols() == dim)
      << "tail-scan table does not match the model";
  TopKHeap heap(std::min(k, n));
  if (k == 0) return heap.Take();

  const bool l1 = spec.metric == TailScanSpec::Metric::kNegL1;
  const PrefixCodes* codes = l1 ? spec.codes : nullptr;
  OPENBG_CHECK(codes == nullptr ||
               codes->bytes() == spec.table->rows() * PrefixCodes::kDims)
      << "prefix codes do not match the tail-scan table";
  uint8_t q_codes[PrefixCodes::kDims];
  const double q_err =
      codes != nullptr ? codes->EncodeQuery(q.data(), q_codes) : -1.0;

  // Every row reaching the heap is scored exactly — scan_l1 is what
  // TransE::ScoreTails runs, scan_l1_indexed is the same kernel over the
  // rows a code scan selected, the dot rows are what RowDots' matrix-vector
  // gemm computes per row, and a row the L1 scan cut short is above the
  // bound, so the filter drops it. A row skipped on its codes is provably
  // above the bound too. The threshold read at block start is never above
  // the live one (it only rises as the heap fills), so the heap sees every
  // row SelectTopK would have kept.
  const nn::simd::KernelTable& kt = nn::simd::Active();
  float buf[kScanBlock];
  uint32_t idx[kScanBlock];
  uint64_t rescored = 0;
  for (size_t begin = 0; begin < n; begin += kScanBlock) {
    const size_t count = std::min(kScanBlock, n - begin);
    const float* rows = spec.table->Row(begin);
    const float threshold = heap.Threshold();
    const auto id = [begin](size_t i) { return static_cast<uint32_t>(begin + i); };
    if (!l1) {
      for (size_t i = 0; i < count; ++i) {
        buf[i] = kt.dot(rows + i * dim, q.data(), dim);
      }
      ForEachEntrant<false>(buf, count, threshold, [&](size_t i) {
        heap.Push({id(i), buf[i]});
      });
      rescored += count;
      continue;
    }
    // score = -distance: a row can enter iff its distance is not above
    // -threshold, which is also the bound the scan may stop rows at.
    const float bound = -threshold;
    const uint32_t max_sad = q_err >= 0.0
                                 ? codes->MaxSad(bound, q_err, dim)
                                 : PrefixCodes::kMaxSad;
    if (max_sad < PrefixCodes::kMaxSad) {
      // The rows whose codes may pass, rescored by the same scan over
      // gathered rows: one it cuts short is above the bound.
      const size_t m =
          kt.sad_u8x16_select(q_codes, codes->Row(begin), count, max_sad, idx);
      kt.scan_l1_indexed(q.data(), rows, idx, m, dim, bound, buf);
      ForEachEntrant<true>(buf, m, bound, [&](size_t j) {
        heap.Push({id(idx[j]), -buf[j]});
      });
      rescored += m;
    } else {
      kt.scan_l1(q.data(), rows, count, dim, bound, buf);
      ForEachEntrant<true>(buf, count, bound, [&](size_t i) {
        heap.Push({id(i), -buf[i]});
      });
      rescored += count;
    }
  }
  if (stats != nullptr) stats->rescored += rescored;
  return heap.Take();
}

}  // namespace openbg::kge
