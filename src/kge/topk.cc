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

std::vector<ScoredEntity> TopKTails(const KgeModel& model, uint32_t h,
                                    uint32_t r, size_t k) {
  TailScanSpec spec;
  if (!model.GetTailScanSpec(&spec) || spec.table == nullptr) {
    std::vector<float> scores;
    model.ScoreTails(h, r, &scores);
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

  // Every row reaching the heap is scored exactly — scan_l1 is what
  // TransE::ScoreTails runs, the dot rows are what RowDots' matrix-vector
  // gemm computes per row, and a row the L1 scan cut short is above the
  // bound, so the filter drops it. The threshold read at
  // block start is never above the live one (it only rises as the heap
  // fills), so the heap sees every row SelectTopK would have kept.
  const nn::simd::KernelTable& kt = nn::simd::Active();
  const bool l1 = spec.metric == TailScanSpec::Metric::kNegL1;
  float buf[kScanBlock];
  for (size_t begin = 0; begin < n; begin += kScanBlock) {
    const size_t count = std::min(kScanBlock, n - begin);
    const float* rows = spec.table->Row(begin);
    const float threshold = heap.Threshold();
    const auto id = [begin](size_t i) { return static_cast<uint32_t>(begin + i); };
    if (l1) {
      // score = -distance: a row can enter iff its distance is not above
      // -threshold, which is also the bound the scan may stop rows at.
      kt.scan_l1(q.data(), rows, count, dim, -threshold, buf);
      ForEachEntrant<true>(buf, count, -threshold, [&](size_t i) {
        heap.Push({id(i), -buf[i]});
      });
    } else {
      for (size_t i = 0; i < count; ++i) {
        buf[i] = kt.dot(rows + i * dim, q.data(), dim);
      }
      ForEachEntrant<false>(buf, count, threshold, [&](size_t i) {
        heap.Push({id(i), buf[i]});
      });
    }
  }
  return heap.Take();
}

}  // namespace openbg::kge
