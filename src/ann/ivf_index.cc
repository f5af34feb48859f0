#include "ann/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/simd.h"
#include "util/logging.h"
#include "util/rng.h"

namespace openbg::ann {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

size_t AutoClusters(size_t num_entities) {
  size_t c = static_cast<size_t>(
      std::lround(std::sqrt(static_cast<double>(num_entities))));
  c = std::max<size_t>(4, std::min<size_t>(4096, c));
  return std::min(c, num_entities);
}

/// Seeded k-means++ init over `sample` rows: classic D^2 sampling with the
/// running min-distance array, deterministic in (table, seed).
void KMeansPlusPlusInit(const nn::Matrix& table,
                        const std::vector<size_t>& sample, size_t k,
                        size_t dim, util::Rng* rng, float* centroids) {
  const size_t s = sample.size();
  std::vector<float> min_d2(s, std::numeric_limits<float>::max());
  size_t first = rng->Uniform(s);
  std::copy_n(table.Row(sample[first]), dim, centroids);
  for (size_t c = 1; c < k; ++c) {
    const float* prev = centroids + (c - 1) * dim;
    double total = 0.0;
    for (size_t i = 0; i < s; ++i) {
      float d2 = nn::simd::Active().l2_distance_squared(
          table.Row(sample[i]), prev, dim);
      if (d2 < min_d2[i]) min_d2[i] = d2;
      total += min_d2[i];
    }
    size_t pick = 0;
    if (total > 0.0) {
      double target = rng->UniformDouble() * total;
      double acc = 0.0;
      for (size_t i = 0; i < s; ++i) {
        acc += min_d2[i];
        if (acc >= target) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng->Uniform(s);  // degenerate data: all points coincide
    }
    std::copy_n(table.Row(sample[pick]), dim, centroids + c * dim);
  }
}

uint32_t NearestCentroid(const float* row, const float* centroids, size_t k,
                         size_t dim) {
  uint32_t best = 0;
  float best_d2 = std::numeric_limits<float>::max();
  for (size_t c = 0; c < k; ++c) {
    float d2 =
        nn::simd::Active().l2_distance_squared(row, centroids + c * dim, dim);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<uint32_t>(c);
    }
  }
  return best;
}

}  // namespace

std::shared_ptr<const TailIndex> TailIndex::Build(const kge::KgeModel* model,
                                                  const IvfOptions& opts,
                                                  uint64_t model_generation) {
  if (model == nullptr) return nullptr;
  kge::TailScanSpec spec;
  if (!model->GetTailScanSpec(&spec) || spec.table == nullptr) return nullptr;
  const nn::Matrix& table = *spec.table;
  const size_t num_entities = table.rows();
  const size_t dim = table.cols();
  if (num_entities == 0 || dim == 0) return nullptr;

  auto index = std::shared_ptr<TailIndex>(new TailIndex());
  index->model_ = model;
  index->table_ = &table;
  index->metric_ = spec.metric;
  index->generation_ = model_generation;
  index->num_entities_ = num_entities;
  index->dim_ = dim;
  index->opts_ = opts;
  const size_t k = opts.num_clusters == 0
                       ? AutoClusters(num_entities)
                       : std::min(opts.num_clusters, num_entities);
  index->num_clusters_ = k;

  // --- seeded k-means over an (at most kmeans_sample-sized) sample.
  // Clustering always uses L2 geometry regardless of the scan metric (the
  // standard IVF coarse quantizer choice); the per-query probe order is
  // metric-aware, and the exact rescore makes retrieval correctness
  // independent of the partition quality — clustering only moves recall.
  util::Rng rng(opts.seed);
  const size_t sample_size =
      std::min(num_entities, std::max<size_t>(opts.kmeans_sample, k));
  std::vector<size_t> sample =
      rng.SampleWithoutReplacement(num_entities, sample_size);
  std::sort(sample.begin(), sample.end());  // deterministic scan order

  index->centroids_.assign(k * dim, 0.0f);
  KMeansPlusPlusInit(table, sample, k, dim, &rng, index->centroids_.data());

  std::vector<float> sums(k * dim);
  std::vector<size_t> counts(k);
  for (size_t iter = 0; iter < opts.kmeans_iters; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0f);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t idx : sample) {
      const float* row = table.Row(idx);
      uint32_t c = NearestCentroid(row, index->centroids_.data(), k, dim);
      nn::simd::Active().axpy(1.0f, row, sums.data() + c * dim, dim);
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      const float inv = 1.0f / static_cast<float>(counts[c]);
      float* dst = index->centroids_.data() + c * dim;
      for (size_t d = 0; d < dim; ++d) dst[d] = sums[c * dim + d] * inv;
    }
  }

  // --- final assignment of every entity + cluster-major packing. Bucket
  // fill iterates ids ascending, so within a cluster packed order == id
  // order: deterministic, and ties in the approximate ranking resolve the
  // same way on every build.
  std::vector<uint32_t> assign(num_entities);
  std::vector<size_t> sizes(k, 0);
  for (size_t e = 0; e < num_entities; ++e) {
    assign[e] = NearestCentroid(table.Row(e), index->centroids_.data(), k, dim);
    ++sizes[assign[e]];
  }
  index->cluster_offsets_.assign(k + 1, 0);
  for (size_t c = 0; c < k; ++c) {
    index->cluster_offsets_[c + 1] = index->cluster_offsets_[c] + sizes[c];
  }
  index->packed_ids_.resize(num_entities);
  std::vector<size_t> cursor(index->cluster_offsets_.begin(),
                             index->cluster_offsets_.end() - 1);
  for (size_t e = 0; e < num_entities; ++e) {
    index->packed_ids_[cursor[assign[e]]++] = static_cast<uint32_t>(e);
  }
  index->quant_.BuildPermuted(table, index->packed_ids_);
  return index;
}

size_t TailIndex::memory_bytes() const {
  return quant_.memory_bytes() + centroids_.size() * sizeof(float) +
         packed_ids_.size() * sizeof(uint32_t) +
         cluster_offsets_.size() * sizeof(size_t);
}

float TailIndex::ExactScore(const float* q, uint32_t id) const {
  const float* row = table_->Row(id);
  // Argument order matches the exact engine path to the letter: TransE's
  // ScoreTails calls L1Distance(target, row); RowDots' n==1 GEMV computes
  // dot(row, q). Same kernels, same order => bit-identical floats.
  if (metric_ == kge::TailScanSpec::Metric::kNegL1) {
    return -nn::simd::Active().l1_distance(q, row, dim_);
  }
  return nn::simd::Active().dot(row, q, dim_);
}

void TailIndex::RankClusters(const float* q, size_t np,
                             std::vector<uint32_t>* probe) const {
  // Probe cost: smaller = better. L1 distance to centroid for the L1
  // metric, negated inner product for dot. Ties break on cluster id so the
  // probe set is deterministic.
  std::vector<std::pair<float, uint32_t>> costs(num_clusters_);
  for (size_t c = 0; c < num_clusters_; ++c) {
    const float* cent = centroids_.data() + c * dim_;
    float cost = metric_ == kge::TailScanSpec::Metric::kNegL1
                     ? nn::simd::Active().l1_distance(q, cent, dim_)
                     : -nn::simd::Active().dot(cent, q, dim_);
    costs[c] = {cost, static_cast<uint32_t>(c)};
  }
  std::partial_sort(costs.begin(), costs.begin() + np, costs.end());
  probe->reserve(probe->size() + np);
  for (size_t i = 0; i < np; ++i) probe->push_back(costs[i].second);
}

void TailIndex::Retrieve(uint32_t h, uint32_t r, size_t depth, size_t nprobe,
                         std::vector<Candidate>* out,
                         SearchStats* stats) const {
  out->clear();
  std::vector<float> q;
  model_->TailScanQuery(h, r, &q);
  OPENBG_CHECK(q.size() == dim_);
  size_t np = nprobe == 0 ? opts_.nprobe : nprobe;
  np = std::min(np, num_clusters_);

  if (np >= num_clusters_) {
    // Full probe: rescore every entity exactly — the documented degenerate
    // branch that makes the ANN engine byte-identical to the exact one.
    out->resize(num_entities_);
    for (uint32_t e = 0; e < num_entities_; ++e) {
      (*out)[e] = {e, ExactScore(q.data(), e)};
    }
    if (stats != nullptr) {
      stats->probed_clusters += num_clusters_;
      stats->rescored += num_entities_;
    }
    return;
  }

  std::vector<uint32_t> probe;
  RankClusters(q.data(), np, &probe);

  // Quantized scan of the probed clusters. approx[i] pairs the approximate
  // score with the *packed* position (its entity id recovers later); the
  // dequant stays inside the scan kernels.
  const nn::simd::KernelTable& kt = nn::simd::Active();
  std::vector<std::pair<float, uint32_t>> approx;
  std::vector<float> buf;
  std::vector<int8_t> q8;
  float q_scale = 0.0f;
  if (metric_ == kge::TailScanSpec::Metric::kDot) {
    q8.resize(dim_);
    q_scale = QuantizeRowInt8(q.data(), dim_, q8.data());
  }
  size_t scanned = 0;
  for (uint32_t c : probe) {
    const size_t begin = cluster_offsets_[c];
    const size_t count = cluster_offsets_[c + 1] - begin;
    if (count == 0) continue;
    buf.resize(count);
    if (metric_ == kge::TailScanSpec::Metric::kDot) {
      kt.scan_dot_i8(q8.data(), q_scale, quant_.Row(begin),
                     quant_.scales() + begin, count, dim_, buf.data());
    } else {
      kt.scan_l1_i8(q.data(), quant_.Row(begin), quant_.scales() + begin,
                    count, dim_, buf.data());
      for (size_t i = 0; i < count; ++i) buf[i] = -buf[i];
    }
    approx.reserve(approx.size() + count);
    for (size_t i = 0; i < count; ++i) {
      approx.emplace_back(buf[i], static_cast<uint32_t>(begin + i));
    }
    scanned += count;
  }

  depth = std::max<size_t>(depth, 1);
  if (approx.size() > depth) {
    // Keep the `depth` best approximate candidates. Ties break on packed
    // position (== ascending id within a cluster), so the survivor set is
    // deterministic.
    auto better = [this](const std::pair<float, uint32_t>& a,
                         const std::pair<float, uint32_t>& b) {
      if (a.first != b.first) return a.first > b.first;
      return packed_ids_[a.second] < packed_ids_[b.second];
    };
    std::nth_element(approx.begin(), approx.begin() + depth - 1, approx.end(),
                     better);
    approx.resize(depth);
  }

  out->resize(approx.size());
  for (size_t i = 0; i < approx.size(); ++i) {
    const uint32_t id = packed_ids_[approx[i].second];
    (*out)[i] = {id, ExactScore(q.data(), id)};
  }
  if (stats != nullptr) {
    stats->probed_clusters += np;
    stats->scanned_rows += scanned;
    stats->rescored += out->size();
  }
}

void TailIndex::SearchTopK(uint32_t h, uint32_t r, size_t k, size_t nprobe,
                           std::vector<Candidate>* out,
                           SearchStats* stats) const {
  const size_t depth =
      std::max(std::max(k * opts_.rescore_multiple, opts_.min_rescore), k);
  std::vector<Candidate> cands;
  Retrieve(h, r, depth, nprobe, &cands, stats);
  // The serving order's bounded heap, over the candidate list.
  kge::TopKHeap heap(std::min(k, cands.size()));
  for (const Candidate& cand : cands) heap.Push(cand);
  *out = heap.Take();
}

void TailIndex::ScoreTailsApprox(uint32_t h, uint32_t r, size_t depth,
                                 size_t nprobe,
                                 std::vector<float>* out) const {
  std::vector<Candidate> cands;
  Retrieve(h, r, depth, nprobe, &cands, nullptr);
  out->assign(num_entities_, kNegInf);
  for (const Candidate& c : cands) (*out)[c.id] = c.score;
}

}  // namespace openbg::ann
