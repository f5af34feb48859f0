#ifndef OPENBG_ANN_IVF_INDEX_H_
#define OPENBG_ANN_IVF_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ann/quantizer.h"
#include "kge/model.h"
#include "kge/topk.h"

namespace openbg::ann {

/// Tuning knobs for the IVF tail index. Every default is chosen for the
/// bench scales in this repo; `num_clusters = 0` lets the build pick
/// ~sqrt(E).
struct IvfOptions {
  /// Coarse clusters. 0 = auto: clamp(round(sqrt(E)), 4, 4096), capped at E.
  size_t num_clusters = 0;
  /// Clusters scanned per query (capped at num_clusters). nprobe >=
  /// num_clusters degenerates to an exact scan through the rescore path —
  /// byte-identical to the exact engine (the determinism guarantee tests
  /// pin down).
  size_t nprobe = 8;
  /// Lloyd iterations of the seeded k-means build.
  size_t kmeans_iters = 10;
  /// Training-sample cap for k-means (the final assignment always covers
  /// every entity).
  size_t kmeans_sample = 20000;
  /// Seed for sampling + k-means++ init; the whole build is deterministic
  /// in (table contents, options).
  uint64_t seed = 42;
  /// Exact-rescore budget for SearchTopK: rescore
  /// max(k * rescore_multiple, min_rescore) best approximate candidates.
  size_t rescore_multiple = 16;
  size_t min_rescore = 128;
};

/// One retrieved candidate with its EXACT (rescored) float score — the
/// same type as a served top-K entry (serve::ScoredEntity).
using Candidate = kge::ScoredEntity;

struct SearchStats {
  size_t probed_clusters = 0;
  size_t scanned_rows = 0;  // rows passed through the quantized scan
  size_t rescored = 0;      // rows exactly rescored in float
};

/// IVF (inverted-file) index over a model's tail-scan table: seeded k-means
/// coarse clusters, cluster-major int8-quantized rows (per-row symmetric
/// scales), and an exact float rescore of the surviving candidates, so
/// returned scores — and therefore the (score desc, id asc) top-K order —
/// are bit-identical to the exact scan restricted to the retrieved set.
///
/// Lifetime: the index holds non-owning pointers to the model and its
/// embedding table. It is valid only while the model it was built from is
/// alive and unmutated; the serving layer enforces this by stamping each
/// index with (model pointer, context generation) and falling back to the
/// exact scan on any mismatch. All query methods are const-thread-safe.
class TailIndex {
 public:
  /// Builds from the model's tail-scan spec. Returns nullptr when the model
  /// does not expose one (TransH/TransD/TuckER — relation-dependent
  /// candidate side) or has no entities; callers then use the exact path.
  /// `model_generation` is the serving-context generation this index is
  /// valid for (0 outside a serving context).
  static std::shared_ptr<const TailIndex> Build(const kge::KgeModel* model,
                                                const IvfOptions& opts,
                                                uint64_t model_generation = 0);

  /// Exact-rescored candidate set for (h, r), unordered: the best ~`depth`
  /// approximate candidates from the `nprobe` nearest clusters, each with
  /// its exact float score. nprobe = 0 uses options().nprobe; nprobe >=
  /// num_clusters() rescores every entity (exact).
  void Retrieve(uint32_t h, uint32_t r, size_t depth, size_t nprobe,
                std::vector<Candidate>* out, SearchStats* stats) const;

  /// Top-k under the serving order (score desc, id asc, NaN as -inf), with
  /// exact scores. Rescore depth is max(k * rescore_multiple, min_rescore).
  void SearchTopK(uint32_t h, uint32_t r, size_t k, size_t nprobe,
                  std::vector<Candidate>* out, SearchStats* stats) const;

  /// Evaluator hook: fills `out` (size num_entities) with -inf, then
  /// scatters the exact scores of the retrieved candidates — so the
  /// existing full-buffer ranking machinery runs unchanged. A gold tail
  /// that escaped retrieval ranks last (censored); at the recall this
  /// index is tuned for that is rare and only ever *hurts* reported
  /// metrics, never inflates them.
  void ScoreTailsApprox(uint32_t h, uint32_t r, size_t depth, size_t nprobe,
                        std::vector<float>* out) const;

  const kge::KgeModel* built_for() const { return model_; }
  uint64_t model_generation() const { return generation_; }
  size_t num_clusters() const { return num_clusters_; }
  size_t num_entities() const { return num_entities_; }
  size_t cluster_size(size_t c) const {
    return cluster_offsets_[c + 1] - cluster_offsets_[c];
  }
  const IvfOptions& options() const { return opts_; }
  kge::TailScanSpec::Metric metric() const { return metric_; }
  /// Index footprint (codes + scales + centroids + id map), for metrics.
  size_t memory_bytes() const;

 private:
  TailIndex() = default;

  // Ranks clusters by query affinity and appends the `np` best to *probe.
  void RankClusters(const float* q, size_t np,
                    std::vector<uint32_t>* probe) const;
  float ExactScore(const float* q, uint32_t id) const;

  const kge::KgeModel* model_ = nullptr;
  const nn::Matrix* table_ = nullptr;  // float rows for the exact rescore
  kge::TailScanSpec::Metric metric_ = kge::TailScanSpec::Metric::kDot;
  uint64_t generation_ = 0;
  size_t num_entities_ = 0;
  size_t dim_ = 0;
  size_t num_clusters_ = 0;
  IvfOptions opts_;

  std::vector<float> centroids_;          // [num_clusters_ x dim_]
  std::vector<size_t> cluster_offsets_;   // CSR, size num_clusters_ + 1
  std::vector<uint32_t> packed_ids_;      // packed position -> entity id
  QuantizedMatrix quant_;                 // rows in packed (cluster) order
};

}  // namespace openbg::ann

#endif  // OPENBG_ANN_IVF_INDEX_H_
