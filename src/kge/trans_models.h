#ifndef OPENBG_KGE_TRANS_MODELS_H_
#define OPENBG_KGE_TRANS_MODELS_H_

#include <atomic>
#include <string>
#include <vector>

#include "kge/embedding.h"
#include "kge/model.h"
#include "kge/topk.h"

namespace openbg::kge {

/// TransE (Bordes et al. 2013): score = -||h + r - t||_1, margin ranking
/// loss, entity embeddings projected to the unit ball after each step.
class TransE : public KgeModel {
 public:
  TransE(size_t num_entities, size_t num_relations, size_t dim,
         float margin, util::Rng* rng);

  std::string name() const override { return "TransE"; }
  float ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const override;
  void ScoreTails(uint32_t h, uint32_t r,
                  std::vector<float>* out) const override;
  void ScoreHeads(uint32_t r, uint32_t t,
                  std::vector<float>* out) const override;
  double TrainPairs(const std::vector<LpTriple>& pos,
                    const std::vector<LpTriple>& neg, float lr) override;
  TrainCaps train_caps() const override { return {true, true}; }
  double TrainBatch(const std::vector<LpTriple>& pos,
                    const std::vector<LpTriple>& neg, float lr,
                    GradSink* sink) override;
  void PrepareEval() override;
  void VisitConstParams(const ConstParamVisitor& fn) const override;
  void VisitParams(const ParamVisitor& fn) override;
  bool GetTailScanSpec(TailScanSpec* spec) const override;
  void TailScanQuery(uint32_t h, uint32_t r,
                     std::vector<float>* q) const override;

  /// Writable entity table; drops the prefix codes until PrepareEval.
  EmbeddingTable& entities() {
    codes_valid_ = false;
    return ent_;
  }
  EmbeddingTable& relations() { return rel_; }

 private:
  // Emits the +/- L1 subgradient of one triple's distance through the sink.
  void EmitGrad(const LpTriple& t, float direction, float lr,
                GradSink* sink);

  size_t dim_;
  float margin_;
  EmbeddingTable ent_, rel_;
  // Prefix codes of ent_ for the top-K prefilter, built by PrepareEval and
  // dropped by every path that writes ent_.
  PrefixCodes codes_;
  std::atomic<bool> codes_valid_{false};
};

/// TransH (Wang et al. 2014): relation-specific hyperplanes. Entities are
/// projected onto the hyperplane with unit normal w_r before translation by
/// d_r: score = -||(h - (w·h)w) + d - (t - (w·t)w)||_1.
class TransH : public KgeModel {
 public:
  TransH(size_t num_entities, size_t num_relations, size_t dim,
         float margin, util::Rng* rng);

  std::string name() const override { return "TransH"; }
  float ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const override;
  void ScoreTails(uint32_t h, uint32_t r,
                  std::vector<float>* out) const override;
  void ScoreHeads(uint32_t r, uint32_t t,
                  std::vector<float>* out) const override;
  double TrainPairs(const std::vector<LpTriple>& pos,
                    const std::vector<LpTriple>& neg, float lr) override;
  TrainCaps train_caps() const override { return {true, true}; }
  double TrainBatch(const std::vector<LpTriple>& pos,
                    const std::vector<LpTriple>& neg, float lr,
                    GradSink* sink) override;
  void VisitConstParams(const ConstParamVisitor& fn) const override;

 private:
  // Emits the gradient and records r in *touched for the end-of-batch
  // normal re-normalization (formerly PostStep state, now batch-local so
  // concurrent TrainBatch calls never share a container).
  void EmitGrad(const LpTriple& t, float direction, float lr, GradSink* sink,
                std::vector<uint32_t>* touched);

  size_t dim_;
  float margin_;
  EmbeddingTable ent_, d_, w_;
};

/// TransD (Ji et al. 2015): dynamic mapping via entity- and relation-
/// projection vectors: h_perp = h + (h_p . h) r_p.
class TransD : public KgeModel {
 public:
  TransD(size_t num_entities, size_t num_relations, size_t dim,
         float margin, util::Rng* rng);

  std::string name() const override { return "TransD"; }
  float ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const override;
  void ScoreTails(uint32_t h, uint32_t r,
                  std::vector<float>* out) const override;
  void ScoreHeads(uint32_t r, uint32_t t,
                  std::vector<float>* out) const override;
  double TrainPairs(const std::vector<LpTriple>& pos,
                    const std::vector<LpTriple>& neg, float lr) override;
  TrainCaps train_caps() const override { return {true, true}; }
  double TrainBatch(const std::vector<LpTriple>& pos,
                    const std::vector<LpTriple>& neg, float lr,
                    GradSink* sink) override;
  void VisitConstParams(const ConstParamVisitor& fn) const override;

 private:
  void Project(uint32_t e, uint32_t r, float* out) const;
  void EmitGrad(const LpTriple& t, float direction, float lr,
                GradSink* sink);

  size_t dim_;
  float margin_;
  EmbeddingTable ent_, ent_p_, rel_, rel_p_;
};

}  // namespace openbg::kge

#endif  // OPENBG_KGE_TRANS_MODELS_H_
