#ifndef OPENBG_KGE_BILINEAR_MODELS_H_
#define OPENBG_KGE_BILINEAR_MODELS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "kge/embedding.h"
#include "kge/model.h"

namespace openbg::kge {

/// DistMult (Yang et al. 2015): score = <h, r, t> (trilinear product),
/// trained with pointwise logistic loss over sampled negatives.
class DistMult : public KgeModel {
 public:
  DistMult(size_t num_entities, size_t num_relations, size_t dim,
           util::Rng* rng, float l2 = 1e-5f);

  std::string name() const override { return "DistMult"; }
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
  bool GetTailScanSpec(TailScanSpec* spec) const override;
  void TailScanQuery(uint32_t h, uint32_t r,
                     std::vector<float>* q) const override;

 private:
  void EmitGrad(const LpTriple& t, float dscore, float lr, GradSink* sink);

  size_t dim_;
  float l2_;
  EmbeddingTable ent_, rel_;
};

/// ComplEx (Trouillon et al. 2016): complex-valued embeddings, score =
/// Re(<h, r, conj(t)>). Handles asymmetric relations DistMult cannot.
class ComplEx : public KgeModel {
 public:
  ComplEx(size_t num_entities, size_t num_relations, size_t dim,
          util::Rng* rng, float l2 = 1e-5f);

  std::string name() const override { return "ComplEx"; }
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
  bool GetTailScanSpec(TailScanSpec* spec) const override;
  void TailScanQuery(uint32_t h, uint32_t r,
                     std::vector<float>* q) const override;

 private:
  void EmitGrad(const LpTriple& t, float dscore, float lr, GradSink* sink);

  size_t dim_;  // complex dimension; storage rows are 2*dim_ floats
  float l2_;
  EmbeddingTable ent_, rel_;  // layout: [re(0..d), im(0..d)]
};

/// TuckER (Balazevic et al. 2019): score = W ×1 r ×2 h ×3 t with a shared
/// core tensor W [dr × de × de]. Trained with the original 1-N recipe:
/// each (h, r) is scored against *all* entities with a multi-label BCE
/// against its true tails (the sampled negatives the trainer passes are
/// ignored). The strongest single-modal baseline of Table III; also the
/// most expensive, which is why the paper (and our Table IV bench) skips
/// it on the -L scale.
class TuckEr : public KgeModel {
 public:
  TuckEr(size_t num_entities, size_t num_relations, size_t ent_dim,
         size_t rel_dim, util::Rng* rng, float l2 = 1e-6f);

  std::string name() const override { return "TuckER"; }
  float ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const override;
  void ScoreTails(uint32_t h, uint32_t r,
                  std::vector<float>* out) const override;
  void ScoreHeads(uint32_t r, uint32_t t,
                  std::vector<float>* out) const override;
  double TrainPairs(const std::vector<LpTriple>& pos,
                    const std::vector<LpTriple>& neg, float lr) override;
  // 1-N training touches every entity row per query: Hogwild-tolerable
  // (all-float stores) but far too dense to op-log, so no deferred mode —
  // the deterministic trainer runs TuckER serially instead.
  TrainCaps train_caps() const override { return {true, false}; }
  void AccumulateTargets(const std::vector<LpTriple>& pos) override;
  // Steps without touching true_tails_; requires the trainer to have run
  // AccumulateTargets serially for the epoch first. The sink is unused —
  // 1-N updates write tables directly (never handed an OpLogSink, since
  // deferred_grad is false above).
  double TrainBatch(const std::vector<LpTriple>& pos,
                    const std::vector<LpTriple>& neg, float lr,
                    GradSink* sink) override;

 private:
  double StepBatch(const std::vector<LpTriple>& pos, float lr);
  // M[j*de + k] = sum_i r_i W[i][j][k] for the given relation.
  void RelationMatrix(uint32_t r, std::vector<float>* m) const;
  // One 1-N step for query (h, r) with multi-hot true tails.
  double OneToAllStep(uint32_t h, uint32_t r,
                      const std::vector<uint32_t>& tails, float lr);

  size_t de_, dr_;
  float l2_;
  EmbeddingTable ent_, rel_;
  std::vector<float> core_;  // [dr][de][de]
  // (h, r) -> true tails over the last-seen training stream, built lazily.
  std::unordered_map<uint64_t, std::vector<uint32_t>> true_tails_;
};

}  // namespace openbg::kge

#endif  // OPENBG_KGE_BILINEAR_MODELS_H_
