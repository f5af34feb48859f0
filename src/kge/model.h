#ifndef OPENBG_KGE_MODEL_H_
#define OPENBG_KGE_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_builder/dataset.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace openbg::kge {

class GradSink;
class PrefixCodes;

using bench_builder::Dataset;
using bench_builder::LpTriple;

/// What the parallel trainer may do with a model (see kge/trainer.h).
/// Conservative by default: a model that declares nothing runs serially
/// under every mode, which is always correct — these flags only unlock
/// faster execution strategies.
struct TrainCaps {
  /// TrainBatch may be called concurrently from several threads on shared
  /// parameters (classic Hogwild). Requires: no internal mutable state
  /// besides the float tables themselves (racing float stores are the
  /// accepted Hogwild hazard; racing container mutations are not), and a
  /// PostStep that is a no-op or thread-safe.
  bool hogwild_safe = false;
  /// TrainBatch routes *every* parameter write through the GradSink it is
  /// given (never mutating state behind the sink's back), so an OpLogSink
  /// captures the complete update and the deterministic trainer can defer
  /// and replay it. Models with dense per-step internal state (1-N losses,
  /// layer activation caches) cannot affordably defer and leave this false.
  bool deferred_grad = false;
};

/// How a model's ScoreTails reduces to a scan of one fixed entity-side
/// table — the seam the ANN subsystem (src/ann) builds its quantized IVF
/// index against. A model exposes this only when, for every tail t,
///   ScoreTails(h, r)[t] == metric(query(h, r), table row t)
/// with a query that depends on (h, r) alone. The table pointer aliases
/// live model parameters: valid while the model is alive and not training.
struct TailScanSpec {
  enum class Metric {
    kNegL1,  // score = -sum_i |q[i] - row[i]|
    kDot,    // score = sum_i  q[i] * row[i]
  };
  Metric metric = Metric::kDot;
  const nn::Matrix* table = nullptr;  // one row per entity; query width = cols
  // Codes of the table's row prefixes (kge/topk.h), for an L1 spec whose
  // codes match the current table; null when there are none.
  const PrefixCodes* codes = nullptr;
};

/// Base interface for every link-prediction baseline of Tables III/IV.
///
/// Scoring convention: **higher score = more plausible triple** for all
/// models; distance-based models return negated distances. Training is one
/// SGD step per TrainPairs call on aligned positive/negative triples; each
/// model owns its loss (margin ranking for translational models, pointwise
/// logistic for bilinear/text/multimodal ones), mirroring each original
/// paper's recipe.
///
/// Thread-safety contract: after PrepareEval() returns, ScoreTriple /
/// ScoreTails / ScoreHeads must be safe to call concurrently from multiple
/// threads — i.e., genuinely const, with any lazy caches (text encodings,
/// fused multimodal tables) filled inside PrepareEval, never during
/// scoring. The parallel RankingEvaluator relies on this.
class KgeModel {
 public:
  KgeModel(size_t num_entities, size_t num_relations)
      : num_entities_(num_entities), num_relations_(num_relations) {}
  virtual ~KgeModel() = default;

  KgeModel(const KgeModel&) = delete;
  KgeModel& operator=(const KgeModel&) = delete;

  virtual std::string name() const = 0;

  /// Plausibility score of one triple (higher = better).
  virtual float ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const = 0;

  /// Scores (h, r, t') for every candidate tail t'. Default loops over
  /// ScoreTriple; models override with vectorized paths where ranking all
  /// entities would otherwise be quadratic in embedding work.
  virtual void ScoreTails(uint32_t h, uint32_t r,
                          std::vector<float>* out) const;

  /// Scores (h', r, t) for every candidate head h'.
  virtual void ScoreHeads(uint32_t r, uint32_t t,
                          std::vector<float>* out) const;

  /// One SGD step on aligned positive/negative batches (same length);
  /// returns the batch loss before the update.
  virtual double TrainPairs(const std::vector<LpTriple>& pos,
                            const std::vector<LpTriple>& neg, float lr) = 0;

  /// What the parallel trainer may do with this model. The default opts out
  /// of every parallel strategy; see TrainCaps.
  virtual TrainCaps train_caps() const { return {}; }

  /// Sink-routed training step: like TrainPairs, but every parameter write
  /// goes through `sink`. Models that support deferred gradients override
  /// this (and implement TrainPairs as TrainBatch over a DirectGradSink);
  /// the default ignores the sink and falls back to TrainPairs, which is
  /// only correct when the trainer applies batches serially — exactly what
  /// it does for models whose caps don't claim more.
  virtual double TrainBatch(const std::vector<LpTriple>& pos,
                            const std::vector<LpTriple>& neg, float lr,
                            GradSink* sink) {
    (void)sink;
    return TrainPairs(pos, neg, lr);
  }

  /// Serial pre-pass over a training batch, called by the trainer *before*
  /// TrainBatch may run on a worker thread. This is where a model updates
  /// order-sensitive bookkeeping that must not race — e.g. TuckER's
  /// (h, r) -> true-tails index. Default: nothing.
  virtual void AccumulateTargets(const std::vector<LpTriple>& pos) {
    (void)pos;
  }

  /// Constraint projection hook, run after each TrainPairs (e.g., TransH's
  /// unit-norm hyperplane normals).
  virtual void PostStep() {}

  /// Called once before ranking evaluation (e.g., text models precompute
  /// entity encodings here).
  virtual void PrepareEval() {}

  /// Visitors over every trainable dense parameter block, as stable
  /// (name, matrix) pairs — the serialization hooks checkpointing uses.
  /// Names and visit order must be deterministic for a given model shape.
  using ParamVisitor = std::function<void(const std::string&, nn::Matrix*)>;
  using ConstParamVisitor =
      std::function<void(const std::string&, const nn::Matrix&)>;

  /// Read-only visit, what saving a checkpoint uses: it leaves state
  /// derived from the parameters (TransE's prefix codes) in place. Default
  /// visits nothing: such a model opts out of checkpoint/resume entirely
  /// (the trainer refuses to save or resume a checkpoint whose parameters
  /// it could not restore).
  virtual void VisitConstParams(const ConstParamVisitor& fn) const {
    (void)fn;
  }

  /// Writable visit over the same blocks, what loading a checkpoint uses.
  /// A model that derives state from its parameters overrides this to drop
  /// it, then calls this default, which hands out the blocks
  /// VisitConstParams lists: they are members of this non-const model, so
  /// writing them is well-defined.
  virtual void VisitParams(const ParamVisitor& fn) {
    VisitConstParams([&fn](const std::string& name, const nn::Matrix& m) {
      fn(name, const_cast<nn::Matrix*>(&m));
    });
  }

  /// Fills `spec` and returns true when tail scoring is a fixed-table scan
  /// (TransE, DistMult, ComplEx). Models whose candidate side is relation-
  /// dependent (TransH/TransD projections, TuckER's core contraction) keep
  /// the default `false` and always take the exact O(E) path.
  virtual bool GetTailScanSpec(TailScanSpec* spec) const {
    (void)spec;
    return false;
  }

  /// Writes the scan query for (h, r): bit-identical arithmetic to the
  /// query construction inside this model's ScoreTails, so an exact float
  /// rescore through the spec's metric reproduces ScoreTails scores to the
  /// byte. Only meaningful when GetTailScanSpec returned true; the default
  /// clears `q`.
  virtual void TailScanQuery(uint32_t h, uint32_t r,
                             std::vector<float>* q) const {
    (void)h;
    (void)r;
    q->clear();
  }

  size_t num_entities() const { return num_entities_; }
  size_t num_relations() const { return num_relations_; }

 protected:
  size_t num_entities_;
  size_t num_relations_;
};

}  // namespace openbg::kge

#endif  // OPENBG_KGE_MODEL_H_
