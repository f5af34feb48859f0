#ifndef OPENBG_KGE_CHECKPOINT_H_
#define OPENBG_KGE_CHECKPOINT_H_

#include <string>
#include <vector>

#include "kge/model.h"
#include "util/rng.h"
#include "util/status.h"

namespace openbg::kge {

/// Trainer-side state persisted alongside the model parameters so a run
/// killed between epochs resumes bit-identically: the epoch to run next,
/// the last completed epoch's mean loss, and the RNG streams (the trainer's
/// shuffle RNG, the negative sampler's corruption RNG, and — for Hogwild
/// runs — each worker's private corruption stream).
struct TrainerCheckpoint {
  std::string model_name;
  uint64_t next_epoch = 0;
  double last_loss = 0.0;
  util::RngState trainer_rng;
  util::RngState sampler_rng;
  /// One stream per Hogwild worker, indexed by worker id. Empty for serial
  /// and deterministic-mode runs (their streams are derived statelessly).
  std::vector<util::RngState> worker_rngs;
};

/// Writes `ckpt` plus every parameter block `model` exposes via
/// VisitConstParams to `path` (atomically, CRC-checked; see
/// util/snapshot.h). Saving leaves the model untouched, so a serving
/// model keeps its derived state (TransE's prefix codes). Models whose
/// VisitConstParams is the no-op default produce a trainer-state-only
/// checkpoint.
util::Status SaveCheckpoint(const TrainerCheckpoint& ckpt,
                            const KgeModel* model, const std::string& path);

/// Restores a checkpoint into `model` (shapes and parameter names must
/// match what the model exposes, and the stored model name must equal
/// model->name()) and fills `ckpt` with the trainer state. Fails closed:
/// on any error the model's parameters are left untouched.
util::Status LoadCheckpoint(const std::string& path, KgeModel* model,
                            TrainerCheckpoint* ckpt);

}  // namespace openbg::kge

#endif  // OPENBG_KGE_CHECKPOINT_H_
