#ifndef OPENBG_SERVE_CANARY_H_
#define OPENBG_SERVE_CANARY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kge/model.h"
#include "serve/engine.h"
#include "serve/types.h"
#include "util/histogram.h"
#include "util/status.h"

namespace openbg::serve {

struct CanaryOptions {
  /// Fraction of observed LinkPredictTopK traffic mirrored to the
  /// candidate. Sampling is deterministic in the observation counter (see
  /// CanaryController::Sampled), so the same request sequence always
  /// mirrors the same subset — replayable in tests.
  double mirror_fraction = 0.05;
  /// Seed of the deterministic sampler.
  uint64_t seed = 0x0B6CA11A5EEDull;
  /// Mirrored samples required before TryAutoDecide acts.
  uint64_t min_samples = 100;
  /// Mean rank-agreement@k at/above which TryAutoDecide promotes;
  /// below it, the candidate is rolled back.
  double promote_agreement = 0.9;
  /// When true, every Observe call runs TryAutoDecide once min_samples
  /// mirrored samples have accumulated. When false the operator calls
  /// Promote/Rollback (or TryAutoDecide) explicitly.
  bool auto_decide = false;
};

/// Canary model reloads over the ServeContext publish seam: stage a
/// candidate model generation N+1 beside the serving generation N, mirror
/// a deterministic fraction of LinkPredictTopK answers to both, and
/// accumulate rank-agreement@k plus latency deltas until a promote or
/// rollback decision.
///
/// The safety contract is inherited, not reimplemented: Promote() IS
/// ServeContext::ReloadModel(candidate) — PrepareEval has already run at
/// Begin(), the model ref publishes atomically, the cache epoch bumps so
/// every generation-N answer turns stale, and (with ANN enabled) the
/// stale index is retired and rebuilt stamped with the new generation.
/// Until that single atomic publish, every served answer — including the
/// mirrored ones — comes from generation N; the candidate only ever
/// scores shadow copies. Rollback() drops the candidate without touching
/// the context: generation, cache, and ANN index are exactly as before
/// Begin().
///
/// Mirrored scoring answers through kge::TopKTails — the call the
/// engine's exact drain path makes — so agreement measures the two models,
/// never two scoring or selection algorithms.
///
/// Thread-safety: all methods lock one mutex. Observe does candidate
/// scoring under the lock; at the intended mirror fractions (a few
/// percent) this serializes a small slice of traffic, which keeps the
/// agreement fold trivially exact.
class CanaryController {
 public:
  enum class State : uint8_t {
    kIdle = 0,       // no candidate staged
    kMirroring = 1,  // candidate staged, shadow traffic flowing
    kPromoted = 2,   // last candidate was published (terminal until Begin)
    kRolledBack = 3, // last candidate was dropped (terminal until Begin)
  };
  static const char* StateName(State s);

  explicit CanaryController(ServeContext* context, CanaryOptions options = {});

  CanaryController(const CanaryController&) = delete;
  CanaryController& operator=(const CanaryController&) = delete;

  /// Stages `candidate` as the next model generation and starts
  /// mirroring: runs PrepareEval() here (never on the serving path),
  /// records the generation being canaried against, and resets the
  /// sample accumulators. Fails if a canary is already mirroring or the
  /// candidate is null / shape-incompatible with the serving model.
  util::Status Begin(std::shared_ptr<kge::KgeModel> candidate);

  /// Feeds one primary LinkPredictTopK answer through the mirror
  /// sampler. Cheap (one counter increment) when the request is not
  /// sampled or no canary is mirroring; sampled requests score the
  /// candidate for the same (h, r), select top-k, and fold
  /// rank-agreement@k and the candidate/primary latency pair into the
  /// stats. `primary_us` is the primary answer's compute latency.
  void Observe(uint32_t h, uint32_t r, size_t k,
               const std::vector<ScoredEntity>& primary_topk,
               double primary_us);

  /// Publishes the candidate via ServeContext::ReloadModel — the exact
  /// reload seam, so the generation bumps and the caches/ANN index
  /// follow the PR 7 invariants. Fails unless currently mirroring.
  util::Status Promote();

  /// Drops the candidate; the context is untouched (generation, cache,
  /// ANN index all keep serving generation N). Fails unless currently
  /// mirroring.
  util::Status Rollback();

  /// Promote-or-rollback once enough samples accumulated: no-op (OK)
  /// before min_samples; then promotes iff mean agreement >=
  /// promote_agreement, else rolls back. Returns the action's status.
  util::Status TryAutoDecide();

  struct Stats {
    State state = State::kIdle;
    /// Generation the current/last canary was staged against.
    uint64_t staged_generation = 0;
    uint64_t observed = 0;  // Observe calls while mirroring
    uint64_t mirrored = 0;  // subset scored against the candidate
    double mean_agreement = 0.0;  // mean rank-agreement@k over mirrored
    double primary_mean_us = 0.0;
    double candidate_mean_us = 0.0;
    double candidate_p99_us = 0.0;
    uint64_t promotions = 0;  // lifetime counters across Begin cycles
    uint64_t rollbacks = 0;
  };
  Stats stats() const;

  State state() const;

  /// The staged candidate (null unless mirroring). Tests use it to prove
  /// promoted answers come from this exact model.
  std::shared_ptr<kge::KgeModel> candidate() const;

  /// {"state":...,"mirrored":...,...} — spliced into server metrics.
  std::string MetricsJson() const;

  const CanaryOptions& options() const { return options_; }

 private:
  /// Deterministic Bernoulli(mirror_fraction) on the n-th observation:
  /// SplitMix64(seed ^ n) compared against a fixed threshold. No shared
  /// RNG state, so sampling commutes with concurrency and replays.
  bool Sampled(uint64_t n) const;

  util::Status PromoteLocked(std::unique_lock<std::mutex>* lock);
  util::Status RollbackLocked();

  ServeContext* context_;
  CanaryOptions options_;

  mutable std::mutex mu_;
  State state_ = State::kIdle;
  std::shared_ptr<kge::KgeModel> candidate_;
  uint64_t staged_generation_ = 0;
  uint64_t observed_ = 0;
  uint64_t mirrored_ = 0;
  double agreement_sum_ = 0.0;
  util::Histogram primary_us_;
  util::Histogram candidate_us_;
  uint64_t promotions_ = 0;
  uint64_t rollbacks_ = 0;
};

}  // namespace openbg::serve

#endif  // OPENBG_SERVE_CANARY_H_
