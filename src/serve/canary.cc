#include "serve/canary.h"

#include <algorithm>
#include <cstring>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace openbg::serve {

const char* CanaryController::StateName(State s) {
  switch (s) {
    case State::kIdle: return "idle";
    case State::kMirroring: return "mirroring";
    case State::kPromoted: return "promoted";
    case State::kRolledBack: return "rolled_back";
  }
  return "unknown";
}

CanaryController::CanaryController(ServeContext* context,
                                   CanaryOptions options)
    : context_(context), options_(options) {}

bool CanaryController::Sampled(uint64_t n) const {
  if (options_.mirror_fraction >= 1.0) return true;
  if (options_.mirror_fraction <= 0.0) return false;
  const uint64_t threshold = static_cast<uint64_t>(
      options_.mirror_fraction *
      static_cast<double>(~static_cast<uint64_t>(0)));
  return util::SplitMix64(options_.seed ^ n) < threshold;
}

util::Status CanaryController::Begin(
    std::shared_ptr<kge::KgeModel> candidate) {
  if (candidate == nullptr) {
    return util::Status::InvalidArgument("canary: null candidate");
  }
  std::shared_ptr<kge::KgeModel> serving = context_->model_ref();
  if (serving != nullptr &&
      (candidate->num_entities() != serving->num_entities() ||
       candidate->num_relations() != serving->num_relations())) {
    return util::Status::InvalidArgument(
        "canary: candidate shape mismatches the serving model");
  }
  // PrepareEval outside the lock: it may build eval tables, and nothing
  // observes the candidate until state_ flips below.
  candidate->PrepareEval();

  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kMirroring) {
    return util::Status::AlreadyExists("canary: already mirroring");
  }
  candidate_ = std::move(candidate);
  staged_generation_ = context_->generation();
  state_ = State::kMirroring;
  observed_ = 0;
  mirrored_ = 0;
  agreement_sum_ = 0.0;
  primary_us_ = util::Histogram();
  candidate_us_ = util::Histogram();
  return util::Status::OK();
}

void CanaryController::Observe(uint32_t h, uint32_t r, size_t k,
                               const std::vector<ScoredEntity>& primary_topk,
                               double primary_us) {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ != State::kMirroring) return;
  const uint64_t n = ++observed_;
  if (!Sampled(n)) return;
  if (h >= candidate_->num_entities() ||
      r >= candidate_->num_relations()) {
    return;  // primary answered kInvalidArgument; nothing to mirror
  }

  util::Timer timer;
  std::vector<ScoredEntity> canary_topk =
      kge::TopKTails(*candidate_, h, r, k);
  const double canary_us = timer.Seconds() * 1e6;

  // rank-agreement@k: fraction of the primary's answer set the candidate
  // also ranks in its top-k. Order-insensitive by design — a reload that
  // permutes near-ties should not read as disagreement.
  size_t overlap = 0;
  for (const ScoredEntity& p : primary_topk) {
    for (const ScoredEntity& c : canary_topk) {
      if (c.id == p.id) {
        ++overlap;
        break;
      }
    }
  }
  const size_t denom = std::max<size_t>(
      1, std::max(primary_topk.size(), canary_topk.size()));
  ++mirrored_;
  agreement_sum_ += static_cast<double>(overlap) / denom;
  primary_us_.Add(primary_us);
  candidate_us_.Add(canary_us);

  if (options_.auto_decide && mirrored_ >= options_.min_samples) {
    const double mean = agreement_sum_ / mirrored_;
    if (mean >= options_.promote_agreement) {
      PromoteLocked(&lock);
    } else {
      RollbackLocked();
    }
  }
}

util::Status CanaryController::PromoteLocked(
    std::unique_lock<std::mutex>* lock) {
  std::shared_ptr<kge::KgeModel> candidate = std::move(candidate_);
  candidate_.reset();
  state_ = State::kPromoted;
  ++promotions_;
  // Publish outside the lock: ReloadModel bumps the generation and may
  // kick an ANN rebuild; nothing it touches is guarded by mu_, and
  // holding mu_ across it would stall every concurrent Observe.
  lock->unlock();
  context_->ReloadModel(std::move(candidate));
  return util::Status::OK();
}

util::Status CanaryController::RollbackLocked() {
  candidate_.reset();
  state_ = State::kRolledBack;
  ++rollbacks_;
  return util::Status::OK();
}

util::Status CanaryController::Promote() {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ != State::kMirroring) {
    return util::Status::InvalidArgument("canary: not mirroring");
  }
  return PromoteLocked(&lock);
}

util::Status CanaryController::Rollback() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kMirroring) {
    return util::Status::InvalidArgument("canary: not mirroring");
  }
  return RollbackLocked();
}

util::Status CanaryController::TryAutoDecide() {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ != State::kMirroring) {
    return util::Status::InvalidArgument("canary: not mirroring");
  }
  if (mirrored_ < options_.min_samples) return util::Status::OK();
  const double mean = agreement_sum_ / mirrored_;
  if (mean >= options_.promote_agreement) return PromoteLocked(&lock);
  return RollbackLocked();
}

CanaryController::Stats CanaryController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.state = state_;
  s.staged_generation = staged_generation_;
  s.observed = observed_;
  s.mirrored = mirrored_;
  if (mirrored_ > 0) s.mean_agreement = agreement_sum_ / mirrored_;
  if (primary_us_.count() > 0) s.primary_mean_us = primary_us_.Mean();
  if (candidate_us_.count() > 0) {
    s.candidate_mean_us = candidate_us_.Mean();
    s.candidate_p99_us = candidate_us_.Percentile(99);
  }
  s.promotions = promotions_;
  s.rollbacks = rollbacks_;
  return s;
}

CanaryController::State CanaryController::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::shared_ptr<kge::KgeModel> CanaryController::candidate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return candidate_;
}

std::string CanaryController::MetricsJson() const {
  Stats s = stats();
  return util::StrFormat(
      "{\"state\":\"%s\",\"staged_generation\":%llu,\"observed\":%llu,"
      "\"mirrored\":%llu,\"mean_agreement\":%.4f,\"primary_mean_us\":%.1f,"
      "\"candidate_mean_us\":%.1f,\"candidate_p99_us\":%.1f,"
      "\"promotions\":%llu,\"rollbacks\":%llu}",
      StateName(s.state),
      static_cast<unsigned long long>(s.staged_generation),
      static_cast<unsigned long long>(s.observed),
      static_cast<unsigned long long>(s.mirrored), s.mean_agreement,
      s.primary_mean_us, s.candidate_mean_us, s.candidate_p99_us,
      static_cast<unsigned long long>(s.promotions),
      static_cast<unsigned long long>(s.rollbacks));
}

}  // namespace openbg::serve
