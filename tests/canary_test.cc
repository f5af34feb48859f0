// Tests for serve::CanaryController: deterministic mirror sampling,
// rank-agreement accounting, and — the load-bearing part — that promote
// and rollback ride the PR 7 reload seam exactly: generation bumps are
// monotonic and promote-only, the cache retires on promote and survives
// rollback, and a stale ANN index never scores a newly promoted model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/openbg.h"
#include "kge/checkpoint.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "serve/canary.h"
#include "serve/engine.h"
#include "util/fault_injection.h"

namespace openbg::serve {
namespace {

class CanaryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::OpenBG::Options options;
    options.world.seed = 21;
    options.world.scale = 0.25;
    options.world.num_products = 300;
    kg_ = core::OpenBG::Build(options).release();

    bench_builder::BenchmarkSpec spec;
    spec.name = "canary-test";
    spec.num_relations = 12;
    spec.dev_size = 40;
    spec.test_size = 80;
    ds_ = new kge::Dataset(kg_->BuildBenchmark(spec, nullptr));

    util::Rng rng(5);
    model_ = std::make_shared<kge::TransE>(
        ds_->num_entities(), ds_->num_relations(), 16, 1.0f, &rng);
    kge::TrainConfig config;
    config.epochs = 2;
    config.batch_size = 256;
    TrainKgeModel(model_.get(), *ds_, config);
  }

  static void TearDownTestSuite() {
    delete ds_;
    delete kg_;
    model_ = nullptr;
    ds_ = nullptr;
    kg_ = nullptr;
  }

  void TearDown() override { util::failpoints::DisarmAll(); }

  ServeContext::Bindings Bindings() {
    ServeContext::Bindings b;
    b.graph = &kg_->graph();
    b.ontology = &kg_->ontology();
    b.dataset = ds_;
    b.model = model_.get();
    return b;
  }

  /// A parameter-identical copy of the serving model, via checkpoint
  /// round-trip (TransE has no public copy path; the checkpoint is the
  /// supported way to materialize "the same weights elsewhere").
  static std::shared_ptr<kge::TransE> CloneServingModel() {
    std::string path = ::testing::TempDir() + "/canary_clone.obgckpt";
    kge::TrainerCheckpoint ckpt;
    ckpt.model_name = model_->name();
    EXPECT_TRUE(kge::SaveCheckpoint(ckpt, model_.get(), path).ok());
    util::Rng rng(77);
    auto clone = std::make_shared<kge::TransE>(
        ds_->num_entities(), ds_->num_relations(), 16, 1.0f, &rng);
    kge::TrainerCheckpoint loaded;
    EXPECT_TRUE(kge::LoadCheckpoint(path, clone.get(), &loaded).ok());
    std::remove(path.c_str());
    return clone;
  }

  /// A shape-compatible but differently-initialized (untrained) model:
  /// its top-k answers should share almost nothing with the trained one.
  static std::shared_ptr<kge::TransE> DivergentModel() {
    util::Rng rng(991);
    return std::make_shared<kge::TransE>(
        ds_->num_entities(), ds_->num_relations(), 16, 1.0f, &rng);
  }

  /// Reference top-k under the canonical total order.
  static std::vector<ScoredEntity> Reference(kge::KgeModel* m, uint32_t h,
                                             uint32_t r, size_t k) {
    std::vector<float> scores;
    m->ScoreTails(h, r, &scores);
    return SelectTopK(scores, k);
  }

  /// Drives `n` engine queries through the controller the way the net
  /// server does: primary answer first, then Observe.
  static void Drive(QueryEngine* engine, CanaryController* canary,
                    size_t n, size_t k = 10) {
    for (size_t i = 0; i < n; ++i) {
      const kge::LpTriple& q = ds_->test[i % ds_->test.size()];
      Response resp = engine->LinkPredictTopK(q.h, q.r, k);
      ASSERT_EQ(resp.status, ServeStatus::kOk);
      canary->Observe(q.h, q.r, k, resp.payload.topk, 10.0);
    }
  }

  static core::OpenBG* kg_;
  static kge::Dataset* ds_;
  static std::shared_ptr<kge::TransE> model_;
};

core::OpenBG* CanaryTest::kg_ = nullptr;
kge::Dataset* CanaryTest::ds_ = nullptr;
std::shared_ptr<kge::TransE> CanaryTest::model_;

TEST_F(CanaryTest, BeginValidatesCandidate) {
  ServeContext ctx(Bindings());
  CanaryController canary(&ctx);
  EXPECT_FALSE(canary.Begin(nullptr).ok());

  util::Rng rng(1);
  auto wrong_shape = std::make_shared<kge::TransE>(
      ds_->num_entities() + 7, ds_->num_relations(), 16, 1.0f, &rng);
  EXPECT_FALSE(canary.Begin(wrong_shape).ok());

  EXPECT_TRUE(canary.Begin(CloneServingModel()).ok());
  EXPECT_EQ(canary.state(), CanaryController::State::kMirroring);
  // A second Begin while mirroring is refused — one canary at a time.
  EXPECT_FALSE(canary.Begin(CloneServingModel()).ok());
}

TEST_F(CanaryTest, MirrorSamplingIsDeterministic) {
  ServeContext ctx(Bindings());
  QueryEngine engine(&ctx, EngineOptions{});
  CanaryOptions opts;
  opts.mirror_fraction = 0.3;
  opts.seed = 42;

  uint64_t mirrored[2];
  for (int run = 0; run < 2; ++run) {
    CanaryController canary(&ctx, opts);
    ASSERT_TRUE(canary.Begin(CloneServingModel()).ok());
    Drive(&engine, &canary, 200);
    CanaryController::Stats s = canary.stats();
    EXPECT_EQ(s.observed, 200u);
    mirrored[run] = s.mirrored;
    EXPECT_TRUE(canary.Rollback().ok());
  }
  // Same seed, same observation sequence => the exact same sample set.
  EXPECT_EQ(mirrored[0], mirrored[1]);
  EXPECT_GT(mirrored[0], 0u);
  EXPECT_LT(mirrored[0], 200u);

  // Boundary fractions: 1.0 mirrors everything, 0.0 nothing.
  opts.mirror_fraction = 1.0;
  CanaryController all(&ctx, opts);
  ASSERT_TRUE(all.Begin(CloneServingModel()).ok());
  Drive(&engine, &all, 50);
  EXPECT_EQ(all.stats().mirrored, 50u);
  EXPECT_TRUE(all.Rollback().ok());

  opts.mirror_fraction = 0.0;
  CanaryController none(&ctx, opts);
  ASSERT_TRUE(none.Begin(CloneServingModel()).ok());
  Drive(&engine, &none, 50);
  EXPECT_EQ(none.stats().mirrored, 0u);
}

TEST_F(CanaryTest, IdenticalCloneScoresPerfectAgreement) {
  ServeContext ctx(Bindings());
  QueryEngine engine(&ctx, EngineOptions{});
  CanaryOptions opts;
  opts.mirror_fraction = 1.0;
  CanaryController canary(&ctx, opts);
  ASSERT_TRUE(canary.Begin(CloneServingModel()).ok());
  Drive(&engine, &canary, 60);
  CanaryController::Stats s = canary.stats();
  EXPECT_EQ(s.mirrored, 60u);
  EXPECT_DOUBLE_EQ(s.mean_agreement, 1.0);
  EXPECT_GT(s.candidate_mean_us, 0.0);
  EXPECT_GT(s.primary_mean_us, 0.0);
}

TEST_F(CanaryTest, PromotePublishesCandidateAndRetiresCache) {
  ServeContext ctx(Bindings());
  QueryEngine engine(&ctx, EngineOptions{});
  auto candidate = DivergentModel();
  candidate->PrepareEval();
  const kge::LpTriple& q = ds_->test[3];

  // Warm the cache under generation N.
  Response warm = engine.LinkPredictTopK(q.h, q.r, 10);
  ASSERT_EQ(warm.status, ServeStatus::kOk);
  EXPECT_TRUE(engine.LinkPredictTopK(q.h, q.r, 10).from_cache);
  const uint64_t gen_before = ctx.generation();

  CanaryOptions opts;
  opts.mirror_fraction = 1.0;
  CanaryController canary(&ctx, opts);
  ASSERT_TRUE(canary.Begin(candidate).ok());
  // While mirroring, served answers still come from generation N.
  Response mirrored = engine.LinkPredictTopK(q.h, q.r, 10);
  EXPECT_EQ(mirrored.payload.topk, warm.payload.topk);
  EXPECT_EQ(ctx.generation(), gen_before);

  ASSERT_TRUE(canary.Promote().ok());
  EXPECT_EQ(canary.state(), CanaryController::State::kPromoted);
  EXPECT_EQ(canary.candidate(), nullptr);
  EXPECT_EQ(ctx.generation(), gen_before + 1);
  EXPECT_EQ(ctx.model_ref().get(), candidate.get());

  // The warmed entry is stale: the next answer recomputes against the
  // promoted parameters and matches the candidate's reference answer.
  Response after = engine.LinkPredictTopK(q.h, q.r, 10);
  ASSERT_EQ(after.status, ServeStatus::kOk);
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.payload.topk, Reference(candidate.get(), q.h, q.r, 10));

  // Promote is terminal for this cycle.
  EXPECT_FALSE(canary.Promote().ok());
  EXPECT_FALSE(canary.Rollback().ok());

  // Restore the suite-shared serving model for later tests.
  ctx.ReloadModel(model_);
}

TEST_F(CanaryTest, RollbackLeavesGenerationAndCacheIntact) {
  ServeContext ctx(Bindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const kge::LpTriple& q = ds_->test[7];
  Response warm = engine.LinkPredictTopK(q.h, q.r, 10);
  ASSERT_EQ(warm.status, ServeStatus::kOk);
  const uint64_t gen_before = ctx.generation();

  CanaryOptions opts;
  opts.mirror_fraction = 1.0;
  CanaryController canary(&ctx, opts);
  ASSERT_TRUE(canary.Begin(DivergentModel()).ok());
  Drive(&engine, &canary, 20);
  ASSERT_TRUE(canary.Rollback().ok());

  EXPECT_EQ(canary.state(), CanaryController::State::kRolledBack);
  EXPECT_EQ(canary.candidate(), nullptr);
  EXPECT_EQ(ctx.generation(), gen_before) << "rollback must not bump";
  EXPECT_EQ(ctx.model_ref().get(), model_.get());
  // The pre-canary cache entry is still valid and still serves.
  Response hit = engine.LinkPredictTopK(q.h, q.r, 10);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.payload.topk, warm.payload.topk);
}

TEST_F(CanaryTest, AutoDecidePromotesAgreeingCandidate) {
  ServeContext ctx(Bindings());
  QueryEngine engine(&ctx, EngineOptions{});
  CanaryOptions opts;
  opts.mirror_fraction = 1.0;
  opts.min_samples = 30;
  opts.promote_agreement = 0.9;
  opts.auto_decide = true;
  CanaryController canary(&ctx, opts);
  const uint64_t gen_before = ctx.generation();
  ASSERT_TRUE(canary.Begin(CloneServingModel()).ok());
  Drive(&engine, &canary, 40);
  EXPECT_EQ(canary.state(), CanaryController::State::kPromoted);
  EXPECT_EQ(ctx.generation(), gen_before + 1);
  ctx.ReloadModel(model_);
}

TEST_F(CanaryTest, AutoDecideRollsBackDivergentCandidate) {
  ServeContext ctx(Bindings());
  QueryEngine engine(&ctx, EngineOptions{});
  CanaryOptions opts;
  opts.mirror_fraction = 1.0;
  opts.min_samples = 30;
  opts.promote_agreement = 0.9;
  opts.auto_decide = true;
  CanaryController canary(&ctx, opts);
  const uint64_t gen_before = ctx.generation();
  ASSERT_TRUE(canary.Begin(DivergentModel()).ok());
  Drive(&engine, &canary, 40);
  EXPECT_EQ(canary.state(), CanaryController::State::kRolledBack);
  EXPECT_EQ(ctx.generation(), gen_before);
  EXPECT_LT(canary.stats().mean_agreement, 0.9);
}

TEST_F(CanaryTest, PromotedModelIsNeverScoredByStaleAnnIndex) {
  // ANN enabled: the context builds a TailIndex stamped for generation N.
  // Promotion bumps to N+1 and retires it; until the background rebuild
  // lands, queries must fall back to the exact scan, and once it lands it
  // must be a CANDIDATE-built index. Either way, every returned score
  // must be the candidate's score for that (h, r, id) — a stale index
  // scoring the new model (or vice versa) surfaces as a score from the
  // wrong embedding table.
  ServeContext::Bindings b = Bindings();
  b.ann_enabled = true;
  b.ann.num_clusters = 8;
  b.ann.nprobe = 2;  // intentionally lossy: stale-index reuse would show
  ServeContext ctx(b);
  QueryEngine engine(&ctx, EngineOptions{});
  auto candidate = DivergentModel();
  candidate->PrepareEval();

  CanaryOptions opts;
  opts.mirror_fraction = 1.0;
  CanaryController canary(&ctx, opts);
  ASSERT_TRUE(canary.Begin(candidate).ok());
  Drive(&engine, &canary, 10);

  const kge::LpTriple& probe = ds_->test[0];
  std::vector<ScoredEntity> before_promote =
      Reference(model_.get(), probe.h, probe.r, 10);

  ASSERT_TRUE(canary.Promote().ok());

  for (size_t i = 0; i < 20; ++i) {
    const kge::LpTriple& q = ds_->test[i];
    Response resp = engine.LinkPredictTopK(q.h, q.r, 10);
    ASSERT_EQ(resp.status, ServeStatus::kOk);
    for (const ScoredEntity& e : resp.payload.topk) {
      EXPECT_FLOAT_EQ(e.score, candidate->ScoreTriple(q.h, q.r, e.id))
          << "query " << i << ": score from the wrong model generation";
    }
  }
  // The very first exact-fallback answer equals the candidate reference
  // (no index existed for generation N+1 at that instant) — and in
  // particular is NOT the old model's answer.
  Response first = engine.LinkPredictTopK(probe.h, probe.r, 10);
  ASSERT_EQ(first.status, ServeStatus::kOk);
  EXPECT_NE(first.payload.topk, before_promote);
  ctx.ReloadModel(model_);
}

TEST_F(CanaryTest, GenerationIsMonotonicAcrossCanaryCycles) {
  ServeContext ctx(Bindings());
  QueryEngine engine(&ctx, EngineOptions{});
  CanaryOptions opts;
  opts.mirror_fraction = 1.0;
  CanaryController canary(&ctx, opts);

  uint64_t gen = ctx.generation();
  // rollback -> promote -> rollback -> promote: generation moves only on
  // promote, by exactly one, never backwards.
  ASSERT_TRUE(canary.Begin(CloneServingModel()).ok());
  Drive(&engine, &canary, 5);
  ASSERT_TRUE(canary.Rollback().ok());
  EXPECT_EQ(ctx.generation(), gen);

  ASSERT_TRUE(canary.Begin(CloneServingModel()).ok());
  ASSERT_TRUE(canary.Promote().ok());
  EXPECT_EQ(ctx.generation(), gen + 1);

  ASSERT_TRUE(canary.Begin(CloneServingModel()).ok());
  ASSERT_TRUE(canary.Rollback().ok());
  EXPECT_EQ(ctx.generation(), gen + 1);

  ASSERT_TRUE(canary.Begin(CloneServingModel()).ok());
  ASSERT_TRUE(canary.Promote().ok());
  EXPECT_EQ(ctx.generation(), gen + 2);

  CanaryController::Stats s = canary.stats();
  EXPECT_EQ(s.promotions, 2u);
  EXPECT_EQ(s.rollbacks, 2u);
  ctx.ReloadModel(model_);
}

TEST_F(CanaryTest, MetricsJsonCarriesStateAndCounters) {
  ServeContext ctx(Bindings());
  QueryEngine engine(&ctx, EngineOptions{});
  CanaryOptions opts;
  opts.mirror_fraction = 1.0;
  CanaryController canary(&ctx, opts);
  ASSERT_TRUE(canary.Begin(CloneServingModel()).ok());
  Drive(&engine, &canary, 10);
  std::string json = canary.MetricsJson();
  EXPECT_NE(json.find("\"state\":\"mirroring\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mirrored\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean_agreement\":1.0000"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace openbg::serve
