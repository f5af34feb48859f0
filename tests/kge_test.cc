#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "kge/bilinear_models.h"
#include "kge/checkpoint.h"
#include "kge/evaluator.h"
#include "kge/multimodal_models.h"
#include "kge/negative_sampler.h"
#include "kge/text_models.h"
#include "kge/topk.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "nn/simd.h"
#include "util/string_util.h"

namespace openbg::kge {
namespace {

// A tiny deterministic link-prediction world: N entities, 3 relations,
// relation r maps h -> (h + 11*(r+1)) % N. Entities carry distinctive text
// and (for even ids) an image whose features encode the id, so structure,
// text and image models can all learn it.
Dataset MakeTinyDataset(size_t n = 50) {
  Dataset ds;
  ds.name = "tiny";
  for (size_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back(util::StrFormat("uniq%zu", i));
    if (i % 2 == 0) {
      ds.entity_images.push_back(
          {static_cast<float>(i % 5), static_cast<float>(i % 3), 1.0f,
           static_cast<float>(i) / n});
    } else {
      ds.entity_images.push_back({});
    }
  }
  for (uint32_t r = 0; r < 3; ++r) {
    ds.relation_names.push_back("rel" + std::to_string(r));
  }
  for (uint32_t h = 0; h < n; ++h) {
    for (uint32_t r = 0; r < 3; ++r) {
      uint32_t t = (h + 11 * (r + 1)) % n;
      ds.train.push_back({h, r, t});
    }
  }
  // Dev/test duplicate a slice of train (memorization check).
  for (size_t i = 0; i < 20; ++i) ds.dev.push_back(ds.train[i * 3]);
  ds.test = ds.dev;
  return ds;
}

struct ModelFactory {
  std::string name;
  std::function<std::unique_ptr<KgeModel>(const Dataset&, util::Rng*)> make;
  float lr = 0.05f;
  size_t epochs = 40;
};

// Returns a reference to a function-local static: callers keep references
// into the list (see KgeModelTest::factory), so it must outlive them.
const std::vector<ModelFactory>& AllFactories() {
  auto e = [](const Dataset& ds) { return ds.num_entities(); };
  auto r = [](const Dataset& ds) { return ds.num_relations(); };
  static const std::vector<ModelFactory> factories = {
      {"TransE",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransE>(e(ds), r(ds), 16, 1.0f, rng);
       }},
      {"TransH",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransH>(e(ds), r(ds), 16, 1.0f, rng);
       }},
      {"TransD",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransD>(e(ds), r(ds), 16, 1.0f, rng);
       }},
      {"DistMult",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<DistMult>(e(ds), r(ds), 16, rng);
       },
       0.1f, 80},
      {"ComplEx",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<ComplEx>(e(ds), r(ds), 16, rng);
       },
       0.1f, 120},
      {"TuckER",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TuckEr>(e(ds), r(ds), 12, 8, rng);
       }},
      {"TextMatch",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TextMatchModel>(ds, 16, rng, 1 << 12);
       },
       0.02f, 60},
      {"StarStyle",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<StarStyleModel>(ds, 16, rng, 1 << 12);
       }},
      {"GenKgc",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<GenKgcModel>(ds, 32, rng, 1 << 12);
       },
       0.2f, 120},
      {"TransAE",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransAeModel>(ds, 16, 1.0f, 0.01f, rng);
       },
       0.05f, 60},
      {"RSME",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<RsmeModel>(ds, 16, 1.0f, rng);
       },
       0.1f, 60},
      {"MkgFusion",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<MkgFusionModel>(ds, 16, 1.0f, rng, 1 << 12);
       },
       0.1f, 60},
  };
  return factories;
}

class KgeModelTest : public ::testing::TestWithParam<size_t> {
 protected:
  const ModelFactory& factory() const { return AllFactories()[GetParam()]; }
};

TEST_P(KgeModelTest, ScoreTailsAgreesWithScoreTriple) {
  Dataset ds = MakeTinyDataset(20);
  util::Rng rng(71);
  auto model = factory().make(ds, &rng);
  model->PrepareEval();
  std::vector<float> tails;
  model->ScoreTails(3, 1, &tails);
  ASSERT_EQ(tails.size(), ds.num_entities());
  for (uint32_t t = 0; t < ds.num_entities(); ++t) {
    EXPECT_NEAR(tails[t], model->ScoreTriple(3, 1, t), 1e-3f)
        << factory().name << " tail " << t;
  }
}

TEST_P(KgeModelTest, ScoreHeadsCoversAllEntities) {
  Dataset ds = MakeTinyDataset(20);
  util::Rng rng(73);
  auto model = factory().make(ds, &rng);
  model->PrepareEval();
  std::vector<float> heads;
  model->ScoreHeads(1, 5, &heads);
  EXPECT_EQ(heads.size(), ds.num_entities());
}

TEST_P(KgeModelTest, TrainingImprovesRanking) {
  Dataset ds = MakeTinyDataset(50);
  util::Rng rng(79);
  auto model = factory().make(ds, &rng);

  RankingEvaluator::Options eopts;
  eopts.filtered = true;
  RankingEvaluator evaluator(ds, eopts);
  RankingMetrics before = evaluator.EvaluateOn(model.get(), ds.dev);

  TrainConfig config;
  config.epochs = factory().epochs;
  config.batch_size = 32;
  config.lr = factory().lr;
  config.seed = 101;
  TrainKgeModel(model.get(), ds, config);

  RankingMetrics after = evaluator.EvaluateOn(model.get(), ds.dev);
  EXPECT_GT(after.mrr, before.mrr) << factory().name;
  EXPECT_GE(after.hits10, 0.2) << factory().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, KgeModelTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return AllFactories()[info.param].name;
    });

TEST(NegativeSamplerTest, NeverReturnsPositiveWhenFiltering) {
  Dataset ds = MakeTinyDataset(30);
  NegativeSampler::Options opts;
  opts.filter_true = true;
  NegativeSampler sampler(ds, opts, 7);
  for (const LpTriple& pos : ds.train) {
    for (int i = 0; i < 3; ++i) {
      LpTriple neg = sampler.Corrupt(pos);
      EXPECT_NE(neg, pos);
      EXPECT_FALSE(sampler.IsKnownPositive(neg));
    }
  }
}

TEST(NegativeSamplerTest, CorruptsExactlyOneSide) {
  Dataset ds = MakeTinyDataset(30);
  NegativeSampler sampler(ds, {}, 11);
  for (const LpTriple& pos : ds.train) {
    LpTriple neg = sampler.Corrupt(pos);
    bool head_changed = neg.h != pos.h;
    bool tail_changed = neg.t != pos.t;
    EXPECT_NE(head_changed, tail_changed)
        << "exactly one side corrupted";
    EXPECT_EQ(neg.r, pos.r);
  }
}

TEST(NegativeSamplerTest, FallbackNeverReturnsThePositive) {
  // Two entities, one relation, and every possible triple is a known
  // positive, so the filtered retry loop always exhausts max_retries and
  // lands in the fallback. The old fallback re-drew the tail uniformly
  // (50% chance of returning `pos` unchanged) and ignored the head/tail
  // choice entirely.
  Dataset ds;
  for (int i = 0; i < 2; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  for (uint32_t h = 0; h < 2; ++h) {
    for (uint32_t t = 0; t < 2; ++t) ds.train.push_back({h, 0, t});
  }
  NegativeSampler::Options opts;
  opts.filter_true = true;
  opts.max_retries = 4;
  NegativeSampler sampler(ds, opts, 17);
  size_t head_side = 0, tail_side = 0;
  for (int i = 0; i < 200; ++i) {
    for (const LpTriple& pos : ds.train) {
      LpTriple neg = sampler.Corrupt(pos);
      ASSERT_NE(neg, pos) << "fallback returned the positive unchanged";
      bool head_changed = neg.h != pos.h;
      bool tail_changed = neg.t != pos.t;
      EXPECT_NE(head_changed, tail_changed) << "exactly one side corrupted";
      EXPECT_EQ(neg.r, pos.r);
      head_changed ? ++head_side : ++tail_side;
    }
  }
  // The fallback honors the (uniform, p = 0.5) side choice: both sides
  // must actually occur.
  EXPECT_GT(head_side, 0u);
  EXPECT_GT(tail_side, 0u);
}

TEST(NegativeSamplerTest, BernoulliSkewsTowardTailForNto1) {
  // Relation 0 is N-to-1 (many heads, one tail). Corrupting the *head*
  // would often create a false negative (many heads are true), so Wang et
  // al.'s bernoulli scheme corrupts the tail most of the time:
  // P(corrupt head) = tph / (tph + hpt) = 1 / (1 + 39).
  Dataset ds;
  ds.name = "n_to_1";
  for (int i = 0; i < 40; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  for (uint32_t h = 1; h < 40; ++h) ds.train.push_back({h, 0, 0});
  NegativeSampler::Options opts;
  opts.bernoulli = true;
  opts.filter_true = false;
  NegativeSampler sampler(ds, opts, 13);
  size_t head_corruptions = 0, total = 0;
  for (const LpTriple& pos : ds.train) {
    for (int i = 0; i < 20; ++i) {
      LpTriple neg = sampler.Corrupt(pos);
      if (neg.h != pos.h) ++head_corruptions;
      ++total;
    }
  }
  EXPECT_LT(static_cast<double>(head_corruptions) / total, 0.2);
}

// A fake model whose scores are fully determined: score(h,r,t) = -|t - g|
// where g is the gold tail by construction.
class OracleModel : public KgeModel {
 public:
  OracleModel(size_t n, uint32_t offset)
      : KgeModel(n, 1), offset_(offset) {}
  std::string name() const override { return "Oracle"; }
  float ScoreTriple(uint32_t h, uint32_t, uint32_t t) const override {
    uint32_t gold = (h + offset_) % num_entities_;
    return -std::fabs(static_cast<float>(t) - static_cast<float>(gold));
  }
  double TrainPairs(const std::vector<LpTriple>&,
                    const std::vector<LpTriple>&, float) override {
    return 0.0;
  }

 private:
  uint32_t offset_;
};

TEST(EvaluatorTest, PerfectModelScoresPerfectMetrics) {
  Dataset ds;
  const size_t n = 30;
  for (size_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e");
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  for (uint32_t h = 0; h < n; ++h) ds.train.push_back({h, 0, static_cast<uint32_t>((h + 5) % n)});
  ds.test = {{0, 0, 5}, {1, 0, 6}, {2, 0, 7}};
  RankingEvaluator eval(ds, {});
  OracleModel model(n, 5);
  RankingMetrics m = eval.Evaluate(&model);
  EXPECT_DOUBLE_EQ(m.hits1, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_DOUBLE_EQ(m.mr, 1.0);
  EXPECT_EQ(m.n, 3u);
}

TEST(EvaluatorTest, FilteringRemovesKnownTails) {
  // Two gold tails for (0, r): 5 (train) and 6 (test). The oracle prefers
  // 5, so raw rank of 6 is 2 but filtered rank is 1.
  Dataset ds;
  const size_t n = 10;
  for (size_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e");
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  ds.train = {{0, 0, 5}};
  ds.test = {{0, 0, 6}};
  OracleModel model(n, 5);  // scores peak at tail 5

  RankingEvaluator::Options raw;
  raw.filtered = false;
  RankingMetrics m_raw = RankingEvaluator(ds, raw).Evaluate(&model);
  EXPECT_DOUBLE_EQ(m_raw.mr, 2.0);

  RankingEvaluator::Options filt;
  filt.filtered = true;
  RankingMetrics m_filt = RankingEvaluator(ds, filt).Evaluate(&model);
  EXPECT_DOUBLE_EQ(m_filt.mr, 1.0);
}

TEST(EvaluatorTest, DuplicateTriplesAcrossSplitsDoNotCorruptRanks) {
  // Regression: (0, r, 5) appears in train, dev AND test. Before the skip
  // lists were deduplicated, RankOf subtracted the outscoring candidate 5
  // once per copy when ranking (0, r, 6), underflowing `better` from 1 to
  // size_t(-2) and reporting a nonsense rank (mr dropped below 1).
  Dataset ds;
  const size_t n = 10;
  for (size_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e");
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  ds.train = {{0, 0, 5}};
  ds.dev = {{0, 0, 5}};
  ds.test = {{0, 0, 5}, {0, 0, 6}};
  OracleModel model(n, 5);  // scores peak at tail 5

  RankingEvaluator::Options opts;
  opts.filtered = true;
  RankingMetrics m = RankingEvaluator(ds, opts).Evaluate(&model);
  // Gold 5 ranks 1 outright; gold 6 ranks 1 once the known tail 5 is
  // filtered — exactly once despite its three copies.
  EXPECT_EQ(m.n, 2u);
  EXPECT_DOUBLE_EQ(m.mr, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_DOUBLE_EQ(m.hits1, 1.0);
}

// All candidates tie: rank must be 1 + #strictly-better = 1 for every
// triple, in serial and parallel runs alike (ties never depend on
// evaluation order or thread count).
class ConstantModel : public KgeModel {
 public:
  explicit ConstantModel(size_t n) : KgeModel(n, 1) {}
  std::string name() const override { return "Constant"; }
  float ScoreTriple(uint32_t, uint32_t, uint32_t) const override {
    return 0.25f;
  }
  double TrainPairs(const std::vector<LpTriple>&,
                    const std::vector<LpTriple>&, float) override {
    return 0.0;
  }
};

TEST(EvaluatorTest, TiedScoresRankDeterministically) {
  Dataset ds = MakeTinyDataset(24);
  ConstantModel model(24);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RankingEvaluator::Options opts;
    opts.filtered = true;
    opts.num_threads = threads;
    RankingMetrics m = RankingEvaluator(ds, opts).Evaluate(&model);
    EXPECT_DOUBLE_EQ(m.mr, 1.0) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(m.hits1, 1.0) << "threads=" << threads;
  }
}

TEST(EvaluatorTest, ParallelMetricsAreBitIdenticalToSerial) {
  Dataset ds = MakeTinyDataset(50);
  util::Rng rng(83);
  // TransE exercises the plain embedding path; TextMatchModel exercises the
  // Mlp-scored path, which once raced on shared activation caches until
  // scoring switched to Mlp::ForwardInference.
  std::vector<std::unique_ptr<KgeModel>> models;
  models.push_back(std::make_unique<TransE>(ds.num_entities(),
                                            ds.num_relations(), 16, 1.0f,
                                            &rng));
  models.push_back(std::make_unique<TextMatchModel>(ds, 16, &rng, 1 << 12));
  for (auto& model : models) {
    TrainConfig config;
    config.epochs = 5;
    config.batch_size = 32;
    TrainKgeModel(model.get(), ds, config);
    for (bool both : {false, true}) {
      RankingEvaluator::Options serial;
      serial.filtered = true;
      serial.both_directions = both;
      RankingMetrics ms = RankingEvaluator(ds, serial).Evaluate(model.get());
      for (size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
        RankingEvaluator::Options par = serial;
        par.num_threads = threads;
        RankingMetrics mp = RankingEvaluator(ds, par).Evaluate(model.get());
        EXPECT_EQ(ms.n, mp.n);
        // Bit-identical, not approximately equal: ranks are integers and
        // the metric fold runs serially in triple order at any thread
        // count.
        EXPECT_DOUBLE_EQ(ms.mr, mp.mr)
            << model->name() << " threads=" << threads;
        EXPECT_DOUBLE_EQ(ms.mrr, mp.mrr)
            << model->name() << " threads=" << threads;
        EXPECT_DOUBLE_EQ(ms.hits1, mp.hits1)
            << model->name() << " threads=" << threads;
        EXPECT_DOUBLE_EQ(ms.hits3, mp.hits3)
            << model->name() << " threads=" << threads;
        EXPECT_DOUBLE_EQ(ms.hits10, mp.hits10)
            << model->name() << " threads=" << threads;
      }
    }
  }
}

TEST(EvaluatorTest, QueryBatchedMetricsAreBitIdenticalToPerTriple) {
  // A world built to exercise query dedup: relation 0 maps each head to TWO
  // tails, so the test split repeats (h, r) tail-queries (and, since tails
  // are shared between neighboring heads, (t, r) head-queries too). The
  // batched path must score each unique query once yet reproduce the
  // per-triple reference metrics exactly.
  Dataset ds;
  ds.name = "multi-tail";
  const uint32_t n = 30;
  for (uint32_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back(util::StrFormat("uniq%u", i));
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("rel0");
  for (uint32_t h = 0; h < n; ++h) {
    ds.train.push_back({h, 0, (h + 1) % n});
    ds.train.push_back({h, 0, (h + 2) % n});
  }
  for (size_t i = 0; i < 24; ++i) ds.test.push_back(ds.train[i]);
  ds.dev = ds.test;

  util::Rng rng(97);
  TransE model(ds.num_entities(), ds.num_relations(), 16, 1.0f, &rng);
  TrainConfig config;
  config.epochs = 5;
  config.batch_size = 16;
  TrainKgeModel(&model, ds, config);

  for (bool both : {false, true}) {
    RankingEvaluator::Options per_triple;
    per_triple.filtered = true;
    per_triple.both_directions = both;
    per_triple.query_batched = false;
    RankingMetrics ref = RankingEvaluator(ds, per_triple).Evaluate(&model);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      RankingEvaluator::Options batched = per_triple;
      batched.query_batched = true;
      batched.num_threads = threads;
      RankingMetrics got = RankingEvaluator(ds, batched).Evaluate(&model);
      EXPECT_EQ(ref.n, got.n) << "threads=" << threads;
      // Exactly equal, not approximately: both paths compute the same
      // integer ranks and fold them in the same (triple) order.
      EXPECT_DOUBLE_EQ(ref.mr, got.mr) << "both=" << both
                                       << " threads=" << threads;
      EXPECT_DOUBLE_EQ(ref.mrr, got.mrr) << "both=" << both
                                         << " threads=" << threads;
      EXPECT_DOUBLE_EQ(ref.hits1, got.hits1) << "both=" << both
                                             << " threads=" << threads;
      EXPECT_DOUBLE_EQ(ref.hits3, got.hits3) << "both=" << both
                                             << " threads=" << threads;
      EXPECT_DOUBLE_EQ(ref.hits10, got.hits10) << "both=" << both
                                               << " threads=" << threads;
    }
  }
}

TEST(EvaluatorTest, MaxTriplesCapsWork) {
  Dataset ds = MakeTinyDataset(20);
  RankingEvaluator::Options opts;
  opts.max_triples = 5;
  RankingEvaluator eval(ds, opts);
  OracleModel model(20, 11);
  RankingMetrics m = eval.Evaluate(&model);
  EXPECT_EQ(m.n, 5u);
}

TEST(EvaluatorTest, BothDirectionsDoublesCount) {
  Dataset ds = MakeTinyDataset(20);
  RankingEvaluator::Options opts;
  opts.both_directions = true;
  opts.max_triples = 4;
  RankingEvaluator eval(ds, opts);
  OracleModel model(20, 11);
  RankingMetrics m = eval.Evaluate(&model);
  EXPECT_EQ(m.n, 8u);
}

// ---- PrefixCodes: the top-K prefilter's quantizer ------------------------

uint32_t Sad(const uint8_t* a, const uint8_t* b) {
  uint32_t s = 0;
  for (size_t i = 0; i < PrefixCodes::kDims; ++i) {
    s += static_cast<uint32_t>(std::abs(int{a[i]} - int{b[i]}));
  }
  return s;
}

TEST(PrefixCodesTest, BuildsNoCodesWithoutAPrefixToCode) {
  PrefixCodes codes;
  nn::Matrix narrow(8, PrefixCodes::kDims, 0.5f);  // no suffix: dim <= 16
  codes.Build(narrow);
  EXPECT_TRUE(codes.empty());
  nn::Matrix zero_prefix(8, 20, 0.0f);  // scale 0
  for (size_t r = 0; r < 8; ++r) zero_prefix.Row(r)[19] = 3.0f;
  codes.Build(zero_prefix);
  EXPECT_TRUE(codes.empty());
  nn::Matrix non_finite(2, 20, 0.0f);  // no finite value sets a scale
  non_finite.Row(0)[0] = std::numeric_limits<float>::quiet_NaN();
  non_finite.Row(1)[3] = std::numeric_limits<float>::infinity();
  codes.Build(non_finite);
  EXPECT_TRUE(codes.empty());
  nn::Matrix wide(8, 17, 0.25f);
  codes.Build(wide);
  EXPECT_FALSE(codes.empty());
  EXPECT_EQ(codes.bytes(), 8 * PrefixCodes::kDims);
}

// One global scale, max |x| / 127, with an offset of 128: +max codes 255,
// -max 1, 0 128. Non-finite values still get codes (NaN 128, +-inf at the
// ends), and a query outside the table's range clamps. A row encoded as a
// query gets the row's own codes.
TEST(PrefixCodesTest, CodesAreDefinedForEveryValue) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  nn::Matrix m(4, 20, 0.0f);
  m.Row(0)[0] = 2.0f;
  m.Row(0)[1] = -2.0f;
  m.Row(0)[2] = 1.0f;
  m.Row(1)[0] = kNaN;
  m.Row(1)[1] = kInf;
  m.Row(1)[2] = -kInf;
  m.Row(2)[19] = kNaN;  // suffix values are not coded
  PrefixCodes codes;
  codes.Build(m);
  ASSERT_FALSE(codes.empty());
  EXPECT_EQ(codes.Row(0)[0], 255);
  EXPECT_EQ(codes.Row(0)[1], 1);
  EXPECT_EQ(codes.Row(0)[2], 192);  // round(63.5) = 64, to even
  EXPECT_EQ(codes.Row(0)[3], 128);
  EXPECT_EQ(codes.Row(1)[0], 128);
  EXPECT_EQ(codes.Row(1)[1], 255);
  EXPECT_EQ(codes.Row(1)[2], 0);
  for (uint32_t r : {0u, 2u, 3u}) {
    uint8_t q[PrefixCodes::kDims];
    EXPECT_GE(codes.EncodeQuery(m.Row(r), q), 0.0);
    EXPECT_EQ(std::memcmp(q, codes.Row(r), sizeof(q)), 0) << "row " << r;
  }
  uint8_t q[PrefixCodes::kDims];
  EXPECT_LT(codes.EncodeQuery(m.Row(1), q), 0.0) << "non-finite query";
  std::vector<float> far(20, 0.0f);
  far[0] = 50.0f;
  far[1] = -50.0f;
  const double err = codes.EncodeQuery(far.data(), q);
  EXPECT_EQ(q[0], 255);
  EXPECT_EQ(q[1], 0);
  EXPECT_NEAR(err, 48.0 + (50.0 - 128.0 * 2.0 / 127.0), 1e-9);
}

// The certificate: a row whose computed l1_distance is at or below `bound`
// never has a code SAD above MaxSad(bound). Checked on every backend at
// the tightest bound each row allows (its own distance), over random
// tables, a clustered table and queries outside the codes' range, at
// dims 17, 24 and 64.
TEST(PrefixCodesTest, MaxSadNeverExcludesARowWithinTheBound) {
  size_t skippable = 0;
  for (const std::string& kernel : nn::simd::SupportedKernels()) {
    ASSERT_TRUE(nn::simd::ForceKernel(kernel));
    const nn::simd::KernelTable& kt = nn::simd::Active();
    util::Rng rng(909);
    for (size_t dim : {size_t{17}, size_t{24}, size_t{64}}) {
      for (int table = 0; table < 3; ++table) {
        const size_t rows = 300;
        nn::Matrix m(rows, dim);
        for (size_t r = 0; r < rows; ++r) {
          for (size_t d = 0; d < dim; ++d) {
            m.Row(r)[d] =
                table == 0 ? static_cast<float>(rng.Normal(0.0, 1.0))
                : table == 1
                    ? static_cast<float>((r % 4) + rng.Normal(0.0, 0.01))
                    : static_cast<float>(rng.UniformDouble() * 1e-3);
          }
        }
        PrefixCodes codes;
        codes.Build(m);
        ASSERT_FALSE(codes.empty());
        for (int qi = 0; qi < 20; ++qi) {
          const float* base = m.Row(rng.Uniform(rows));
          std::vector<float> q(base, base + dim);
          const float stretch = qi % 4 == 3 ? 3.0f : 1.0f;
          for (float& x : q) {
            x = x * stretch + static_cast<float>(rng.Normal(0.0, 0.05));
          }
          uint8_t q_codes[PrefixCodes::kDims];
          const double q_err = codes.EncodeQuery(q.data(), q_codes);
          ASSERT_GE(q_err, 0.0);
          float nearest = std::numeric_limits<float>::infinity();
          for (size_t r = 0; r < rows; ++r) {
            const float d = kt.l1_distance(q.data(), m.Row(r), dim);
            nearest = std::min(nearest, d);
            ASSERT_LE(Sad(q_codes, codes.Row(r)), codes.MaxSad(d, q_err, dim))
                << kernel << " dim=" << dim << " table=" << table
                << " query=" << qi << " row=" << r;
          }
          // Not vacuous: at the nearest row's distance, rows get skipped.
          const uint32_t max_sad = codes.MaxSad(nearest, q_err, dim);
          for (size_t r = 0; r < rows; ++r) {
            skippable += Sad(q_codes, codes.Row(r)) > max_sad;
          }
        }
      }
    }
  }
  EXPECT_GT(skippable, 0u);
  nn::simd::ForceKernel("auto");
}

// The certificate can hinge on the query's own error alone. On a grid
// table (scale 1, integer rows, so no row error) a query 1/4 past row 0 in
// every prefix dim codes as row 0 does, while row 1, one step from row 0
// in every prefix dim, is exactly 16 * 3/4 = 12 away with a code SAD of
// 16. Only the query's error, 16 * 1/4, lets that SAD pass at bound 12.
TEST(PrefixCodesTest, MaxSadCountsTheQueryError) {
  nn::Matrix m(3, PrefixCodes::kDims + 1, 0.0f);
  for (size_t i = 0; i < PrefixCodes::kDims; ++i) m.Row(1)[i] = 1.0f;
  m.Row(2)[0] = 127.0f;  // the largest value: scale 1
  PrefixCodes codes;
  codes.Build(m);
  std::vector<float> q(PrefixCodes::kDims + 1, 0.25f);
  q.back() = 0.0f;
  uint8_t q_codes[PrefixCodes::kDims];
  EXPECT_EQ(codes.EncodeQuery(q.data(), q_codes), 4.0);
  EXPECT_EQ(Sad(q_codes, codes.Row(0)), 0u);
  ASSERT_EQ(Sad(q_codes, codes.Row(1)), 16u);
  for (const std::string& kernel : nn::simd::SupportedKernels()) {
    ASSERT_TRUE(nn::simd::ForceKernel(kernel));
    const float d =
        nn::simd::Active().l1_distance(q.data(), m.Row(1), q.size());
    ASSERT_EQ(d, 12.0f) << kernel;
    EXPECT_GE(codes.MaxSad(d, 4.0, q.size()), 16u) << kernel;
  }
  nn::simd::ForceKernel("auto");
}

// TransE's codes follow its entity table: PrepareEval builds them, a
// checkpoint load (a VisitParams write) drops them, and the next
// PrepareEval codes the loaded table exactly as the saved model coded it.
TEST(PrefixCodesTest, TransECodesFollowACheckpointRoundTrip) {
  util::Rng rng(31);
  TransE saved(50, 3, 24, 1.0f, &rng);
  TransE loaded(50, 3, 24, 1.0f, &rng);
  TrainerCheckpoint ckpt;
  ckpt.model_name = saved.name();
  const std::string path = ::testing::TempDir() + "/prefix_codes.obgckpt";
  ASSERT_TRUE(SaveCheckpoint(ckpt, &saved, path).ok());
  TailScanSpec spec;
  loaded.PrepareEval();
  ASSERT_TRUE(loaded.GetTailScanSpec(&spec));
  EXPECT_NE(spec.codes, nullptr);
  ASSERT_TRUE(LoadCheckpoint(path, &loaded, &ckpt).ok());
  ASSERT_TRUE(loaded.GetTailScanSpec(&spec));
  EXPECT_EQ(spec.codes, nullptr) << "codes of the old table survived";
  loaded.PrepareEval();
  saved.PrepareEval();
  TailScanSpec want;
  ASSERT_TRUE(loaded.GetTailScanSpec(&spec));
  ASSERT_TRUE(saved.GetTailScanSpec(&want));
  ASSERT_NE(spec.codes, nullptr);
  ASSERT_NE(want.codes, nullptr);
  ASSERT_EQ(spec.codes->bytes(), want.codes->bytes());
  EXPECT_EQ(std::memcmp(spec.codes->Row(0), want.codes->Row(0),
                        want.codes->bytes()),
            0);
  std::remove(path.c_str());
}

// Saving a checkpoint only reads the model: a serving TransE keeps its
// codes, so TopKTails still skips rows after the save, with answers
// byte-identical to ScoreTails + SelectTopK. The entity rows form 16
// clusters, the regime the prefilter is for.
TEST(PrefixCodesTest, CheckpointSaveKeepsTheCodes) {
  constexpr size_t kE = 2048, kR = 4, kDim = 64, kCenters = 16;
  util::Rng rng(37);
  TransE model(kE, kR, kDim, 1.0f, &rng);
  std::vector<float> centers(kCenters * kDim);
  for (float& c : centers) c = static_cast<float>(rng.Normal(0.0, 1.0));
  for (uint32_t e = 0; e < kE; ++e) {
    float* row = model.entities().Row(e);
    for (size_t d = 0; d < kDim; ++d) {
      row[d] = centers[(e % kCenters) * kDim + d] +
               static_cast<float>(rng.Normal(0.0, 0.08));
    }
  }
  model.PrepareEval();
  TrainerCheckpoint ckpt;
  ckpt.model_name = model.name();
  const std::string path = ::testing::TempDir() + "/save_keeps.obgckpt";
  ASSERT_TRUE(SaveCheckpoint(ckpt, &model, path).ok());
  std::remove(path.c_str());
  TailScanSpec spec;
  ASSERT_TRUE(model.GetTailScanSpec(&spec));
  EXPECT_NE(spec.codes, nullptr) << "saving dropped the codes";
  std::vector<float> scores;
  for (uint32_t h : {0u, 1u, 777u, 2047u}) {
    for (uint32_t r = 0; r < kR; ++r) {
      TopKStats stats;
      const std::vector<ScoredEntity> got =
          TopKTails(model, h, r, 10, &stats);
      model.ScoreTails(h, r, &scores);
      EXPECT_EQ(got, SelectTopK(scores, 10)) << "h=" << h << " r=" << r;
      EXPECT_LT(stats.rescored, kE) << "h=" << h << " r=" << r;
    }
  }
}

}  // namespace
}  // namespace openbg::kge
