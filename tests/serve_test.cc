// Tests for the online serving layer (src/serve/): the sharded LRU result
// cache (eviction order, fingerprint collisions, snapshot-generation
// invalidation, concurrent access), the micro-batched query engine
// (correctness vs direct scoring, cached/uncached byte-equality, deadlines
// and load shedding via failpoints, concurrent mixed-endpoint readers on a
// sealed store), live-update serving over rdf::LiveGraph (selective cache
// invalidation, readers concurrent with delta ingest), and the metrics
// surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/openbg.h"
#include "kge/bilinear_models.h"
#include "kge/checkpoint.h"
#include "kge/grad_sink.h"
#include "kge/trainer.h"
#include "kge/topk.h"
#include "kge/trans_models.h"
#include "nn/simd.h"
#include "rdf/live_graph.h"
#include "serve/engine.h"
#include "serve/health.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"
#include "util/clock.h"
#include "util/fault_injection.h"

namespace openbg::serve {
namespace {

std::shared_ptr<const ResultPayload> MakePayload(uint32_t tag) {
  auto p = std::make_shared<ResultPayload>();
  p->topk.push_back(ScoredEntity{tag, static_cast<float>(tag)});
  return p;
}

RequestKey TopKKey(uint64_t h, uint64_t r, uint64_t k) {
  return RequestKey{Endpoint::kLinkPredictTopK, h, r, k, ""};
}

TEST(ResultCacheTest, HitReturnsInsertedPayload) {
  ResultCache cache(8, 1);
  RequestKey key = TopKKey(1, 2, 3);
  uint64_t fp = Fingerprint(key);
  EXPECT_EQ(cache.Lookup(fp, key, 1), nullptr);
  cache.Insert(fp, key, 1, MakePayload(7));
  auto hit = cache.Lookup(fp, key, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->topk[0].id, 7u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCacheTest, LruEvictionOrder) {
  // Single shard with room for 3: inserting a 4th evicts the least
  // recently *used* entry, not the oldest inserted.
  ResultCache cache(3, 1);
  RequestKey a = TopKKey(1, 0, 1), b = TopKKey(2, 0, 1),
             c = TopKKey(3, 0, 1), d = TopKKey(4, 0, 1);
  cache.Insert(Fingerprint(a), a, 1, MakePayload(1));
  cache.Insert(Fingerprint(b), b, 1, MakePayload(2));
  cache.Insert(Fingerprint(c), c, 1, MakePayload(3));
  // Touch `a` so `b` becomes the LRU victim.
  EXPECT_NE(cache.Lookup(Fingerprint(a), a, 1), nullptr);
  cache.Insert(Fingerprint(d), d, 1, MakePayload(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(cache.Lookup(Fingerprint(a), a, 1), nullptr);
  EXPECT_EQ(cache.Lookup(Fingerprint(b), b, 1), nullptr) << "b not evicted";
  EXPECT_NE(cache.Lookup(Fingerprint(c), c, 1), nullptr);
  EXPECT_NE(cache.Lookup(Fingerprint(d), d, 1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, FingerprintCollisionIsMissNeverWrongAnswer) {
  // Force two distinct requests onto one fingerprint: the second lookup
  // must miss (full-key compare), and an insert takes the slot over.
  ResultCache cache(8, 1);
  RequestKey a = TopKKey(1, 0, 1), b = TopKKey(2, 0, 1);
  uint64_t fp = 0x1234;  // deliberately shared
  cache.Insert(fp, a, 1, MakePayload(1));
  EXPECT_EQ(cache.Lookup(fp, b, 1), nullptr);
  EXPECT_EQ(cache.stats().collisions, 1u);
  cache.Insert(fp, b, 1, MakePayload(2));  // last writer wins
  EXPECT_EQ(cache.Lookup(fp, a, 1), nullptr);
  auto hit = cache.Lookup(fp, b, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->topk[0].id, 2u);
}

TEST(ResultCacheTest, GenerationBumpInvalidates) {
  ResultCache cache(8, 2);
  RequestKey key = TopKKey(5, 6, 7);
  uint64_t fp = Fingerprint(key);
  cache.Insert(fp, key, 1, MakePayload(1));
  ASSERT_NE(cache.Lookup(fp, key, 1), nullptr);
  // A reload bumped the generation: the stale entry must not serve, and is
  // lazily erased.
  EXPECT_EQ(cache.Lookup(fp, key, 2), nullptr);
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(cache.size(), 0u);
  // Re-inserting under the new generation serves again.
  cache.Insert(fp, key, 2, MakePayload(9));
  ASSERT_NE(cache.Lookup(fp, key, 2), nullptr);
}

TEST(ResultCacheTest, FutureEpochEntryIsMissButNotErased) {
  // Regression for the old `e.gen != gen` check: a reader still pinned to
  // an OLDER epoch than the entry's must get a plain miss — erasing the
  // entry let one lagging reader destroy every freshly inserted answer
  // during a mixed-epoch window.
  ResultCache cache(8, 1);
  RequestKey key = TopKKey(1, 2, 3);
  uint64_t fp = Fingerprint(key);
  cache.Insert(fp, key, /*epoch=*/2, MakePayload(9));
  EXPECT_EQ(cache.Lookup(fp, key, 1), nullptr);  // lagging reader
  EXPECT_EQ(cache.stats().future, 1u);
  EXPECT_EQ(cache.stats().stale, 0u);
  EXPECT_EQ(cache.size(), 1u) << "future-epoch entry must not be erased";
  // The current-epoch reader still hits it.
  ASSERT_NE(cache.Lookup(fp, key, 2), nullptr);
}

TEST(ResultCacheTest, CapacityBudgetHoldsAcrossShards) {
  // The old ceil-rounded split gave capacity 10 over 8 shards 16 real
  // slots. The per-shard budgets must sum to exactly the requested total,
  // and live entries may never exceed it.
  ResultCache cache(10, 8);
  ResultCache::Stats s = cache.stats();
  size_t budget = 0;
  for (size_t c : s.shard_capacity) budget += c;
  EXPECT_EQ(budget, 10u);
  for (uint64_t i = 0; i < 200; ++i) {
    RequestKey key = TopKKey(i, i, 1);
    cache.Insert(Fingerprint(key), key, 1,
                 MakePayload(static_cast<uint32_t>(i)));
  }
  EXPECT_LE(cache.size(), 10u);
  s = cache.stats();
  ASSERT_EQ(s.shard_sizes.size(), s.shard_capacity.size());
  size_t occupied = 0;
  for (size_t i = 0; i < s.shard_sizes.size(); ++i) {
    EXPECT_LE(s.shard_sizes[i], s.shard_capacity[i]) << "shard " << i;
    occupied += s.shard_sizes[i];
  }
  EXPECT_EQ(occupied, cache.size());
}

TEST(ResultCacheTest, SelectiveInvalidationErasesOnlyIntersecting) {
  ResultCache cache(16, 2);
  RequestKey a = TopKKey(1, 0, 1), b = TopKKey(2, 0, 1), c = TopKKey(3, 0, 1);
  cache.Insert(Fingerprint(a), a, 1, MakePayload(1), 5, {100, 200});
  cache.Insert(Fingerprint(b), b, 1, MakePayload(2), 5, {300});
  cache.Insert(Fingerprint(c), c, 1, MakePayload(3), 5, {});  // epoch-only
  EXPECT_EQ(cache.InvalidateTouched(6, {200, 250}), 1u);
  EXPECT_EQ(cache.Lookup(Fingerprint(a), a, 1), nullptr) << "touched entry";
  EXPECT_NE(cache.Lookup(Fingerprint(b), b, 1), nullptr) << "disjoint deps";
  EXPECT_NE(cache.Lookup(Fingerprint(c), c, 1), nullptr) << "no deps";
  EXPECT_EQ(cache.stats().invalidated, 1u);
  // An entry recomputed AT the publish generation survives that publish.
  cache.Insert(Fingerprint(a), a, 1, MakePayload(4), 6, {200});
  EXPECT_EQ(cache.InvalidateTouched(6, {200}), 0u);
  EXPECT_NE(cache.Lookup(Fingerprint(a), a, 1), nullptr);
}

TEST(ResultCacheTest, LateInsertComputedBeforePublishIsRefused) {
  // The in-flight race: a publish lands while a request computed against
  // the pre-publish snapshot is still executing; its insert must not
  // resurrect the invalidated answer.
  ResultCache cache(16, 1);
  RequestKey a = TopKKey(1, 0, 1);
  cache.InvalidateTouched(7, {100});
  cache.Insert(Fingerprint(a), a, 1, MakePayload(1), 5, {100});
  EXPECT_EQ(cache.Lookup(Fingerprint(a), a, 1), nullptr);
  EXPECT_EQ(cache.stats().dropped_inserts, 1u);
  // Same stale generation, disjoint deps: fine.
  RequestKey b = TopKKey(2, 0, 1);
  cache.Insert(Fingerprint(b), b, 1, MakePayload(2), 5, {300});
  EXPECT_NE(cache.Lookup(Fingerprint(b), b, 1), nullptr);
  // Epoch-only entries (no deps) are never dropped by publishes.
  RequestKey c = TopKKey(3, 0, 1);
  cache.Insert(Fingerprint(c), c, 1, MakePayload(3), 5, {});
  EXPECT_NE(cache.Lookup(Fingerprint(c), c, 1), nullptr);
}

TEST(ResultCacheTest, InvalidateAllDropsEverythingAndRaisesFloor) {
  ResultCache cache(16, 2);
  RequestKey a = TopKKey(1, 0, 1);
  cache.Insert(Fingerprint(a), a, 1, MakePayload(1), 3, {100});
  cache.InvalidateAll(9);
  EXPECT_EQ(cache.size(), 0u);
  // Anything computed at or before the floor can no longer prove it was
  // not invalidated (the records are gone): refused.
  cache.Insert(Fingerprint(a), a, 1, MakePayload(2), 8, {500});
  EXPECT_EQ(cache.Lookup(Fingerprint(a), a, 1), nullptr);
  EXPECT_GE(cache.stats().dropped_inserts, 1u);
  // Entries computed after the floor insert normally.
  cache.Insert(Fingerprint(a), a, 1, MakePayload(3), 10, {500});
  EXPECT_NE(cache.Lookup(Fingerprint(a), a, 1), nullptr);
}

TEST(ResultCacheTest, ConcurrentHitMissInsertEightThreads) {
  // 8 threads hammer a small sharded cache with overlapping keys: the test
  // asserts internal-consistency (every hit returns the payload its key
  // inserted) and is the TSan coverage for the shard locking.
  ResultCache cache(64, 8);
  constexpr size_t kThreads = 8, kOps = 2000, kKeys = 96;
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (size_t i = 0; i < kOps; ++i) {
        uint64_t id = (ti * 31 + i * 7) % kKeys;
        RequestKey key = TopKKey(id, id + 1, 1);
        uint64_t fp = Fingerprint(key);
        auto hit = cache.Lookup(fp, key, 1);
        if (hit != nullptr) {
          if (hit->topk[0].id != id) wrong.fetch_add(1);
        } else {
          cache.Insert(fp, key, 1, MakePayload(static_cast<uint32_t>(id)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  ResultCache::Stats s = cache.stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.inserts, 0u);
}

/// Shared expensive fixture: one small world + trained TransE, reused by
/// every engine test below.
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::OpenBG::Options options;
    options.world.seed = 11;
    options.world.scale = 0.25;
    options.world.num_products = 400;
    kg_ = core::OpenBG::Build(options).release();

    bench_builder::BenchmarkSpec spec;
    spec.name = "serve-test";
    spec.num_relations = 12;
    spec.dev_size = 50;
    spec.test_size = 100;
    ds_ = new kge::Dataset(kg_->BuildBenchmark(spec, nullptr));

    util::Rng rng(3);
    model_ = std::make_shared<kge::TransE>(
        ds_->num_entities(), ds_->num_relations(), 16, 1.0f, &rng);
    kge::TrainConfig config;
    config.epochs = 2;
    config.batch_size = 256;
    TrainKgeModel(model_.get(), *ds_, config);

    mapper_ = new construction::SchemaMapper(kg_->world().brands);
  }

  static void TearDownTestSuite() {
    delete mapper_;
    delete ds_;
    delete kg_;
    mapper_ = nullptr;
    model_ = nullptr;
    ds_ = nullptr;
    kg_ = nullptr;
  }

  void TearDown() override { util::failpoints::DisarmAll(); }

  ServeContext::Bindings AllBindings() {
    ServeContext::Bindings b;
    b.graph = &kg_->graph();
    b.ontology = &kg_->ontology();
    b.dataset = ds_;
    b.model = model_.get();
    b.mapper = mapper_;
    return b;
  }

  static core::OpenBG* kg_;
  static kge::Dataset* ds_;
  static std::shared_ptr<kge::TransE> model_;
  static construction::SchemaMapper* mapper_;
};

core::OpenBG* EngineTest::kg_ = nullptr;
kge::Dataset* EngineTest::ds_ = nullptr;
std::shared_ptr<kge::TransE> EngineTest::model_;
construction::SchemaMapper* EngineTest::mapper_ = nullptr;

// Reference answer: full ScoreTails + stable full sort.
std::vector<ScoredEntity> ReferenceTopK(kge::KgeModel* model, uint32_t h,
                                        uint32_t r, size_t k) {
  std::vector<float> scores;
  model->ScoreTails(h, r, &scores);
  std::vector<ScoredEntity> all(scores.size());
  for (uint32_t i = 0; i < scores.size(); ++i) all[i] = {i, scores[i]};
  std::sort(all.begin(), all.end(),
            [](const ScoredEntity& a, const ScoredEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

TEST_F(EngineTest, TopKMatchesReferenceSort) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  for (size_t i = 0; i < 10; ++i) {
    const kge::LpTriple& q = ds_->test[i];
    Response resp = engine.LinkPredictTopK(q.h, q.r, 10);
    ASSERT_EQ(resp.status, ServeStatus::kOk);
    EXPECT_FALSE(resp.from_cache);
    EXPECT_EQ(resp.payload.topk, ReferenceTopK(model_.get(), q.h, q.r, 10));
  }
}

TEST_F(EngineTest, CachedAndUncachedResponsesAreByteIdentical) {
  // The acceptance criterion: same request, unchanged KG — the cached
  // answer equals the recomputed one exactly (and a cache-off engine
  // agrees too).
  ServeContext ctx(AllBindings());
  EngineOptions cached_opts;
  QueryEngine cached(&ctx, cached_opts);
  EngineOptions uncached_opts;
  uncached_opts.cache_enabled = false;
  QueryEngine uncached(&ctx, uncached_opts);

  const kge::LpTriple& q = ds_->test[0];
  Response first = cached.LinkPredictTopK(q.h, q.r, 8);
  Response second = cached.LinkPredictTopK(q.h, q.r, 8);
  Response recomputed = uncached.LinkPredictTopK(q.h, q.r, 8);
  ASSERT_EQ(first.status, ServeStatus::kOk);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  ASSERT_EQ(first.payload.topk.size(), second.payload.topk.size());
  for (size_t i = 0; i < first.payload.topk.size(); ++i) {
    // Bit-exact, not approximately equal.
    EXPECT_EQ(first.payload.topk[i].id, second.payload.topk[i].id);
    EXPECT_EQ(first.payload.topk[i].score, second.payload.topk[i].score);
    EXPECT_EQ(first.payload.topk[i].id, recomputed.payload.topk[i].id);
    EXPECT_EQ(first.payload.topk[i].score, recomputed.payload.topk[i].score);
  }
}

TEST_F(EngineTest, SmallerKIsPrefixOfLargerK) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const kge::LpTriple& q = ds_->test[1];
  Response big = engine.LinkPredictTopK(q.h, q.r, 20);
  Response small = engine.LinkPredictTopK(q.h, q.r, 5);
  ASSERT_EQ(small.payload.topk.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(small.payload.topk[i], big.payload.topk[i]);
  }
}

TEST_F(EngineTest, InvalidArgumentsAreTyped) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  EXPECT_EQ(engine.LinkPredictTopK(0, 0, 0).status,
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(
      engine.LinkPredictTopK(static_cast<uint32_t>(ds_->num_entities()), 0, 5)
          .status,
      ServeStatus::kInvalidArgument);
  EXPECT_EQ(engine.Neighbors(rdf::kInvalidTerm).status,
            ServeStatus::kInvalidArgument);
  // A context with no model bound refuses scoring but still serves reads.
  ServeContext::Bindings graph_only;
  graph_only.graph = &kg_->graph();
  graph_only.ontology = &kg_->ontology();
  ServeContext ctx2(graph_only);
  QueryEngine engine2(&ctx2, EngineOptions{});
  EXPECT_EQ(engine2.LinkPredictTopK(0, 0, 5).status,
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(
      engine2.Neighbors(kg_->assembly().product_terms[0]).status,
      ServeStatus::kOk);
}

TEST_F(EngineTest, NeighborsMatchesStoreMatch) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  rdf::TermId product = kg_->assembly().product_terms[0];
  Response resp = engine.Neighbors(product);
  ASSERT_EQ(resp.status, ServeStatus::kOk);
  size_t out_edges = kg_->graph().store.CountMatches(
      rdf::TriplePattern{product, rdf::TriplePattern::kAny,
                         rdf::TriplePattern::kAny});
  size_t in_edges = kg_->graph().store.CountMatches(
      rdf::TriplePattern{rdf::TriplePattern::kAny, rdf::TriplePattern::kAny,
                         product});
  EXPECT_EQ(resp.payload.triples.size(), out_edges + in_edges);
  for (const rdf::Triple& t : resp.payload.triples) {
    EXPECT_TRUE(t.s == product || t.o == product);
  }
  // Relation-restricted variant agrees with Objects().
  rdf::TermId rel = kg_->ontology().related_scene();
  Response scoped = engine.Neighbors(product, rel);
  EXPECT_EQ(scoped.payload.triples.size(),
            kg_->graph().store.Objects(product, rel).size());
}

TEST_F(EngineTest, ConceptsOfReturnsConceptEdges) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const ontology::Ontology& onto = kg_->ontology();
  // Find a product with at least one scene link.
  for (rdf::TermId product : kg_->assembly().product_terms) {
    size_t scenes =
        kg_->graph().store.Objects(product, onto.related_scene()).size();
    if (scenes == 0) continue;
    Response resp = engine.ConceptsOf(product);
    ASSERT_EQ(resp.status, ServeStatus::kOk);
    size_t got_scenes = 0;
    for (const rdf::Triple& t : resp.payload.triples) {
      EXPECT_EQ(t.s, product);
      if (t.p == onto.related_scene()) ++got_scenes;
    }
    EXPECT_EQ(got_scenes, scenes);
    return;
  }
  FAIL() << "no product with scene links in the test world";
}

TEST_F(EngineTest, EntityLinkResolvesBrandMentions) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  // A canonical brand name must link exactly.
  const datagen::TaxonomyData& brands = kg_->world().brands;
  int leaf = brands.leaves[0];
  Response resp = engine.EntityLink(brands.nodes[leaf].name);
  ASSERT_EQ(resp.status, ServeStatus::kOk);
  EXPECT_EQ(resp.payload.link.node, leaf);
  EXPECT_EQ(resp.payload.link.kind,
            construction::SchemaMapper::MatchKind::kExact);
  // Second call is served from cache with the identical payload.
  Response again = engine.EntityLink(brands.nodes[leaf].name);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.payload.link.node, resp.payload.link.node);
  EXPECT_EQ(again.payload.link.similarity, resp.payload.link.similarity);
}

TEST_F(EngineTest, OversizeMentionIsInvalidAndNeverCached) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  // The bound sits far above every surface form the generated world links.
  size_t longest = 0;
  for (const datagen::Product& p : kg_->world().products) {
    longest = std::max({longest, p.brand_mention.size(),
                        p.place_mention.size()});
  }
  for (const datagen::TaxonomyNode& node : kg_->world().brands.nodes) {
    longest = std::max(longest, node.name.size());
    for (const std::string& alias : node.aliases) {
      longest = std::max(longest, alias.size());
    }
  }
  EXPECT_LT(longest * 8, QueryEngine::kMaxMentionBytes);

  Response at_bound =
      engine.EntityLink(std::string(QueryEngine::kMaxMentionBytes, 'x'));
  EXPECT_EQ(at_bound.status, ServeStatus::kOk);
  const size_t cached = engine.cache().size();
  Response over =
      engine.EntityLink(std::string(QueryEngine::kMaxMentionBytes + 1, 'x'));
  EXPECT_EQ(over.status, ServeStatus::kInvalidArgument);
  EXPECT_EQ(engine.cache().size(), cached) << "oversize mention was cached";
}

TEST_F(EngineTest, OutOfBoundTopKOrDeadlineIsInvalidAndNeverCached) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const kge::LpTriple& q = ds_->test[8];
  // At each bound the request is served.
  EXPECT_EQ(engine.LinkPredictTopK(q.h, q.r, QueryEngine::kMaxTopK).status,
            ServeStatus::kOk);
  EXPECT_EQ(
      engine.LinkPredictTopK(q.h, q.r, 4, QueryEngine::kMaxDeadlineUs).status,
      ServeStatus::kOk);
  // One past either bound, or a deadline that would overflow the clock, is
  // refused before it queues or caches.
  const size_t cached = engine.cache().size();
  for (auto [k, deadline_us] : std::vector<std::pair<size_t, uint64_t>>{
           {QueryEngine::kMaxTopK + 1, 0},
           {3, QueryEngine::kMaxDeadlineUs + 1},
           {2, std::numeric_limits<uint64_t>::max()}}) {
    EXPECT_EQ(engine.LinkPredictTopK(q.h, q.r, k, deadline_us).status,
              ServeStatus::kInvalidArgument)
        << "k=" << k << " deadline_us=" << deadline_us;
  }
  EXPECT_EQ(engine.cache().size(), cached) << "out-of-bound request cached";
}

TEST_F(EngineTest, ReloadInvalidatesCachedAnswers) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const kge::LpTriple& q = ds_->test[2];
  Response before = engine.LinkPredictTopK(q.h, q.r, 5);
  ASSERT_EQ(before.status, ServeStatus::kOk);
  EXPECT_TRUE(engine.LinkPredictTopK(q.h, q.r, 5).from_cache);

  // Train the model two more epochs (parameters change), reload.
  kge::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 256;
  config.seed = 77;
  TrainKgeModel(model_.get(), *ds_, config);
  ctx.ReloadModel(model_);

  Response after = engine.LinkPredictTopK(q.h, q.r, 5);
  EXPECT_FALSE(after.from_cache) << "stale cached answer served after reload";
  // And the recomputed answer matches the reloaded model's reference.
  EXPECT_EQ(after.payload.topk, ReferenceTopK(model_.get(), q.h, q.r, 5));
  EXPECT_GT(engine.cache().stats().stale, 0u);
}

TEST_F(EngineTest, DeadlineExceededIsTypedNotBlocking) {
  // serve::stall delays every batch drain by ~5ms; a 1us deadline is
  // guaranteed to lapse, so the request must come back kDeadlineExceeded.
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  util::failpoints::Arm("serve::stall");
  const kge::LpTriple& q = ds_->test[3];
  Response resp = engine.LinkPredictTopK(q.h, q.r, 5, /*deadline_us=*/1);
  EXPECT_EQ(resp.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(resp.payload.topk.empty());
  util::failpoints::Disarm("serve::stall");
  // Without the stall the same request succeeds.
  Response ok = engine.LinkPredictTopK(q.h, q.r, 5, /*deadline_us=*/0);
  EXPECT_EQ(ok.status, ServeStatus::kOk);
}

TEST_F(EngineTest, OverloadShedsMissesButServesCachedAnswers) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const kge::LpTriple& warm = ds_->test[4];
  const kge::LpTriple& cold = ds_->test[5];
  ASSERT_EQ(engine.LinkPredictTopK(warm.h, warm.r, 5).status,
            ServeStatus::kOk);

  util::failpoints::Arm("serve::overload");
  // Cache-only degraded mode: the warmed query still answers...
  Response hit = engine.LinkPredictTopK(warm.h, warm.r, 5);
  EXPECT_EQ(hit.status, ServeStatus::kOk);
  EXPECT_TRUE(hit.from_cache);
  // ...while an uncached one is shed with a typed status.
  Response shed = engine.LinkPredictTopK(cold.h, cold.r, 7);
  EXPECT_EQ(shed.status, ServeStatus::kShed);
  util::failpoints::Disarm("serve::overload");
  EXPECT_EQ(engine.LinkPredictTopK(cold.h, cold.r, 7).status,
            ServeStatus::kOk);
}

TEST_F(EngineTest, QueueFullSheds) {
  // max_queue 0 normalizes to 1; with the drain stalled, concurrent
  // requests beyond the bound are shed rather than queued without limit.
  ServeContext ctx(AllBindings());
  EngineOptions opts;
  opts.max_queue = 1;
  opts.num_threads = 1;
  QueryEngine engine(&ctx, opts);
  util::failpoints::Arm("serve::stall");
  std::atomic<int> shed{0}, okd{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      const kge::LpTriple& q = ds_->test[6 + c];
      Response r = engine.LinkPredictTopK(q.h, q.r, 3);
      if (r.status == ServeStatus::kShed) shed.fetch_add(1);
      if (r.status == ServeStatus::kOk) okd.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  util::failpoints::DisarmAll();
  EXPECT_EQ(shed.load() + okd.load(), 8);
  EXPECT_GT(okd.load(), 0) << "admitted requests must still complete";
}

TEST_F(EngineTest, EveryTopKStatusRecordsOneBreakerOutcome) {
  // Every admitted LinkPredictTopK owes its breaker exactly one outcome:
  // sheds and lapsed deadlines release it as cancels, model faults count
  // as failures, answers as successes.
  ServeContext ctx(AllBindings());
  EngineOptions opts;
  opts.max_queue = 1;
  opts.num_threads = 1;
  opts.cache_enabled = false;  // every request reaches the breaker
  QueryEngine engine(&ctx, opts);
  std::mutex mu;
  std::map<ServeStatus, uint64_t> seen;
  auto record = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    ++seen[r.status];
    EXPECT_EQ(r.degraded, r.status == ServeStatus::kDegraded);
  };

  // Sheds: concurrent distinct misses against a stalled 1-deep queue.
  util::failpoints::Arm("serve::stall");
  std::vector<std::thread> clients;
  for (int c = 0; c < 16; ++c) {
    clients.emplace_back([&, c] {
      const kge::LpTriple& q = ds_->test[20 + c];
      record(engine.LinkPredictTopK(q.h, q.r, 3));
    });
  }
  for (std::thread& t : clients) t.join();
  // Expired deadlines: the stalled drain outlives a 1us deadline.
  const kge::LpTriple& late = ds_->test[40];
  record(engine.LinkPredictTopK(late.h, late.r, 3, /*deadline_us=*/1));
  util::failpoints::Disarm("serve::stall");
  // Failures: scoring faults before the request queues.
  util::failpoints::Arm("serve::model_fault");
  for (int i = 41; i < 44; ++i) {
    const kge::LpTriple& q = ds_->test[i];
    record(engine.LinkPredictTopK(q.h, q.r, 3));
  }
  util::failpoints::Disarm("serve::model_fault");

  EXPECT_GT(seen[ServeStatus::kShed], 0u);
  EXPECT_EQ(seen[ServeStatus::kDeadlineExceeded], 1u);
  EXPECT_EQ(seen[ServeStatus::kDegraded], 3u);
  util::CircuitBreaker::Stats stats =
      engine.breaker(Endpoint::kLinkPredictTopK).stats();
  EXPECT_EQ(stats.allowed, stats.successes + stats.failures + stats.cancels);
  EXPECT_EQ(stats.successes, seen[ServeStatus::kOk]);
  EXPECT_EQ(stats.cancels,
            seen[ServeStatus::kShed] + seen[ServeStatus::kDeadlineExceeded]);
  EXPECT_EQ(stats.failures, seen[ServeStatus::kDegraded]);
}

TEST_F(EngineTest, ConcurrentMixedReadersOnSealedStore) {
  // The TSan-covered serve-path test: 8 client threads hit every endpoint
  // concurrently against the sealed store and prepared model; all answers
  // must match the single-threaded reference.
  ServeContext ctx(AllBindings());
  EngineOptions opts;
  opts.num_threads = 4;
  opts.max_batch = 16;
  QueryEngine engine(&ctx, opts);
  ASSERT_TRUE(kg_->graph().store.IndexesSealed());

  constexpr size_t kThreads = 8, kIters = 40;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (size_t i = 0; i < kIters; ++i) {
        const kge::LpTriple& q = ds_->test[(ti * 13 + i) % ds_->test.size()];
        Response topk = engine.LinkPredictTopK(q.h, q.r, 5);
        if (topk.status != ServeStatus::kOk ||
            topk.payload.topk != ReferenceTopK(model_.get(), q.h, q.r, 5)) {
          mismatches.fetch_add(1);
        }
        rdf::TermId product =
            kg_->assembly().product_terms[(ti + i) %
                                          kg_->assembly()
                                              .product_terms.size()];
        if (engine.Neighbors(product).status != ServeStatus::kOk) {
          mismatches.fetch_add(1);
        }
        if (engine.ConceptsOf(product).status != ServeStatus::kOk) {
          mismatches.fetch_add(1);
        }
        const datagen::Product& p =
            kg_->world().products[(ti * 7 + i) %
                                  kg_->world().products.size()];
        if (!p.brand_mention.empty() &&
            engine.EntityLink(p.brand_mention).status != ServeStatus::kOk) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_TRUE(kg_->graph().store.IndexesSealed())
      << "a serve-path read rebuilt an index";
}

TEST_F(EngineTest, CoalescingAnswersIdenticalRequestsFromOneScan) {
  // Many concurrent requests for the same (h, r): all get the same
  // correct answer, and the engine needs far fewer scans than requests
  // (scan count is bounded by drains, observable via cache inserts).
  ServeContext ctx(AllBindings());
  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine(&ctx, opts);
  const kge::LpTriple& q = ds_->test[7];
  std::vector<ScoredEntity> expected = ReferenceTopK(model_.get(), q.h, q.r, 6);
  constexpr size_t kThreads = 8;
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        Response r = engine.LinkPredictTopK(q.h, q.r, 6);
        if (r.status != ServeStatus::kOk || r.payload.topk != expected) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

// Live threads of this process, one /proc/self/task entry each.
size_t CountThreads() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST_F(EngineTest, EngineStartsNoThreads) {
  // Callers run the batch drains themselves: num_threads bounds concurrent
  // drains and starts nothing.
  ServeContext ctx(AllBindings());
  const size_t before = CountThreads();
  EngineOptions opts;
  opts.num_threads = 4;
  QueryEngine engine(&ctx, opts);
  EXPECT_EQ(CountThreads(), before);
  const kge::LpTriple& q = ds_->test[0];
  Response resp = engine.LinkPredictTopK(q.h, q.r, 5);
  ASSERT_EQ(resp.status, ServeStatus::kOk);
  EXPECT_EQ(resp.payload.topk, ReferenceTopK(model_.get(), q.h, q.r, 5));
  EXPECT_EQ(CountThreads(), before);
}

TEST_F(EngineTest, WaitersTakeOverFreedDrainSlot) {
  // One drain slot and one request per drain: every answer needs a
  // hand-off from the caller that just drained to a waiting one.
  ServeContext ctx(AllBindings());
  EngineOptions opts;
  opts.num_threads = 1;
  opts.max_batch = 1;
  opts.cache_enabled = false;  // every request goes through a drain
  QueryEngine engine(&ctx, opts);

  constexpr size_t kCallers = 16, kQueries = 50;
  const size_t entities = ds_->num_entities();
  ASSERT_GE(entities * ds_->num_relations(), kCallers * kQueries);
  // Query n is (n % E, n / E): all kCallers * kQueries pairs distinct.
  std::vector<std::vector<ScoredEntity>> expected(kCallers * kQueries);
  for (size_t n = 0; n < expected.size(); ++n) {
    expected[n] = ReferenceTopK(model_.get(), n % entities, n / entities, 5);
  }
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t i = 0; i < kQueries; ++i) {
        const size_t n = c * kQueries + i;
        Response r = engine.LinkPredictTopK(
            static_cast<uint32_t>(n % entities),
            static_cast<uint32_t>(n / entities), 5);
        if (r.status != ServeStatus::kOk || r.payload.topk != expected[n]) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST_F(EngineTest, MetricsJsonCountsRequests) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const kge::LpTriple& q = ds_->test[8];
  engine.LinkPredictTopK(q.h, q.r, 5);
  engine.LinkPredictTopK(q.h, q.r, 5);  // cache hit
  engine.Neighbors(kg_->assembly().product_terms[1]);
  std::string json = engine.MetricsJson();
  EXPECT_NE(json.find("\"link_predict_topk\":{\"requests\":2,"
                      "\"cache_hits\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"neighbors\":{\"requests\":1"), std::string::npos);
  EXPECT_NE(json.find("\"generation\":"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_generation\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"shard_sizes\":"), std::string::npos);
  EXPECT_NE(json.find("\"cache\":{\"enabled\":true"), std::string::npos);

  std::vector<EndpointSnapshot> snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap[static_cast<size_t>(Endpoint::kLinkPredictTopK)].requests,
            2u);
  EXPECT_EQ(snap[static_cast<size_t>(Endpoint::kLinkPredictTopK)].cache_hits,
            1u);
}

TEST_F(EngineTest, MetricsScrapeIsSafeAgainstLiveTraffic) {
  // Regression test: MetricsJson() used to fold the per-thread latency
  // histograms with no synchronization against recording threads, so a
  // scraper polling under live traffic read torn counters and could
  // use-after-free inside Histogram::Merge. A scraper now polls
  // continuously while 8 clients drive traffic (TSan pins the per-slot
  // locking), and the final snapshot must account for every request.
  ServeContext ctx(AllBindings());
  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine(&ctx, opts);

  constexpr size_t kThreads = 8, kIters = 40;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string json = engine.MetricsJson();
      EXPECT_NE(json.find("\"endpoints\""), std::string::npos);
    }
  });
  std::vector<std::thread> clients;
  for (size_t ti = 0; ti < kThreads; ++ti) {
    clients.emplace_back([&, ti] {
      for (size_t i = 0; i < kIters; ++i) {
        const kge::LpTriple& q = ds_->test[(ti * 11 + i) % ds_->test.size()];
        engine.LinkPredictTopK(q.h, q.r, 4);
        rdf::TermId product =
            kg_->assembly().product_terms[(ti + i) %
                                          kg_->assembly()
                                              .product_terms.size()];
        engine.Neighbors(product);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  std::vector<EndpointSnapshot> snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap[static_cast<size_t>(Endpoint::kLinkPredictTopK)].requests,
            kThreads * kIters);
  EXPECT_EQ(snap[static_cast<size_t>(Endpoint::kNeighbors)].requests,
            kThreads * kIters);
}

TEST_F(EngineTest, SharedMapperAcrossEnginesIsRaceFree) {
  // Regression test: two engines bound to one SchemaMapper used to race on
  // its stats counters, because each engine serialized Link() with its own
  // private mutex. The mapper now guards its own mutable state; with
  // caching off every EntityLink reaches Link(), so the total must be
  // exact.
  construction::SchemaMapper mapper(kg_->world().brands);
  ServeContext::Bindings bindings;
  bindings.mapper = &mapper;
  ServeContext ctx(bindings);
  EngineOptions opts;
  opts.cache_enabled = false;
  QueryEngine first(&ctx, opts);
  QueryEngine second(&ctx, opts);

  constexpr size_t kThreads = 8, kIters = 50;
  std::vector<std::thread> threads;
  for (size_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      QueryEngine& engine = (ti % 2 == 0) ? first : second;
      for (size_t i = 0; i < kIters; ++i) {
        const datagen::Product& p =
            kg_->world().products[(ti * 17 + i) %
                                  kg_->world().products.size()];
        Response r = engine.EntityLink(
            p.brand_mention.empty() ? "no-such-brand" : p.brand_mention);
        EXPECT_EQ(r.status, ServeStatus::kOk);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mapper.stats().total, kThreads * kIters);
}

TEST_F(EngineTest, LiveDeltaPublishInvalidatesSelectively) {
  // The acceptance scenario for selective invalidation: after a delta
  // publish touching one entity, only cache entries depending on the
  // touched entities are recomputed. Everything else — other neighbor
  // answers, and all model-space top-k answers (no graph dependency) —
  // keeps serving from cache instead of the old full nuke.
  rdf::LiveGraph live(rdf::LiveGraph::Alias(&kg_->graph().store));
  ServeContext::Bindings bindings = AllBindings();
  bindings.live = &live;
  ServeContext ctx(bindings);
  QueryEngine engine(&ctx, EngineOptions{});

  rdf::TermId pa = kg_->assembly().product_terms[0];
  rdf::TermId pb = kg_->assembly().product_terms[1];
  rdf::TermId pc = kg_->assembly().product_terms[2];
  Response na = engine.Neighbors(pa);
  ASSERT_EQ(na.status, ServeStatus::kOk);
  ASSERT_EQ(engine.Neighbors(pb).status, ServeStatus::kOk);
  ASSERT_EQ(engine.Neighbors(pc).status, ServeStatus::kOk);
  const kge::LpTriple& q = ds_->test[9];
  ASSERT_EQ(engine.LinkPredictTopK(q.h, q.r, 5).status, ServeStatus::kOk);
  EXPECT_TRUE(engine.Neighbors(pa).from_cache);

  // Publish one new edge pa -> pb. Touched set = {pa, pb}.
  rdf::TermId rel = kg_->ontology().related_scene();
  rdf::UpdateBatch batch;
  batch.adds.push_back({pa, rel, pb});
  ASSERT_TRUE(live.Apply(batch).ok());
  EXPECT_EQ(live.generation(), 2u);
  EXPECT_NE(engine.MetricsJson().find("\"snapshot_generation\":2,"),
            std::string::npos);

  Response nc = engine.Neighbors(pc);
  EXPECT_TRUE(nc.from_cache) << "untouched entity lost its cached answer";
  Response topk = engine.LinkPredictTopK(q.h, q.r, 5);
  EXPECT_TRUE(topk.from_cache) << "graph delta nuked a model-space answer";

  Response na2 = engine.Neighbors(pa);
  EXPECT_FALSE(na2.from_cache) << "touched entity served a stale answer";
  EXPECT_EQ(na2.payload.triples.size(), na.payload.triples.size() + 1);
  EXPECT_NE(std::find(na2.payload.triples.begin(), na2.payload.triples.end(),
                      rdf::Triple{pa, rel, pb}),
            na2.payload.triples.end());
  EXPECT_FALSE(engine.Neighbors(pb).from_cache)
      << "the object side of the new edge is touched too";
  // Once recomputed at the new generation, the answers cache again.
  EXPECT_TRUE(engine.Neighbors(pa).from_cache);
  EXPECT_TRUE(engine.Neighbors(pb).from_cache);
}

TEST(LiveServeTest, CachedAnswerStaysByteIdenticalAcrossCompaction) {
  // Before compaction a delta add is served after the base matches; the
  // compaction folds it into the base's sort order. A cached answer that
  // contains the add must not outlive that reorder.
  auto base = std::make_shared<rdf::TripleStore>();
  base->Add(10, 5, 11);
  base->Add(10, 7, 12);
  rdf::LiveGraph live(base);
  ServeContext::Bindings bindings;
  bindings.live = &live;
  ServeContext ctx(bindings);
  QueryEngine cached(&ctx, EngineOptions{});
  EngineOptions off;
  off.cache_enabled = false;
  QueryEngine uncached(&ctx, off);

  rdf::UpdateBatch batch;
  batch.adds.push_back({10, 3, 20});
  ASSERT_TRUE(live.Apply(batch).ok());
  const std::vector<rdf::Triple> overlay = {{10, 5, 11}, {10, 7, 12},
                                            {10, 3, 20}};
  EXPECT_EQ(cached.Neighbors(10).payload.triples, overlay);
  EXPECT_TRUE(cached.Neighbors(10).from_cache);
  ASSERT_EQ(cached.Neighbors(11).status, ServeStatus::kOk);

  ASSERT_TRUE(live.Compact().ok());
  Response after = cached.Neighbors(10);
  EXPECT_FALSE(after.from_cache) << "cache kept the pre-compaction order";
  EXPECT_EQ(after.payload.triples, uncached.Neighbors(10).payload.triples);
  EXPECT_EQ(after.payload.triples,
            (std::vector<rdf::Triple>{{10, 3, 20}, {10, 5, 11}, {10, 7, 12}}));
  EXPECT_TRUE(cached.Neighbors(11).from_cache)
      << "compaction dropped an entry no folded add touches";
}

TEST(HealthJsonTest, ReasonEscapesControlCharacters) {
  HealthState hs;
  hs.base_store.health = Health::kUnhealthy;
  hs.base_store.reason = "shard /d/a\nb\tc\x01z \"q\" \\";
  const std::string json = hs.Json();
  const std::string want =
      R"("reason":"shard /d/a\u000ab\u0009c\u0001z \"q\" \\")";
  EXPECT_NE(json.find(want), std::string::npos) << json;
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char ch) {
    return static_cast<unsigned char>(ch) < 0x20;
  })) << json;
}

TEST_F(EngineTest, ConcurrentReadersDuringLiveIngest) {
  // The ISSUE's 8-thread acceptance test at the engine level: 7 reader
  // threads keep serving mixed endpoints while a writer publishes delta
  // batches. Readers must never fail, never block on a publish, and the
  // final answer must reflect the last published edge. Run under TSan via
  // the tsan preset.
  rdf::LiveGraph live(rdf::LiveGraph::Alias(&kg_->graph().store));
  ServeContext::Bindings bindings = AllBindings();
  bindings.live = &live;
  ServeContext ctx(bindings);
  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine(&ctx, opts);

  const std::vector<rdf::TermId>& products = kg_->assembly().product_terms;
  rdf::TermId rel = kg_->ontology().related_scene();
  constexpr size_t kReaders = 7, kIters = 40, kBatches = 60;
  std::atomic<size_t> failures{0};

  std::vector<std::thread> readers;
  for (size_t ti = 0; ti < kReaders; ++ti) {
    readers.emplace_back([&, ti] {
      for (size_t i = 0; i < kIters; ++i) {
        rdf::TermId product = products[(ti * 31 + i) % products.size()];
        if (engine.Neighbors(product).status != ServeStatus::kOk) ++failures;
        if (engine.ConceptsOf(product).status != ServeStatus::kOk) ++failures;
        const kge::LpTriple& q = ds_->test[(ti * 13 + i) % ds_->test.size()];
        if (engine.LinkPredictTopK(q.h, q.r, 5).status != ServeStatus::kOk) {
          ++failures;
        }
      }
    });
  }
  std::thread writer([&] {
    for (size_t i = 0; i + 1 < kBatches && i + 1 < products.size(); ++i) {
      rdf::UpdateBatch batch;
      batch.adds.push_back({products[i], rel, products[i + 1]});
      if (!live.Apply(batch).ok()) ++failures;
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(live.generation(), 1u + (kBatches - 1));

  // A fresh query sees the last published edge (any cached answer that
  // intersected the publish was invalidated or refused on insert).
  rdf::TermId last_s = products[kBatches - 2];
  rdf::TermId last_o = products[kBatches - 1];
  Response resp = engine.Neighbors(last_s);
  ASSERT_EQ(resp.status, ServeStatus::kOk);
  EXPECT_NE(std::find(resp.payload.triples.begin(), resp.payload.triples.end(),
                      rdf::Triple{last_s, rel, last_o}),
            resp.payload.triples.end());
}

// ---------------------------------------------------------------------------
// Degraded-mode serving, circuit breaking, and fault-tolerant reload
// (chaos-hardening ISSUE).

/// Breaker tuned to trip after 2 failures and recover after a 2ms
/// cooldown with a single probe — keeps the tests fast and deterministic.
EngineOptions FastBreakerOptions() {
  EngineOptions opts;
  opts.breaker.window = 8;
  opts.breaker.min_samples = 2;
  opts.breaker.failure_threshold = 0.5;
  opts.breaker.open_cooldown_us = 2'000;
  opts.breaker.half_open_probes = 1;
  return opts;
}

TEST_F(EngineTest, ModelFaultTripsBreakerAndServesCachedAnswersDegraded) {
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, FastBreakerOptions());
  const kge::LpTriple& warm = ds_->test[0];
  Response before = engine.LinkPredictTopK(warm.h, warm.r, 5);
  ASSERT_EQ(before.status, ServeStatus::kOk);

  // Model scoring starts failing: cold queries come back kDegraded (and
  // count against the breaker), two of them trip it open.
  util::failpoints::Arm("serve::model_fault");
  for (int i = 1; i <= 2; ++i) {
    const kge::LpTriple& cold = ds_->test[i];
    Response r = engine.LinkPredictTopK(cold.h, cold.r, 5);
    EXPECT_EQ(r.status, ServeStatus::kDegraded);
    EXPECT_TRUE(r.degraded);
    EXPECT_TRUE(r.payload.topk.empty());
  }
  EXPECT_EQ(engine.breaker(Endpoint::kLinkPredictTopK).state(),
            util::CircuitBreaker::State::kOpen);

  // Open breaker: the warmed query still answers from cache — flagged
  // degraded, byte-identical to the pre-fault answer...
  Response hit = engine.LinkPredictTopK(warm.h, warm.r, 5);
  EXPECT_EQ(hit.status, ServeStatus::kOk);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_TRUE(hit.degraded);
  ASSERT_EQ(hit.payload.topk.size(), before.payload.topk.size());
  for (size_t i = 0; i < hit.payload.topk.size(); ++i) {
    EXPECT_EQ(hit.payload.topk[i].id, before.payload.topk[i].id);
    EXPECT_EQ(hit.payload.topk[i].score, before.payload.topk[i].score);
  }
  // ...while a cold miss fast-fails without touching the broken model.
  const kge::LpTriple& cold = ds_->test[3];
  Response miss = engine.LinkPredictTopK(cold.h, cold.r, 5);
  EXPECT_EQ(miss.status, ServeStatus::kDegraded);
  EXPECT_TRUE(miss.degraded);

  // Health reflects the open breaker, and the metrics surface carries the
  // breaker + degraded counters.
  HealthState health = engine.ComputeHealth();
  EXPECT_EQ(health.model.health, Health::kUnhealthy);
  EXPECT_EQ(health.overall(), Health::kUnhealthy);
  std::string json = engine.MetricsJson();
  EXPECT_NE(json.find("\"breakers\""), std::string::npos);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);

  // Fault clears; after the cooldown the next request is admitted as the
  // half-open probe, succeeds, and recloses the breaker.
  util::failpoints::Disarm("serve::model_fault");
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  Response probe = engine.LinkPredictTopK(cold.h, cold.r, 5);
  EXPECT_EQ(probe.status, ServeStatus::kOk);
  EXPECT_FALSE(probe.degraded);
  EXPECT_EQ(probe.payload.topk, ReferenceTopK(model_.get(), cold.h, cold.r, 5));
  EXPECT_EQ(engine.breaker(Endpoint::kLinkPredictTopK).state(),
            util::CircuitBreaker::State::kClosed);
  EXPECT_EQ(engine.ComputeHealth().overall(), Health::kHealthy);
}

TEST_F(EngineTest, GraphAndLinkFaultsAreBrokenPerEndpoint) {
  // Each endpoint has its own breaker: tripping Neighbors must not reject
  // LinkPredictTopK traffic.
  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, FastBreakerOptions());

  util::failpoints::Arm("serve::graph_fault");
  for (int i = 0; i < 2; ++i) {
    Response r = engine.Neighbors(kg_->assembly().product_terms[i]);
    EXPECT_EQ(r.status, ServeStatus::kDegraded);
  }
  EXPECT_EQ(engine.breaker(Endpoint::kNeighbors).state(),
            util::CircuitBreaker::State::kOpen);
  util::failpoints::Disarm("serve::graph_fault");

  const kge::LpTriple& q = ds_->test[4];
  EXPECT_EQ(engine.LinkPredictTopK(q.h, q.r, 5).status, ServeStatus::kOk)
      << "LinkPredictTopK must be unaffected by the Neighbors breaker";
  EXPECT_EQ(engine.breaker(Endpoint::kLinkPredictTopK).state(),
            util::CircuitBreaker::State::kClosed);

  util::failpoints::Arm("serve::link_fault");
  Response link = engine.EntityLink("anything");
  EXPECT_EQ(link.status, ServeStatus::kDegraded);
  util::failpoints::Disarm("serve::link_fault");
}

TEST_F(EngineTest, ReloadRetriesTransientCheckpointFault) {
  // A fire_count=1 fault on checkpoint::read: the first read attempt
  // fails, the retry succeeds, and the reload lands normally.
  std::string path = ::testing::TempDir() + "/serve_reload_ok.obgckpt";
  kge::TrainerCheckpoint ckpt;
  ckpt.model_name = model_->name();
  ASSERT_TRUE(kge::SaveCheckpoint(ckpt, model_.get(), path).ok());

  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const kge::LpTriple& q = ds_->test[5];
  ASSERT_EQ(engine.LinkPredictTopK(q.h, q.r, 5).status, ServeStatus::kOk);

  util::Rng rng(123);
  auto staging = std::make_shared<kge::TransE>(
      ds_->num_entities(), ds_->num_relations(), 16, 1.0f, &rng);
  util::failpoints::FailpointSpec spec;
  spec.fire_count = 1;
  util::failpoints::ArmSpec("checkpoint::read", spec);
  util::FakeClock clock;
  util::RetryOptions retry;
  retry.clock = &clock;
  ASSERT_TRUE(ctx.ReloadModelFromCheckpoint(path, staging, retry).ok());

  ServeContext::ReloadStats stats = ctx.reload_stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_FALSE(stats.last_failed);
  // The reload bumped the epoch: the warmed answer was invalidated and the
  // next query recomputes against the reloaded parameters.
  Response after = engine.LinkPredictTopK(q.h, q.r, 5);
  EXPECT_EQ(after.status, ServeStatus::kOk);
  EXPECT_FALSE(after.from_cache);
  std::remove(path.c_str());
}

TEST_F(EngineTest, FailedReloadKeepsServingGenerationN) {
  // The acceptance criterion: truncation or a bit-flip in the new
  // checkpoint during a live reload must leave the engine serving
  // generation N answers byte-identical to before, cache intact.
  std::string good = ::testing::TempDir() + "/serve_reload_good.obgckpt";
  kge::TrainerCheckpoint ckpt;
  ckpt.model_name = model_->name();
  ASSERT_TRUE(kge::SaveCheckpoint(ckpt, model_.get(), good).ok());
  util::Result<uint64_t> size = util::FileSize(good);
  ASSERT_TRUE(size.ok());

  ServeContext ctx(AllBindings());
  QueryEngine engine(&ctx, EngineOptions{});
  const kge::LpTriple& q = ds_->test[6];
  Response before = engine.LinkPredictTopK(q.h, q.r, 5);
  ASSERT_EQ(before.status, ServeStatus::kOk);

  util::Rng rng(124);
  auto staging = std::make_shared<kge::TransE>(
      ds_->num_entities(), ds_->num_relations(), 16, 1.0f, &rng);
  util::FakeClock clock;
  util::RetryOptions retry;
  retry.clock = &clock;

  // Corruption 1: the checkpoint was torn mid-write.
  std::string torn = ::testing::TempDir() + "/serve_reload_torn.obgckpt";
  {
    std::ifstream in(good, std::ios::binary);
    std::ofstream out(torn, std::ios::binary);
    out << in.rdbuf();
  }
  ASSERT_TRUE(util::TruncateFile(torn, size.value() / 2).ok());
  EXPECT_FALSE(ctx.ReloadModelFromCheckpoint(torn, staging, retry).ok());
  // Corruption 2: a flipped bit in the parameter block breaks the CRC.
  std::string rotten = ::testing::TempDir() + "/serve_reload_rot.obgckpt";
  {
    std::ifstream in(good, std::ios::binary);
    std::ofstream out(rotten, std::ios::binary);
    out << in.rdbuf();
  }
  ASSERT_TRUE(util::FlipBit(rotten, size.value() / 2, 2).ok());
  EXPECT_FALSE(ctx.ReloadModelFromCheckpoint(rotten, staging, retry).ok());
  // Corruption 3: the read itself keeps failing past the retry budget.
  util::failpoints::Arm("checkpoint::read");
  EXPECT_FALSE(ctx.ReloadModelFromCheckpoint(good, staging, retry).ok());
  util::failpoints::Disarm("checkpoint::read");

  ServeContext::ReloadStats stats = ctx.reload_stats();
  EXPECT_EQ(stats.failures, 3u);
  EXPECT_EQ(stats.successes, 0u);
  EXPECT_TRUE(stats.last_failed);
  EXPECT_EQ(engine.ComputeHealth().model.health, Health::kDegraded);

  // Generation N keeps serving: the warmed answer is still cached and
  // byte-identical, and cold queries still compute against the old model.
  Response after = engine.LinkPredictTopK(q.h, q.r, 5);
  ASSERT_EQ(after.status, ServeStatus::kOk);
  EXPECT_TRUE(after.from_cache) << "failed reload must not invalidate cache";
  ASSERT_EQ(after.payload.topk.size(), before.payload.topk.size());
  for (size_t i = 0; i < after.payload.topk.size(); ++i) {
    EXPECT_EQ(after.payload.topk[i].id, before.payload.topk[i].id);
    EXPECT_EQ(after.payload.topk[i].score, before.payload.topk[i].score);
  }
  EXPECT_EQ(engine.cache().stats().stale, 0u);

  // The next good reload clears the failure flag.
  ASSERT_TRUE(ctx.ReloadModelFromCheckpoint(good, staging, retry).ok());
  EXPECT_FALSE(ctx.reload_stats().last_failed);
  EXPECT_EQ(engine.ComputeHealth().model.health, Health::kHealthy);
  std::remove(good.c_str());
  std::remove(torn.c_str());
  std::remove(rotten.c_str());
}

TEST_F(EngineTest, HealthStateTracksLiveGraphFailures) {
  rdf::LiveGraph live(rdf::LiveGraph::Alias(&kg_->graph().store));
  ServeContext::Bindings bindings = AllBindings();
  bindings.live = &live;
  ServeContext ctx(bindings);
  QueryEngine engine(&ctx, EngineOptions{});
  EXPECT_EQ(engine.ComputeHealth().live_graph.health, Health::kHealthy);

  std::string json = engine.MetricsJson();
  EXPECT_NE(json.find("\"live_graph\""), std::string::npos);
  EXPECT_NE(json.find("\"publish_failures\""), std::string::npos);
}

// kge::TopKTails, the engine's exact path, against the reference it must
// equal byte for byte: ScoreTails + serve::SelectTopK. TransE takes the L1
// scan with its early exit, DistMult and ComplEx the dot scan, and TransH
// (no tail-scan spec) the fallback. Entity rows form 8 clusters, so most L1
// row blocks stop early, with planted ties (rows 100, 101 and 600 copy row
// 3) and NaN rows (7 entirely, 8 in one element). h covers ordinary, tied
// and NaN query rows; k covers 0, 1, 10, E and past E; E = 613 leaves a
// partial 4-row block and a partial scan block; every backend runs.
TEST(TopKTailsTest, ByteIdenticalToScoreTailsPlusSelectTopK) {
  constexpr size_t kE = 613, kR = 3, kDim = 24;
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(2024);
  std::vector<std::unique_ptr<kge::KgeModel>> models;
  models.push_back(std::make_unique<kge::TransE>(kE, kR, kDim, 1.0f, &rng));
  models.push_back(std::make_unique<kge::DistMult>(kE, kR, kDim, &rng));
  models.push_back(std::make_unique<kge::ComplEx>(kE, kR, kDim, &rng));
  models.push_back(std::make_unique<kge::TransH>(kE, kR, kDim, 1.0f, &rng));
  kge::TailScanSpec spec;
  EXPECT_FALSE(models.back()->GetTailScanSpec(&spec));
  for (const auto& model : models) {
    model->VisitParams([&](const std::string& name, nn::Matrix* m) {
      if (name != "entities") return;
      const size_t cols = m->cols();
      std::vector<float> centers(8 * cols);
      for (float& c : centers) c = static_cast<float>(rng.Normal(0.0, 1.0));
      for (size_t e = 0; e < m->rows(); ++e) {
        for (size_t d = 0; d < cols; ++d) {
          m->Row(e)[d] = centers[(e % 8) * cols + d] +
                         static_cast<float>(rng.Normal(0.0, 0.1));
        }
      }
      for (size_t e : {100, 101, 600}) {
        std::copy(m->Row(3), m->Row(3) + cols, m->Row(e));
      }
      std::fill(m->Row(7), m->Row(7) + cols, kNaN);
      m->Row(8)[1] = kNaN;
    });
    model->PrepareEval();
  }
  auto same_bytes = [](const std::vector<ScoredEntity>& a,
                       const std::vector<ScoredEntity>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
  };
  for (const std::string& kernel : nn::simd::SupportedKernels()) {
    ASSERT_TRUE(nn::simd::ForceKernel(kernel));
    for (const auto& model : models) {
      for (uint32_t h : {0u, 3u, 7u, 8u, 250u, 612u}) {
        for (uint32_t r = 0; r < kR; ++r) {
          std::vector<float> scores;
          model->ScoreTails(h, r, &scores);
          for (size_t k : {size_t{0}, size_t{1}, size_t{10}, kE, kE + 5}) {
            EXPECT_TRUE(same_bytes(kge::TopKTails(*model, h, r, k),
                                   SelectTopK(scores, k)))
                << kernel << " " << model->name() << " h=" << h
                << " r=" << r << " k=" << k;
          }
        }
      }
    }
  }
  nn::simd::ForceKernel("auto");
}

bool SameBytes(const std::vector<ScoredEntity>& a,
               const std::vector<ScoredEntity>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

// Checks TopKTails against ScoreTails + SelectTopK for every (h, r, k)
// given, on the active backend, and returns the rows it rescored.
uint64_t ExpectTopKTailsExact(const kge::KgeModel& model,
                              const std::vector<uint32_t>& heads,
                              const std::vector<size_t>& ks,
                              const std::string& label) {
  kge::TopKStats stats;
  for (uint32_t h : heads) {
    for (uint32_t r = 0; r < model.num_relations(); ++r) {
      std::vector<float> scores;
      model.ScoreTails(h, r, &scores);
      for (size_t k : ks) {
        EXPECT_TRUE(SameBytes(kge::TopKTails(model, h, r, k, &stats),
                              SelectTopK(scores, k)))
            << label << " " << nn::simd::Active().name << " h=" << h
            << " r=" << r << " k=" << k;
      }
    }
  }
  return stats.rescored;
}

// A TransE whose values are all multiples of 1/4, so every L1 distance is
// exact under any summation order and rows with different codes tie
// exactly. Rows cluster around 8 centres. Planted rows: 20 holds +-4 (the
// codes' range) in its prefix; 21 copies row 0's prefix but is 16 away in
// every suffix dim; 30-35, 300-305 and 600-605 are row 0 moved by 1/4 in
// one prefix dim, so under (h 0, r 0) they tie each other and the 10th
// best; 7 is NaN, 8 NaN in the prefix, 9 NaN in the suffix, 10 +inf in
// the prefix, 11 -inf in the suffix. Relation 0 is zero (q is row h),
// 1 a small lattice step, 2 puts q 20 past the codes' range in dim 0
// (clamped), 3 makes q +inf in dim 2 (no row may be skipped).
std::unique_ptr<kge::TransE> LatticeTransE(size_t dim, bool zero_prefix) {
  constexpr size_t kE = 613, kR = 4;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(77);
  auto model = std::make_unique<kge::TransE>(kE, kR, dim, 1.0f, &rng);
  // A multiple of 1/4 in [lo/4, hi/4].
  const auto step = [&rng](int lo, int hi) {
    const auto n = static_cast<uint64_t>(hi - lo + 1);
    return 0.25f * static_cast<float>(lo + static_cast<int>(rng.Uniform(n)));
  };
  std::vector<float> centers(8 * dim);
  for (float& c : centers) c = step(-6, 6);
  nn::Matrix& ent = model->entities().matrix();
  for (size_t e = 0; e < kE; ++e) {
    for (size_t d = 0; d < dim; ++d) {
      ent.Row(e)[d] = centers[(e % 8) * dim + d] + step(-1, 1);
    }
  }
  for (size_t d = 0; d < 16; ++d) ent.Row(20)[d] = d % 2 == 0 ? 4.0f : -4.0f;
  std::copy(ent.Row(0), ent.Row(0) + dim, ent.Row(21));
  for (size_t d = 16; d < dim; ++d) ent.Row(21)[d] += 16.0f;
  for (size_t base : {30, 300, 600}) {
    for (size_t j = 0; j < 6; ++j) {
      std::copy(ent.Row(0), ent.Row(0) + dim, ent.Row(base + j));
      ent.Row(base + j)[j] += j % 2 == 0 ? 0.25f : -0.25f;
    }
  }
  std::fill(ent.Row(7), ent.Row(7) + dim, kNaN);
  ent.Row(8)[1] = kNaN;
  ent.Row(9)[dim - 1] = kNaN;
  ent.Row(10)[3] = kInf;
  ent.Row(11)[dim - 1] = -kInf;
  nn::Matrix& rel = model->relations().matrix();
  rel.Fill(0.0f);
  for (size_t d = 0; d < dim; ++d) rel.Row(1)[d] = step(-1, 1);
  rel.Row(2)[0] = 20.0f;
  rel.Row(3)[2] = kInf;
  if (zero_prefix) {
    for (nn::Matrix* m : {&ent, &rel}) {
      for (size_t e = 0; e < m->rows(); ++e) {
        std::fill(m->Row(e), m->Row(e) + 16, 0.0f);
      }
    }
  }
  model->PrepareEval();
  return model;
}

// The prefilter skips only rows that cannot enter: TopKTails stays
// byte-identical to ScoreTails + SelectTopK on the lattice model's ties,
// far-suffix rows, range-edge and clamped values and NaN/inf rows and
// queries, at dim 17 (codes, one suffix dim) and 64, for k in {1, 10, E,
// E+5}, on every backend. It does skip rows there. At dim 16 and with an
// all-zero prefix there are no codes, and every row is scored.
TEST(TopKTailsTest, PrefixPrefilterIsExactOnEdgeCases) {
  const std::vector<uint32_t> heads = {0, 3, 7, 8, 9, 10, 20, 21, 250, 612};
  const std::vector<size_t> ks = {1, 10, 613, 618};
  struct Case {
    size_t dim;
    bool zero_prefix;
    bool has_codes;
  };
  for (const Case& c : {Case{17, false, true}, Case{64, false, true},
                        Case{16, false, false}, Case{64, true, false}}) {
    std::unique_ptr<kge::TransE> model = LatticeTransE(c.dim, c.zero_prefix);
    kge::TailScanSpec spec;
    ASSERT_TRUE(model->GetTailScanSpec(&spec));
    EXPECT_EQ(spec.codes != nullptr, c.has_codes) << "dim " << c.dim;
    const std::string label = "dim " + std::to_string(c.dim) +
                              (c.zero_prefix ? " zero prefix" : "");
    const uint64_t all_rows =
        heads.size() * model->num_relations() * ks.size() * 613;
    for (const std::string& kernel : nn::simd::SupportedKernels()) {
      ASSERT_TRUE(nn::simd::ForceKernel(kernel));
      const uint64_t rescored =
          ExpectTopKTailsExact(*model, heads, ks, label);
      if (c.has_codes) {
        EXPECT_LT(rescored, all_rows) << label << " " << kernel;
      } else {
        EXPECT_EQ(rescored, all_rows) << label << " " << kernel;
      }
    }
  }
  nn::simd::ForceKernel("auto");
}

// Every write path to a TransE's entity table drops its codes until the
// next PrepareEval: TrainPairs, TrainBatch, a checkpoint load (through
// VisitParams) and entities(). Each write here also moves rows far enough
// that stale codes would skip a row the answer needs. Answers stay
// byte-identical with no row skipped, and PrepareEval re-engages the
// filter.
TEST(TopKTailsTest, WritesAfterPrepareEvalDropTheCodes) {
  const std::vector<uint32_t> heads = {0, 1, 250};
  const std::vector<size_t> ks = {1, 10};
  const uint64_t all_rows = heads.size() * 4 * ks.size() * 613;
  std::unique_ptr<kge::TransE> other = LatticeTransE(64, false);
  for (auto& [name, write] :
       std::vector<std::pair<std::string, std::function<void(kge::TransE*)>>>{
           {"TrainPairs",
            [](kge::TransE* m) {
              m->TrainPairs({{0, 0, 1}}, {{0, 0, 250}}, 40.0f);
            }},
           {"TrainBatch",
            [](kge::TransE* m) {
              kge::DirectGradSink sink;
              m->TrainBatch({{0, 0, 1}}, {{0, 0, 250}}, 40.0f, &sink);
            }},
           {"checkpoint load",
            [&other](kge::TransE* m) {
              // The other table, scaled far apart: every code moves.
              const std::string path =
                  ::testing::TempDir() + "/topk_codes.obgckpt";
              for (size_t e = 0; e < 613; ++e) {
                nn::simd::Scale(8.0f, other->entities().Row(e), 64);
              }
              kge::TrainerCheckpoint ckpt;
              ckpt.model_name = other->name();
              ASSERT_TRUE(kge::SaveCheckpoint(ckpt, other.get(), path).ok());
              ASSERT_TRUE(kge::LoadCheckpoint(path, m, &ckpt).ok());
              std::remove(path.c_str());
            }},
           {"entities()",
            [](kge::TransE* m) {
              // Rows 610-612 become copies of the query rows 1, 0 and 250
              // (relation 0 is zero), far from where their codes put them.
              std::copy(m->entities().Row(250), m->entities().Row(250) + 64,
                        m->entities().Row(612));
              std::copy(m->entities().Row(0), m->entities().Row(0) + 64,
                        m->entities().Row(611));
              std::copy(m->entities().Row(1), m->entities().Row(1) + 64,
                        m->entities().Row(610));
            }}}) {
    std::unique_ptr<kge::TransE> model = LatticeTransE(64, false);
    EXPECT_LT(ExpectTopKTailsExact(*model, heads, ks, name), all_rows)
        << name << ": the filter was not engaged before the write";
    write(model.get());
    kge::TailScanSpec spec;
    ASSERT_TRUE(model->GetTailScanSpec(&spec));
    EXPECT_EQ(spec.codes, nullptr) << name;
    for (const std::string& kernel : nn::simd::SupportedKernels()) {
      ASSERT_TRUE(nn::simd::ForceKernel(kernel));
      EXPECT_EQ(ExpectTopKTailsExact(*model, heads, ks, name), all_rows)
          << name << " " << kernel << ": rows skipped on stale codes";
    }
    nn::simd::ForceKernel("auto");
    model->PrepareEval();
    EXPECT_LT(ExpectTopKTailsExact(*model, heads, ks, name), all_rows)
        << name << ": PrepareEval did not re-engage the filter";
  }
}

// The engine reports its exact scans under "exact" in MetricsJson. On a
// Gaussian-mixture TransE (the clustered regime the prefilter is for) a
// query rescores fewer than E/8 rows; a prefilter that is silently off
// reads E. ReloadModelFromCheckpoint hands over a staging model whose
// checkpoint load dropped its codes, and PrepareEval there re-engages the
// filter.
TEST(TopKTailsTest, EngineReportsRescoredRowsAndReloadReengagesTheFilter) {
  static constexpr size_t kE = 16384, kR = 8, kDim = 64, kQueries = 200;
  auto make_model = [](uint64_t seed) {
    util::Rng rng(seed);
    auto model = std::make_shared<kge::TransE>(kE, kR, kDim, 1.0f, &rng);
    std::vector<float> centers(96 * kDim);
    for (float& c : centers) c = static_cast<float>(rng.Normal(0.0, 1.0));
    for (uint32_t e = 0; e < kE; ++e) {
      float* row = model->entities().Row(e);
      for (size_t d = 0; d < kDim; ++d) {
        row[d] = centers[(e % 96) * kDim + d] +
                 static_cast<float>(rng.Normal(0.0, 0.08));
      }
    }
    for (uint32_t r = 0; r < kR; ++r) {
      float* row = model->relations().Row(r);
      for (size_t d = 0; d < kDim; ++d) {
        row[d] = static_cast<float>(rng.Normal(0.0, 0.05));
      }
    }
    return model;
  };
  std::shared_ptr<kge::TransE> model = make_model(5);
  ServeContext::Bindings bindings;
  bindings.model = model.get();
  ServeContext ctx(bindings);
  EngineOptions opts;
  opts.cache_enabled = false;
  QueryEngine engine(&ctx, opts);
  // "exact":{"queries":Q,"rescored":N} from the metrics JSON.
  auto exact_counts = [&engine] {
    const std::string json = engine.MetricsJson();
    const size_t at = json.find("\"exact\":{");
    EXPECT_NE(at, std::string::npos);
    unsigned long long queries = 0, rescored = 0;
    EXPECT_EQ(std::sscanf(json.c_str() + at,
                          "\"exact\":{\"queries\":%llu,\"rescored\":%llu}",
                          &queries, &rescored),
              2);
    return std::make_pair(queries, rescored);
  };
  auto serve_queries = [&](kge::KgeModel* reference, uint64_t seed) {
    util::Rng rng(seed);
    const auto before = exact_counts();
    for (size_t i = 0; i < kQueries; ++i) {
      const auto h = static_cast<uint32_t>(rng.Uniform(kE));
      const auto r = static_cast<uint32_t>(rng.Uniform(kR));
      Response resp = engine.LinkPredictTopK(h, r, 10);
      ASSERT_EQ(resp.status, ServeStatus::kOk);
      EXPECT_TRUE(
          SameBytes(resp.payload.topk, ReferenceTopK(reference, h, r, 10)));
    }
    const auto after = exact_counts();
    EXPECT_EQ(after.first - before.first, kQueries);
    const double per_query =
        static_cast<double>(after.second - before.second) / kQueries;
    EXPECT_LT(per_query, kE / 8.0) << "prefilter not engaged";
  };
  serve_queries(model.get(), 1);

  const std::string path = ::testing::TempDir() + "/topk_reload.obgckpt";
  std::shared_ptr<kge::TransE> next = make_model(6);
  kge::TrainerCheckpoint ckpt;
  ckpt.model_name = next->name();
  ASSERT_TRUE(kge::SaveCheckpoint(ckpt, next.get(), path).ok());
  util::Rng rng(7);
  auto staging = std::make_shared<kge::TransE>(kE, kR, kDim, 1.0f, &rng);
  ASSERT_TRUE(ctx.ReloadModelFromCheckpoint(path, staging).ok());
  serve_queries(next.get(), 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace openbg::serve
