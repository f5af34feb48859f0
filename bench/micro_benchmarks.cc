// google-benchmark micro-benchmarks for the hot substrate paths: triple
// store insert/query, trie matching, fuzzy resolution, CRF decode, GEMM,
// and the samplers. These guard the performance assumptions the
// table-reproduction benches rely on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>

#include "ann/ivf_index.h"
#include "ann/quantizer.h"
#include "crf/crf.h"
#include "kge/bilinear_models.h"
#include "kge/evaluator.h"
#include "kge/topk.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "nn/kernels.h"
#include "nn/simd.h"
#include "rdf/graph.h"
#include "rdf/snapshot.h"
#include "serve/types.h"
#include "text/fuzzy.h"
#include "text/trie.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using namespace openbg;

void BM_TripleStoreInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rdf::TripleStore store;
    util::Rng rng(7);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      store.Add(static_cast<rdf::TermId>(rng.Uniform(10000)),
                static_cast<rdf::TermId>(rng.Uniform(50)),
                static_cast<rdf::TermId>(rng.Uniform(10000)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TripleStoreInsert)->Arg(10000)->Arg(100000);

void BM_TripleStoreQuery(benchmark::State& state) {
  rdf::TripleStore store;
  util::Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    store.Add(static_cast<rdf::TermId>(rng.Uniform(10000)),
              static_cast<rdf::TermId>(rng.Uniform(50)),
              static_cast<rdf::TermId>(rng.Uniform(10000)));
  }
  // Warm the indexes.
  benchmark::DoNotOptimize(store.CountMatches(
      {0, rdf::TriplePattern::kAny, rdf::TriplePattern::kAny}));
  for (auto _ : state) {
    rdf::TermId s = static_cast<rdf::TermId>(rng.Uniform(10000));
    benchmark::DoNotOptimize(store.CountMatches(
        {s, rdf::TriplePattern::kAny, rdf::TriplePattern::kAny}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleStoreQuery);

// Concurrent reads against a sealed store: the serving-path shape. The
// thread count comes from the benchmark's own --benchmark_ ... /threads.
void BM_TripleStoreSealedQueryParallel(benchmark::State& state) {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    util::Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
      s->Add(static_cast<rdf::TermId>(rng.Uniform(10000)),
             static_cast<rdf::TermId>(rng.Uniform(50)),
             static_cast<rdf::TermId>(rng.Uniform(10000)));
    }
    s->SealIndexes();
    return s;
  }();
  util::Rng rng(100 + state.thread_index());
  for (auto _ : state) {
    rdf::TermId s = static_cast<rdf::TermId>(rng.Uniform(10000));
    benchmark::DoNotOptimize(store->CountMatches(
        {s, rdf::TriplePattern::kAny, rdf::TriplePattern::kAny}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleStoreSealedQueryParallel)->Threads(1)->Threads(8);

// Filtered link-prediction ranking. Args: {num_threads, query_batched}.
// The test split deliberately repeats (h, r) queries (each query has 4 true
// tails), so query batching scores 64 unique queries instead of 256 triples
// — the dedup ratio billion-scale splits exhibit. Metrics are identical
// across every arg combination; only wall-clock should move.
void BM_FilteredEvaluation(benchmark::State& state) {
  const size_t kEntities = 4000;
  static kge::Dataset* ds = [] {
    auto* d = new kge::Dataset();
    d->name = "bm";
    for (size_t i = 0; i < kEntities; ++i) {
      d->entity_names.push_back("e" + std::to_string(i));
      d->entity_text.push_back("t");
      d->entity_images.push_back({});
    }
    for (uint32_t r = 0; r < 4; ++r) {
      d->relation_names.push_back("r" + std::to_string(r));
    }
    for (uint32_t h = 0; h < kEntities; ++h) {
      for (uint32_t r = 0; r < 4; ++r) {
        for (uint32_t j = 0; j < 4; ++j) {
          d->train.push_back(
              {h, r,
               static_cast<uint32_t>((h + 17 * (r + 1) + 101 * j) %
                                     kEntities)});
        }
      }
    }
    // First 256 train triples = 16 heads x 4 relations x 4 tails: 64
    // unique tail-queries, each shared by 4 test triples.
    for (size_t i = 0; i < 256; ++i) d->test.push_back(d->train[i]);
    return d;
  }();
  static kge::TransE* model = [] {
    util::Rng rng(31);
    return new kge::TransE(kEntities, 4, 32, 1.0f, &rng);
  }();
  kge::RankingEvaluator::Options opts;
  opts.filtered = true;
  opts.num_threads = static_cast<size_t>(state.range(0));
  opts.query_batched = state.range(1) != 0;
  kge::RankingEvaluator evaluator(*ds, opts);
  for (auto _ : state) {
    kge::RankingMetrics m = evaluator.Evaluate(model);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * ds->test.size());
}
BENCHMARK(BM_FilteredEvaluation)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TrieLongestMatch(benchmark::State& state) {
  text::Trie trie;
  util::Rng rng(11);
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    std::string k = util::StrFormat("brand%05llu",
                                    (unsigned long long)rng.Uniform(99999));
    trie.Insert(k, i);
    keys.push_back(k);
  }
  std::string haystack = "new " + keys[42] + " deluxe " + keys[7] + " pack";
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.FindAll(haystack));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLongestMatch);

void BM_FuzzyResolve(benchmark::State& state) {
  text::FuzzyMatcher fuzzy(0.8);
  util::Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    fuzzy.AddCanonical(util::StrFormat("gazetteer%05llu",
                                       (unsigned long long)rng.Uniform(99999)),
                       i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzzy.Resolve("gazetteer01234x"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FuzzyResolve);

void BM_CrfDecode(benchmark::State& state) {
  const size_t num_labels = state.range(0);
  crf::LinearChainCrf model(num_labels, 1 << 15);
  crf::Sequence seq(16);
  util::Rng rng(17);
  for (auto& tok : seq) {
    for (int f = 0; f < 8; ++f) {
      tok.features.push_back(static_cast<uint32_t>(rng.Next()));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Decode(seq));
  }
  state.SetItemsProcessed(state.iterations() * seq.size());
}
BENCHMARK(BM_CrfDecode)->Arg(5)->Arg(49);

// Square GEMM under a forced kernel backend ("scalar" = reference loops,
// "auto" = best the CPU supports). The scalar/dispatched pair at the same
// size is the headline kernel-speedup number in BENCH_kernels.json.
void BM_Gemm(benchmark::State& state, const char* kernel) {
  const size_t n = state.range(0);
  util::Rng rng(19);
  nn::Matrix a(n, n), b(n, n), c(n, n);
  a.InitUniform(&rng, 1.0f);
  b.InitUniform(&rng, 1.0f);
  nn::simd::ForceKernel(kernel);
  for (auto _ : state) {
    nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK_CAPTURE(BM_Gemm, scalar, "scalar")->Arg(64)->Arg(128)->Arg(512);
BENCHMARK_CAPTURE(BM_Gemm, dispatched, "auto")->Arg(64)->Arg(128)->Arg(512);

// Single-vector kernels at embedding-sized lengths.
void BM_DotKernel(benchmark::State& state, const char* kernel) {
  const size_t n = state.range(0);
  util::Rng rng(43);
  std::vector<float> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.UniformDouble());
    b[i] = static_cast<float>(rng.UniformDouble());
  }
  nn::simd::ForceKernel(kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::simd::Dot(a.data(), b.data(), n));
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_DotKernel, scalar, "scalar")->Arg(128)->Arg(1024);
BENCHMARK_CAPTURE(BM_DotKernel, dispatched, "auto")->Arg(128)->Arg(1024);

void BM_L1DistanceKernel(benchmark::State& state, const char* kernel) {
  const size_t n = state.range(0);
  util::Rng rng(47);
  std::vector<float> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.UniformDouble());
    b[i] = static_cast<float>(rng.UniformDouble());
  }
  nn::simd::ForceKernel(kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::simd::L1Distance(a.data(), b.data(), n));
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_L1DistanceKernel, scalar, "scalar")->Arg(128)->Arg(1024);
BENCHMARK_CAPTURE(BM_L1DistanceKernel, dispatched, "auto")
    ->Arg(128)
    ->Arg(1024);

// Full-entity candidate scans, the evaluator's inner loop: one
// translational model (TransE, L1-distance scan) and one bilinear model
// (DistMult, matrix-vector product), each under scalar vs dispatched
// kernels.
constexpr size_t kScoreEntities = 20000;
constexpr size_t kScoreDim = 128;

void BM_ScoreTailsTransE(benchmark::State& state, const char* kernel) {
  static kge::TransE* model = [] {
    util::Rng rng(41);
    auto* m = new kge::TransE(kScoreEntities, 4, kScoreDim, 1.0f, &rng);
    m->PrepareEval();
    return m;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<float> scores;
  uint32_t h = 0;
  for (auto _ : state) {
    model->ScoreTails(h, h % 4, &scores);
    benchmark::DoNotOptimize(scores.data());
    h = (h + 1) % kScoreEntities;
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
}
BENCHMARK_CAPTURE(BM_ScoreTailsTransE, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScoreTailsTransE, dispatched, "auto");

void BM_ScoreTailsDistMult(benchmark::State& state, const char* kernel) {
  static kge::DistMult* model = [] {
    util::Rng rng(53);
    auto* m = new kge::DistMult(kScoreEntities, 4, kScoreDim, &rng);
    m->PrepareEval();
    return m;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<float> scores;
  uint32_t h = 0;
  for (auto _ : state) {
    model->ScoreTails(h, h % 4, &scores);
    benchmark::DoNotOptimize(scores.data());
    h = (h + 1) % kScoreEntities;
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
}
BENCHMARK_CAPTURE(BM_ScoreTailsDistMult, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScoreTailsDistMult, dispatched, "auto");

// Quantized row scans — the ANN cluster-scan inner loop (PR 8). Same
// 20000 x 128 table as the float ScoreTails benches above, so the
// ScoreTails-vs-ScanI8 ratio at equal backend is the raw int8 win before
// IVF pruning multiplies it.
void BM_ScanDotI8(benchmark::State& state, const char* kernel) {
  static const auto* fixture = [] {
    struct Fixture {
      ann::QuantizedMatrix qm;
      std::vector<int8_t> q;
      float q_scale;
    };
    auto* f = new Fixture();
    util::Rng rng(59);
    nn::Matrix m(kScoreEntities, kScoreDim);
    m.InitUniform(&rng, 1.0f);
    f->qm.Build(m);
    std::vector<float> query(kScoreDim);
    for (float& x : query) x = static_cast<float>(rng.UniformDouble());
    f->q.resize(kScoreDim);
    f->q_scale = ann::QuantizeRowInt8(query.data(), kScoreDim, f->q.data());
    return f;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<float> out(kScoreEntities);
  for (auto _ : state) {
    nn::simd::Active().scan_dot_i8(fixture->q.data(), fixture->q_scale,
                                   fixture->qm.data(), fixture->qm.scales(),
                                   kScoreEntities, kScoreDim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
}
BENCHMARK_CAPTURE(BM_ScanDotI8, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScanDotI8, dispatched, "auto");

void BM_ScanL1I8(benchmark::State& state, const char* kernel) {
  static const auto* fixture = [] {
    struct Fixture {
      ann::QuantizedMatrix qm;
      std::vector<float> q;
    };
    auto* f = new Fixture();
    util::Rng rng(61);
    nn::Matrix m(kScoreEntities, kScoreDim);
    m.InitUniform(&rng, 1.0f);
    f->qm.Build(m);
    f->q.resize(kScoreDim);
    for (float& x : f->q) x = static_cast<float>(rng.UniformDouble());
    return f;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<float> out(kScoreEntities);
  for (auto _ : state) {
    nn::simd::Active().scan_l1_i8(fixture->q.data(), fixture->qm.data(),
                                  fixture->qm.scales(), kScoreEntities,
                                  kScoreDim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
}
BENCHMARK_CAPTURE(BM_ScanL1I8, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScanL1I8, dispatched, "auto");

// The top-K prefilter's code scan (kge::PrefixCodes): the SAD of each
// row's 16 uint8 prefix codes against the query's, 16 B per row where the
// float scans above read the whole row, selecting the rows at or below a
// threshold. The threshold keeps the 3% of rows with the smallest SAD,
// about the share a top-10 query on the 40000 x 64 mixture below rescores.
// Same table as BM_ScanL1I8.
void BM_ScanL1U8Prefix(benchmark::State& state, const char* kernel) {
  static const auto* fixture = [] {
    struct Fixture {
      kge::PrefixCodes codes;
      uint8_t q[kge::PrefixCodes::kDims];
      uint32_t max_sad;
    };
    auto* f = new Fixture();
    util::Rng rng(67);
    nn::Matrix m(kScoreEntities, kScoreDim);
    m.InitUniform(&rng, 1.0f);
    f->codes.Build(m);
    std::vector<float> query(kScoreDim);
    for (float& x : query) x = static_cast<float>(rng.UniformDouble());
    f->codes.EncodeQuery(query.data(), f->q);
    std::vector<uint32_t> sad(kScoreEntities, 0);
    for (size_t r = 0; r < kScoreEntities; ++r) {
      for (size_t i = 0; i < kge::PrefixCodes::kDims; ++i) {
        sad[r] += static_cast<uint32_t>(
            std::abs(int{f->q[i]} - int{f->codes.Row(r)[i]}));
      }
    }
    std::nth_element(sad.begin(), sad.begin() + kScoreEntities * 3 / 100,
                     sad.end());
    f->max_sad = sad[kScoreEntities * 3 / 100];
    return f;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<uint32_t> idx(kScoreEntities);
  size_t selected = 0;
  for (auto _ : state) {
    selected = nn::simd::Active().sad_u8x16_select(
        fixture->q, fixture->codes.Row(0), kScoreEntities, fixture->max_sad,
        idx.data());
    benchmark::DoNotOptimize(idx.data());
    benchmark::DoNotOptimize(selected);
    benchmark::ClobberMemory();
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
  state.counters["selected"] = static_cast<double>(selected);
}
BENCHMARK_CAPTURE(BM_ScanL1U8Prefix, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScanL1U8Prefix, dispatched, "auto");

// Uncached top-10 over a 40000 x 64 TransE whose entity table is a
// Gaussian mixture of 96 centres (trained product embeddings cluster by
// category, and IVF exploits that structure). "exact" is full scoring then
// selection, ScoreTails + serve::SelectTopK; "fused" is the engine's path
// without an index, kge::TopKTails, with byte-identical answers; "ivf" is
// ann::TailIndex::SearchTopK at 128 clusters, nprobe 8. The ivf/exact
// items_per_second ratio is the ANN speedup DESIGN.md quotes, and the ivf
// row carries the recall@10 it was bought at.
constexpr size_t kMixEntities = 40000, kMixRelations = 16, kMixDim = 64;

struct TopKMixture {
  std::unique_ptr<kge::TransE> model;
  std::shared_ptr<const ann::TailIndex> index;
  double recall_at_10 = 0.0;
};

const TopKMixture& GetTopKMixture() {
  static const TopKMixture* fixture = [] {
    constexpr size_t kCenters = 96, kRecallQueries = 200;
    auto* f = new TopKMixture();
    util::Rng rng(0xA5C);
    f->model = std::make_unique<kge::TransE>(kMixEntities, kMixRelations,
                                             kMixDim, 1.0f, &rng);
    std::vector<float> centers(kCenters * kMixDim);
    for (float& c : centers) c = static_cast<float>(rng.Normal(0.0, 1.0));
    for (uint32_t e = 0; e < kMixEntities; ++e) {
      const float* c = &centers[(e % kCenters) * kMixDim];
      float* row = f->model->entities().Row(e);
      for (size_t d = 0; d < kMixDim; ++d) {
        row[d] = c[d] + static_cast<float>(rng.Normal(0.0, 0.08));
      }
    }
    for (uint32_t r = 0; r < kMixRelations; ++r) {
      float* row = f->model->relations().Row(r);
      for (size_t d = 0; d < kMixDim; ++d) {
        row[d] = static_cast<float>(rng.Normal(0.0, 0.05));
      }
    }
    f->model->PrepareEval();
    ann::IvfOptions opts;
    opts.num_clusters = 128;
    opts.nprobe = 8;
    f->index = ann::TailIndex::Build(f->model.get(), opts);

    std::vector<float> scores;
    std::vector<ann::Candidate> cands;
    size_t hits = 0, total = 0;
    for (size_t i = 0; i < kRecallQueries; ++i) {
      const auto h = static_cast<uint32_t>(rng.Uniform(kMixEntities));
      const auto r = static_cast<uint32_t>(rng.Uniform(kMixRelations));
      f->model->ScoreTails(h, r, &scores);
      ann::SearchStats st;
      f->index->SearchTopK(h, r, 10, /*nprobe=*/0, &cands, &st);
      for (const serve::ScoredEntity& g : serve::SelectTopK(scores, 10)) {
        for (const ann::Candidate& c : cands) {
          if (c.id == g.id) { ++hits; break; }
        }
        ++total;
      }
    }
    f->recall_at_10 = static_cast<double>(hits) / static_cast<double>(total);
    return f;
  }();
  return *fixture;
}

enum class TopKPath { kExact, kFused, kIvf };

void BM_TopKMixture(benchmark::State& state, TopKPath path) {
  const TopKMixture& f = GetTopKMixture();
  util::Rng rng(71);
  std::vector<float> scores;
  std::vector<ann::Candidate> cands;
  for (auto _ : state) {
    const auto h = static_cast<uint32_t>(rng.Uniform(kMixEntities));
    const auto r = static_cast<uint32_t>(rng.Uniform(kMixRelations));
    switch (path) {
      case TopKPath::kExact:
        f.model->ScoreTails(h, r, &scores);
        benchmark::DoNotOptimize(serve::SelectTopK(scores, 10));
        break;
      case TopKPath::kFused:
        benchmark::DoNotOptimize(kge::TopKTails(*f.model, h, r, 10));
        break;
      case TopKPath::kIvf: {
        ann::SearchStats st;
        f.index->SearchTopK(h, r, 10, /*nprobe=*/0, &cands, &st);
        benchmark::DoNotOptimize(cands.data());
        benchmark::ClobberMemory();
        break;
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (path == TopKPath::kIvf) state.counters["recall_at_10"] = f.recall_at_10;
}
BENCHMARK_CAPTURE(BM_TopKMixture, exact, TopKPath::kExact);
BENCHMARK_CAPTURE(BM_TopKMixture, fused, TopKPath::kFused);
BENCHMARK_CAPTURE(BM_TopKMixture, ivf, TopKPath::kIvf);

// Completion of a 100-way coalesced LinkPredictTopK group, a layer
// measurement. per_request_slice (what serve/engine.cc does): every
// request slices its own k-prefix from the selected candidates AND builds
// its own cache copy — O(reqs) allocations of up to k_max entries each.
// shared_prefix: one prefix payload per *distinct* k (few), built once,
// cache-inserted by pointer, copy-assigned per response.
void BM_TopKGroupCompletion(benchmark::State& state, bool shared_prefix) {
  constexpr size_t kMaxK = 64, kReqs = 100;
  std::vector<serve::ScoredEntity> cands(kMaxK);
  for (size_t i = 0; i < kMaxK; ++i) {
    cands[i] = {static_cast<uint32_t>(i * 7), 1.0f / (1.0f + i)};
  }
  // The serving mix: most clients ask k=10, a few ask deeper.
  std::vector<size_t> ks(kReqs);
  for (size_t i = 0; i < kReqs; ++i) {
    ks[i] = i % 10 == 0 ? kMaxK : (i % 10 == 1 ? 25 : 10);
  }
  std::vector<serve::Response> resps(kReqs);
  for (auto _ : state) {
    if (shared_prefix) {
      std::map<size_t, std::shared_ptr<serve::ResultPayload>> by_k;
      for (size_t i = 0; i < kReqs; ++i) {
        std::shared_ptr<serve::ResultPayload>& shared = by_k[ks[i]];
        if (shared == nullptr) {
          shared = std::make_shared<serve::ResultPayload>();
          shared->topk.assign(cands.begin(), cands.begin() + ks[i]);
        }
        benchmark::DoNotOptimize(shared.get());  // stands in: cache Insert
        resps[i].payload = *shared;
      }
    } else {
      for (size_t i = 0; i < kReqs; ++i) {
        resps[i].payload.topk.assign(cands.begin(), cands.begin() + ks[i]);
        auto owned =
            std::make_shared<serve::ResultPayload>(resps[i].payload);
        benchmark::DoNotOptimize(owned.get());
      }
    }
    benchmark::DoNotOptimize(resps.data());
  }
  state.SetItemsProcessed(state.iterations() * kReqs);
}
BENCHMARK_CAPTURE(BM_TopKGroupCompletion, per_request_slice, false);
BENCHMARK_CAPTURE(BM_TopKGroupCompletion, shared_prefix, true);

// KGE trainer throughput at 1/2/4 threads under both parallel strategies.
// Args: {num_threads, deterministic?}. Items processed = training triples,
// so the Rate column is triples/sec — the headline number BENCH_train.json
// exists for. Hogwild at T threads should approach T× the 1-thread rate on
// a multi-core host; deterministic trades some of that for bit-exactness.
void BM_Train(benchmark::State& state) {
  static kge::Dataset* ds = [] {
    auto* d = new kge::Dataset();
    d->name = "bm-train";
    const size_t kEntities = 2000;
    for (size_t i = 0; i < kEntities; ++i) {
      d->entity_names.push_back("e" + std::to_string(i));
      d->entity_text.push_back("t");
      d->entity_images.push_back({});
    }
    for (uint32_t r = 0; r < 4; ++r) {
      d->relation_names.push_back("r" + std::to_string(r));
    }
    for (uint32_t h = 0; h < kEntities; ++h) {
      for (uint32_t r = 0; r < 4; ++r) {
        d->train.push_back(
            {h, r, static_cast<uint32_t>((h + 17 * (r + 1)) % kEntities)});
      }
    }
    return d;
  }();
  kge::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 256;
  config.num_threads = static_cast<size_t>(state.range(0));
  config.mode = state.range(1) != 0 ? kge::TrainMode::kDeterministic
                                    : kge::TrainMode::kHogwild;
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(31);
    kge::TransE model(ds->num_entities(), ds->num_relations(), 64, 1.0f,
                      &rng);
    state.ResumeTiming();
    kge::TrainKgeModel(&model, *ds, config);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * ds->train.size());
}
BENCHMARK(BM_Train)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ZipfSampler(benchmark::State& state) {
  util::ZipfSampler zipf(100000, 1.1);
  util::Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSampler);

// KG snapshot durability path: serialize/deserialize a dict + store of
// Arg triples through the CRC-checked atomic-write container.
void PopulateSnapshotGraph(size_t num_triples, rdf::TermDict* dict,
                           rdf::TripleStore* store) {
  util::Rng rng(37);
  const size_t kTerms = num_triples / 4 + 8;
  for (size_t i = 0; i < kTerms; ++i) {
    dict->AddIri(util::StrFormat("http://openbg.example/t%zu", i));
  }
  for (size_t i = 0; i < num_triples; ++i) {
    store->Add(static_cast<rdf::TermId>(rng.Uniform(kTerms)),
               static_cast<rdf::TermId>(rng.Uniform(64)),
               static_cast<rdf::TermId>(rng.Uniform(kTerms)));
  }
}

void BM_SnapshotSave(benchmark::State& state) {
  rdf::TermDict dict;
  rdf::TripleStore store;
  PopulateSnapshotGraph(static_cast<size_t>(state.range(0)), &dict, &store);
  const std::string path = "/tmp/openbg_bm_snapshot.snap";
  for (auto _ : state) {
    OPENBG_CHECK_OK(rdf::SaveSnapshot(dict, store, path));
  }
  state.SetItemsProcessed(state.iterations() * store.size());
}
BENCHMARK(BM_SnapshotSave)->Arg(10000)->Arg(100000);

void BM_SnapshotLoad(benchmark::State& state) {
  rdf::TermDict dict;
  rdf::TripleStore store;
  PopulateSnapshotGraph(static_cast<size_t>(state.range(0)), &dict, &store);
  const std::string path = "/tmp/openbg_bm_snapshot.snap";
  OPENBG_CHECK_OK(rdf::SaveSnapshot(dict, store, path));
  for (auto _ : state) {
    rdf::TermDict loaded_dict;
    rdf::TripleStore loaded_store;
    OPENBG_CHECK_OK(rdf::LoadSnapshot(path, &loaded_dict, &loaded_store));
    benchmark::DoNotOptimize(loaded_store);
  }
  state.SetItemsProcessed(state.iterations() * store.size());
}
BENCHMARK(BM_SnapshotLoad)->Arg(10000)->Arg(100000);

void BM_DiscreteSampler(benchmark::State& state) {
  util::Rng rng(29);
  std::vector<double> weights(100000);
  for (double& w : weights) w = rng.UniformDouble() + 0.01;
  util::DiscreteSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteSampler);

}  // namespace

BENCHMARK_MAIN();
