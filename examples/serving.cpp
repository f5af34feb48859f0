// Example: the online serving layer. Builds a small KG, trains a TransE
// model, stands up a QueryEngine (micro-batching + sharded result cache +
// admission control), and walks through each endpoint: link-prediction
// top-K (cold, then served from cache), entity linking, graph neighbors,
// concept lookup, a model reload that invalidates the cache, the ANN
// (IVF + int8) scoring path and its full-probe exactness mode, and finally
// the JSON metrics snapshot a scraper would poll.

#include <cstdio>
#include <memory>

#include "core/openbg.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "serve/engine.h"

using openbg::core::OpenBG;
namespace serve = openbg::serve;
namespace kge = openbg::kge;

int main() {
  OpenBG::Options options;
  options.world.scale = 0.25;
  options.world.num_products = 800;
  options.world.seed = 5;
  std::printf("building knowledge graph...\n");
  std::unique_ptr<OpenBG> kg = OpenBG::Build(options);

  openbg::bench_builder::BenchmarkSpec spec;
  spec.name = "serving-demo";
  spec.num_relations = 16;
  spec.dev_size = 50;
  spec.test_size = 100;
  kge::Dataset ds = kg->BuildBenchmark(spec);

  openbg::util::Rng rng(1);
  kge::TransE model(ds.num_entities(), ds.num_relations(), 32, 1.0f, &rng);
  kge::TrainConfig config;
  config.epochs = 5;
  std::printf("training TransE on %zu triples...\n", ds.train.size());
  TrainKgeModel(&model, ds, config);

  openbg::construction::SchemaMapper mapper(kg->world().brands);

  // Bind everything into a serving context. The constructor seals the
  // triple-store indexes so every serve-path read is lock-free.
  serve::ServeContext::Bindings bindings;
  bindings.graph = &kg->graph();
  bindings.ontology = &kg->ontology();
  bindings.dataset = &ds;
  bindings.model = &model;
  bindings.mapper = &mapper;
  serve::ServeContext ctx(bindings);

  serve::EngineOptions opts;
  opts.num_threads = 2;
  serve::QueryEngine engine(&ctx, opts);

  // --- LinkPredictTopK: cold, then answered from the result cache. ---
  const kge::LpTriple& query = ds.test[0];
  std::printf("\n[link_predict_topk] head=\"%s\" relation=\"%s\"\n",
              ds.entity_names[query.h].c_str(),
              ds.relation_names[query.r].c_str());
  serve::Response cold = engine.LinkPredictTopK(query.h, query.r, 5);
  for (const serve::ScoredEntity& e : cold.payload.topk) {
    std::printf("  %-40s score=%.4f\n", ds.entity_names[e.id].c_str(),
                e.score);
  }
  serve::Response warm = engine.LinkPredictTopK(query.h, query.r, 5);
  std::printf("  repeat served from cache: %s (answers identical: %s)\n",
              warm.from_cache ? "yes" : "no",
              warm.payload.topk == cold.payload.topk ? "yes" : "no");

  // --- EntityLink: free-text brand mention -> taxonomy node. ---
  const openbg::datagen::Product& product = kg->world().products[0];
  serve::Response link = engine.EntityLink(product.brand_mention);
  std::printf("\n[entity_link] \"%s\" -> node %d (similarity %.2f)\n",
              product.brand_mention.c_str(), link.payload.link.node,
              link.payload.link.similarity);

  // --- Neighbors / ConceptsOf: sealed-index graph reads. ---
  openbg::rdf::TermId term = kg->assembly().product_terms[0];
  serve::Response nbrs = engine.Neighbors(term);
  serve::Response concepts = engine.ConceptsOf(term);
  std::printf("\n[neighbors]   product #0 has %zu edges\n",
              nbrs.payload.triples.size());
  std::printf("[concepts_of] product #0 has %zu concept links\n",
              concepts.payload.triples.size());

  // --- Reload: train a new model (the same seed, one epoch longer) beside
  // the serving one, then swap it in. The context owns it from here, so the
  // model serving requests is never mutated under them; the generation
  // bump invalidates every cached answer at O(1) cost. ---
  openbg::util::Rng retrain_rng(1);
  auto retrained = std::make_shared<kge::TransE>(
      ds.num_entities(), ds.num_relations(), 32, 1.0f, &retrain_rng);
  config.epochs += 1;
  TrainKgeModel(retrained.get(), ds, config);
  ctx.ReloadModel(retrained);
  serve::Response fresh = engine.LinkPredictTopK(query.h, query.r, 5);
  std::printf("\nafter reload, repeat query from cache: %s\n",
              fresh.from_cache ? "yes (BUG)" : "no (recomputed)");

  // --- ANN serving: the same bindings with the IVF + int8 index enabled.
  // Top-K groups route through quantized cluster scans plus an exact float
  // rescore instead of the full-entity scan; unsupported models (TransH /
  // TransD / TuckER) silently keep the exact path. With nprobe >=
  // num_clusters the index rescores every entity, so answers are
  // byte-identical to the exact engine — the setting to start from before
  // dialing nprobe down for speed. ---
  serve::ServeContext::Bindings ann_bindings = bindings;
  ann_bindings.model = retrained.get();  // the model `engine` now serves
  ann_bindings.ann_enabled = true;
  ann_bindings.ann.num_clusters = 32;
  ann_bindings.ann.nprobe = 32;  // full probe: exact answers through ANN
  serve::ServeContext ann_ctx(ann_bindings);
  serve::QueryEngine ann_engine(&ann_ctx, opts);
  serve::Response exact_r = engine.LinkPredictTopK(query.h, query.r, 5);
  serve::Response ann_r = ann_engine.LinkPredictTopK(query.h, query.r, 5);
  std::printf("\n[ann] full-probe ANN answers identical to exact: %s\n",
              ann_r.payload.topk == exact_r.payload.topk ? "yes" : "no");
  serve::QueryEngine::AnnStats ann_stats = ann_engine.ann_stats();
  std::printf("[ann] queries=%llu probed_clusters=%llu rescored=%llu\n",
              static_cast<unsigned long long>(ann_stats.queries),
              static_cast<unsigned long long>(ann_stats.probed_clusters),
              static_cast<unsigned long long>(ann_stats.rescored));

  std::printf("\nmetrics snapshot:\n%s\n", engine.MetricsJson().c_str());
  return 0;
}
