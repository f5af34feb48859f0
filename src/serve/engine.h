#ifndef OPENBG_SERVE_ENGINE_H_
#define OPENBG_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ann/ivf_index.h"
#include "construction/schema_mapper.h"
#include "kge/model.h"
#include "ontology/ontology.h"
#include "rdf/graph.h"
#include "rdf/live_graph.h"
#include "serve/health.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"
#include "serve/types.h"
#include "util/circuit_breaker.h"
#include "util/retry.h"
#include "util/timer.h"

namespace openbg::serve {

/// Everything a QueryEngine serves from, bound together with the read
/// invariants the serve path relies on:
///  * graph reads go through an immutable rdf::GraphSnapshot from one
///    provider, a rdf::LiveGraph: the bound `live` one, else one the context
///    owns over `sharded` (else `graph`) that never publishes. It seals an
///    in-memory base and every snapshot read asserts the seal, so no serve
///    read triggers a lazy index rebuild (the store's mutex); in-flight
///    requests finish on the snapshot they acquired (MVCC);
///  * the KGE model's PrepareEval() has run, so ScoreTails is
///    const-thread-safe;
///  * a cache *epoch* stamps every cached answer; a model reload or
///    explicit bump retires the whole cache in O(1), while live-graph
///    delta publishes invalidate selectively by touched dependency keys
///    (see ResultCache).
///
/// All bindings are non-owning; the caller keeps them alive for the
/// context's lifetime. Endpoints needing an absent binding return
/// kInvalidArgument rather than crashing, so a context can serve a subset
/// (e.g. graph-only, no KGE model).
class ServeContext {
 public:
  struct Bindings {
    const rdf::Graph* graph = nullptr;             // Neighbors / ConceptsOf
    const ontology::Ontology* ontology = nullptr;  // ConceptsOf
    const kge::Dataset* dataset = nullptr;         // optional: id -> name
    kge::KgeModel* model = nullptr;                // LinkPredictTopK
    const construction::SchemaMapper* mapper = nullptr;  // EntityLink
    /// Optional live-update layer. When set, graph endpoints serve from
    /// live->Acquire() (which supersedes `graph` for triple reads) and
    /// the engines apply its publish records to their result caches.
    rdf::LiveGraph* live = nullptr;
    /// Optional out-of-core base: an OBGSNAP3 store (rdf::ShardedStore)
    /// serving graph reads zero-copy from mmapped segments. It wins over
    /// `graph` for triple reads (`graph` still supplies the term dictionary
    /// for memory accounting); a bound `live` supersedes both. Owned
    /// (shared_ptr) because the mmap must outlive every in-flight snapshot.
    std::shared_ptr<const rdf::ShardedStore> sharded;
    /// Optional ANN acceleration for LinkPredictTopK. When enabled, the
    /// context builds an ann::TailIndex over the bound model at
    /// construction (synchronously) and rebuilds it in the background
    /// after every reload / generation bump, stamped with the generation
    /// it serves. Engines consult the index only when its (model pointer,
    /// generation) stamp matches the batch being drained — any mismatch
    /// (rebuild in flight, reload raced the drain, model not ANN-able)
    /// falls back to the exact scan, so a stale index never scores a
    /// new-generation model.
    bool ann_enabled = false;
    ann::IvfOptions ann;
  };

  explicit ServeContext(Bindings bindings);
  ~ServeContext();

  ServeContext(const ServeContext&) = delete;
  ServeContext& operator=(const ServeContext&) = delete;

  /// NOTE: `bindings().model` is the model bound at construction; the
  /// serving path reads the CURRENT model via model_ref() below, which
  /// ReloadModel republishes atomically.
  const Bindings& bindings() const { return bindings_; }

  /// Pins the model serving right now for the duration of a request
  /// (RCU with shared_ptr reclamation: ReloadModel publishes a new ref,
  /// and a checkpoint-loaded predecessor is destroyed only after the last
  /// in-flight request that acquired it drops this pin). Null when no
  /// model is bound.
  std::shared_ptr<kge::KgeModel> model_ref() const {
    return std::atomic_load_explicit(&model_ptr_, std::memory_order_acquire);
  }

  /// Current cache epoch (starts at 1). Bumped only by full
  /// invalidations — a model reload or BumpGeneration — never by live
  /// delta publishes, which invalidate selectively instead.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// The graph snapshot to serve this request from: the snapshot
  /// provider's current one (null when no graph is bound). Never blocks.
  std::shared_ptr<const rdf::GraphSnapshot> AcquireSnapshot() const {
    return graph_ != nullptr ? graph_->Acquire() : nullptr;
  }

  /// Swaps in a (re)trained model: runs PrepareEval() on it FIRST, then
  /// publishes the ref atomically and bumps the epoch so every cached
  /// answer computed from the old parameters turns stale. Safe under live
  /// traffic — readers pin the model per request via model_ref(), so an
  /// owned (shared_ptr) predecessor is reclaimed only after the last
  /// in-flight request drops it.
  void ReloadModel(std::shared_ptr<kge::KgeModel> model);

  /// Live model reload from a checkpoint file, hardened for serving:
  /// LoadCheckpoint runs into `staging` (a FRESH model of matching shape,
  /// never the bound one) under `retry`, so a transient read fault is
  /// retried and a persistent one exhausts WITHOUT the serving path ever
  /// observing half-loaded parameters — on failure `staging` is dropped
  /// and the engine keeps serving the current model and generation, cache
  /// intact (test-enforced). On success the staging model is swapped in
  /// via the owning ReloadModel (epoch bump retires every cached answer
  /// computed from the old parameters; the old model is reclaimed once
  /// the last in-flight request releases its pin). Safe to call while
  /// requests are being served.
  util::Status ReloadModelFromCheckpoint(const std::string& path,
                                         std::shared_ptr<kge::KgeModel> staging,
                                         const util::RetryOptions& retry = {});

  /// Reload observability for the health model.
  struct ReloadStats {
    uint64_t attempts = 0;   // ReloadModelFromCheckpoint calls
    uint64_t successes = 0;
    uint64_t failures = 0;   // calls that exhausted their retries
    bool last_failed = false;
  };
  ReloadStats reload_stats() const {
    ReloadStats s;
    s.attempts = reload_attempts_.load(std::memory_order_relaxed);
    s.successes = reload_successes_.load(std::memory_order_relaxed);
    s.failures = reload_failures_.load(std::memory_order_relaxed);
    s.last_failed = last_reload_failed_.load(std::memory_order_relaxed);
    return s;
  }

  /// Marks the bound KG/model as changed without swapping pointers (e.g.
  /// after an in-place snapshot reload). Invalidate-everything in O(1);
  /// with ANN enabled this also retires the current index and kicks off a
  /// background rebuild stamped with the new generation.
  void BumpGeneration();

  /// The current ANN index: null when ANN is disabled, the model exposes
  /// no tail-scan spec, or a rebuild is in flight (the stale index is
  /// retired the moment a reload lands). Callers must still validate
  /// built_for()/model_generation() against the model and generation they
  /// pinned — the stamp, not nullness, is the safety contract.
  std::shared_ptr<const ann::TailIndex> ann_ref() const {
    return std::atomic_load_explicit(&ann_ptr_, std::memory_order_acquire);
  }

 private:
  /// Retires the published index and (re)builds one for the current
  /// (model, generation) on a background thread — at most one rebuild in
  /// flight (a newer trigger joins the previous thread first). The build
  /// result publishes only if its generation is still current.
  void StartAnnRebuild();
  /// Wraps an externally-owned model in a shared_ptr that never deletes.
  static std::shared_ptr<kge::KgeModel> NonOwning(kge::KgeModel* model) {
    return std::shared_ptr<kge::KgeModel>(model, [](kge::KgeModel*) {});
  }

  Bindings bindings_;
  // The currently-serving model; bindings_.model is only its initial
  // value. Accessed via std::atomic_load/store (readers pin per request,
  // ReloadModel publishes) — never touched directly after construction.
  std::shared_ptr<kge::KgeModel> model_ptr_;
  std::atomic<uint64_t> generation_{1};
  // The snapshot provider: bindings_.live, else frozen_, which never
  // publishes; null when no graph is bound.
  std::unique_ptr<rdf::LiveGraph> frozen_;
  rdf::LiveGraph* graph_ = nullptr;
  std::atomic<uint64_t> reload_attempts_{0};
  std::atomic<uint64_t> reload_successes_{0};
  std::atomic<uint64_t> reload_failures_{0};
  std::atomic<bool> last_reload_failed_{false};
  // Current ANN index (atomic_load/store; see ann_ref). The rebuild thread
  // is serialized by ann_mu_; the dtor joins it.
  std::shared_ptr<const ann::TailIndex> ann_ptr_;
  std::mutex ann_mu_;
  std::thread ann_rebuild_;
};

/// Tuning knobs of a QueryEngine.
struct EngineOptions {
  /// Max LinkPredictTopK batch drains running at once (>= 1). The engine
  /// starts no threads: waiting callers run the drains themselves. Other
  /// endpoints run on the calling thread (their store reads are lock-free
  /// and cheap).
  size_t num_threads = 1;
  /// Max requests coalesced into one batch drain.
  size_t max_batch = 64;
  /// Admission bound: pending LinkPredictTopK requests beyond this are
  /// shed (after the cache-only fallback).
  size_t max_queue = 256;
  bool cache_enabled = true;
  size_t cache_capacity = 4096;
  /// Per-endpoint circuit breaker tuning (one breaker per endpoint, all
  /// sharing these options). See util/circuit_breaker.h for the state
  /// machine and DESIGN.md §12 for the serving semantics.
  util::CircuitBreakerOptions breaker;
};

/// The embedded online query engine: typed request/response endpoints over
/// a ServeContext, a micro-batching executor for KGE scoring, a sharded
/// result cache, admission control, and a metrics surface. See DESIGN.md
/// §10 for the architecture.
///
/// Concurrency model: every endpoint is safe to call from any number of
/// client threads, and the engine owns no threads. LinkPredictTopK requests
/// enter a bounded pending queue and their callers drain it: at most
/// `num_threads` of them at a time each take up to `max_batch` requests in
/// FIFO order, deduplicate queries sharing (h, r) so each unique query
/// costs one top-(max k) pass, and hand every coalesced request its prefix
/// of that pass. Without a current ANN index the pass is kge::TopKTails:
/// one fused scan that scores row blocks and feeds a bounded heap (no full
/// sort), and for a TransE with prefix codes reads 16 code bytes per row
/// and rescores only the rows whose codes may still enter, answers
/// byte-identical to ScoreTails + SelectTopK (the rescoring runs four
/// gathered rows at a time). A caller drains only until its own request
/// is answered; a waiter takes over whenever a drain slot frees while work
/// is queued. Every endpoint then finishes through one skeleton
/// (ServeEndpoint). EntityLink / Neighbors / ConceptsOf execute inline on
/// the caller: their reads are lock-free against the sealed store
/// (asserted), and the SchemaMapper serializes its own stats counters, so
/// a mapper shared by several engines stays race-free.
///
/// Degraded mode (DESIGN.md §12): every endpoint is guarded by its own
/// circuit breaker. While a breaker is open/half-open, cache hits are
/// still served (kOk with Response::degraded set — a previously-correct
/// answer beats an error) and misses fast-fail with kDegraded instead of
/// touching the broken component; half-open probes re-exercise the real
/// path and re-close the breaker once it recovers.
///
/// Failpoints (fault-injection tests): `serve::overload` forces the shed
/// path of every admission decision; `serve::stall` delays batch drains so
/// deadline expiry is exercisable deterministically; `serve::model_fault`,
/// `serve::graph_fault` and `serve::link_fault` fail the compute path of
/// LinkPredictTopK, Neighbors/ConceptsOf and EntityLink respectively —
/// the sites the chaos sweep flips to trip and recover the breakers.
class QueryEngine {
 public:
  QueryEngine(ServeContext* context, EngineOptions options);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Deepest top-k accepted: each cached answer holds k candidates, and a
  /// wire frame carries k as a u32.
  static constexpr size_t kMaxTopK = 1024;
  /// Longest deadline accepted; keeps `now + deadline` in steady_clock's
  /// range (a wire u64 near its top overflows the conversion).
  static constexpr uint64_t kMaxDeadlineUs = 60'000'000;

  /// Top-k most plausible tails for (h, r, ?) under the bound model, in
  /// (score desc, id asc) order — deterministic, so cached and uncached
  /// answers are byte-identical. `deadline_us` is relative to the call
  /// (0 = none). k above kMaxTopK or a deadline above kMaxDeadlineUs is
  /// kInvalidArgument (never queued or cached). Cache key: (h, r, k).
  Response LinkPredictTopK(uint32_t h, uint32_t r, size_t k,
                           uint64_t deadline_us = 0);

  /// Longest EntityLink mention accepted, in bytes. The result cache keeps
  /// each mention as its key under an entry-count budget, so without this
  /// bound a peer sending distinct large mentions (a wire frame carries up
  /// to 16 MiB) could pin capacity x 16 MiB of keys.
  static constexpr size_t kMaxMentionBytes = 1024;

  /// Resolves a textual brand/place mention through the bound
  /// SchemaMapper (trie exact / synonym / fuzzy). Cache key: the mention.
  /// A mention longer than kMaxMentionBytes is kInvalidArgument (never
  /// cached).
  Response EntityLink(std::string_view mention);

  /// All triples incident to `entity` (out-edges first, then in-edges),
  /// optionally restricted to one relation. Cache key:
  /// (entity, relation).
  Response Neighbors(rdf::TermId entity,
                     rdf::TermId relation = rdf::kInvalidTerm);

  /// The concept links of a product entity: one (entity, property,
  /// concept) triple per appliedTime / relatedScene / aboutTheme /
  /// forCrowd / inMarket* edge. Cache key: (entity).
  Response ConceptsOf(rdf::TermId entity);

  /// Metrics JSON: uptime, QPS, per-endpoint counters + latency
  /// percentiles, cache stats, breaker states, component health, and the
  /// current snapshot generation.
  std::string MetricsJson() const;

  /// Component health rollup (see serve/health.h), computed on demand
  /// from breaker states, reload stats, and live-graph fault counters.
  HealthState ComputeHealth() const;

  /// The endpoint's circuit breaker (tests force-open / inspect it).
  util::CircuitBreaker& breaker(Endpoint e) {
    return *breakers_[static_cast<size_t>(e)];
  }
  const util::CircuitBreaker& breaker(Endpoint e) const {
    return *breakers_[static_cast<size_t>(e)];
  }

  const ResultCache& cache() const { return *cache_; }
  ServeMetrics& metrics() { return metrics_; }
  const EngineOptions& options() const { return options_; }

  /// ANN-path observability (also surfaced in MetricsJson under "ann").
  struct AnnStats {
    uint64_t queries = 0;          // groups answered via the index
    uint64_t probed_clusters = 0;  // sum over those groups
    uint64_t rescored = 0;         // exact float rescores
    uint64_t exact_fallbacks = 0;  // ANN enabled but scanned exactly
  };
  AnnStats ann_stats() const {
    AnnStats s;
    s.queries = ann_queries_.load(std::memory_order_relaxed);
    s.probed_clusters = ann_probed_clusters_.load(std::memory_order_relaxed);
    s.rescored = ann_rescored_.load(std::memory_order_relaxed);
    s.exact_fallbacks = ann_exact_fallbacks_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // A queued LinkPredictTopK request on its caller's stack. The one drain
  // that popped it writes `status` and `topk`; the caller reads them once
  // `done` is set under mu_.
  struct PendingTopK {
    uint32_t h = 0;
    uint32_t r = 0;
    size_t k = 0;
    bool has_deadline = false;
    Clock::time_point deadline;
    ServeStatus status = ServeStatus::kOk;
    std::vector<ScoredEntity> topk;
    bool done = false;
  };

  // Cache lookup + miss-path admission shared by all endpoints. Returns
  // true when `resp` is already final (cache hit, shed, or a kDegraded
  // breaker refusal). Returns false only after the endpoint's breaker
  // Allow()ed the request — ServeEndpoint then records exactly one
  // RecordSuccess/RecordFailure/RecordCancel.
  bool AdmitOrServeCached(const RequestKey& key, uint64_t fp, uint64_t gen,
                          Response* resp);

  // Scores a drained batch: expires lapsed deadlines, groups by (h, r), runs
  // one ANN-or-exact scan per group and writes each request's status and
  // top-k prefix. Breakers, cache and metrics are the callers' business.
  void ProcessBatch(const std::vector<PendingTopK*>& batch);

  // Pull-based invalidation sync: applies every live-graph publish record
  // in (last_synced_gen_, snap_gen] to the result cache — selectively when
  // the bounded publish history still covers the span, via InvalidateAll
  // when this engine fell more than LiveGraph::kMaxHistory publishes
  // behind. Cheap no-op (one relaxed load) when already synced; endpoints
  // call it right after acquiring their snapshot so a cache hit can never
  // predate a publish the acquired snapshot already reflects.
  void SyncInvalidations(uint64_t snap_gen);

  // The skeleton of every endpoint: kInvalidArgument unless `valid`; else
  // sync invalidations (graph endpoints only), admit or serve cached, then
  // the endpoint's failpoint, BaseOk, compute, BaseOk re-check, exactly
  // one breaker outcome and, on kOk, the cache insert; always a metrics
  // record (latency from `timer`). `snap` is the acquired graph snapshot,
  // null for an endpoint that reads no graph: a graph entry carries
  // (snap->generation, {dep_key}), a non-graph entry no graph dependency.
  // `compute(ResultPayload*)` fills the answer and returns kOk, kDegraded
  // (a compute failure), or kShed / kDeadlineExceeded (a capacity refusal
  // after admission, which releases the breaker without an outcome).
  template <typename Compute>
  Response ServeEndpoint(const util::Timer& timer, bool valid,
                         const RequestKey& key, const rdf::GraphSnapshot* snap,
                         uint64_t dep_key, Compute&& compute);

  ServeContext* context_;
  EngineOptions options_;
  std::unique_ptr<ResultCache> cache_;
  ServeMetrics metrics_;
  // One breaker per endpoint, indexed by Endpoint. unique_ptr because
  // CircuitBreaker is non-copyable and takes construction options.
  std::unique_ptr<util::CircuitBreaker> breakers_[kNumEndpoints];

  std::mutex mu_;
  std::condition_variable done_cv_;
  std::deque<PendingTopK*> pending_;
  size_t drainers_ = 0;  // batch drains running (<= options_.num_threads)

  // Highest live-graph generation whose invalidations this engine has
  // applied to its cache. sync_mu_ serializes the (collect, apply, store)
  // step so records are applied exactly once.
  std::atomic<uint64_t> last_synced_gen_{1};
  std::mutex sync_mu_;

  std::atomic<uint64_t> ann_queries_{0};
  std::atomic<uint64_t> ann_probed_clusters_{0};
  std::atomic<uint64_t> ann_rescored_{0};
  std::atomic<uint64_t> ann_exact_fallbacks_{0};
  std::atomic<uint64_t> exact_queries_{0};   // groups scanned exactly
  std::atomic<uint64_t> exact_rescored_{0};  // their rows scored in float
};

}  // namespace openbg::serve

#endif  // OPENBG_SERVE_ENGINE_H_
