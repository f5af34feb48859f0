#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <utility>

#include "kge/checkpoint.h"
#include "util/fault_injection.h"
#include "util/mapped_file.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace openbg::serve {

namespace {

constexpr size_t kCacheShards = 8;

// The compute-path failpoint of each endpoint, indexed by Endpoint.
constexpr const char* kComputeFault[kNumEndpoints] = {
    "serve::model_fault", "serve::link_fault", "serve::graph_fault",
    "serve::graph_fault"};

}  // namespace

ServeContext::ServeContext(Bindings bindings) : bindings_(bindings) {
  // No live layer: own a provider that never publishes. Its snapshots keep
  // a sharded base's mapping alive, and it seals the Graph's store as every
  // LiveGraph seals its base.
  if (bindings_.live == nullptr && bindings_.sharded != nullptr) {
    frozen_ = std::make_unique<rdf::LiveGraph>(bindings_.sharded);
  } else if (bindings_.live == nullptr && bindings_.graph != nullptr) {
    frozen_ = std::make_unique<rdf::LiveGraph>(
        rdf::LiveGraph::Alias(&bindings_.graph->store));
  }
  graph_ = bindings_.live != nullptr ? bindings_.live : frozen_.get();
  if (bindings_.model != nullptr) {
    bindings_.model->PrepareEval();  // ScoreTails becomes const-thread-safe
    model_ptr_ = NonOwning(bindings_.model);  // pre-publication: no races
  }
  if (bindings_.ann_enabled && model_ptr_ != nullptr) {
    // Bind-time build is synchronous: the context is not serving yet, and
    // tests/benches want a ready index the moment construction returns.
    // Build() returns null for models without a tail-scan spec — such a
    // context simply serves exact scans forever (counted in ann metrics).
    ann_ptr_ =
        ann::TailIndex::Build(model_ptr_.get(), bindings_.ann, generation());
  }
}

ServeContext::~ServeContext() {
  std::lock_guard<std::mutex> lock(ann_mu_);
  if (ann_rebuild_.joinable()) ann_rebuild_.join();
}

void ServeContext::BumpGeneration() {
  generation_.fetch_add(1, std::memory_order_acq_rel);
  StartAnnRebuild();
}

void ServeContext::StartAnnRebuild() {
  if (!bindings_.ann_enabled) return;
  std::shared_ptr<kge::KgeModel> model = model_ref();
  const uint64_t gen = generation();
  std::lock_guard<std::mutex> lock(ann_mu_);
  // One rebuild in flight: a newer trigger waits the previous build out.
  // This serializes reload-heavy callers behind index builds, which is the
  // price of never holding two build buffers at once; traffic is never
  // blocked — engines fall back to exact scans meanwhile.
  if (ann_rebuild_.joinable()) ann_rebuild_.join();
  // Retire the stale index BEFORE the new one exists: between here and the
  // publish below, drains see null and scan exactly. Engines re-validate
  // the stamp anyway, so this is latency hygiene, not the safety boundary.
  std::atomic_store_explicit(&ann_ptr_,
                             std::shared_ptr<const ann::TailIndex>(),
                             std::memory_order_release);
  if (model == nullptr) return;
  ann_rebuild_ = std::thread([this, model, gen] {
    std::shared_ptr<const ann::TailIndex> index =
        ann::TailIndex::Build(model.get(), bindings_.ann, gen);
    // Publish only while this build's generation is still current; a
    // superseded build is dropped (the next trigger joined us first, so it
    // cannot be overwritten after the fact).
    if (index != nullptr && generation() == gen) {
      std::atomic_store_explicit(&ann_ptr_, std::move(index),
                                 std::memory_order_release);
    }
  });
}

void ServeContext::ReloadModel(std::shared_ptr<kge::KgeModel> model) {
  // Prepare BEFORE publishing: a reader that acquires the new ref the
  // instant it lands must already find it const-thread-safe.
  if (model != nullptr) model->PrepareEval();
  std::atomic_store_explicit(&model_ptr_, std::move(model),
                             std::memory_order_release);
  BumpGeneration();
}

util::Status ServeContext::ReloadModelFromCheckpoint(
    const std::string& path, std::shared_ptr<kge::KgeModel> staging,
    const util::RetryOptions& retry) {
  OPENBG_CHECK(staging != nullptr);
  reload_attempts_.fetch_add(1, std::memory_order_relaxed);
  util::RetryPolicy policy(retry);
  util::RetryPolicy::Outcome outcome = policy.Run([&] {
    kge::TrainerCheckpoint ckpt;  // trainer state is irrelevant to serving
    return kge::LoadCheckpoint(path, staging.get(), &ckpt);
  });
  if (!outcome.ok()) {
    // LoadCheckpoint fails closed (staging untouched on error) and the
    // staging model was never published: generation N keeps serving,
    // cache intact.
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    last_reload_failed_.store(true, std::memory_order_relaxed);
    return outcome.status;
  }
  ReloadModel(std::move(staging));
  reload_successes_.fetch_add(1, std::memory_order_relaxed);
  last_reload_failed_.store(false, std::memory_order_relaxed);
  return util::Status::OK();
}

QueryEngine::QueryEngine(ServeContext* context, EngineOptions options)
    : context_(context), options_(options) {
  OPENBG_CHECK(context_ != nullptr);
  if (options_.num_threads == 0) options_.num_threads = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.max_queue == 0) options_.max_queue = 1;
  cache_ = std::make_unique<ResultCache>(
      std::max<size_t>(1, options_.cache_capacity), kCacheShards);
  for (size_t e = 0; e < kNumEndpoints; ++e) {
    breakers_[e] = std::make_unique<util::CircuitBreaker>(options_.breaker);
  }
  // Publishes at or before the bind-time generation predate every entry
  // this cache will ever hold — nothing to invalidate for them.
  if (auto snap = context_->AcquireSnapshot()) {
    last_synced_gen_.store(snap->generation, std::memory_order_relaxed);
  }
}

void QueryEngine::SyncInvalidations(uint64_t snap_gen) {
  if (!options_.cache_enabled) return;
  rdf::LiveGraph* live = context_->bindings().live;
  if (live == nullptr) return;
  if (snap_gen <= last_synced_gen_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(sync_mu_);
  uint64_t seen = last_synced_gen_.load(std::memory_order_relaxed);
  if (snap_gen <= seen) return;  // another thread synced past us
  std::vector<rdf::PublishRecord> records;
  if (!live->CollectPublishesSince(seen, &records)) {
    // The live graph's bounded history no longer covers (seen, now]: we
    // cannot tell which entries the missed publishes touched. Fall back to
    // the conservative full drop.
    cache_->InvalidateAll(live->generation());
    last_synced_gen_.store(live->generation(), std::memory_order_release);
    return;
  }
  uint64_t max_gen = seen;
  for (rdf::PublishRecord& rec : records) {
    max_gen = std::max(max_gen, rec.generation);
    cache_->InvalidateTouched(rec.generation, std::move(rec.touched));
  }
  last_synced_gen_.store(std::max(max_gen, snap_gen),
                         std::memory_order_release);
}

bool QueryEngine::AdmitOrServeCached(const RequestKey& key, uint64_t fp,
                                     uint64_t gen, Response* resp) {
  util::CircuitBreaker& breaker = this->breaker(key.endpoint);
  if (options_.cache_enabled) {
    std::shared_ptr<const ResultPayload> hit = cache_->Lookup(fp, key, gen);
    if (hit != nullptr) {
      resp->status = ServeStatus::kOk;
      resp->from_cache = true;
      // Cache-only operation while the backing component is broken: the
      // answer is real (previously computed and still valid under the
      // current generation), but flag it so clients know it may outlive
      // the component's freshness guarantees.
      resp->degraded = breaker.state() != util::CircuitBreaker::State::kClosed;
      resp->payload = *hit;
      return true;
    }
  }
  // Overload shedding (the `serve::overload` failpoint forces it): a
  // cached answer above would still have been served — degraded,
  // cache-only operation — but a miss under overload is refused instead
  // of queued.
  if (util::failpoints::Triggered("serve::overload")) {
    resp->status = ServeStatus::kShed;
    return true;
  }
  // Breaker gate: fast-fail misses instead of hammering a component the
  // breaker already decided is broken. An Allow() == true from here on
  // obligates ServeEndpoint to record exactly one outcome.
  if (!breaker.Allow()) {
    resp->status = ServeStatus::kDegraded;
    resp->degraded = true;
    return true;
  }
  return false;
}

template <typename Compute>
Response QueryEngine::ServeEndpoint(const util::Timer& timer, bool valid,
                                    const RequestKey& key,
                                    const rdf::GraphSnapshot* snap,
                                    uint64_t dep_key, Compute&& compute) {
  Response resp;
  if (!valid) {
    resp.status = ServeStatus::kInvalidArgument;
  } else {
    uint64_t fp = Fingerprint(key);
    // The insert epoch is read before compute. For LinkPredictTopK that is
    // before the request queues, so before any drain pins the model; and
    // ReloadModel publishes the model before it bumps the generation. An
    // answer is therefore never stamped with an epoch newer than the model
    // that computed it (an older stamp only turns the entry stale sooner).
    uint64_t gen = context_->generation();
    // Apply every publish our snapshot reflects BEFORE the cache lookup:
    // a hit must never hand back an answer a publish <= snap->generation
    // already invalidated.
    if (snap != nullptr) SyncInvalidations(snap->generation);
    if (!AdmitOrServeCached(key, fp, gen, &resp)) {
      // A corrupt sharded base (lazy verification latched) would make a
      // scan silently return partial answers, so refuse instead — cache
      // hits above still serve, and the breaker learns the component is
      // down. The re-check after the scan catches corruption latched
      // DURING it: the collected answer is then a prefix of the real one.
      auto base_ok = [snap] { return snap == nullptr || snap->BaseOk(); };
      ServeStatus status = ServeStatus::kDegraded;
      if (!util::failpoints::Triggered(
              kComputeFault[static_cast<size_t>(key.endpoint)]) &&
          base_ok()) {
        status = compute(&resp.payload);
        if (status == ServeStatus::kOk && !base_ok()) {
          status = ServeStatus::kDegraded;
        }
      }
      resp.status = status;
      util::CircuitBreaker& breaker = this->breaker(key.endpoint);
      if (status == ServeStatus::kOk) {
        breaker.RecordSuccess();
        if (options_.cache_enabled) {
          cache_->Insert(fp, key, gen,
                         std::make_shared<ResultPayload>(resp.payload),
                         snap != nullptr ? snap->generation : 0,
                         snap != nullptr ? std::vector<uint64_t>{dep_key}
                                         : std::vector<uint64_t>{});
        }
      } else {
        resp.payload = ResultPayload();
        if (status == ServeStatus::kDegraded) {
          resp.degraded = true;
          breaker.RecordFailure();
        } else {
          // Admitted but refused for capacity (queue full, deadline lapsed
          // in the queue): release the admission without an outcome — it
          // says nothing about the component's health.
          breaker.RecordCancel();
        }
      }
    }
  }
  metrics_.Local()->Record(key.endpoint, resp.status, resp.from_cache,
                           timer.Seconds() * 1e6, resp.degraded);
  return resp;
}

Response QueryEngine::LinkPredictTopK(uint32_t h, uint32_t r, size_t k,
                                      uint64_t deadline_us) {
  util::Timer timer;
  std::shared_ptr<kge::KgeModel> model = context_->model_ref();
  const bool valid = model != nullptr && k != 0 && k <= kMaxTopK &&
                     deadline_us <= kMaxDeadlineUs &&
                     h < model->num_entities() && r < model->num_relations();
  if (valid) k = std::min(k, model->num_entities());
  // A model-space answer: no graph snapshot, so no graph dependency — a
  // reload's epoch bump is what retires it.
  return ServeEndpoint(
      timer, valid, RequestKey{Endpoint::kLinkPredictTopK, h, r, k, ""},
      nullptr, 0, [&](ResultPayload* out) {
        PendingTopK req;
        req.h = h;
        req.r = r;
        req.k = k;
        req.has_deadline = deadline_us > 0;
        if (req.has_deadline) {
          req.deadline = Clock::now() + std::chrono::microseconds(deadline_us);
        }
        std::unique_lock<std::mutex> lock(mu_);
        if (pending_.size() >= options_.max_queue) return ServeStatus::kShed;
        pending_.push_back(&req);
        // Callers drain the queue: take a free drain slot while work is
        // queued, else wait for a drain to finish. Every queued request's
        // caller is in this loop and every finished drain wakes them all,
        // so a freed slot is always taken over while work remains.
        for (;;) {
          done_cv_.wait(lock, [this, &req] {
            return req.done || (drainers_ < options_.num_threads &&
                                !pending_.empty());
          });
          if (req.done) break;
          ++drainers_;
          std::vector<PendingTopK*> batch;
          while (!pending_.empty() && batch.size() < options_.max_batch) {
            batch.push_back(pending_.front());
            pending_.pop_front();
          }
          lock.unlock();
          // Fault injection for the deadline tests: stall the drain long
          // enough for queued requests' deadlines to lapse.
          if (util::failpoints::Triggered("serve::stall")) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          ProcessBatch(batch);
          lock.lock();
          for (PendingTopK* done : batch) done->done = true;
          --drainers_;
          done_cv_.notify_all();
        }
        out->topk = std::move(req.topk);
        return req.status;
      });
}

void QueryEngine::ProcessBatch(const std::vector<PendingTopK*>& batch) {
  const uint64_t gen = context_->generation();
  std::shared_ptr<kge::KgeModel> model = context_->model_ref();
  // ANN gate: the index must be stamped with BOTH the generation this
  // batch serves and the exact model instance we pinned. Either check
  // alone is insufficient — generation matches but pointer differs when a
  // drain raced a reload (stale gen read, fresh model), pointer matches
  // but generation differs when the bound model was retrained in place
  // and BumpGeneration re-stamped it. Any mismatch = exact scan; a stale
  // index never scores a new-generation model.
  std::shared_ptr<const ann::TailIndex> ann = context_->ann_ref();
  const bool ann_ok = ann != nullptr && ann->built_for() == model.get() &&
                      ann->model_generation() == gen;
  Clock::time_point now = Clock::now();
  // Coalesce by (h, r): each unique query is scored with one fused
  // scan-and-select pass (kge::TopKTails), and every request sharing it is
  // answered from that pass's top-(max k) — the serving-side analogue of
  // the evaluator's query-batched ranking. std::map keeps the scan order
  // deterministic.
  struct Group {
    size_t k_max = 0;
    std::vector<PendingTopK*> reqs;
  };
  std::map<uint64_t, Group> groups;
  for (PendingTopK* req : batch) {
    if (req->has_deadline && now >= req->deadline) {
      req->status = ServeStatus::kDeadlineExceeded;
      continue;
    }
    Group& g = groups[(static_cast<uint64_t>(req->h) << 32) | req->r];
    g.k_max = std::max(g.k_max, req->k);
    g.reqs.push_back(req);
  }
  for (auto& [hr, group] : groups) {
    uint32_t h = static_cast<uint32_t>(hr >> 32);
    uint32_t r = static_cast<uint32_t>(hr & 0xFFFFFFFFu);
    std::vector<ScoredEntity> top;
    if (ann_ok) {
      ann::SearchStats st;
      ann->SearchTopK(h, r, group.k_max, /*nprobe=*/0, &top, &st);
      ann_queries_.fetch_add(1, std::memory_order_relaxed);
      ann_probed_clusters_.fetch_add(st.probed_clusters,
                                     std::memory_order_relaxed);
      ann_rescored_.fetch_add(st.rescored, std::memory_order_relaxed);
    } else {
      kge::TopKStats st;
      top = kge::TopKTails(*model, h, r, group.k_max, &st);
      exact_queries_.fetch_add(1, std::memory_order_relaxed);
      exact_rescored_.fetch_add(st.rescored, std::memory_order_relaxed);
      if (context_->bindings().ann_enabled) {
        ann_exact_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (PendingTopK* req : group.reqs) {
      req->topk.assign(top.begin(), top.begin() + std::min(req->k, top.size()));
    }
  }
}

Response QueryEngine::EntityLink(std::string_view mention) {
  util::Timer timer;
  const construction::SchemaMapper* mapper = context_->bindings().mapper;
  // Link() is concurrency-safe (the mapper serializes its own stats
  // counters internally), so engines sharing one mapper need no
  // engine-side lock. No graph snapshot: the entry carries no graph
  // dependency.
  return ServeEndpoint(
      timer, mapper != nullptr && mention.size() <= kMaxMentionBytes,
      RequestKey{Endpoint::kEntityLink, 0, 0, 0, std::string(mention)},
      nullptr, 0,
      [&](ResultPayload* out) {
        out->link = mapper->Link(mention);
        return ServeStatus::kOk;
      });
}

Response QueryEngine::Neighbors(rdf::TermId entity, rdf::TermId relation) {
  util::Timer timer;
  std::shared_ptr<const rdf::GraphSnapshot> snap = context_->AcquireSnapshot();
  return ServeEndpoint(
      timer, snap != nullptr && entity != rdf::kInvalidTerm,
      RequestKey{Endpoint::kNeighbors, entity, relation, 0, ""}, snap.get(),
      rdf::EntityDepKey(entity), [&](ResultPayload* payload) {
        std::vector<rdf::Triple>& out = payload->triples;
        snap->ForEachMatchFn(
            rdf::TriplePattern{entity, relation, rdf::TriplePattern::kAny},
            [&out](const rdf::Triple& t) {
              out.push_back(t);
              return true;
            });
        snap->ForEachMatchFn(
            rdf::TriplePattern{rdf::TriplePattern::kAny, relation, entity},
            [&out, entity](const rdf::Triple& t) {
              if (t.s != entity) out.push_back(t);  // self-loops seen above
              return true;
            });
        return ServeStatus::kOk;
      });
}

Response QueryEngine::ConceptsOf(rdf::TermId entity) {
  util::Timer timer;
  const ontology::Ontology* onto = context_->bindings().ontology;
  std::shared_ptr<const rdf::GraphSnapshot> snap = context_->AcquireSnapshot();
  return ServeEndpoint(
      timer, snap != nullptr && onto != nullptr && entity != rdf::kInvalidTerm,
      RequestKey{Endpoint::kConceptsOf, entity, 0, 0, ""}, snap.get(),
      rdf::EntityDepKey(entity), [&](ResultPayload* payload) {
        std::vector<rdf::TermId> properties = {
            onto->applied_time(), onto->related_scene(), onto->about_theme(),
            onto->for_crowd()};
        properties.insert(properties.end(), onto->in_market().begin(),
                          onto->in_market().end());
        std::vector<rdf::Triple>& out = payload->triples;
        for (rdf::TermId prop : properties) {
          snap->ForEachMatchFn(
              rdf::TriplePattern{entity, prop, rdf::TriplePattern::kAny},
              [&out](const rdf::Triple& t) {
                out.push_back(t);
                return true;
              });
        }
        return ServeStatus::kOk;
      });
}

HealthState QueryEngine::ComputeHealth() const {
  HealthState hs;
  using BState = util::CircuitBreaker::State;
  // Model: the LinkPredictTopK breaker is the component's sensor; a
  // serving-survived-but-failed reload also degrades it (we answer, but
  // from the previous parameter generation).
  if (context_->model_ref() == nullptr) {
    hs.model.reason = "no model bound";
  } else {
    switch (breaker(Endpoint::kLinkPredictTopK).state()) {
      case BState::kOpen:
        hs.model.health = Health::kUnhealthy;
        hs.model.reason = "breaker open: scoring unavailable, cache-only";
        break;
      case BState::kHalfOpen:
        hs.model.health = Health::kDegraded;
        hs.model.reason = "breaker half-open: probing recovery";
        break;
      case BState::kClosed:
        if (context_->reload_stats().last_failed) {
          hs.model.health = Health::kDegraded;
          hs.model.reason =
              "last reload failed: serving previous model generation";
        }
        break;
    }
  }
  if (!options_.cache_enabled) {
    hs.cache.health = Health::kDegraded;
    hs.cache.reason = "cache disabled: no fallback during outages";
  }
  rdf::LiveGraph* live = context_->bindings().live;
  if (live == nullptr) {
    hs.live_graph.reason = "static graph (no live layer bound)";
  } else {
    rdf::LiveGraph::StatsSnapshot ls = live->stats();
    if (ls.consecutive_publish_failures >= 3) {
      hs.live_graph.health = Health::kUnhealthy;
      hs.live_graph.reason = util::StrFormat(
          "%llu consecutive publish failures: updates not landing",
          static_cast<unsigned long long>(ls.consecutive_publish_failures));
    } else if (ls.consecutive_publish_failures > 0) {
      hs.live_graph.health = Health::kDegraded;
      hs.live_graph.reason = "recent publish failure";
    }
    size_t lag = live->delta_size();
    if (ls.consecutive_compact_failures >= 3) {
      hs.compaction.health = Health::kUnhealthy;
      hs.compaction.reason = util::StrFormat(
          "%llu consecutive compaction failures, delta at %zu mutations",
          static_cast<unsigned long long>(ls.consecutive_compact_failures),
          lag);
    } else if (ls.consecutive_compact_failures > 0) {
      hs.compaction.health = Health::kDegraded;
      hs.compaction.reason = "recent compaction failure";
    }
  }
  std::shared_ptr<const rdf::GraphSnapshot> snap = context_->AcquireSnapshot();
  util::Status base = snap != nullptr ? snap->BaseStatus() : util::Status::OK();
  if (!base.ok()) {
    hs.base_store.health = Health::kUnhealthy;
    hs.base_store.reason = util::StrFormat(
        "sharded base corrupt (cache-only): %s", base.message().c_str());
  }
  return hs;
}

std::string QueryEngine::MetricsJson() const {
  // One acquire, so the generation and the store/delta blocks agree.
  std::shared_ptr<const rdf::GraphSnapshot> snap = context_->AcquireSnapshot();
  ResultCache::Stats cs = cache_->stats();
  std::string shard_sizes = "[";
  for (size_t i = 0; i < cs.shard_sizes.size(); ++i) {
    shard_sizes += util::StrFormat("%s%zu", i == 0 ? "" : ",",
                                   cs.shard_sizes[i]);
  }
  shard_sizes += "]";
  std::string extra = util::StrFormat(
      ",\"generation\":%llu,\"snapshot_generation\":%llu,\"workers\":%zu,"
      "\"cache\":{\"enabled\":%s,"
      "\"size\":%zu,\"hits\":%llu,\"misses\":%llu,\"collisions\":%llu,"
      "\"stale\":%llu,\"future\":%llu,\"inserts\":%llu,\"evictions\":%llu,"
      "\"invalidated\":%llu,\"dropped_inserts\":%llu,"
      "\"shard_sizes\":%s}",
      static_cast<unsigned long long>(context_->generation()),
      static_cast<unsigned long long>(snap != nullptr ? snap->generation : 1),
      options_.num_threads, options_.cache_enabled ? "true" : "false",
      cache_->size(), static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses),
      static_cast<unsigned long long>(cs.collisions),
      static_cast<unsigned long long>(cs.stale),
      static_cast<unsigned long long>(cs.future),
      static_cast<unsigned long long>(cs.inserts),
      static_cast<unsigned long long>(cs.evictions),
      static_cast<unsigned long long>(cs.invalidated),
      static_cast<unsigned long long>(cs.dropped_inserts),
      shard_sizes.c_str());
  extra += ",\"breakers\":{";
  for (size_t e = 0; e < kNumEndpoints; ++e) {
    const util::CircuitBreaker& b = *breakers_[e];
    util::CircuitBreaker::Stats bs = b.stats();
    extra += util::StrFormat(
        "%s\"%s\":{\"state\":\"%s\",\"allowed\":%llu,\"rejected\":%llu,"
        "\"successes\":%llu,\"failures\":%llu,\"opens\":%llu,"
        "\"closes\":%llu,\"cancels\":%llu}",
        e == 0 ? "" : ",", EndpointName(static_cast<Endpoint>(e)),
        util::CircuitBreaker::StateName(b.state()),
        static_cast<unsigned long long>(bs.allowed),
        static_cast<unsigned long long>(bs.rejected),
        static_cast<unsigned long long>(bs.successes),
        static_cast<unsigned long long>(bs.failures),
        static_cast<unsigned long long>(bs.opens),
        static_cast<unsigned long long>(bs.closes),
        static_cast<unsigned long long>(bs.cancels));
  }
  extra += "}";
  if (rdf::LiveGraph* live = context_->bindings().live; live != nullptr) {
    rdf::LiveGraph::StatsSnapshot ls = live->stats();
    extra += util::StrFormat(
        ",\"live_graph\":{\"publish_retries\":%llu,\"publish_failures\":%llu,"
        "\"compact_retries\":%llu,\"compact_failures\":%llu,"
        "\"inline_fallbacks\":%llu,\"compactions\":%llu,\"delta_size\":%zu}",
        static_cast<unsigned long long>(ls.publish_retries),
        static_cast<unsigned long long>(ls.publish_failures),
        static_cast<unsigned long long>(ls.compact_retries),
        static_cast<unsigned long long>(ls.compact_failures),
        static_cast<unsigned long long>(ls.inline_fallbacks),
        static_cast<unsigned long long>(ls.compactions), live->delta_size());
  }
  if (snap != nullptr && snap->sharded != nullptr) {
    rdf::ShardedStoreStats ss = snap->sharded->Stats();
    extra += util::StrFormat(
        ",\"sharded_store\":{\"num_shards\":%u,\"triples\":%llu,"
        "\"mapped_bytes\":%zu,\"resident_bytes\":%zu,"
        "\"blocks_verified\":%llu,\"blocks_corrupt\":%llu,\"ok\":%s}",
        ss.num_shards, static_cast<unsigned long long>(ss.num_triples),
        ss.mapped_bytes, ss.resident_bytes,
        static_cast<unsigned long long>(ss.blocks_verified),
        static_cast<unsigned long long>(ss.blocks_corrupt),
        ss.ok ? "true" : "false");
  }
  {
    // Per-structure memory accounting next to process RSS, so an operator
    // can tell which structure owns the footprint (and, with a sharded
    // base, confirm RSS stays inside the page-cache budget).
    extra += util::StrFormat(",\"memory\":{\"process_rss_bytes\":%zu",
                             util::ProcessRssBytes());
    if (snap != nullptr && snap->base != nullptr) {
      rdf::TripleStoreMemory m = snap->base->MemoryUsage();
      extra += util::StrFormat(
          ",\"store\":{\"triples_bytes\":%zu,\"dedup_bytes\":%zu,"
          "\"idx_spo_bytes\":%zu,\"idx_pos_bytes\":%zu,"
          "\"idx_osp_bytes\":%zu,\"total_bytes\":%zu}",
          m.triples_bytes, m.dedup_bytes, m.idx_spo_bytes, m.idx_pos_bytes,
          m.idx_osp_bytes, m.total());
    }
    if (context_->bindings().graph != nullptr) {
      extra += util::StrFormat(
          ",\"dict_bytes\":%zu", context_->bindings().graph->dict.MemoryUsage());
    }
    if (snap != nullptr && snap->delta != nullptr) {
      extra +=
          util::StrFormat(",\"delta_bytes\":%zu", snap->delta->MemoryUsage());
    }
    extra += "}";
  }
  {
    AnnStats as = ann_stats();
    std::shared_ptr<const ann::TailIndex> index = context_->ann_ref();
    extra += util::StrFormat(
        ",\"ann\":{\"enabled\":%s,\"index_ready\":%s,\"clusters\":%zu,"
        "\"nprobe\":%zu,\"queries\":%llu,\"probed_clusters\":%llu,"
        "\"rescored\":%llu,\"exact_fallbacks\":%llu}",
        context_->bindings().ann_enabled ? "true" : "false",
        index != nullptr ? "true" : "false",
        index != nullptr ? index->num_clusters() : 0,
        index != nullptr
            ? std::min(index->options().nprobe, index->num_clusters())
            : 0,
        static_cast<unsigned long long>(as.queries),
        static_cast<unsigned long long>(as.probed_clusters),
        static_cast<unsigned long long>(as.rescored),
        static_cast<unsigned long long>(as.exact_fallbacks));
  }
  // Exact scans: rows scored in float, the rest skipped on prefix codes.
  extra += util::StrFormat(
      ",\"exact\":{\"queries\":%llu,\"rescored\":%llu}",
      static_cast<unsigned long long>(
          exact_queries_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          exact_rescored_.load(std::memory_order_relaxed)));
  extra += ",\"health\":" + ComputeHealth().Json();
  return metrics_.SnapshotJson(extra);
}

}  // namespace openbg::serve
