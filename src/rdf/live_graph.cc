#include "rdf/live_graph.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace openbg::rdf {

namespace {

// Materializes base + delta into a fresh, unsealed store: the base triples
// the delta does not retract, then the delta's adds.
TripleStore Fold(const TripleStore& base, const DeltaSegment& delta) {
  TripleStore folded;
  for (const Triple& t : base.triples()) {
    if (!delta.IsRetracted(t)) folded.Add(t);
  }
  for (const Triple& t : delta.adds()) folded.Add(t);
  return folded;
}

}  // namespace

LiveGraph::LiveGraph(std::shared_ptr<const TripleStore> base)
    : LiveGraph(std::move(base), Options()) {}

LiveGraph::LiveGraph(std::shared_ptr<const TripleStore> base, Options options)
    : options_(std::move(options)) {
  OPENBG_CHECK(base != nullptr);
  // The snapshot contract requires lock-free base reads on every query
  // thread; seal now, before the handle is ever visible to a reader.
  base->SealIndexes();
  auto first = std::make_shared<GraphSnapshot>();
  first->base = std::move(base);
  Start(std::move(first));
}

LiveGraph::LiveGraph(std::shared_ptr<const ShardedStore> base)
    : LiveGraph(std::move(base), Options()) {}

LiveGraph::LiveGraph(std::shared_ptr<const ShardedStore> base, Options options)
    : options_(std::move(options)) {
  OPENBG_CHECK(base != nullptr);
  // An OBGSNAP3 store is sealed by construction; nothing to seal.
  auto first = std::make_shared<GraphSnapshot>();
  first->sharded = std::move(base);
  Start(std::move(first));
}

void LiveGraph::Start(std::shared_ptr<GraphSnapshot> first) {
  first->generation = std::max<uint64_t>(1, options_.base_generation);
  std::atomic_store_explicit(
      &snapshot_, std::shared_ptr<const GraphSnapshot>(std::move(first)),
      std::memory_order_release);
}

LiveGraph::~LiveGraph() { WaitForCompaction(); }

void LiveGraph::Publish(std::shared_ptr<const GraphSnapshot> snap,
                        std::vector<uint64_t> touched) {
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    history_.push_back(PublishRecord{snap->generation, std::move(touched)});
    while (history_.size() > kMaxHistory) history_.pop_front();
  }
  // The swap itself: after this store, every new Acquire sees the new
  // generation; existing readers keep their shared_ptr to the old one.
  std::atomic_store_explicit(&snapshot_, std::move(snap),
                             std::memory_order_release);
}

util::Status LiveGraph::Apply(const UpdateBatch& batch) {
  if (batch.empty()) return util::Status::OK();
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::shared_ptr<const GraphSnapshot> cur = Acquire();
  // Simulated crash at the top of the publish: nothing durable, nothing
  // visible — the previous generation stays current.
  if (util::failpoints::Triggered("live::publish")) {
    return util::Status::Internal("live::publish failpoint fired");
  }
  // A corrupt sharded base answers Contains() false for every triple, which
  // would mis-normalize the batch. Check before Build and after it: lazy
  // verification can latch inside Build's own Contains calls.
  OPENBG_RETURN_NOT_OK(cur->BaseStatus());
  util::Result<std::shared_ptr<const DeltaSegment>> next = DeltaSegment::Build(
      cur->delta.get(), batch,
      [&cur](const Triple& t) { return cur->BaseContains(t.s, t.p, t.o); });
  if (!next.ok()) return next.status();
  OPENBG_RETURN_NOT_OK(cur->BaseStatus());
  uint64_t next_gen = cur->generation + 1;
  if (!options_.delta_dir.empty()) {
    // Write-ahead: the delta file must be durably committed before the
    // in-memory swap. AtomicFile's own failpoints (write/fsync/rename)
    // model a crash anywhere inside; on any failure the target path does
    // not exist, so each retry (and recovery, if the retries exhaust)
    // starts from exactly the previous generation. Backoff runs under
    // publish_mu_ — acceptable because the policy's budget is sub-ms by
    // default and readers never take this lock.
    util::RetryPolicy policy(options_.retry);
    util::RetryPolicy::Outcome outcome = policy.Run([&] {
      return SaveDeltaBatch(batch, next_gen,
                            DeltaFilePath(options_.delta_dir, next_gen));
    });
    if (outcome.attempts > 1) {
      publish_retries_.fetch_add(static_cast<uint64_t>(outcome.attempts - 1),
                                 std::memory_order_relaxed);
    }
    if (!outcome.ok()) {
      publish_failures_.fetch_add(1, std::memory_order_relaxed);
      consecutive_publish_failures_.fetch_add(1, std::memory_order_relaxed);
      return outcome.status;
    }
    consecutive_publish_failures_.store(0, std::memory_order_relaxed);
  }
  auto snap = std::make_shared<GraphSnapshot>(*cur);
  snap->delta = next.value();
  snap->generation = next_gen;
  size_t delta_size = next.value()->size();
  Publish(std::move(snap), TouchedKeys(batch));
  MaybeScheduleCompaction(delta_size);
  return util::Status::OK();
}

util::Status LiveGraph::CompactOnceLocked() {
  std::shared_ptr<const GraphSnapshot> cur = Acquire();
  if (cur->delta == nullptr || cur->delta->empty()) return util::Status::OK();
  if (cur->base == nullptr) {
    // Folding a delta into OBGSNAP3 segments means re-encoding shard files;
    // that is an offline rebuild (ShardedStoreBuilder), not an in-process
    // compaction. The delta stays as the overlay — correct, just unfolded.
    return util::Status::Unimplemented(
        "compaction over a sharded base: rebuild the store offline");
  }
  // Transient-compaction-failure model (allocation pressure, a future
  // spill-to-disk error). Fires before anything is built or published, so
  // a failed attempt leaves the snapshot untouched and fully retryable.
  if (util::failpoints::Triggered("live::compact")) {
    return util::Status::Internal("live::compact failpoint fired");
  }
  // Materialize base+delta into a fresh store. Old snapshots keep the old
  // base alive through shared ownership; new readers get an empty delta.
  const DeltaSegment& delta = *cur->delta;
  auto snap = std::make_shared<GraphSnapshot>();
  snap->base = std::make_shared<TripleStore>(Fold(*cur->base, delta));
  snap->base->SealIndexes();
  snap->generation = cur->generation + 1;
  // Content is identical to the pre-compaction snapshot, but order is not:
  // a folded add moves from after the base matches into its sorted place.
  // Only answers that contain an add change bytes, so publish exactly the
  // keys of the adds' subjects and objects; every other entry stays cached.
  UpdateBatch folded;
  folded.adds = delta.adds();
  Publish(std::move(snap), TouchedKeys(folded));
  return util::Status::OK();
}

util::Status LiveGraph::CompactWithRetryLocked() {
  std::shared_ptr<const GraphSnapshot> cur = Acquire();
  if (cur->delta == nullptr || cur->delta->empty()) return util::Status::OK();
  util::RetryPolicy policy(options_.retry);
  util::RetryPolicy::Outcome outcome =
      policy.Run([this] { return CompactOnceLocked(); });
  if (outcome.attempts > 1) {
    compact_retries_.fetch_add(static_cast<uint64_t>(outcome.attempts - 1),
                               std::memory_order_relaxed);
  }
  if (!outcome.ok()) {
    compact_failures_.fetch_add(1, std::memory_order_relaxed);
    consecutive_compact_failures_.fetch_add(1, std::memory_order_relaxed);
    return outcome.status;
  }
  consecutive_compact_failures_.store(0, std::memory_order_relaxed);
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return util::Status::OK();
}

util::Status LiveGraph::Compact() {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return CompactWithRetryLocked();
}

void LiveGraph::MaybeScheduleCompaction(size_t delta_size) {
  // Called with publish_mu_ held.
  if (options_.compact_threshold == 0 ||
      delta_size < options_.compact_threshold) {
    return;
  }
  if (Acquire()->base == nullptr) return;  // sharded base: no auto-compaction
  if (options_.pool == nullptr) {
    CompactWithRetryLocked();  // retried next Apply if it failed
    return;
  }
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    if (compact_pending_) return;  // one in flight is enough
    compact_pending_ = true;
  }
  // Bounded admission: a saturated pool must not silently drop a scheduled
  // compaction (the pending flag would stay set and nothing would ever
  // clear it). On rejection, fall back to compacting inline — we already
  // hold publish_mu_, so this is safe, just synchronous.
  bool enqueued = options_.pool->TryEnqueue([this] { RunBackgroundCompaction(); },
                                            options_.max_queued_compactions);
  if (!enqueued) {
    inline_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    CompactWithRetryLocked();
    std::lock_guard<std::mutex> lock(compact_mu_);
    compact_pending_ = false;
    compact_cv_.notify_all();
  }
}

void LiveGraph::RunBackgroundCompaction() {
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    // On retry exhaustion the status is dropped here by design: the
    // pending flag is cleared below, so the next Apply whose delta still
    // exceeds the threshold re-schedules — a faulty compaction is delayed,
    // never wedged. The failure itself is visible through stats().
    CompactWithRetryLocked();
  }
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compact_pending_ = false;
    // Notify under the lock: a waiter (possibly ~LiveGraph) cannot
    // observe pending == false and destroy the condition variable until
    // this task releases compact_mu_, which is after the notify.
    compact_cv_.notify_all();
  }
}

LiveGraph::StatsSnapshot LiveGraph::stats() const {
  StatsSnapshot s;
  s.publish_retries = publish_retries_.load(std::memory_order_relaxed);
  s.publish_failures = publish_failures_.load(std::memory_order_relaxed);
  s.consecutive_publish_failures =
      consecutive_publish_failures_.load(std::memory_order_relaxed);
  s.compact_retries = compact_retries_.load(std::memory_order_relaxed);
  s.compact_failures = compact_failures_.load(std::memory_order_relaxed);
  s.consecutive_compact_failures =
      consecutive_compact_failures_.load(std::memory_order_relaxed);
  s.inline_fallbacks = inline_fallbacks_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  return s;
}

void LiveGraph::WaitForCompaction() {
  std::unique_lock<std::mutex> lock(compact_mu_);
  compact_cv_.wait(lock, [this] { return !compact_pending_; });
}

bool LiveGraph::CollectPublishesSince(uint64_t since_gen,
                                      std::vector<PublishRecord>* out) const {
  std::lock_guard<std::mutex> lock(history_mu_);
  if (!history_.empty() && history_.front().generation > since_gen + 1) {
    // The record for since_gen+1 has been evicted: we cannot prove what
    // those publishes touched.
    return false;
  }
  for (const PublishRecord& rec : history_) {
    if (rec.generation > since_gen) out->push_back(rec);
  }
  return true;
}

std::string DeltaFilePath(const std::string& dir, uint64_t generation) {
  return util::StrFormat("%s/delta-%012llu.obgd", dir.c_str(),
                         static_cast<unsigned long long>(generation));
}

namespace {

// Moves a corrupt delta file to `<path>.quarantine` so replay can continue
// past it while the evidence survives for forensics. Rename over unlink:
// losing the bytes would make the corruption undiagnosable.
util::Status QuarantineFile(const std::string& path,
                            const ReplayOptions& options) {
  std::string dest = path + ".quarantine";
  if (std::rename(path.c_str(), dest.c_str()) != 0) {
    return util::Status::IoError("cannot quarantine " + path);
  }
  OPENBG_LOG(Warning) << "quarantined corrupt delta file " << path << " -> "
                      << dest;
  if (options.quarantined != nullptr) {
    options.quarantined->push_back(std::move(dest));
  }
  return util::Status::OK();
}

}  // namespace

util::Status ReplayDeltaDir(const std::string& dir, uint64_t base_generation,
                            TripleStore* store, uint64_t* recovered_generation,
                            const ReplayOptions& options) {
  OPENBG_CHECK(store != nullptr);
  if (options.sweep_stale_temps) util::RemoveStaleTemps(dir);
  uint64_t gen = base_generation;
  std::vector<UpdateBatch> batches;
  for (;;) {
    std::string path = DeltaFilePath(dir, gen + 1);
    if (!util::FileExists(path)) break;  // clean end of the delta chain
    UpdateBatch batch;
    uint64_t file_gen = 0;
    util::Status s = LoadDeltaBatch(path, &batch, &file_gen);
    if (s.ok() && file_gen != gen + 1) {
      s = util::Status::IoError(
          util::StrFormat("delta file %s stamped generation %llu, expected "
                          "%llu",
                          path.c_str(),
                          static_cast<unsigned long long>(file_gen),
                          static_cast<unsigned long long>(gen + 1)));
    }
    if (!s.ok()) {
      // Strict mode: fail closed at the last good generation. Quarantine
      // mode: move the bad file aside and stop the chain here — everything
      // after it would have a generation gap anyway, and serving the last
      // good generation beats refusing to start.
      if (!options.quarantine_corrupt) return s;
      OPENBG_RETURN_NOT_OK(QuarantineFile(path, options));
      break;
    }
    batches.push_back(std::move(batch));
    ++gen;
  }
  if (!batches.empty()) {
    // Retracts cannot be applied in place (TripleStore is append-only), so
    // fold base + batches into the final triple set and rebuild.
    std::shared_ptr<const DeltaSegment> delta;
    for (const UpdateBatch& batch : batches) {
      util::Result<std::shared_ptr<const DeltaSegment>> next =
          DeltaSegment::Build(delta.get(), batch, *store);
      if (!next.ok()) return next.status();
      delta = next.value();
    }
    *store = Fold(*store, *delta);
  }
  if (recovered_generation != nullptr) *recovered_generation = gen;
  return util::Status::OK();
}

}  // namespace openbg::rdf
