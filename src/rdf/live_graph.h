#ifndef OPENBG_RDF_LIVE_GRAPH_H_
#define OPENBG_RDF_LIVE_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rdf/delta_segment.h"
#include "rdf/sharded_store.h"
#include "rdf/triple_store.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/status.h"

namespace openbg::util {
class ThreadPool;
}  // namespace openbg::util

namespace openbg::rdf {

/// One immutable, self-consistent version of the live graph: a sealed base
/// store plus the delta overlay, stamped with a monotonic generation.
/// Readers acquire a shared_ptr to a snapshot and keep querying it for as
/// long as they like — a concurrent publish or compaction swaps the
/// *handle*, never mutates a published snapshot, so in-flight requests
/// finish on the version they started with (MVCC).
struct GraphSnapshot : QuerySurface<GraphSnapshot> {
  /// Exactly one of `base` / `sharded` is set: an in-memory sealed store or
  /// an out-of-core OBGSNAP3 store. The delta overlay works identically on
  /// either — LiveGraph and the serving layer dispatch through the helpers
  /// below and never care which representation is underneath.
  std::shared_ptr<const TripleStore> base;
  std::shared_ptr<const ShardedStore> sharded;
  std::shared_ptr<const DeltaSegment> delta;  // may be null (= empty)
  uint64_t generation = 1;

  /// Matching triples of the base representation only (no delta). Asserts
  /// an in-memory base is still sealed, so no read takes its index mutex.
  template <typename Fn>
  void BaseForEach(const TriplePattern& pattern, Fn&& fn) const {
    if (sharded != nullptr) {
      sharded->ForEachMatchFn(pattern, std::forward<Fn>(fn));
    } else {
      OPENBG_CHECK(base->IndexesSealed())
          << "serve-path read would trigger a lazy index build; the store "
             "was mutated after LiveGraph sealed it";
      base->ForEachMatchFn(pattern, std::forward<Fn>(fn));
    }
  }

  bool BaseContains(TermId s, TermId p, TermId o) const {
    return sharded != nullptr ? sharded->Contains(s, p, o)
                              : base->Contains(s, p, o);
  }

  size_t BaseSize() const {
    return sharded != nullptr ? sharded->size() : base->size();
  }

  /// True when the base representation is healthy. An in-memory base is
  /// always healthy; a sharded base goes unhealthy when lazy verification
  /// latches corruption — the serving layer degrades instead of answering
  /// from a half-readable store.
  bool BaseOk() const { return sharded == nullptr || sharded->ok(); }

  /// OK, or the sharded base's latched corruption (message: first error).
  util::Status BaseStatus() const {
    return sharded == nullptr ? util::Status::OK() : sharded->status();
  }

  /// Calls `fn` for every live triple matching `pattern`: base triples not
  /// retracted by the delta (index-pruned via the base's PrefixRange), then
  /// delta adds, each in deterministic order. Stops early on false.
  template <typename Fn>
  void ForEachMatchFn(const TriplePattern& pattern, Fn&& fn) const {
    bool stopped = false;
    if (delta == nullptr || delta->num_retracts() == 0) {
      BaseForEach(pattern, [&](const Triple& t) {
        if (!fn(t)) {
          stopped = true;
          return false;
        }
        return true;
      });
    } else {
      BaseForEach(pattern, [&](const Triple& t) {
        if (delta->IsRetracted(t)) return true;
        if (!fn(t)) {
          stopped = true;
          return false;
        }
        return true;
      });
    }
    if (stopped || delta == nullptr) return;
    delta->ForEachAdd(pattern, fn);
  }

  bool Contains(TermId s, TermId p, TermId o) const {
    Triple t{s, p, o};
    if (delta != nullptr && delta->ContainsAdd(t)) return true;
    if (delta != nullptr && delta->IsRetracted(t)) return false;
    return BaseContains(s, p, o);
  }

  /// Live triple count: base minus retracts plus adds.
  size_t size() const {
    size_t n = BaseSize();
    if (delta != nullptr) n = n - delta->num_retracts() + delta->adds().size();
    return n;
  }
};

/// The record a publish leaves behind for the serving layer: which
/// generation it created and which entity dependency keys it touched
/// (sorted; for a compaction, the keys of the adds it folded into the base,
/// whose answers keep their content but change order). LiveGraph retains a
/// bounded history of these so caches can invalidate selectively instead
/// of nuking on every update.
struct PublishRecord {
  uint64_t generation = 0;
  std::vector<uint64_t> touched;  // sorted EntityDepKeys
};

/// A continuously updatable graph serving concurrent readers without ever
/// blocking them: the MVCC/RCU layer the ISSUE's live-update contract
/// specifies.
///
///  * Readers call Acquire() — one atomic shared_ptr load — and query the
///    returned GraphSnapshot for as long as needed. No reader ever takes
///    the publish lock.
///  * Writers call Apply(batch): the batch is normalized into a fresh
///    immutable DeltaSegment layered over the current one, optionally
///    persisted as a write-ahead delta file (util::AtomicFile — crash-safe,
///    fault-injectable), and published by atomically swapping the snapshot
///    handle. Writers serialize among themselves on an internal mutex.
///  * When the delta outgrows `compact_threshold`, the delta is folded into
///    a brand-new sealed base store (on the caller's ThreadPool when one is
///    bound, else inline) and published the same way; old snapshots keep
///    the old base alive via shared ownership.
///
/// Failpoint sites (see util/fault_injection.h):
///   "live::publish"  — fires before anything durable or visible happens;
///                      models a crash at the start of the publish.
///   "live::compact"  — fires at the top of a compaction attempt; models a
///                      transient compaction failure (allocation pressure,
///                      a future spill-to-disk error).
///   plus the "atomic_file::{write,fsync,rename}" sites inside the delta
///   file write. A failure at ANY of these leaves the in-memory snapshot
///   and the on-disk state at the previous generation — tested property.
///
/// Fault tolerance (DESIGN.md §12): the WAL write and every compaction
/// attempt run under `Options::retry` (capped exponential backoff with
/// decorrelated jitter), so a *transient* fault — a failpoint armed with
/// `fire_count = 1`, a briefly-full disk — is absorbed without the caller
/// ever seeing an error. Only when the policy exhausts does Apply() return
/// the fault, and a background compaction that exhausts its retries clears
/// its pending flag and is re-scheduled by the next Apply() whose delta
/// still exceeds the threshold — compaction can be delayed by faults but
/// never permanently wedged (tested property).
///
/// Durability contract with `delta_dir` set: the base is whatever snapshot
/// file the caller manages (rdf::SaveSnapshot); every successful Apply
/// leaves `delta-<generation>.obgd` in `delta_dir`. Recovery =
/// LoadSnapshot(base) + ReplayDeltaDir(), which replays batches in
/// generation order and stops cleanly at the first gap or unreadable file.
class LiveGraph {
 public:
  struct Options {
    /// Directory for write-ahead delta files; empty = in-memory only.
    std::string delta_dir;
    /// Fold the delta into the base once it carries at least this many
    /// mutations; 0 = only on explicit Compact().
    size_t compact_threshold = 0;
    /// Pool for background compaction; null = compact inline in Apply.
    util::ThreadPool* pool = nullptr;
    /// Generation of the wrapped base (used when recovering: pass the
    /// generation the replayed state reached). Defaults to 1.
    uint64_t base_generation = 1;
    /// Retry policy for the write-ahead delta write and for compaction
    /// attempts. The defaults absorb a single transient fault with sub-ms
    /// backoff; tests inject a FakeClock so nothing actually sleeps.
    util::RetryOptions retry;
    /// Bound on queued background-compaction tasks handed to the pool
    /// (TryEnqueue). When the pool is saturated past this bound the
    /// compaction runs inline in Apply instead of being dropped.
    size_t max_queued_compactions = 4;
  };

  /// Point-in-time fault-tolerance counters (all monotonic except
  /// `consecutive_compact_failures`, which resets on success). The health
  /// model in serve/health.h folds these into the live-graph component.
  struct StatsSnapshot {
    uint64_t publish_retries = 0;    ///< WAL write attempts beyond the first
    uint64_t publish_failures = 0;   ///< Apply() calls that exhausted retries
    uint64_t consecutive_publish_failures = 0;
    uint64_t compact_retries = 0;    ///< compaction attempts beyond the first
    uint64_t compact_failures = 0;   ///< compaction runs that exhausted retries
    uint64_t consecutive_compact_failures = 0;
    uint64_t inline_fallbacks = 0;   ///< pool saturated -> compacted inline
    uint64_t compactions = 0;        ///< successful (non-empty) compactions
  };

  /// Wraps `base` (sealed on construction if it is not already). Two
  /// overloads instead of one defaulted-Options parameter: GCC rejects a
  /// default argument whose nested-aggregate initializers are still
  /// pending inside the enclosing class (PR c++/88165).
  explicit LiveGraph(std::shared_ptr<const TripleStore> base);
  LiveGraph(std::shared_ptr<const TripleStore> base, Options options);

  /// Wraps an out-of-core sharded base. The delta/WAL/publish machinery is
  /// identical; the one difference is compaction, which would require
  /// rebuilding OBGSNAP3 segments and is deliberately not folded in here —
  /// Compact() returns Unimplemented and threshold-triggered compaction is
  /// skipped (rebuild offline via ShardedStoreBuilder instead).
  explicit LiveGraph(std::shared_ptr<const ShardedStore> base);
  LiveGraph(std::shared_ptr<const ShardedStore> base, Options options);

  /// Convenience for callers that keep the store alive themselves (e.g. a
  /// core::OpenBG-owned graph): wraps a non-owning alias.
  static std::shared_ptr<const TripleStore> Alias(const TripleStore* store) {
    return {std::shared_ptr<const TripleStore>(), store};
  }

  ~LiveGraph();

  LiveGraph(const LiveGraph&) = delete;
  LiveGraph& operator=(const LiveGraph&) = delete;

  /// Current snapshot handle: one atomic load, never blocks, never null.
  std::shared_ptr<const GraphSnapshot> Acquire() const {
    return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
  }

  uint64_t generation() const { return Acquire()->generation; }

  /// Applies and publishes one batch (see class comment). On failure the
  /// current snapshot is untouched and no delta file exists for the
  /// attempted generation (a corrupt sharded base fails with its error).
  util::Status Apply(const UpdateBatch& batch);

  /// Folds the current delta into a fresh sealed base and publishes the
  /// compacted snapshot. Content is unchanged, but a folded add moves into
  /// the base's sort order, so the touched set is the subject and object
  /// keys of the folded adds; caches keep every other entry. No-op when
  /// the delta is already empty.
  /// Runs under `Options::retry`; returns the last error on exhaustion
  /// (the snapshot stays at the pre-compaction generation).
  util::Status Compact();

  /// Fault-tolerance counters; safe to call from any thread.
  StatsSnapshot stats() const;

  /// Size of the current delta overlay (mutations not yet folded into the
  /// base). The health model reads this as compaction lag.
  size_t delta_size() const {
    std::shared_ptr<const GraphSnapshot> snap = Acquire();
    return snap->delta == nullptr ? 0 : snap->delta->size();
  }

  /// Blocks until any scheduled background compaction has finished. Test
  /// and shutdown hook; cheap when nothing is pending.
  void WaitForCompaction();

  /// Copies every retained publish record with generation > `since_gen`
  /// into `*out` (ascending). Returns false when the history no longer
  /// reaches back to `since_gen` — the caller must invalidate everything.
  bool CollectPublishesSince(uint64_t since_gen,
                             std::vector<PublishRecord>* out) const;

  /// Retained publish history bound (records, not generations).
  static constexpr size_t kMaxHistory = 64;

 private:
  // Stamps max(1, base_generation) on the first snapshot and stores it.
  void Start(std::shared_ptr<GraphSnapshot> first);
  void Publish(std::shared_ptr<const GraphSnapshot> snap,
               std::vector<uint64_t> touched);
  util::Status CompactOnceLocked();   // requires publish_mu_; one attempt
  util::Status CompactWithRetryLocked();  // requires publish_mu_
  void MaybeScheduleCompaction(size_t delta_size);
  void RunBackgroundCompaction();

  Options options_;
  // The RCU handle. Swapped with atomic_store (publish side, under
  // publish_mu_); read with atomic_load (Acquire). std::atomic<shared_ptr>
  // is avoided for breadth of toolchain support; the free-function atomics
  // on shared_ptr are the C++17-portable spelling.
  std::shared_ptr<const GraphSnapshot> snapshot_;

  mutable std::mutex publish_mu_;  // serializes writers (Apply/Compact)

  mutable std::mutex history_mu_;
  std::deque<PublishRecord> history_;

  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool compact_pending_ = false;

  // Fault-tolerance counters (see StatsSnapshot).
  std::atomic<uint64_t> publish_retries_{0};
  std::atomic<uint64_t> publish_failures_{0};
  std::atomic<uint64_t> consecutive_publish_failures_{0};
  std::atomic<uint64_t> compact_retries_{0};
  std::atomic<uint64_t> compact_failures_{0};
  std::atomic<uint64_t> consecutive_compact_failures_{0};
  std::atomic<uint64_t> inline_fallbacks_{0};
  std::atomic<uint64_t> compactions_{0};
};

/// Knobs for ReplayDeltaDir recovery behaviour.
struct ReplayOptions {
  /// Strict mode (default, false): a delta file that exists but fails
  /// validation aborts the replay with its error — fail closed.
  /// Quarantine mode (true): the corrupt (or mis-stamped) file is renamed
  /// to `<path>.quarantine`, the replay stops cleanly at the last good
  /// generation, and the overall status is OK — serve what survived, keep
  /// the evidence aside for forensics instead of blocking startup.
  bool quarantine_corrupt = false;
  /// Also remove orphaned `*.tmp` files in `dir` (util::RemoveStaleTemps)
  /// before replaying. Safe: recovery time means no live writer.
  bool sweep_stale_temps = false;
  /// When non-null, receives the path each quarantined file was moved to.
  std::vector<std::string>* quarantined = nullptr;
};

/// Replays every `delta-<gen>.obgd` file in `dir` (generation order,
/// starting at `base_generation + 1`) into `store`, stopping cleanly at the
/// first missing generation. Returns the generation reached in
/// `*recovered_generation`. A file that exists but fails validation
/// (truncated/corrupt — a torn write that AtomicFile semantics make
/// impossible, but disks can still rot) aborts the replay with that error,
/// leaving `store` at the previously replayed generation — unless
/// `options.quarantine_corrupt` is set (see ReplayOptions).
util::Status ReplayDeltaDir(const std::string& dir, uint64_t base_generation,
                            TripleStore* store, uint64_t* recovered_generation,
                            const ReplayOptions& options = {});

/// The delta file name for `generation` inside `dir`.
std::string DeltaFilePath(const std::string& dir, uint64_t generation);

}  // namespace openbg::rdf

#endif  // OPENBG_RDF_LIVE_GRAPH_H_
