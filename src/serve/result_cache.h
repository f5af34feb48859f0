#ifndef OPENBG_SERVE_RESULT_CACHE_H_
#define OPENBG_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/types.h"

namespace openbg::serve {

/// Sharded LRU cache from request fingerprint to computed result payload.
///
/// Keying: the 64-bit fingerprint selects the shard and is the hash-map
/// key; the full RequestKey is stored alongside the payload and compared on
/// every lookup, so two requests whose fingerprints collide can never read
/// each other's answers — a collision behaves as a miss, and an insert
/// under a colliding fingerprint evicts the previous occupant (last writer
/// wins; correctness never depends on the fingerprint being unique).
///
/// Invalidation is two-tier, matching the live-graph MVCC contract
/// (DESIGN.md §11):
///
///  * **Epoch** (coarse, O(1)): every entry is stamped with the cache
///    epoch the engine passed at insert time — bumped only by full
///    invalidations (model reload, explicit BumpGeneration). A lookup
///    under a NEWER epoch lazily erases the entry; a lookup under an
///    OLDER epoch (a reader still pinned to the previous epoch during a
///    mixed-epoch window) is a plain miss that must NOT erase — the entry
///    belongs to the future and destroying it would let lagging readers
///    wipe out freshly computed answers.
///
///  * **Dependency fingerprints** (selective): every entry carries the
///    sorted SplitMix64 dependency keys it was computed from (touched
///    entities / (h, r) query keys) plus the snapshot generation it was
///    computed at. A delta publish calls InvalidateTouched with the
///    batch's touched set: only entries whose dependency keys intersect it
///    are erased, so a small update leaves the rest of the cache hot.
///    Each invalidation is also recorded in a bounded history ring;
///    Insert() checks an incoming entry's (generation, deps) against every
///    invalidation published after it was computed and refuses the insert
///    on intersection — closing the race where an in-flight request
///    computed against snapshot N lands its answer after the publish of
///    N+1 already swept the cache.
///
/// Thread-safety: each shard has its own mutex; operations on different
/// shards never contend. The invalidation history has a dedicated mutex
/// touched only on the miss/insert path and at publish time. Stats
/// counters are relaxed atomics.
class ResultCache {
 public:
  /// `capacity` is the total entry budget distributed across `num_shards`
  /// so the per-shard capacities sum to EXACTLY `capacity` (shards keep at
  /// least one slot each; the shard count is rounded to a power of two and
  /// shrunk if the budget cannot feed every shard). The old ceil-rounded
  /// split let total live entries exceed the budget by up to
  /// `num_shards - 1` entries.
  ResultCache(size_t capacity, size_t num_shards);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the payload cached for (`fp`, `key`) at cache epoch `epoch`,
  /// or nullptr on miss (absent fingerprint, full-key mismatch, stale
  /// epoch, or an entry from a future epoch). A hit refreshes the entry's
  /// LRU position.
  std::shared_ptr<const ResultPayload> Lookup(uint64_t fp,
                                              const RequestKey& key,
                                              uint64_t epoch);

  /// Inserts (or replaces) the payload for (`fp`, `key`) at cache epoch
  /// `epoch`, evicting the shard's least-recently-used entry when full.
  /// `computed_gen` is the snapshot generation the answer was computed
  /// from and `deps` its sorted dependency keys; an entry whose deps
  /// intersect an invalidation published after `computed_gen` is refused
  /// (counted in Stats::dropped_inserts). Entries with empty deps are
  /// never selectively invalidated (only the epoch retires them).
  void Insert(uint64_t fp, const RequestKey& key, uint64_t epoch,
              std::shared_ptr<const ResultPayload> payload,
              uint64_t computed_gen = 0, std::vector<uint64_t> deps = {});

  /// Publish-side selective invalidation: erases every entry whose
  /// dependency keys intersect `touched` (sorted), records the
  /// (generation, touched) pair in the history ring for Insert's race
  /// check, and returns the number of entries erased. An empty `touched`
  /// erases nothing but still advances the history.
  size_t InvalidateTouched(uint64_t publish_gen,
                           std::vector<uint64_t> touched);

  /// Conservative fallback when the publish history needed for selective
  /// invalidation is gone (the engine fell more than LiveGraph::kMaxHistory
  /// publishes behind): drops every entry and refuses inserts computed
  /// before `publish_gen`.
  void InvalidateAll(uint64_t publish_gen);

  /// Total live entries across shards (approximate under concurrency);
  /// never exceeds the construction-time capacity.
  size_t size() const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;       // absent fingerprint
    uint64_t collisions = 0;   // fingerprint present, full key differed
    uint64_t stale = 0;        // entry from an older epoch, lazily erased
    uint64_t future = 0;       // entry from a newer epoch (miss, kept)
    uint64_t inserts = 0;
    uint64_t evictions = 0;        // LRU evictions (not replacements)
    uint64_t invalidated = 0;      // erased by InvalidateTouched
    uint64_t dropped_inserts = 0;  // refused: computed pre-invalidation
    std::vector<size_t> shard_sizes;    // live entries per shard
    std::vector<size_t> shard_capacity; // budget per shard (sums to total)
  };
  Stats stats() const;

 private:
  struct Entry {
    uint64_t fp = 0;
    RequestKey key;
    uint64_t epoch = 0;
    uint64_t computed_gen = 0;
    std::vector<uint64_t> deps;  // sorted dependency keys
    std::shared_ptr<const ResultPayload> payload;
  };

  struct Shard {
    std::mutex mu;
    size_t capacity = 0;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
  };

  struct InvalidationRecord {
    uint64_t gen = 0;
    std::vector<uint64_t> touched;  // sorted
  };

  Shard& ShardFor(uint64_t fp) {
    return *shards_[(fp >> 17) & shard_mask_];  // high-ish bits: the low
  }                                             // bits feed the hash map

  // True iff inserting an entry computed at `computed_gen` with `deps`
  // would resurrect an answer some later publish already invalidated.
  bool KilledByLaterPublish(uint64_t computed_gen,
                            const std::vector<uint64_t>& deps) const;

  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  static constexpr size_t kMaxInvalidationHistory = 64;
  mutable std::mutex history_mu_;
  std::deque<InvalidationRecord> history_;
  // Inserts computed at or before this generation can no longer be proven
  // safe (their invalidation records were evicted, or InvalidateAll ran).
  uint64_t insert_floor_gen_ = 0;

  mutable std::atomic<uint64_t> hits_{0}, misses_{0}, collisions_{0},
      stale_{0}, future_{0}, inserts_{0}, evictions_{0}, invalidated_{0},
      dropped_inserts_{0};
};

}  // namespace openbg::serve

#endif  // OPENBG_SERVE_RESULT_CACHE_H_
