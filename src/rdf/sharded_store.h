#ifndef OPENBG_RDF_SHARDED_STORE_H_
#define OPENBG_RDF_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rdf/segment_codec.h"
#include "rdf/triple_store.h"
#include "util/mapped_file.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace openbg::rdf {

/// Out-of-core, read-only triple store: the OBGSNAP3 on-disk form of a
/// sealed graph, hash-partitioned into shards whose SPO/POS/OSP indexes are
/// delta-varint-compressed block segments (segment_codec.h) inside one
/// memory-mapped file per shard. Open is zero-copy — a manifest parse plus
/// one mmap per shard — and pages fault in lazily, so a graph 10× larger
/// than RAM serves point queries inside a fixed memory budget (DESIGN.md
/// §14).
///
/// Each triple's SPO entry lives in the shard of its subject and its POS
/// and OSP entries in the shard of its object. Query surface and iteration
/// order mirror TripleStore exactly: a pattern whose chosen index has its
/// routing term bound — (s,?,?), (s,p,?), (s,p,o) on SPO; (?,p,o),
/// (s,?,o), (?,?,o) on POS/OSP — streams from the single owning shard;
/// (?,p,?) and (?,?,?) fan out across shards (on the optional ThreadPool,
/// with per-shard affinity) and merge serially in the chosen order's global
/// sort order. The one documented deviation: the fully unbound pattern
/// iterates in global SPO order, not insertion order (an on-disk store has
/// no insertion log).
///
/// Durability contract matches OBGSNAP1: every open validates manifest,
/// shard headers and TOCs (CRC-guarded, TOC at end of file so truncation
/// anywhere is caught), and Verify::kEager additionally CRCs every segment
/// — any flipped bit refuses the whole store with no partial state.
/// Verify::kOnFirstUse defers payload CRCs to the first touch of each
/// block; a mismatch latches the store corrupt (ok() == false), aborts the
/// scan, and every later read keeps failing — fail-closed either way, the
/// lazy mode just moves detection from open time to first-read time.

/// Shard routing: SPO entries go to ShardOf(s), POS and OSP entries to
/// ShardOf(o).
inline uint32_t ShardOf(TermId id, uint32_t num_shards) {
  return static_cast<uint32_t>(util::SplitMix64(id) % num_shards);
}

/// Options for writing an OBGSNAP3 store.
struct ShardedBuildOptions {
  uint32_t num_shards = 16;
  /// Keys per compressed block; smaller blocks mean finer lazy-verify and
  /// lookup granularity at slightly worse compression.
  size_t block_size = kDefaultBlockSize;
};

/// Options for opening an OBGSNAP3 store.
struct ShardedOpenOptions {
  enum class Verify {
    kEager,      ///< CRC every segment at open; corruption refuses to open
    kOnFirstUse  ///< CRC each block on first touch; corruption latches ok()=false
  };
  Verify verify = Verify::kEager;
  /// Cross-shard scans fan out here (one task per shard); null runs them
  /// inline on the calling thread.
  util::ThreadPool* pool = nullptr;
};

/// Streaming writer: Add() spills each fixed-width triple record twice, into
/// its subject shard's and its object shard's temp files, so peak build
/// memory is ONE spill's triples (plus small buffers), never the whole
/// graph. Finish() sorts, dedups and encodes each shard (AtomicFile per
/// shard file), then writes the manifest LAST — a crash at any point leaves
/// no manifest and therefore no openable store.
class ShardedStoreBuilder {
 public:
  /// Creates `dir` if needed; check status() before Add.
  ShardedStoreBuilder(std::string dir, ShardedBuildOptions options = {});
  ~ShardedStoreBuilder();

  ShardedStoreBuilder(const ShardedStoreBuilder&) = delete;
  ShardedStoreBuilder& operator=(const ShardedStoreBuilder&) = delete;

  const util::Status& status() const { return status_; }

  /// Buffers one triple (duplicates fold away at Finish). Errors are
  /// sticky: after a failed spill write, every later call fails fast.
  util::Status Add(TermId s, TermId p, TermId o);
  util::Status Add(const Triple& t) { return Add(t.s, t.p, t.o); }

  /// Encodes and publishes the store. No Add after Finish.
  util::Status Finish();

 private:
  // Spill i < num_shards is shard i's subject side; spill num_shards + i
  // its object side.
  util::Status FlushSpill(uint32_t spill);
  util::Status LoadSpill(uint32_t spill, std::vector<SegmentKey>* keys);
  util::Status EncodeShard(uint32_t shard, uint64_t* spo_count,
                           uint64_t* obj_count, uint64_t* file_size);

  std::string dir_;
  ShardedBuildOptions options_;
  util::Status status_;
  bool finished_ = false;
  std::vector<std::string> spill_buffers_;  // per spill, 12B SPO records
  std::vector<int> spill_fds_;              // lazily opened spill files
};

/// Convenience: writes `store`'s triples as an OBGSNAP3 store at `dir`.
util::Status BuildShardedStore(const TripleStore& store,
                               const std::string& dir,
                               ShardedBuildOptions options = {});

/// Point-in-time observability counters (MetricsJson "sharded_store").
struct ShardedStoreStats {
  uint32_t num_shards = 0;
  uint64_t num_triples = 0;
  size_t mapped_bytes = 0;    ///< sum of shard file mappings
  size_t resident_bytes = 0;  ///< mincore: mapped bytes currently in RAM
  uint64_t blocks_verified = 0;
  uint64_t blocks_corrupt = 0;
  bool ok = true;
  std::string first_error;
};

class ShardedStore : public QuerySurface<ShardedStore> {
 public:
  /// Opens (and per OpenOptions verifies) the store at `dir`. Fails closed:
  /// a non-OK result means nothing is mapped and no partial state exists.
  static util::Result<std::shared_ptr<const ShardedStore>> Open(
      const std::string& dir, ShardedOpenOptions options = {});

  ~ShardedStore();

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  size_t size() const { return total_triples_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const std::string& dir() const { return dir_; }

  /// False once lazy verification has found a corrupt block (sticky). Reads
  /// on a corrupt store return no results; the serving layer checks this
  /// and degrades instead of serving partial answers.
  bool ok() const { return !corrupt_.load(std::memory_order_acquire); }

  /// OK, or the first corruption detected (sticky).
  util::Status status() const;

  bool Contains(TermId s, TermId p, TermId o) const;

  /// Calls `fn` for each matching triple in the documented order; stops
  /// early when `fn` returns false. On a corrupt store: no calls. Same
  /// signature as TripleStore::ForEachMatchFn, so GraphSnapshot, the
  /// evaluators and QuerySurface compile against either store unchanged.
  /// The std::function hop into Scan is noise against block decode +
  /// page-in.
  template <typename Fn>
  void ForEachMatchFn(const TriplePattern& pattern, Fn&& fn) const {
    Scan(pattern, std::function<bool(const Triple&)>(std::forward<Fn>(fn)));
  }

  /// Exact parity with TripleStore::ScanCost: the global candidate range
  /// size for the pattern's chosen index prefix (the owning shard's range
  /// for routed patterns, summed across shards for (?,p,?), `size()` for
  /// the unbound pattern).
  size_t ScanCost(const TriplePattern& pattern) const;

  std::vector<TermId> DistinctPredicates() const;

  ShardedStoreStats Stats() const;

 private:
  // One sort order's two segments inside a shard's mapping.
  struct OrderSeg {
    uint64_t count = 0;  // keys in this order: subject side or object side
    const uint8_t* payload = nullptr;
    size_t payload_len = 0;
    const uint8_t* index = nullptr;  // packed BlockMeta array
    size_t index_len = 0;
    size_t num_blocks = 0;
    uint32_t index_crc = 0;  // expected (from the shard TOC), for lazy mode
    // Lazy-verify state: 0 unverified, 1 ok, 2 corrupt. Unused under
    // Verify::kEager (open already proved everything).
    mutable std::atomic<uint8_t> index_state{0};
    std::unique_ptr<std::atomic<uint8_t>[]> block_state;  // one per block
  };

  struct Shard {
    util::MappedFile file;
    OrderSeg orders[3];
  };

  // Index selection + candidate key range for a pattern; mirrors
  // TripleStore::PrefixRange exactly (that is what the parity suite pins).
  struct Plan {
    int ord = 0;    // 0 SPO, 1 POS, 2 OSP
    int bound = 0;  // bound prefix length; 0 means full scan
    SegmentKey lo = {0, 0, 0};  // inclusive
    SegmentKey hi = {0, 0, 0};  // exclusive (unused when bound == 0)
  };
  static Plan MakePlan(const TriplePattern& pattern);

  // The single shard holding every candidate of `pattern` under `plan`, or
  // null when the plan's routing term is unbound and the scan fans out.
  const Shard* Route(const Plan& plan, const TriplePattern& pattern) const;

  ShardedStore() = default;

  // The type-erased scan behind ForEachMatchFn.
  void Scan(const TriplePattern& pattern,
            const std::function<bool(const Triple&)>& fn) const;

  // Streams `pattern`'s candidate range of one shard (in plan.ord key
  // order) into `sink`; `*stopped` reports an early stop requested by the
  // sink. Returns false on corruption (latched).
  bool ScanShard(const Shard& shard, const Plan& plan,
                 const TriplePattern& pattern,
                 const std::function<bool(const Triple&)>& sink,
                 bool* stopped) const;

  // Rank of the first key >= `key` in the shard's `ord` segment (exact;
  // decodes at most one block). Returns false on corruption.
  bool RankLowerBound(const Shard& shard, int ord, const SegmentKey& key,
                      uint64_t* rank) const;

  // Lazy-mode first-use verification of a (shard, order) block index / one
  // block payload. Both no-ops under Verify::kEager.
  bool CheckIndex(const Shard& shard, int ord) const;
  bool CheckBlock(const OrderSeg& seg, size_t block) const;

  void LatchCorrupt(const std::string& message) const;

  std::string dir_;
  ShardedOpenOptions options_;
  uint64_t total_triples_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<bool> corrupt_{false};
  mutable std::atomic<uint64_t> blocks_verified_{0};
  mutable std::atomic<uint64_t> blocks_corrupt_{0};
  mutable std::mutex error_mu_;
  mutable std::string first_error_;
};

}  // namespace openbg::rdf

#endif  // OPENBG_RDF_SHARDED_STORE_H_
