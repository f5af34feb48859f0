#ifndef OPENBG_RDF_TRIPLE_STORE_H_
#define OPENBG_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "rdf/term.h"

namespace openbg::rdf {

/// One RDF statement: subject-predicate-object, all interned TermIds.
struct Triple {
  TermId s = kInvalidTerm;
  TermId p = kInvalidTerm;
  TermId o = kInvalidTerm;

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// A triple pattern: any component may be `kAny` (wildcard).
struct TriplePattern {
  static constexpr TermId kAny = kInvalidTerm;
  TermId s = kAny;
  TermId p = kAny;
  TermId o = kAny;
};

/// The read-side query surface every triple source shares, derived once
/// from the source's `ForEachMatchFn(pattern, fn)` — `fn` takes
/// `const Triple&` and returns false to stop early. A store opts in with
/// CRTP (`class Store : public QuerySurface<Store>`), so every derived
/// query inherits the store's iteration order and pays no virtual or
/// std::function hop of its own.
template <typename Store>
class QuerySurface {
 public:
  /// Collects all triples matching `pattern`.
  std::vector<Triple> Match(const TriplePattern& pattern) const {
    std::vector<Triple> out;
    self().ForEachMatchFn(pattern, [&out](const Triple& t) {
      out.push_back(t);
      return true;
    });
    return out;
  }

  /// Number of triples matching `pattern` (no materialization).
  size_t CountMatches(const TriplePattern& pattern) const {
    size_t n = 0;
    self().ForEachMatchFn(pattern, [&n](const Triple&) {
      ++n;
      return true;
    });
    return n;
  }

  /// Objects `o` of all triples (s, p, o). Convenience for the hot
  /// "attribute lookup" path.
  std::vector<TermId> Objects(TermId s, TermId p) const {
    std::vector<TermId> out;
    self().ForEachMatchFn(TriplePattern{s, p, TriplePattern::kAny},
                          [&out](const Triple& t) {
                            out.push_back(t.o);
                            return true;
                          });
    return out;
  }

  /// Subjects `s` of all triples (s, p, o).
  std::vector<TermId> Subjects(TermId p, TermId o) const {
    std::vector<TermId> out;
    self().ForEachMatchFn(TriplePattern{TriplePattern::kAny, p, o},
                          [&out](const Triple& t) {
                            out.push_back(t.s);
                            return true;
                          });
    return out;
  }

  /// First object of (s, p, *), or kInvalidTerm.
  TermId FirstObject(TermId s, TermId p) const {
    TermId found = kInvalidTerm;
    self().ForEachMatchFn(TriplePattern{s, p, TriplePattern::kAny},
                          [&found](const Triple& t) {
                            found = t.o;
                            return false;
                          });
    return found;
  }

 private:
  const Store& self() const { return static_cast<const Store&>(*this); }
};

/// Heap footprint of one TripleStore, broken out per structure so the serve
/// metrics (and the out-of-core bench) can attribute RSS instead of quoting
/// one opaque number. Estimates for the hash containers are lower bounds
/// (bucket array + per-node overhead); vector accounting is exact capacity.
struct TripleStoreMemory {
  size_t triples_bytes = 0;  ///< the append log
  size_t dedup_bytes = 0;    ///< dedup hash set (estimate)
  size_t idx_spo_bytes = 0;  ///< SPO permutation index
  size_t idx_pos_bytes = 0;  ///< POS permutation index
  size_t idx_osp_bytes = 0;  ///< OSP permutation index

  size_t total() const {
    return triples_bytes + dedup_bytes + idx_spo_bytes + idx_pos_bytes +
           idx_osp_bytes;
  }
};

/// In-memory deduplicating triple store with three lazily maintained sort
/// orders (SPO, POS, OSP), so any pattern with at least one bound component
/// resolves to a binary-searched contiguous range.
///
/// Design notes (scaled-down analogue of the production store):
///  * triples append to a log vector; a hash set dedupes;
///  * each index is a permutation of triple positions, re-sorted only when a
///    query arrives after inserts (bulk-load friendly: building N triples
///    then querying costs one sort per index, not N inserts into a tree).
///
/// Thread-safety contract:
///  * `Add` is NOT safe against concurrent readers or other writers; mutate
///    from one thread (or under external synchronization), then publish.
///  * All `const` query methods are safe to call concurrently with each
///    other. Lazy index (re)builds triggered by a query are serialized
///    behind an internal mutex, so even the first post-insert queries may
///    race freely among themselves.
///  * For contention-free hot paths, call `SealIndexes()` once after bulk
///    load: it builds all three sort orders eagerly, after which concurrent
///    queries never touch the mutex's slow path.
class TripleStore : public QuerySurface<TripleStore> {
 public:
  TripleStore() = default;

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  // Moves transfer the data but not the (unmovable) index mutex; like Add,
  // they require that no other thread is touching either store.
  TripleStore(TripleStore&& other) noexcept { *this = std::move(other); }
  TripleStore& operator=(TripleStore&& other) noexcept;

  /// Adds a triple; returns false iff it was already present.
  bool Add(TermId s, TermId p, TermId o);
  bool Add(const Triple& t) { return Add(t.s, t.p, t.o); }

  /// True iff the exact triple is present.
  bool Contains(TermId s, TermId p, TermId o) const;

  size_t size() const { return triples_.size(); }

  /// All triples in insertion order.
  const std::vector<Triple>& triples() const { return triples_; }

  /// Calls `fn` for each matching triple; stops early if `fn` returns
  /// false. The callable is statically dispatched (and typically inlined).
  /// `fn` takes `const Triple&`. The QuerySurface queries (Match,
  /// CountMatches, Objects, Subjects, FirstObject) are built on this path.
  template <typename Fn>
  void ForEachMatchFn(const TriplePattern& pattern, Fn&& fn) const {
    constexpr TermId kAny = TriplePattern::kAny;
    Order order;
    auto [begin, end] = PrefixRange(pattern, &order);
    if (begin == nullptr) {  // unbound pattern: full scan
      for (const Triple& t : triples_) {
        if (!fn(t)) return;
      }
      return;
    }
    for (const uint32_t* it = begin; it != end; ++it) {
      const Triple& t = triples_[*it];
      bool is_match = (pattern.s == kAny || pattern.s == t.s) &&
                      (pattern.p == kAny || pattern.p == t.p) &&
                      (pattern.o == kAny || pattern.o == t.o);
      if (is_match && !fn(t)) return;
    }
  }

  /// Number of index entries a query for `pattern` walks (the candidate
  /// range before residual filtering; `size()` for the unbound pattern).
  /// Planner/test introspection: proves which prefix the index selection
  /// actually used — e.g. an (s, ?, o) pattern must cost the (o, s) OSP
  /// range, not the subject's whole SPO range.
  size_t ScanCost(const TriplePattern& pattern) const;

  /// Distinct predicates present in the store.
  std::vector<TermId> DistinctPredicates() const;

  /// Eagerly (re)builds all three sort orders. Call once after bulk load to
  /// freeze the store for concurrent readers; queries afterwards are pure
  /// reads with no locking. Queries before sealing remain correct — they
  /// just may contend on the internal rebuild mutex.
  void SealIndexes() const;

  /// True iff all three sort orders are built for the current contents —
  /// the state SealIndexes() leaves behind. The serving layer asserts this
  /// on every read: a sealed store guarantees lock-free queries, and an
  /// Add() slipped in after sealing would silently reintroduce the mutex
  /// slow path (and race with concurrent readers).
  bool IndexesSealed() const {
    return !spo_dirty_.load(std::memory_order_acquire) &&
           !pos_dirty_.load(std::memory_order_acquire) &&
           !osp_dirty_.load(std::memory_order_acquire);
  }

  /// Per-structure heap accounting (see TripleStoreMemory). Safe to call
  /// concurrently with queries on a sealed store.
  TripleStoreMemory MemoryUsage() const;

 private:
  enum class Order { kSpo, kPos, kOsp };

  struct TripleHash {
    size_t operator()(const Triple& t) const {
      uint64_t h = t.s;
      h = h * 0x9E3779B97F4A7C15ull + t.p;
      h = h * 0x9E3779B97F4A7C15ull + t.o;
      h ^= h >> 29;
      return static_cast<size_t>(h);
    }
  };

  void EnsureSorted(Order order) const;

  // Returns [begin, end) into the given index for the pattern's bound prefix.
  std::pair<const uint32_t*, const uint32_t*> PrefixRange(
      const TriplePattern& pattern, Order* chosen) const;

  std::vector<Triple> triples_;
  std::unordered_set<Triple, TripleHash> dedup_;

  mutable std::vector<uint32_t> idx_spo_, idx_pos_, idx_osp_;
  // Invariant: a false flag (acquire-read) means the matching index vector
  // is fully built for the current triples_ — readers then use it without
  // locking. Rebuilds happen under index_mu_ with a double-check.
  mutable std::atomic<bool> spo_dirty_{false}, pos_dirty_{false},
      osp_dirty_{false};
  mutable std::mutex index_mu_;
};

}  // namespace openbg::rdf

#endif  // OPENBG_RDF_TRIPLE_STORE_H_
