#include "rdf/triple_store.h"

#include <algorithm>
#include <array>

#include "util/logging.h"

namespace openbg::rdf {
namespace {

// Key extraction per order: returns the (first, second, third) components.
inline std::array<TermId, 3> KeyOf(const Triple& t, int order) {
  switch (order) {
    case 0:  // SPO
      return {t.s, t.p, t.o};
    case 1:  // POS
      return {t.p, t.o, t.s};
    default:  // OSP
      return {t.o, t.s, t.p};
  }
}

}  // namespace

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  triples_ = std::move(other.triples_);
  dedup_ = std::move(other.dedup_);
  idx_spo_ = std::move(other.idx_spo_);
  idx_pos_ = std::move(other.idx_pos_);
  idx_osp_ = std::move(other.idx_osp_);
  spo_dirty_.store(other.spo_dirty_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  pos_dirty_.store(other.pos_dirty_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  osp_dirty_.store(other.osp_dirty_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  return *this;
}

bool TripleStore::Add(TermId s, TermId p, TermId o) {
  OPENBG_CHECK(s != kInvalidTerm && p != kInvalidTerm && o != kInvalidTerm)
      << "cannot add wildcard triple";
  Triple t{s, p, o};
  if (!dedup_.insert(t).second) return false;
  triples_.push_back(t);
  spo_dirty_.store(true, std::memory_order_relaxed);
  pos_dirty_.store(true, std::memory_order_relaxed);
  osp_dirty_.store(true, std::memory_order_relaxed);
  return true;
}

bool TripleStore::Contains(TermId s, TermId p, TermId o) const {
  return dedup_.count(Triple{s, p, o}) > 0;
}

void TripleStore::EnsureSorted(Order order) const {
  std::vector<uint32_t>* idx = nullptr;
  std::atomic<bool>* dirty = nullptr;
  int ord = 0;
  switch (order) {
    case Order::kSpo:
      idx = &idx_spo_;
      dirty = &spo_dirty_;
      ord = 0;
      break;
    case Order::kPos:
      idx = &idx_pos_;
      dirty = &pos_dirty_;
      ord = 1;
      break;
    case Order::kOsp:
      idx = &idx_osp_;
      dirty = &osp_dirty_;
      ord = 2;
      break;
  }
  // Fast path: acquire-load pairs with the release-store below, so a clean
  // flag also publishes the rebuilt index contents to this thread.
  if (!dirty->load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mu_);
  if (!dirty->load(std::memory_order_relaxed)) return;  // lost the race: done
  idx->resize(triples_.size());
  for (uint32_t i = 0; i < triples_.size(); ++i) (*idx)[i] = i;
  std::sort(idx->begin(), idx->end(), [this, ord](uint32_t a, uint32_t b) {
    return KeyOf(triples_[a], ord) < KeyOf(triples_[b], ord);
  });
  dirty->store(false, std::memory_order_release);
}

void TripleStore::SealIndexes() const {
  EnsureSorted(Order::kSpo);
  EnsureSorted(Order::kPos);
  EnsureSorted(Order::kOsp);
}

std::pair<const uint32_t*, const uint32_t*> TripleStore::PrefixRange(
    const TriplePattern& pattern, Order* chosen) const {
  constexpr TermId kAny = TriplePattern::kAny;
  // Pick the most selective index: the order that puts the longest run of
  // bound components first. Every two-bound combination has a matching
  // two-component prefix — (s,p)→SPO, (p,o)→POS, (s,o)→OSP — so no bound
  // pair ever degrades to a one-term prefix plus a filter scan. (The old
  // selection forgot the (s,o)/OSP case and filter-scanned the subject's
  // whole SPO range for s+o-bound patterns.)
  Order order;
  std::array<TermId, 2> prefix = {kAny, kAny};
  int bound = 0;
  if (pattern.s != kAny && pattern.p != kAny) {
    order = Order::kSpo;
    prefix = {pattern.s, pattern.p};
    bound = 2;
  } else if (pattern.p != kAny && pattern.o != kAny) {
    order = Order::kPos;
    prefix = {pattern.p, pattern.o};
    bound = 2;
  } else if (pattern.s != kAny && pattern.o != kAny) {
    order = Order::kOsp;  // OSP order is (o, s, p): prefix (o, s)
    prefix = {pattern.o, pattern.s};
    bound = 2;
  } else if (pattern.s != kAny) {
    order = Order::kSpo;
    prefix[0] = pattern.s;
    bound = 1;
  } else if (pattern.p != kAny) {
    order = Order::kPos;
    prefix[0] = pattern.p;
    bound = 1;
  } else if (pattern.o != kAny) {
    order = Order::kOsp;
    prefix[0] = pattern.o;
    bound = 1;
  } else {
    // Full scan: caller detects nullptr sentinel.
    *chosen = Order::kSpo;
    return {nullptr, nullptr};
  }
  *chosen = order;
  EnsureSorted(order);
  const std::vector<uint32_t>& idx = order == Order::kSpo   ? idx_spo_
                                     : order == Order::kPos ? idx_pos_
                                                            : idx_osp_;
  int ord = order == Order::kSpo ? 0 : order == Order::kPos ? 1 : 2;
  auto cmp_lo = [this, ord, bound](uint32_t a, const std::array<TermId, 2>& k) {
    auto ka = KeyOf(triples_[a], ord);
    for (int i = 0; i < bound; ++i) {
      if (ka[i] != k[i]) return ka[i] < k[i];
    }
    return false;
  };
  auto cmp_hi = [this, ord, bound](const std::array<TermId, 2>& k, uint32_t a) {
    auto ka = KeyOf(triples_[a], ord);
    for (int i = 0; i < bound; ++i) {
      if (ka[i] != k[i]) return k[i] < ka[i];
    }
    return false;
  };
  auto lo = std::lower_bound(idx.begin(), idx.end(), prefix, cmp_lo);
  auto hi = std::upper_bound(idx.begin(), idx.end(), prefix, cmp_hi);
  return {idx.data() + (lo - idx.begin()), idx.data() + (hi - idx.begin())};
}

size_t TripleStore::ScanCost(const TriplePattern& pattern) const {
  Order order;
  auto [begin, end] = PrefixRange(pattern, &order);
  if (begin == nullptr) return triples_.size();
  return static_cast<size_t>(end - begin);
}

TripleStoreMemory TripleStore::MemoryUsage() const {
  TripleStoreMemory m;
  m.triples_bytes = triples_.capacity() * sizeof(Triple);
  // unordered_set lower bound: the bucket array plus one heap node per
  // element (value + next pointer + cached hash in libstdc++/libc++).
  m.dedup_bytes = dedup_.bucket_count() * sizeof(void*) +
                  dedup_.size() * (sizeof(Triple) + 2 * sizeof(void*));
  m.idx_spo_bytes = idx_spo_.capacity() * sizeof(uint32_t);
  m.idx_pos_bytes = idx_pos_.capacity() * sizeof(uint32_t);
  m.idx_osp_bytes = idx_osp_.capacity() * sizeof(uint32_t);
  return m;
}

std::vector<TermId> TripleStore::DistinctPredicates() const {
  EnsureSorted(Order::kPos);
  std::vector<TermId> out;
  TermId last = kInvalidTerm;
  for (uint32_t i : idx_pos_) {
    TermId p = triples_[i].p;
    if (p != last) {
      out.push_back(p);
      last = p;
    }
  }
  return out;
}

}  // namespace openbg::rdf
