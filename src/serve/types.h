#ifndef OPENBG_SERVE_TYPES_H_
#define OPENBG_SERVE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "construction/schema_mapper.h"
#include "kge/topk.h"
#include "rdf/triple_store.h"

namespace openbg::serve {

/// The four online endpoints of the serving layer (the Sec. IV-G workloads
/// in request/response form). Also the metrics/cache partitioning key.
enum class Endpoint : uint8_t {
  kLinkPredictTopK = 0,
  kEntityLink = 1,
  kNeighbors = 2,
  kConceptsOf = 3,
};

inline constexpr size_t kNumEndpoints = 4;

/// Stable name used in metrics JSON ("link_predict_topk", ...).
const char* EndpointName(Endpoint e);

/// Per-request outcome. Anything other than kOk carries no payload. A
/// shed request is refused up front, before ever queuing. A queued
/// request whose deadline lapses gets kDeadlineExceeded (never a late kOk
/// answer) when a drainer next examines its batch — the status is typed,
/// but its delivery rides the drain cadence, so a stalled drain delays
/// the reply.
enum class ServeStatus : uint8_t {
  kOk = 0,
  /// Load was shed: the request was refused admission (queue full or the
  /// `serve::overload` failpoint) and no cached answer existed. Clients
  /// retry later or fall back.
  kShed = 1,
  /// The request's deadline expired before the engine scored it.
  kDeadlineExceeded = 2,
  /// A referenced entity/relation id is out of range for the bound model
  /// or graph.
  kInvalidArgument = 3,
  /// The endpoint's circuit breaker is open (or its compute path faulted)
  /// and no cached answer existed. Unlike kShed — a capacity refusal that
  /// clears as soon as load drops — kDegraded means the backing component
  /// is considered broken; clients should back off for the breaker's
  /// cooldown, not retry immediately. Cached answers ARE still served
  /// while a breaker is open (status kOk with Response::degraded set).
  kDegraded = 4,
};

const char* ServeStatusName(ServeStatus s);

/// One ranked candidate of a LinkPredictTopK answer. The serving total
/// order (RanksBefore) and top-K selection live in kge/topk.h, below both
/// this layer and src/ann, so the exact, fused and ANN paths share one
/// order and one bounded heap.
using kge::RanksBefore;
using kge::ScoredEntity;
using kge::SelectTopK;

/// Canonical identity of a request, used both to coalesce concurrent
/// identical queries and as the cache key. `text` is only set for
/// EntityLink; the ids pack (h, r, k) / (entity, relation, 0) as
/// documented per endpoint in engine.h. Full-key equality (not just the
/// 64-bit fingerprint) decides cache hits, so fingerprint collisions
/// degrade to misses, never to wrong answers.
struct RequestKey {
  Endpoint endpoint = Endpoint::kLinkPredictTopK;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  std::string text;

  friend bool operator==(const RequestKey&, const RequestKey&) = default;
};

/// 64-bit fingerprint of a RequestKey (SplitMix64-chained over the fields,
/// FNV-1a over `text`). Shard selection and hash-map key of the result
/// cache.
uint64_t Fingerprint(const RequestKey& key);

/// The cacheable payload of any endpoint's answer; which fields are
/// meaningful depends on the endpoint. Kept as one struct so the sharded
/// result cache stores a single value type.
struct ResultPayload {
  std::vector<ScoredEntity> topk;           // LinkPredictTopK
  construction::SchemaMapper::LinkResult link;  // EntityLink
  std::vector<rdf::Triple> triples;         // Neighbors / ConceptsOf

  friend bool operator==(const ResultPayload& x, const ResultPayload& y) {
    return x.topk == y.topk && x.triples == y.triples &&
           x.link.node == y.link.node && x.link.kind == y.link.kind &&
           x.link.similarity == y.link.similarity;
  }
};

/// What every endpoint returns: a typed status, the payload (valid iff
/// status == kOk), and whether the answer came from the result cache. For
/// the same request against an unchanged KG/model, cached and uncached
/// payloads are byte-identical (test-enforced): the engine's scoring and
/// top-K selection are deterministic, and the cache stores the computed
/// payload verbatim.
struct Response {
  ServeStatus status = ServeStatus::kOk;
  bool from_cache = false;
  /// True when the answer was produced in degraded mode: a cache hit
  /// served while the endpoint's breaker was open/half-open (status kOk —
  /// the payload is a real, previously-correct answer), or a kDegraded
  /// refusal. Clients can distinguish "fresh answer" from "best effort
  /// while the backend recovers" without parsing metrics.
  bool degraded = false;
  ResultPayload payload;

  bool ok() const { return status == ServeStatus::kOk; }
};

}  // namespace openbg::serve

#endif  // OPENBG_SERVE_TYPES_H_
