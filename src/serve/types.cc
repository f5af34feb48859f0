#include "serve/types.h"

#include "util/rng.h"

namespace openbg::serve {

const char* EndpointName(Endpoint e) {
  switch (e) {
    case Endpoint::kLinkPredictTopK:
      return "link_predict_topk";
    case Endpoint::kEntityLink:
      return "entity_link";
    case Endpoint::kNeighbors:
      return "neighbors";
    case Endpoint::kConceptsOf:
      return "concepts_of";
  }
  return "unknown";
}

const char* ServeStatusName(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kShed:
      return "shed";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kInvalidArgument:
      return "invalid_argument";
    case ServeStatus::kDegraded:
      return "degraded";
  }
  return "unknown";
}

uint64_t Fingerprint(const RequestKey& key) {
  uint64_t h = util::SplitMix64(static_cast<uint64_t>(key.endpoint) + 1);
  h = util::SplitMix64(h ^ key.a);
  h = util::SplitMix64(h ^ key.b);
  h = util::SplitMix64(h ^ key.c);
  // FNV-1a over the mention text (EntityLink), folded through one more mix.
  uint64_t t = 0xCBF29CE484222325ull;
  for (char ch : key.text) {
    t ^= static_cast<unsigned char>(ch);
    t *= 0x100000001B3ull;
  }
  return util::SplitMix64(h ^ t);
}

}  // namespace openbg::serve
