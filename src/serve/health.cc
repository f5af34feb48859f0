#include "serve/health.h"

#include <algorithm>

#include "util/string_util.h"

namespace openbg::serve {

namespace {

void AppendComponent(std::string* out, const char* name,
                     const ComponentHealth& c, bool first) {
  *out += util::StrFormat("%s\"%s\":{\"status\":\"%s\"", first ? "" : ",",
                          name, HealthName(c.health));
  if (!c.reason.empty()) {
    // Reasons are engine-generated, but can embed a shard file path (via
    // ShardedStoreStats::first_error): escape everything JSON requires,
    // control characters U+0000-U+001F included.
    std::string escaped;
    escaped.reserve(c.reason.size());
    for (char ch : c.reason) {
      if (static_cast<unsigned char>(ch) < 0x20) {
        escaped += util::StrFormat("\\u%04x", static_cast<unsigned>(ch));
        continue;
      }
      if (ch == '"' || ch == '\\') escaped += '\\';
      escaped += ch;
    }
    *out += util::StrFormat(",\"reason\":\"%s\"", escaped.c_str());
  }
  *out += "}";
}

}  // namespace

const char* HealthName(Health h) {
  switch (h) {
    case Health::kHealthy:
      return "healthy";
    case Health::kDegraded:
      return "degraded";
    case Health::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

Health HealthState::overall() const {
  Health worst = model.health;
  worst = std::max(worst, cache.health);
  worst = std::max(worst, live_graph.health);
  worst = std::max(worst, compaction.health);
  worst = std::max(worst, base_store.health);
  return worst;
}

std::string HealthState::Json() const {
  std::string out =
      util::StrFormat("{\"overall\":\"%s\",", HealthName(overall()));
  AppendComponent(&out, "model", model, true);
  AppendComponent(&out, "cache", cache, false);
  AppendComponent(&out, "live_graph", live_graph, false);
  AppendComponent(&out, "compaction", compaction, false);
  AppendComponent(&out, "base_store", base_store, false);
  out += "}";
  return out;
}

}  // namespace openbg::serve
