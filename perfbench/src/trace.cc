#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>(buffers_.size() + 1));
  return buffers_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans().begin(), b->spans().end());
  }
  return all;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\treq\n");
  for (const Span& s : Collect()) {
    std::fprintf(f, "%s\t%lld\t%lld\t%llu\t%llu\t%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
  }
  return std::fclose(f) == 0;
}

Tracer::Table Tracer::SelfTimeTable() const {
  std::vector<Span> spans = Collect();
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  // Child time per span and the root of every span's tree.
  std::vector<double> child_ns(spans.size(), 0.0);
  std::vector<bool> has_child(spans.size(), false);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    child_ns[it->second] += static_cast<double>(s.end_ns - s.start_ns);
    has_child[it->second] = true;
  }
  auto root_of = [&](size_t i) {
    while (spans[i].parent != 0) {
      auto it = by_id.find(spans[i].parent);
      if (it == by_id.end()) break;
      i = it->second;
    }
    return i;
  };

  Table table;
  double e2e_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0 && has_child[i]) {
      ++table.requests;
      e2e_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  if (table.requests == 0) return table;

  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t root = root_of(i);
    if (!has_child[root]) continue;
    double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    // Children are replays or sub-intervals of their parent; a replay
    // can outlast the slice it stands for, so self time is floored at 0.
    double self = std::max(0.0, dur - child_ns[i]);
    Row& row = rows[spans[i].name];
    row.name = spans[i].name;
    ++row.spans;
    row.self_us_per_req += self / 1e3;
  }
  const double reqs = static_cast<double>(table.requests);
  table.e2e_us_per_req = e2e_ns / 1e3 / reqs;
  for (auto& [name, row] : rows) {
    row.self_us_per_req /= reqs;
    row.share = table.e2e_us_per_req > 0
                    ? row.self_us_per_req / table.e2e_us_per_req
                    : 0.0;
    table.rows.push_back(row);
  }
  std::sort(table.rows.begin(), table.rows.end(),
            [](const Row& a, const Row& b) {
              return a.self_us_per_req > b.self_us_per_req;
            });
  return table;
}

}  // namespace perfbench
