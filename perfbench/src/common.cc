#include "common.h"

#include <sched.h>
#include <unistd.h>

#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>

#include "kge/trainer.h"

namespace perfbench {

void Report::Set(const std::string& name, double value, const char* unit,
                 std::string note) {
  metrics_[name] = Metric{value, unit, std::move(note)};
}

void Report::SetQuantile(const std::string& name, const Quantile& q) {
  std::string note = "n=" + std::to_string(q.n) + ", " +
                     std::to_string(q.beyond) + " beyond";
  if (q.windowed) note += " in each window; median over windows";
  if (!q.ok) note = "n/a: fewer than 10 samples beyond (" + note + ")";
  Set(name, q.ok ? q.value : 0.0, "us", std::move(note));
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (ok) {
    checks_passed_.push_back(name + ": " + detail);
  } else {
    checks_failed_.emplace_back(name, detail);
  }
}

void Report::Invalidate(const std::string& why) { invalid_.push_back(why); }

bool Report::correct() const {
  return checks_failed_.empty() && !checks_passed_.empty();
}

void Report::Print(FILE* out) const {
  for (const std::string& n : notes_) std::fprintf(out, "%s\n", n.c_str());
  std::fprintf(out, "\nmetrics:\n");
  for (const auto& [name, m] : metrics_) {
    std::fprintf(out, "  %-34s %16.6f %-7s %s\n", name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());
  }
  std::fprintf(out, "checks:\n");
  for (const std::string& c : checks_passed_) {
    std::fprintf(out, "  PASS %s\n", c.c_str());
  }
  for (const auto& [name, detail] : checks_failed_) {
    std::fprintf(out, "  FAIL %s: %s\n", name.c_str(), detail.c_str());
  }
  for (const std::string& why : invalid_) {
    std::fprintf(out, "  INVALID RUN: %s\n", why.c_str());
  }
  std::fprintf(out, "attempted %" PRIu64 ", failed %" PRIu64 "\n", attempted,
               failed);

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"valid\": ";
  json += invalid_.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::fprintf(out, "RESULT %s\n", json.c_str());
  std::fflush(out);
}

Quantile MedianOfWindows(std::vector<std::vector<double>> per, double p,
                         std::vector<double>* values) {
  values->clear();
  Quantile out;
  out.ok = !per.empty();
  out.windowed = true;
  out.beyond = SIZE_MAX;
  for (std::vector<double>& w : per) {
    std::sort(w.begin(), w.end());
    Quantile q = PercentileWithFloor(w, p);
    out.n += q.n;
    out.beyond = std::min(out.beyond, q.beyond);
    out.ok = out.ok && q.ok;
    values->push_back(q.value);
  }
  out.value = Median(*values);
  return out;
}

namespace {

// serve.shed_frac / serve.deadline_frac over samples.
void ReportStatuses(std::span<const Sample> samples, Report* rep) {
  uint64_t shed = 0, deadline = 0;
  for (const Sample& s : samples) {
    auto st = static_cast<serve::ServeStatus>(s.status);
    if (st == serve::ServeStatus::kShed) ++shed;
    if (st == serve::ServeStatus::kDeadlineExceeded) ++deadline;
  }
  const double n = samples.empty() ? 1.0 : static_cast<double>(samples.size());
  rep->Set("serve.shed_frac", static_cast<double>(shed) / n, "ratio");
  rep->Set("serve.deadline_frac", static_cast<double>(deadline) / n, "ratio");
}

Quantile WindowedPercentile(std::span<const Sample> samples, double p,
                            std::vector<double>* values) {
  std::vector<std::vector<double>> per(kWindows);
  for (const Sample& s : samples) per[s.window].push_back(s.us);
  return MedianOfWindows(std::move(per), p, values);
}

}  // namespace

void PinThisThread(size_t first_cpu, size_t num_cpus) {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t c = first_cpu; c < first_cpu + num_cpus; ++c) {
    if (static_cast<long>(c) < n) CPU_SET(c, &set);
  }
  if (CPU_COUNT(&set) > 0) ::sched_setaffinity(0, sizeof(set), &set);
}

void ReportClosedLoop(const Phase& phase, Report* rep) {
  // Read first: the percentile copies below grow with the sample count.
  ReportPeakRss(phase.own_bytes, rep);
  const double window_s = phase.seconds / static_cast<double>(kWindows);
  std::vector<double> rates;
  std::string line = "throughput per window (req/s):";
  for (uint64_t ok : phase.ok_per_window) {
    rates.push_back(static_cast<double>(ok) / window_s);
    line += " " + std::to_string(static_cast<int64_t>(rates.back()));
  }
  rep->Note(line);
  rep->Set("throughput_rps", Median(rates), "req/s",
           "median of " + std::to_string(kWindows) + " windows; " +
               std::to_string(phase.ok) + " OK answers in " +
               std::to_string(phase.seconds) + " s");
  for (auto [name, p] : {std::pair{"latency_p50_us", 50.0},
                         std::pair{"latency_p99_us", 99.0}}) {
    std::vector<double> per;
    Quantile q = WindowedPercentile(phase.samples, p, &per);
    std::string l = std::string(name) + " per window:";
    for (double v : per) l += " " + std::to_string(static_cast<int64_t>(v));
    rep->Note(l);
    rep->SetQuantile(name, q);
  }
  ReportStatuses(phase.samples, rep);
  rep->Set("fail_frac",
           phase.attempted > 0
               ? static_cast<double>(phase.failed) / phase.attempted
               : 0.0,
           "ratio",
           std::to_string(phase.failed) + " of " +
               std::to_string(phase.attempted));
  rep->attempted += phase.attempted;
  rep->failed += phase.failed;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

void ReportPeakRss(double own_bytes, Report* rep) {
  const double hwm = PeakRssMb();
  const double own = own_bytes / (1 << 20);
  char note[128];
  std::snprintf(note, sizeof(note),
                "VmHWM while serving %.1f MiB minus %.1f MiB of benchmark "
                "buffers",
                hwm, own);
  rep->Set("peak_rss_mb", hwm - own, "MiB", note);
}

serve::ServeContext::Bindings ServingWorld::Bindings() const {
  serve::ServeContext::Bindings b;
  b.graph = &kg->graph();
  b.ontology = &kg->ontology();
  b.dataset = &ds;
  b.model = model.get();
  b.mapper = mapper.get();
  return b;
}

std::unique_ptr<ServingWorld> BuildServingWorld() {
  auto w = std::make_unique<ServingWorld>();
  openbg::core::OpenBG::Options opts;
  opts.world.scale = 0.25;
  opts.world.num_products = 1500;
  opts.world.seed = 7;
  w->kg = openbg::core::OpenBG::Build(opts);

  openbg::bench_builder::BenchmarkSpec spec;
  spec.name = "serving-load";
  spec.num_relations = 20;
  spec.dev_size = 100;
  spec.test_size = 400;
  w->ds = w->kg->BuildBenchmark(spec, nullptr);

  util::Rng rng(7);
  w->model = std::make_unique<kge::TransE>(
      w->ds.num_entities(), w->ds.num_relations(), 32, 1.0f, &rng);
  kge::TrainConfig config;
  config.epochs = 5;
  config.batch_size = 512;
  kge::TrainKgeModel(w->model.get(), w->ds, config);

  w->mapper = std::make_unique<openbg::construction::SchemaMapper>(
      w->kg->world().brands);
  w->topk_queries = w->ds.test;
  w->products = w->kg->assembly().product_terms;
  for (const auto& p : w->kg->world().products) {
    if (!p.brand_mention.empty()) w->mentions.push_back(p.brand_mention);
  }
  return w;
}

std::unique_ptr<kge::TransE> BuildMixtureTransE(size_t entities, size_t dim,
                                                size_t relations,
                                                uint64_t seed) {
  util::Rng rng(seed);
  auto model = std::make_unique<kge::TransE>(entities, relations, dim, 1.0f,
                                             &rng);
  const size_t kCenters = 96;
  std::vector<float> centers(kCenters * dim);
  for (float& c : centers) c = static_cast<float>(rng.Normal(0.0, 1.0));
  for (size_t e = 0; e < entities; ++e) {
    const float* c = &centers[(e % kCenters) * dim];
    float* row = model->entities().Row(static_cast<uint32_t>(e));
    for (size_t d = 0; d < dim; ++d) {
      row[d] = c[d] + static_cast<float>(rng.Normal(0.0, 0.08));
    }
  }
  for (size_t r = 0; r < relations; ++r) {
    float* row = model->relations().Row(static_cast<uint32_t>(r));
    for (size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(rng.Normal(0.0, 0.05));
    }
  }
  return model;
}

MixSampler::MixSampler(const ServingWorld& world)
    : world_(world),
      topk_(world.topk_queries.size(), 1.1),
      products_(world.products.size(), 1.1),
      mentions_(world.mentions.size(), 1.1) {}

MixedRequest MixSampler::Draw(util::Rng* rng) const {
  MixedRequest req;
  uint64_t dice = rng->Uniform(10);
  if (dice < 7) {
    const kge::LpTriple& q = world_.topk_queries[topk_.Sample(rng)];
    req.ep = serve::Endpoint::kLinkPredictTopK;
    req.a = q.h;
    req.b = q.r;
  } else if (dice < 8) {
    req.ep = serve::Endpoint::kNeighbors;
    req.a = world_.products[products_.Sample(rng)];
  } else if (dice < 9) {
    req.ep = serve::Endpoint::kConceptsOf;
    req.a = world_.products[products_.Sample(rng)];
  } else {
    req.ep = serve::Endpoint::kEntityLink;
    req.a = static_cast<uint32_t>(mentions_.Sample(rng));
  }
  return req;
}

serve::Response CallEngine(serve::QueryEngine* engine,
                           const ServingWorld& world,
                           const MixedRequest& req) {
  switch (req.ep) {
    case serve::Endpoint::kLinkPredictTopK:
      return engine->LinkPredictTopK(req.a, req.b, kTopK);
    case serve::Endpoint::kNeighbors:
      return engine->Neighbors(req.a);
    case serve::Endpoint::kConceptsOf:
      return engine->ConceptsOf(req.a);
    case serve::Endpoint::kEntityLink:
      return engine->EntityLink(world.mentions[req.a]);
  }
  return {};
}

const char* ServeSpanName(serve::Endpoint ep) {
  switch (ep) {
    case serve::Endpoint::kLinkPredictTopK:
      return "serve.link_predict_topk";
    case serve::Endpoint::kNeighbors:
      return "serve.neighbors";
    case serve::Endpoint::kConceptsOf:
      return "serve.concepts_of";
    case serve::Endpoint::kEntityLink:
      return "serve.entity_link";
  }
  return "serve.unknown";
}

void ReportCache(const serve::ResultCache::Stats& b,
                 const serve::ResultCache::Stats& a, Report* rep) {
  const uint64_t lookups =
      (a.hits + a.misses + a.collisions + a.stale + a.future) -
      (b.hits + b.misses + b.collisions + b.stale + b.future);
  const uint64_t hits = a.hits - b.hits;
  rep->Set("serve.cache.hit_frac",
           lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio",
           std::to_string(hits) + " hits / " + std::to_string(lookups) +
               " lookups");
  rep->Set("serve.cache.invalidated",
           static_cast<double>(a.invalidated - b.invalidated), "count");
  rep->Set("serve.cache.dropped_inserts",
           static_cast<double>(a.dropped_inserts - b.dropped_inserts), "count");
  rep->Set("serve.cache.stale", static_cast<double>(a.stale - b.stale),
           "count");
}


void PrintTimeTable(const Tracer& tracer, Report* rep) {
  Tracer::Table t = tracer.SelfTimeTable();
  char line[256];
  rep->Note("");
  std::snprintf(line, sizeof(line),
                "where the time goes (%zu traced requests, %.2f us "
                "end-to-end each):",
                t.requests, t.e2e_us_per_req);
  rep->Note(line);
  std::snprintf(line, sizeof(line), "  %-32s %8s %14s %8s", "span",
                "spans", "self us/req", "share");
  rep->Note(line);
  double total = 0.0;
  for (const Tracer::Row& r : t.rows) {
    std::snprintf(line, sizeof(line), "  %-32s %8zu %14.3f %7.1f%%",
                  r.name.c_str(), r.spans, r.self_us_per_req,
                  r.share * 100.0);
    rep->Note(line);
    total += r.share;
  }
  std::snprintf(line, sizeof(line),
                "  (shares sum to %.1f%%; replayed spans are timed "
                "uncontended, so they can exceed their slice)",
                total * 100.0);
  rep->Note(line);
}

void ReportOverhead(const char* what, double untraced, double traced,
                    const char* unit, Report* rep) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "tracing overhead %-16s untraced %12.3f  traced %12.3f  "
                "diff %+10.3f %s (%+.1f%%)",
                what, untraced, traced, traced - untraced, unit,
                untraced != 0 ? (traced - untraced) / untraced * 100.0 : 0.0);
  rep->Note(line);
}

std::vector<size_t> Stride(size_t n, size_t cap) {
  std::vector<size_t> out;
  if (n == 0 || cap == 0) return out;
  size_t step = n > cap ? n / cap : 1;
  for (size_t i = 0; i < n && out.size() < cap; i += step) out.push_back(i);
  return out;
}

}  // namespace perfbench
