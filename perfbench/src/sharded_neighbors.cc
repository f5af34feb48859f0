// sharded_neighbors: in-process closed loop, 4 clients, Neighbors over an
// out-of-core OBGSNAP2 rdf::ShardedStore opened lazily (blocks verified on
// first use). The graph is several times its RAM budget; subjects are drawn
// Zipf(0.7) from a hot set 64x the result cache, so most requests reach the
// store: a subject-routed out-edge scan plus an object-bound in-edge scan
// that fans out across every shard.

#include <dirent.h>
#include <unistd.h>

#include <cstring>

#include "common.h"
#include "rdf/sharded_store.h"

namespace perfbench {
namespace {

constexpr size_t kTriples = 1'500'000;
constexpr size_t kSubjects = kTriples / 5;
constexpr size_t kPredicates = 32;
constexpr uint32_t kShards = 16;
constexpr size_t kHotSubjects = 65536;
constexpr double kHotZipf = 0.7;
constexpr size_t kCacheCapacity = 1024;
constexpr size_t kRamBudgetMb = 8;
constexpr size_t kClients = 4;

void RemoveTree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0)
        continue;
      ::unlink((dir + "/" + e->d_name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

struct State {
  std::string dir;
  std::shared_ptr<const rdf::ShardedStore> store;
  std::unique_ptr<serve::ServeContext> ctx;
  std::unique_ptr<serve::QueryEngine> engine;
  ~State() {
    engine.reset();
    ctx.reset();
    store.reset();
    if (!dir.empty()) RemoveTree(dir);
  }
};

std::unique_ptr<State> Setup(const std::string& dir) {
  auto st = std::make_unique<State>();
  RemoveTree(dir);
  rdf::ShardedBuildOptions bopts;
  bopts.num_shards = kShards;
  {
    rdf::ShardedStoreBuilder builder(dir, bopts);
    util::Rng rng(0x5AD);
    for (size_t i = 0; i < kTriples && builder.status().ok(); ++i) {
      builder.Add(static_cast<rdf::TermId>(rng.Uniform(kSubjects)),
                  static_cast<rdf::TermId>(rng.Uniform(kPredicates)),
                  static_cast<rdf::TermId>(rng.Uniform(kSubjects)));
    }
    if (!builder.Finish().ok()) return nullptr;
  }
  st->dir = dir;
  rdf::ShardedOpenOptions oopts;
  oopts.verify = rdf::ShardedOpenOptions::Verify::kOnFirstUse;
  auto opened = rdf::ShardedStore::Open(dir, oopts);
  if (!opened.ok()) return nullptr;
  st->store = opened.value();
  serve::ServeContext::Bindings b;
  b.sharded = st->store;
  st->ctx = std::make_unique<serve::ServeContext>(b);
  serve::EngineOptions eopts;
  eopts.cache_capacity = kCacheCapacity;
  st->engine = std::make_unique<serve::QueryEngine>(st->ctx.get(), eopts);
  return st;
}

struct Counters {
  size_t checked = 0, mismatched = 0;
};

Phase Measure(State* st, SampleBuffer* samples, double seconds, uint64_t seed,
              Tracer* tracer, std::vector<Counters>* checks) {
  util::ZipfSampler hot(kHotSubjects, kHotZipf);
  return RunClosedLoop(
      samples, seconds, seed, tracer,
      [&](size_t client, uint64_t seq, util::Rng* rng, Tracer::Buffer* buf) {
        Sample s;
        s.ep = static_cast<uint8_t>(serve::Endpoint::kNeighbors);
        s.a = static_cast<uint32_t>(hot.Sample(rng));
        int64_t t0 = NowNs();
        serve::Response resp = st->engine->Neighbors(s.a);
        int64_t t1 = NowNs();
        s.us = static_cast<float>(static_cast<double>(t1 - t0) / 1e3);
        s.status = static_cast<uint8_t>(resp.status);
        s.from_cache = resp.from_cache ? 1 : 0;
        if (buf != nullptr) {
          s.span = buf->Add(ServeSpanName(serve::Endpoint::kNeighbors), t0,
                            t1, 0, 0);
        }
        if (checks != nullptr && seq % 53 == 0) {
          Counters& c = (*checks)[client];
          ++c.checked;
          if (!resp.ok() ||
              resp.payload.triples != ExpectedNeighbors(*st->store, s.a)) {
            ++c.mismatched;
          }
        }
        return s;
      });
}

}  // namespace

int RunShardedNeighbors(const Args& args, Report* rep) {
  const std::string dir =
      args.work_dir + "/sharded-" + std::to_string(::getpid());
  std::unique_ptr<State> st =
      TimedSetup(rep, [&] { return Setup(dir); });
  if (st == nullptr) {
    std::fprintf(stderr, "sharded_neighbors: store build/open failed\n");
    return 1;
  }
  rdf::ShardedStoreStats s0 = st->store->Stats();
  char line[256];
  std::snprintf(line, sizeof(line),
                "store: %zu triples in %u shards, %.1f MiB mapped = %.1fx "
                "the %zu MiB budget",
                static_cast<size_t>(s0.num_triples), s0.num_shards,
                static_cast<double>(s0.mapped_bytes) / (1 << 20),
                static_cast<double>(s0.mapped_bytes) / (kRamBudgetMb << 20),
                kRamBudgetMb);
  rep->Note(line);

  SampleBuffer samples(kClients);
  // Warm-up: first-use verification, page-in.
  Measure(st.get(), &samples, kWarmupS, args.seed + 1000, nullptr, nullptr);
  ResetPeakRss();  // peak_rss_mb covers serving, not the set-ups

  std::vector<Counters> checks(kClients);
  Tracer tracer;
  if (!args.trace) {
    Phase phase = Measure(st.get(), &samples, args.seconds, args.seed,
                          nullptr, &checks);
    ReportClosedLoop(phase, rep);
  } else {
    Phase plain = Measure(st.get(), &samples, args.seconds / 2, args.seed,
                          nullptr, &checks);
    rep->attempted += plain.attempted;
    rep->failed += plain.failed;
    const double plain_rps = plain.ok / plain.seconds;
    serve::ResultCache::Stats c0 = st->engine->cache().stats();
    Phase phase = Measure(st.get(), &samples, args.seconds / 2,
                          args.seed + 1, &tracer, nullptr);
    ReportCache(c0, st->engine->cache().stats(), rep);
    ReportClosedLoop(phase, rep);
    ReportOverhead("throughput_rps", plain_rps, phase.ok / phase.seconds,
                   "req/s", rep);

    std::vector<double> miss = Latencies(
        phase.samples, [](const Sample& s) { return !s.from_cache; });
    std::vector<double> hit = Latencies(
        phase.samples, [](const Sample& s) { return s.from_cache != 0; });
    rep->SetQuantile("serve.graph_miss_p50_us", PercentileWithFloor(miss, 50));
    rep->SetQuantile("serve.hit_p50_us", PercentileWithFloor(hit, 50));
    rep->SetQuantile("serve.hit_p99_us", PercentileWithFloor(hit, 99));

    std::vector<size_t> idx = Stride(phase.samples.size(), 4000);
    std::vector<uint64_t> parents;
    for (size_t i : idx) {
      parents.push_back(phase.samples[i].from_cache ? 0
                                                    : phase.samples[i].span);
    }
    constexpr rdf::TermId kAny = rdf::TriplePattern::kAny;
    Tracer::Buffer* buf = tracer.NewBuffer();
    size_t sink = 0;
    double routed = ReplayMedian(
        idx.size(), 1e3, buf, "rdf.sharded.match_routed", parents,
        [&](size_t i) {
          sink += st->store->Match({phase.samples[idx[i]].a, kAny, kAny})
                      .size();
        });
    double fanout = ReplayMedian(
        idx.size(), 1e3, buf, "rdf.sharded.match_fanout", parents,
        [&](size_t i) {
          sink += st->store->Match({kAny, kAny, phase.samples[idx[i]].a})
                      .size();
        });
    rep->Set("rdf.sharded.match_routed_us", routed, "us",
             "median of " + std::to_string(idx.size()) + " replayed scans");
    rep->Set("rdf.sharded.match_fanout_us", fanout, "us",
             "sink " + std::to_string(sink));
    rdf::ShardedStoreStats s1 = st->store->Stats();
    rep->Set("rdf.sharded.blocks_verified",
             static_cast<double>(s1.blocks_verified), "count");
    rep->Set("rdf.sharded.resident_mb",
             static_cast<double>(s1.resident_bytes) / (1 << 20), "MiB",
             "mincore-resident mapped bytes");
    PrintTimeTable(tracer, rep);
    tracer.WriteTsv(args.work_dir + "/sharded_neighbors.spans.tsv");
  }

  size_t checked = 0, mismatched = 0;
  for (const Counters& c : checks) {
    checked += c.checked;
    mismatched += c.mismatched;
  }
  rep->Check("neighbors answers == ShardedStore::Match",
             checked > 0 && mismatched == 0 && st->store->ok(),
             std::to_string(checked - mismatched) + "/" +
                 std::to_string(checked) + " equal");
  return 0;
}

}  // namespace perfbench
