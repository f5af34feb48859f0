// live_rw_zipf: in-process closed loop, 3 readers + 1 writer, the
// serving_load Zipf mix served from an rdf::LiveGraph over the in-memory
// base, with background compaction and no write-ahead directory. The writer
// publishes one small UpdateBatch touching Zipf-hot products per
// kReadsPerWrite reads completed, so the write:read ratio is independent of
// speed; every publish selectively invalidates the cached answers it
// touched.

#include <deque>

#include "common.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr size_t kReaders = 3;
constexpr uint64_t kReadsPerWrite = 2000;
constexpr size_t kCompactThreshold = 256;
constexpr size_t kRetractLag = 512;  // each batch retracts the add 512 batches back

struct State {
  std::unique_ptr<ServingWorld> world;
  std::unique_ptr<util::ThreadPool> compact_pool;
  std::unique_ptr<rdf::LiveGraph> live;
  std::unique_ptr<serve::ServeContext> ctx;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<MixSampler> mix;
  ~State() {
    engine.reset();
    ctx.reset();
    if (live != nullptr) live->WaitForCompaction();
    live.reset();
    compact_pool.reset();
  }
};

std::unique_ptr<State> Setup() {
  auto st = std::make_unique<State>();
  st->world = BuildServingWorld();
  st->compact_pool = std::make_unique<util::ThreadPool>(1);
  rdf::LiveGraph::Options lopts;
  lopts.compact_threshold = kCompactThreshold;
  lopts.pool = st->compact_pool.get();
  st->live = std::make_unique<rdf::LiveGraph>(
      rdf::LiveGraph::Alias(&st->world->kg->graph().store), lopts);
  serve::ServeContext::Bindings b = st->world->Bindings();
  b.live = st->live.get();
  st->ctx = std::make_unique<serve::ServeContext>(b);
  serve::EngineOptions eopts;
  eopts.num_threads = 2;
  eopts.cache_capacity = 8192;
  st->engine = std::make_unique<serve::QueryEngine>(st->ctx.get(), eopts);
  st->mix = std::make_unique<MixSampler>(*st->world);
  return st;
}

struct alignas(64) ReadCount {
  std::atomic<uint64_t> n{0};
};

struct WriterResult {
  std::vector<double> publish_us;
  double delta_size_sum = 0.0;
  uint64_t failed = 0;
};

struct NeighborCheck {
  size_t checked = 0, mismatched = 0, reordered = 0, skipped = 0;
};

bool TripleLess(const rdf::Triple& a, const rdf::Triple& b) {
  return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
}

struct LivePhase {
  Phase reads;
  WriterResult writes;
  rdf::LiveGraph::StatsSnapshot live0, live1;
};

LivePhase Measure(State* st, SampleBuffer* samples, double seconds,
                  uint64_t seed, Tracer* tracer,
                  std::vector<NeighborCheck>* checks) {
  LivePhase out;
  out.live0 = st->live->stats();
  ReadCount counts[kReaders];
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    util::Rng rng(seed * 31 + 17);
    util::ZipfSampler hot(st->world->products.size(), 1.1);
    const rdf::TermId rel = st->world->kg->ontology().related_scene();
    std::deque<rdf::Triple> added;
    uint64_t applied = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t reads = 0;
      for (ReadCount& c : counts) reads += c.n.load(std::memory_order_relaxed);
      if (applied >= reads / kReadsPerWrite) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      rdf::UpdateBatch batch;
      rdf::Triple t{st->world->products[hot.Sample(&rng)], rel,
                    st->world->products[hot.Sample(&rng)]};
      batch.adds.push_back(t);
      added.push_back(t);
      if (added.size() > kRetractLag) {
        batch.retracts.push_back(added.front());
        added.pop_front();
      }
      int64_t t0 = NowNs();
      util::Status s = st->live->Apply(batch);
      int64_t t1 = NowNs();
      ++applied;
      if (!s.ok()) ++out.writes.failed;
      out.writes.publish_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      out.writes.delta_size_sum += static_cast<double>(st->live->delta_size());
    }
  });
  out.reads = RunClosedLoop(
      samples, seconds, seed, tracer,
      [&](size_t client, uint64_t seq, util::Rng* rng, Tracer::Buffer* buf) {
        MixedRequest req = st->mix->Draw(rng);
        Sample s;
        s.ep = static_cast<uint8_t>(req.ep);
        s.a = req.a;
        s.b = req.b;
        const bool check = checks != nullptr &&
                           req.ep == serve::Endpoint::kNeighbors &&
                           seq % 37 == 0;
        std::shared_ptr<const rdf::GraphSnapshot> before;
        if (check) before = st->live->Acquire();
        int64_t t0 = NowNs();
        serve::Response resp = CallEngine(st->engine.get(), *st->world, req);
        int64_t t1 = NowNs();
        s.us = static_cast<float>(static_cast<double>(t1 - t0) / 1e3);
        s.status = static_cast<uint8_t>(resp.status);
        s.from_cache = resp.from_cache ? 1 : 0;
        if (buf != nullptr) s.span = buf->Add(ServeSpanName(req.ep), t0, t1, 0, 0);
        counts[client].n.fetch_add(1, std::memory_order_relaxed);
        if (check) {
          // The engine served from a snapshot between `before` and `after`;
          // with one publish in between at most, the answer must equal
          // Match on one of the two.
          std::shared_ptr<const rdf::GraphSnapshot> after = st->live->Acquire();
          NeighborCheck& c = (*checks)[client];
          if (after->generation > before->generation + 1) {
            ++c.skipped;
          } else {
            ++c.checked;
            std::vector<rdf::Triple> want_before =
                ExpectedNeighbors(*before, req.a);
            std::vector<rdf::Triple> want_after =
                ExpectedNeighbors(*after, req.a);
            if (!resp.ok() || (resp.payload.triples != want_before &&
                               resp.payload.triples != want_after)) {
              // A cached answer survives a compaction (which publishes no
              // touched keys), but the compacted base lists triples in
              // its own order: equal as a set, different as a sequence.
              std::vector<rdf::Triple> got = resp.payload.triples;
              std::sort(got.begin(), got.end(), TripleLess);
              std::sort(want_before.begin(), want_before.end(), TripleLess);
              std::sort(want_after.begin(), want_after.end(), TripleLess);
              if (resp.ok() && (got == want_before || got == want_after)) {
                ++c.reordered;
              } else {
                ++c.mismatched;
              }
            }
          }
        }
        return s;
      });
  stop.store(true);
  writer.join();
  out.live1 = st->live->stats();
  return out;
}

void ReportWrites(const LivePhase& p, Report* rep) {
  std::vector<double> pub = p.writes.publish_us;
  std::sort(pub.begin(), pub.end());
  rep->SetQuantile("publish_p50_us", PercentileWithFloor(pub, 50));
  rep->SetQuantile("publish_p99_us", PercentileWithFloor(pub, 99));
  rep->attempted += pub.size();
  rep->failed += p.writes.failed;
}

}  // namespace

int RunLiveRwZipf(const Args& args, Report* rep) {
  std::unique_ptr<State> st = TimedSetup(rep, [] { return Setup(); });

  SampleBuffer samples(kReaders);
  Measure(st.get(), &samples, kWarmupS,
          args.seed + 1000, nullptr, nullptr);  // warm-up: fills the cache
  ResetPeakRss();  // peak_rss_mb covers serving, not the set-ups

  std::vector<NeighborCheck> checks(kReaders);
  Tracer tracer;
  if (!args.trace) {
    LivePhase p = Measure(st.get(), &samples, args.seconds, args.seed,
                          nullptr, &checks);
    ReportClosedLoop(p.reads, rep);
    ReportWrites(p, rep);
  } else {
    LivePhase plain = Measure(st.get(), &samples, args.seconds / 2,
                              args.seed, nullptr, &checks);
    rep->attempted += plain.reads.attempted + plain.writes.publish_us.size();
    rep->failed += plain.reads.failed + plain.writes.failed;
    const double plain_rps = plain.reads.ok / plain.reads.seconds;
    serve::ResultCache::Stats c0 = st->engine->cache().stats();
    LivePhase p = Measure(st.get(), &samples, args.seconds / 2,
                          args.seed + 1, &tracer, nullptr);
    ReportCache(c0, st->engine->cache().stats(), rep);
    ReportClosedLoop(p.reads, rep);
    ReportWrites(p, rep);
    ReportOverhead("throughput_rps", plain_rps, p.reads.ok / p.reads.seconds,
                   "req/s", rep);

    std::span<const Sample> smp = p.reads.samples;
    auto graph_ep = [](const Sample& s) {
      return s.ep == static_cast<uint8_t>(serve::Endpoint::kNeighbors) ||
             s.ep == static_cast<uint8_t>(serve::Endpoint::kConceptsOf);
    };
    std::vector<double> hit = Latencies(
        smp, [](const Sample& s) { return s.from_cache != 0; });
    std::vector<double> graph_miss = Latencies(
        smp, [&](const Sample& s) { return graph_ep(s) && !s.from_cache; });
    std::vector<double> topk_miss = Latencies(smp, [](const Sample& s) {
      return s.ep == 0 && !s.from_cache;
    });
    rep->SetQuantile("serve.hit_p50_us", PercentileWithFloor(hit, 50));
    rep->SetQuantile("serve.hit_p99_us", PercentileWithFloor(hit, 99));
    rep->SetQuantile("serve.graph_miss_p50_us",
                     PercentileWithFloor(graph_miss, 50));
    rep->SetQuantile("serve.miss_p50_us", PercentileWithFloor(topk_miss, 50));
    rep->SetQuantile("serve.miss_p99_us", PercentileWithFloor(topk_miss, 99));

    const size_t writes = p.writes.publish_us.size();
    rep->Set("rdf.delta_size_mean",
             writes > 0 ? p.writes.delta_size_sum / writes : 0.0, "count",
             "delta_size() after each of " + std::to_string(writes) +
                 " publishes");
    rep->Set("rdf.compactions",
             static_cast<double>(p.live1.compactions - p.live0.compactions),
             "count");
    rep->Set("rdf.compact_inline_fallbacks",
             static_cast<double>(p.live1.inline_fallbacks -
                                 p.live0.inline_fallbacks),
             "count");

    // Replays of the traced requests' own inputs, one layer at a time.
    Tracer::Buffer* buf = tracer.NewBuffer();
    std::shared_ptr<const rdf::GraphSnapshot> snap = st->live->Acquire();
    constexpr rdf::TermId kAny = rdf::TriplePattern::kAny;
    auto pick = [&](auto pred, size_t cap, std::vector<uint64_t>* parents) {
      std::vector<size_t> all;
      for (size_t i = 0; i < smp.size(); ++i) {
        if (pred(smp[i])) all.push_back(i);
      }
      std::vector<size_t> out;
      for (size_t j : Stride(all.size(), cap)) {
        out.push_back(all[j]);
        parents->push_back(smp[all[j]].from_cache ? 0 : smp[all[j]].span);
      }
      return out;
    };
    std::vector<uint64_t> nb_parents;
    std::vector<size_t> nb = pick(
        [](const Sample& s) {
          return s.ep == static_cast<uint8_t>(serve::Endpoint::kNeighbors);
        },
        2000, &nb_parents);
    size_t sink = 0;
    rep->Set("rdf.match_out_us",
             ReplayMedian(nb.size(), 1e3, buf, "rdf.match_out", nb_parents,
                          [&](size_t i) {
                            sink += snap->Match({smp[nb[i]].a, kAny, kAny})
                                        .size();
                          }),
             "us");
    rep->Set("rdf.match_in_us",
             ReplayMedian(nb.size(), 1e3, buf, "rdf.match_in", nb_parents,
                          [&](size_t i) {
                            sink += snap->Match({kAny, kAny, smp[nb[i]].a})
                                        .size();
                          }),
             "us");
    rep->Set("rdf.acquire_ns",
             ReplayMedian(200, 1.0, nullptr, "", {},
                          [&](size_t) {
                            for (int j = 0; j < 100; ++j) {
                              sink += st->live->Acquire()->generation & 1;
                            }
                          }) / 100.0,
             "ns", "median over 200 x 100 Acquire() calls");

    std::vector<uint64_t> link_parents;
    std::vector<size_t> links = pick(
        [](const Sample& s) {
          return s.ep == static_cast<uint8_t>(serve::Endpoint::kEntityLink);
        },
        2000, &link_parents);
    rep->Set("construction.link_us",
             ReplayMedian(links.size(), 1e3, buf, "construction.link",
                          link_parents,
                          [&](size_t i) {
                            sink += st->world->mapper
                                        ->Link(st->world->mentions[smp[links[i]].a])
                                        .node & 1;
                          }),
             "us");

    std::vector<uint64_t> topk_parents;
    std::vector<size_t> topk = pick(
        [](const Sample& s) { return s.ep == 0; }, 2000, &topk_parents);
    std::vector<float> scores;
    rep->Set("kge.score_tails_us",
             ReplayMedian(topk.size(), 1e3, buf, "kge.score_tails",
                          topk_parents,
                          [&](size_t i) {
                            st->world->model->ScoreTails(smp[topk[i]].a,
                                                         smp[topk[i]].b,
                                                         &scores);
                          }),
             "us");

    // ResultCache::Lookup on a benchmark-owned cache holding the run's
    // keys, replaying the run's key sequence (so hits and misses mix as
    // they did).
    serve::ResultCache cache(8192, 8);
    auto key_of = [&](const Sample& s) {
      serve::RequestKey k;
      k.endpoint = static_cast<serve::Endpoint>(s.ep);
      if (s.ep == 0) {
        k.a = s.a;
        k.b = s.b;
        k.c = kTopK;
      } else if (k.endpoint == serve::Endpoint::kEntityLink) {
        k.text = st->world->mentions[s.a];
      } else {
        k.a = s.a;
        k.b = k.endpoint == serve::Endpoint::kNeighbors ? rdf::kInvalidTerm : 0;
      }
      return k;
    };
    std::vector<size_t> seq = Stride(smp.size(), 200000);
    std::vector<serve::RequestKey> keys;
    std::vector<uint64_t> fps;
    for (size_t i : seq) {
      keys.push_back(key_of(smp[i]));
      fps.push_back(serve::Fingerprint(keys.back()));
    }
    auto payload = std::make_shared<const serve::ResultPayload>();
    for (size_t i = 0; i < keys.size(); ++i) {
      cache.Insert(fps[i], keys[i], 1, payload);
    }
    rep->Set("serve.cache.lookup_ns",
             ReplayMedian(50, 1.0, nullptr, "", {},
                          [&](size_t) {
                            for (size_t i = 0; i < keys.size(); ++i) {
                              sink += cache.Lookup(fps[i], keys[i], 1) != nullptr;
                            }
                          }) /
                 static_cast<double>(std::max<size_t>(1, keys.size())),
             "ns",
             "median of 50 passes over " + std::to_string(keys.size()) +
                 " run keys; sink " + std::to_string(sink));
    // Every traced request, hit or miss, looked its key up first.
    for (size_t j : Stride(smp.size(), 4000)) {
      if (smp[j].span == 0) continue;
      serve::RequestKey k = key_of(smp[j]);
      const uint64_t fp = serve::Fingerprint(k);
      int64_t t0 = NowNs();
      sink += cache.Lookup(fp, k, 1) != nullptr;
      buf->Add("serve.cache.lookup", t0, NowNs(), smp[j].span, smp[j].span);
    }
    PrintTimeTable(tracer, rep);
    tracer.WriteTsv(args.work_dir + "/live_rw_zipf.spans.tsv");
  }

  NeighborCheck total;
  for (const NeighborCheck& c : checks) {
    total.checked += c.checked;
    total.mismatched += c.mismatched;
    total.reordered += c.reordered;
    total.skipped += c.skipped;
  }
  rep->Check("neighbors answers == Match on the serving snapshot",
             total.checked > 0 && total.mismatched == 0,
             std::to_string(total.checked - total.mismatched) + "/" +
                 std::to_string(total.checked) + " equal as sets (" +
                 std::to_string(total.reordered) +
                 " in another order than a fresh Match: cached across a "
                 "compaction), " +
                 std::to_string(total.skipped) +
                 " skipped (more than one publish during the call)");
  return 0;
}

}  // namespace perfbench
