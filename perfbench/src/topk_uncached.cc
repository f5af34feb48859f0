// topk_uncached: in-process closed loop, 4 clients, LinkPredictTopK k=10 on
// a 40000 x 64 Gaussian-mixture TransE with the exact scan. (h, r) is
// uniform over E x R (640k keys against a 4096-entry cache), so nearly
// every request is admitted, queued, drained, scanned and selected.

#include <cstring>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

constexpr size_t kEntities = 40000;
constexpr size_t kDim = 64;
constexpr size_t kRelations = 16;
constexpr size_t kClients = 4;

struct State {
  std::unique_ptr<kge::TransE> model;
  std::unique_ptr<serve::ServeContext> ctx;
  std::unique_ptr<serve::QueryEngine> engine;
};

struct Checked {
  uint32_t h = 0, r = 0;
  std::vector<serve::ScoredEntity> topk;
};

Phase Measure(State* st, SampleBuffer* samples, double seconds, uint64_t seed,
              Tracer* tracer, std::vector<std::vector<Checked>>* checks) {
  return RunClosedLoop(
      samples, seconds, seed, tracer,
      [&](size_t client, uint64_t seq, util::Rng* rng, Tracer::Buffer* buf) {
        Sample s;
        s.ep = static_cast<uint8_t>(serve::Endpoint::kLinkPredictTopK);
        s.a = static_cast<uint32_t>(rng->Uniform(kEntities));
        s.b = static_cast<uint32_t>(rng->Uniform(kRelations));
        int64_t t0 = NowNs();
        serve::Response resp = st->engine->LinkPredictTopK(s.a, s.b, kTopK);
        int64_t t1 = NowNs();
        s.us = static_cast<float>(static_cast<double>(t1 - t0) / 1e3);
        s.status = static_cast<uint8_t>(resp.status);
        s.from_cache = resp.from_cache ? 1 : 0;
        if (buf != nullptr) {
          s.span = buf->Add(ServeSpanName(serve::Endpoint::kLinkPredictTopK),
                            t0, t1, 0, 0);
        }
        if (checks != nullptr && seq % 61 == 0 &&
            (*checks)[client].size() < 256) {
          (*checks)[client].push_back({s.a, s.b, resp.payload.topk});
        }
        return s;
      });
}

}  // namespace

int RunTopkUncached(const Args& args, Report* rep) {
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<State> st = TimedSetup(rep, [&] {
    auto s = std::make_unique<State>();
    s->model = BuildMixtureTransE(kEntities, kDim, kRelations, 0xA55);
    serve::ServeContext::Bindings b;
    b.model = s->model.get();
    s->ctx = std::make_unique<serve::ServeContext>(b);
    serve::EngineOptions opts;
    opts.num_threads = threads;
    s->engine = std::make_unique<serve::QueryEngine>(s->ctx.get(), opts);
    return s;
  });

  SampleBuffer samples(kClients);
  Measure(st.get(), &samples, kWarmupS,
          args.seed + 1000, nullptr, nullptr);  // warm-up
  ResetPeakRss();  // peak_rss_mb covers serving, not the set-ups

  std::vector<std::vector<Checked>> checks(kClients);
  Tracer tracer;
  Phase phase;
  auto all = [](const Sample&) { return true; };
  if (!args.trace) {
    phase = Measure(st.get(), &samples, args.seconds, args.seed, nullptr,
                    &checks);
    ReportClosedLoop(phase, rep);
  } else {
    Phase plain = Measure(st.get(), &samples, args.seconds / 2, args.seed,
                          nullptr, &checks);
    rep->attempted += plain.attempted;
    rep->failed += plain.failed;
    const double plain_rps = plain.ok / plain.seconds;
    const double plain_p50 =
        PercentileWithFloor(Latencies(plain.samples, all), 50).value;
    serve::ResultCache::Stats c0 = st->engine->cache().stats();
    phase = Measure(st.get(), &samples, args.seconds / 2, args.seed + 1,
                    &tracer, nullptr);
    ReportCache(c0, st->engine->cache().stats(), rep);
    ReportClosedLoop(phase, rep);
    ReportOverhead("throughput_rps", plain_rps, phase.ok / phase.seconds,
                   "req/s", rep);
    ReportOverhead("latency_p50_us", plain_p50,
                   PercentileWithFloor(Latencies(phase.samples, all), 50).value,
                   "us", rep);

    std::vector<double> miss = Latencies(
        phase.samples, [](const Sample& s) { return !s.from_cache; });
    std::vector<double> hit = Latencies(
        phase.samples, [](const Sample& s) { return s.from_cache != 0; });
    rep->SetQuantile("serve.miss_p50_us", PercentileWithFloor(miss, 50));
    rep->SetQuantile("serve.miss_p99_us", PercentileWithFloor(miss, 99));
    rep->SetQuantile("serve.hit_p50_us", PercentileWithFloor(hit, 50));
    rep->SetQuantile("serve.hit_p99_us", PercentileWithFloor(hit, 99));

    // Replay the traced requests' (h, r) through the scan and the top-K
    // selection, one at a time, as children of the requests they mirror.
    std::vector<size_t> idx = Stride(phase.samples.size(), 2000);
    std::vector<uint64_t> parents;
    for (size_t i : idx) {
      parents.push_back(phase.samples[i].from_cache ? 0
                                                    : phase.samples[i].span);
    }
    Tracer::Buffer* buf = tracer.NewBuffer();
    std::vector<std::vector<float>> scores(idx.size());
    double score_us = ReplayMedian(
        idx.size(), 1e3, buf, "kge.score_tails", parents, [&](size_t i) {
          const Sample& s = phase.samples[idx[i]];
          st->model->ScoreTails(s.a, s.b, &scores[i]);
        });
    double select_us = ReplayMedian(
        idx.size(), 1e3, buf, "serve.select_topk", parents, [&](size_t i) {
          std::vector<serve::ScoredEntity> top =
              serve::SelectTopK(scores[i], kTopK);
          if (top.size() != kTopK) std::abort();
        });
    rep->Set("kge.score_tails_us", score_us, "us",
             "median of " + std::to_string(idx.size()) + " replayed scans");
    rep->Set("serve.select_topk_us", select_us, "us");
    rep->Set("nn.scan_gbps",
             static_cast<double>(kEntities * kDim * 4) / (score_us * 1e3),
             "GB/s", "computed: E*D*4 bytes / kge.score_tails_us");
    double miss_p50 = PercentileWithFloor(miss, 50).value;
    rep->Set("serve.queue_share",
             miss_p50 > 0 ? 1.0 - (score_us + select_us) / miss_p50 : 0.0,
             "ratio", "1 - (score_tails + select_topk) / miss_p50");
    PrintTimeTable(tracer, rep);
    tracer.WriteTsv(args.work_dir + "/topk_uncached.spans.tsv");
  }

  // Sampled answers must equal ScoreTails + SelectTopK byte for byte.
  size_t checked = 0, mismatched = 0;
  std::vector<float> scores;
  for (const auto& per : checks) {
    for (const Checked& c : per) {
      st->model->ScoreTails(c.h, c.r, &scores);
      std::vector<serve::ScoredEntity> want = serve::SelectTopK(scores, kTopK);
      ++checked;
      if (want.size() != c.topk.size() ||
          std::memcmp(want.data(), c.topk.data(),
                      want.size() * sizeof(serve::ScoredEntity)) != 0) {
        ++mismatched;
      }
    }
  }
  rep->Check("topk answers == ScoreTails + SelectTopK",
             checked > 0 && mismatched == 0,
             std::to_string(checked - mismatched) + "/" +
                 std::to_string(checked) + " byte-identical");
  return 0;
}

}  // namespace perfbench
