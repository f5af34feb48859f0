#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "construction/schema_mapper.h"
#include "core/openbg.h"
#include "kge/trans_models.h"
#include "serve/engine.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace serve = openbg::serve;
namespace util = openbg::util;
namespace rdf = openbg::rdf;
namespace kge = openbg::kge;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

/// Every number a run produces, by name, plus its output checks. Metrics
/// whose evidence is too thin are kept with value 0 and a note, so the
/// result line always carries every name the benchmark declares.
class Report {
 public:
  void Set(const std::string& name, double value, const char* unit,
           std::string note = "");
  /// A percentile metric: reported only when its sample floor holds.
  void SetQuantile(const std::string& name, const Quantile& q);
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Marks the run invalid: its outputs may be correct, but its numbers
  /// measured the host, not the program. Recorded runs carry the mark and
  /// the compare tool leaves them out.
  void Invalidate(const std::string& why);
  /// Prints a text line that is not part of the metric set.
  void Note(const std::string& line) { notes_.push_back(line); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const;
  bool valid() const { return invalid_.empty(); }
  /// Human-readable report followed by one `RESULT {...}` JSON line.
  void Print(FILE* out) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> checks_failed_;
  std::vector<std::string> checks_passed_;
  std::vector<std::string> invalid_;
  std::vector<std::string> notes_;
};

/// One timed request as a client saw it.
struct Sample {
  float us = 0.0f;
  uint32_t a = 0;  // endpoint argument (h / entity / mention index)
  uint32_t b = 0;  // second argument (r)
  uint8_t ep = 0;  // serve::Endpoint
  uint8_t status = 0;
  uint8_t from_cache = 0;
  uint8_t window = 0;  // index of the phase window the request ended in
  uint64_t span = 0;   // root span id when traced, else 0
};

/// Closed-loop phases are cut into this many equal windows; throughput and
/// latency percentiles are the median over windows, so a burst of outside
/// load on the host moves one window, not the result.
inline constexpr size_t kWindows = 10;

/// Sorted copy of the latencies of `samples` that pass `keep`.
template <typename Pred>
std::vector<double> Latencies(std::span<const Sample> samples, Pred keep) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (keep(s)) out.push_back(s.us);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Untimed closed-loop phase before the measured one: fills the cache,
/// and on sharded_neighbors verifies and pages in the hot blocks (a shorter
/// one left the first measured windows at a third of the steady rate).
inline constexpr double kWarmupS = 1.0;

/// Per-client bound on kept samples. A client that fills it drops every
/// other kept sample and halves its keep rate, so memory stays bounded
/// while the kept samples stay spread evenly over the phase.
inline constexpr size_t kMaxSamplesPerClient = size_t{1} << 18;

/// Storage for the kept samples of closed-loop phases, kMaxSamplesPerClient
/// per client. Constructing it touches every page, so the benchmark's own
/// resident memory is fixed before serving starts and does not depend on
/// how fast the program ran; peak_rss_mb subtracts it. A phase's samples
/// stay here until the next phase that uses the same buffer.
struct SampleBuffer {
  explicit SampleBuffer(size_t clients)
      : clients(clients), all(clients * kMaxSamplesPerClient) {}
  size_t clients;
  std::vector<Sample> all;
};

/// Result of one closed-loop phase.
struct Phase {
  double seconds = 0.0;
  std::span<const Sample> samples;  // kept samples, all clients
  uint64_t attempted = 0;           // every request, kept or not
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> ok_per_window;  // kWindows entries
  double own_bytes = 0.0;  // the sample buffer, resident throughout
};

/// Runs one closed-loop client thread per client of `buffer` for
/// `seconds`. Each calls `fn(client, seq, rng, trace_buffer)` once per
/// request until time is up and gets back the request's Sample.
/// `trace_buffer` is non-null only when `tracer` is set and this request's
/// sample will be kept, so spans are recorded for exactly the kept
/// requests.
template <typename Fn>
Phase RunClosedLoop(SampleBuffer* buffer, double seconds, uint64_t seed,
                    Tracer* tracer, Fn fn) {
  struct Client {
    Sample* kept = nullptr;  // this client's slice of the buffer
    size_t n = 0;
    uint64_t attempted = 0, ok = 0;
    uint64_t ok_per_window[kWindows] = {};
  };
  const size_t clients = buffer->clients;
  std::vector<Client> per(clients);
  std::vector<Tracer::Buffer*> bufs(clients, nullptr);
  for (size_t i = 0; i < clients; ++i) {
    per[i].kept = buffer->all.data() + i * kMaxSamplesPerClient;
    if (tracer != nullptr) bufs[i] = tracer->NewBuffer();
  }
  std::atomic<bool> stop{false};
  const int64_t start = NowNs();
  const int64_t window_ns =
      static_cast<int64_t>(seconds * 1e9 / static_cast<double>(kWindows));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      util::Rng rng(seed * 7919 + i + 1);
      Client& c = per[i];
      uint64_t stride = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t seq = c.attempted++;
        const bool keep = seq % stride == 0;
        Sample s = fn(i, seq, &rng, keep ? bufs[i] : nullptr);
        s.window = static_cast<uint8_t>(
            std::min<int64_t>(kWindows - 1, (NowNs() - start) / window_ns));
        if (s.status == static_cast<uint8_t>(serve::ServeStatus::kOk)) {
          ++c.ok;
          ++c.ok_per_window[s.window];
        }
        if (!keep) continue;
        if (c.n == kMaxSamplesPerClient) {
          size_t w = 0;
          for (size_t r = 0; r < c.n; r += 2) c.kept[w++] = c.kept[r];
          c.n = w;
          stride *= 2;
          if (seq % stride != 0) continue;
        }
        c.kept[c.n++] = s;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
  phase.ok_per_window.assign(kWindows, 0);
  size_t kept = 0;
  for (Client& c : per) {
    for (size_t w = 0; w < kWindows; ++w) {
      phase.ok_per_window[w] += c.ok_per_window[w];
    }
    phase.attempted += c.attempted;
    phase.ok += c.ok;
    // Compact in place: each client's slice moves down to follow the last.
    std::copy(c.kept, c.kept + c.n, buffer->all.begin() + kept);
    kept += c.n;
  }
  phase.samples = std::span<const Sample>(buffer->all.data(), kept);
  phase.failed = phase.attempted - phase.ok;
  phase.own_bytes =
      static_cast<double>(buffer->all.size() * sizeof(Sample));
  return phase;
}

/// Percentile `p` of each window's samples; the value is their median.
/// `values` receives the per-window percentiles. The floor must hold in
/// every window.
Quantile MedianOfWindows(std::vector<std::vector<double>> per, double p,
                         std::vector<double>* values);

/// Restricts the calling thread (and threads it creates afterwards) to
/// CPUs [first_cpu, first_cpu + num_cpus), clipped to the online CPUs.
void PinThisThread(size_t first_cpu, size_t num_cpus);

/// Sets peak_rss_mb (call right after the phase), throughput_rps,
/// latency_p50_us, latency_p99_us, fail_frac and the serve status shares
/// from a closed-loop phase, and adds its requests to attempted/failed.
void ReportClosedLoop(const Phase& phase, Report* rep);

/// Runs `make` at least kMinSetups times, and more while the total stays
/// under kSetupBudgetS (at most kMaxSetups), keeps the last result, and
/// reports the median wall time as setup_s.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 61;
inline constexpr double kSetupBudgetS = 1.5;
template <typename Make>
auto TimedSetup(Report* rep, Make make) {
  std::vector<double> times;
  double total = 0.0;
  decltype(make()) state;
  while (times.size() < static_cast<size_t>(kMinSetups) ||
         (total < kSetupBudgetS && times.size() < static_cast<size_t>(kMaxSetups))) {
    state = nullptr;  // tear the previous one down outside the timer
    int64_t t0 = NowNs();
    state = make();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += times.back();
  }
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  rep->Set("setup_s", Median(times), "s",
           "median of " + std::to_string(times.size()) + " set-ups (min " +
               std::to_string(*lo) + ", max " + std::to_string(*hi) + ")");
  return state;
}

/// Process high-water RSS (VmHWM) in MiB.
double PeakRssMb();
/// Resets VmHWM to the current RSS, so peak_rss_mb covers serving only,
/// not the set-ups.
void ResetPeakRss();
/// Sets peak_rss_mb: VmHWM since ResetPeakRss minus `own_bytes`, the
/// benchmark's own buffers that stay resident through the phase (samples,
/// schedules, recorded payloads), so the metric follows the program's
/// memory. Call right after the phase.
void ReportPeakRss(double own_bytes, Report* rep);

/// Median wall time, in `unit_ns` units, of `fn()` over `n` calls; each
/// call is also recorded as a child span of `parents[i]` when a tracer
/// buffer is given.
template <typename Fn>
double ReplayMedian(size_t n, double unit_ns, Tracer::Buffer* buf,
                    const char* span_name,
                    const std::vector<uint64_t>& parents, Fn fn) {
  std::vector<double> t;
  t.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t t0 = NowNs();
    fn(i);
    int64_t t1 = NowNs();
    t.push_back(static_cast<double>(t1 - t0) / unit_ns);
    if (buf != nullptr && i < parents.size() && parents[i] != 0) {
      buf->Add(span_name, t0, t1, parents[i], parents[i]);
    }
  }
  return Median(t);
}

/// The `serving_load` world: a synthetic business KG, its link-prediction
/// benchmark, a trained TransE, the brand mapper and the Zipf-ranked query
/// pools. The world is fixed (it does not depend on --seed); the seed
/// drives the request streams.
struct ServingWorld {
  std::unique_ptr<openbg::core::OpenBG> kg;
  openbg::bench_builder::Dataset ds;
  std::unique_ptr<kge::TransE> model;
  std::unique_ptr<openbg::construction::SchemaMapper> mapper;
  std::vector<kge::LpTriple> topk_queries;
  std::vector<rdf::TermId> products;
  std::vector<std::string> mentions;

  serve::ServeContext::Bindings Bindings() const;
};
std::unique_ptr<ServingWorld> BuildServingWorld();

/// A TransE whose entity table is a Gaussian mixture (the `ann` scenario of
/// serving_load): `entities` x `dim`, `relations` relations.
std::unique_ptr<kge::TransE> BuildMixtureTransE(size_t entities, size_t dim,
                                                size_t relations,
                                                uint64_t seed);

/// One request of the Zipf(1.1) serving mix: 70% LinkPredictTopK (k=10),
/// 10% each Neighbors, ConceptsOf and EntityLink.
struct MixedRequest {
  serve::Endpoint ep = serve::Endpoint::kLinkPredictTopK;
  uint32_t a = 0;  // h, product term, or mention index
  uint32_t b = 0;  // r (LinkPredictTopK only)
};
inline constexpr size_t kTopK = 10;

class MixSampler {
 public:
  explicit MixSampler(const ServingWorld& world);
  MixedRequest Draw(util::Rng* rng) const;

 private:
  const ServingWorld& world_;
  util::ZipfSampler topk_, products_, mentions_;
};

serve::Response CallEngine(serve::QueryEngine* engine,
                           const ServingWorld& world,
                           const MixedRequest& req);

/// Span name of an engine call on `ep` ("serve.link_predict_topk", ...).
const char* ServeSpanName(serve::Endpoint ep);

/// Neighbors as the engine defines it: out-edges of `entity`, then its
/// in-edges that are not self-loops.
template <typename Store>
std::vector<rdf::Triple> ExpectedNeighbors(const Store& store,
                                           rdf::TermId entity) {
  constexpr rdf::TermId kAny = rdf::TriplePattern::kAny;
  std::vector<rdf::Triple> out = store.Match({entity, kAny, kAny});
  for (const rdf::Triple& t : store.Match({kAny, kAny, entity})) {
    if (t.s != entity) out.push_back(t);
  }
  return out;
}

/// Sets the serve.cache.* counters from the cache stats before and after
/// a phase.
void ReportCache(const serve::ResultCache::Stats& before,
                 const serve::ResultCache::Stats& after, Report* rep);

/// Prints the "where the time goes" table of a traced phase and the
/// tracing overhead (traced minus untraced end-to-end numbers).
void PrintTimeTable(const Tracer& tracer, Report* rep);
void ReportOverhead(const char* what, double untraced, double traced,
                    const char* unit, Report* rep);

/// Samples every `stride`-th element index of `n`, at most `cap` of them.
std::vector<size_t> Stride(size_t n, size_t cap);

int RunNetMixedOpen(const Args& args, Report* rep);
int RunTopkUncached(const Args& args, Report* rep);
int RunLiveRwZipf(const Args& args, Report* rep);
int RunShardedNeighbors(const Args& args, Report* rep);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
