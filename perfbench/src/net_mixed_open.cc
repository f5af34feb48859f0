// net_mixed_open: the serving_load world and trained TransE behind
// net::Server on loopback (cache on, frozen in-memory graph), driven open
// loop. Two tenants on one connection each: the paid tenant carries the
// latency limit; the free tenant is offered more than its token bucket at
// every rate, so the governor's shed path stays in the mix. Arrivals are
// Poisson at a ladder of fixed offered rates, the request mix is the Zipf
// serving mix, and every latency is timed from the request's intended
// send time, so a stall is charged to the requests queued behind it.

#include <sys/prctl.h>
#include <time.h>

#include <cstring>

#include "common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace perfbench {
namespace {

namespace net = openbg::net;

constexpr uint32_t kPaid = 1;
constexpr uint32_t kFree = 2;
constexpr double kPaidShare = 0.8;  // of each rung's offered rate
constexpr double kFreeBucketRate = 200.0;
constexpr double kFreeBurst = 50.0;

/// The offered-rate ladder (requests/s, both tenants) and each rung's
/// share of the run. Rung 1 is the reference rate of the latency metrics.
struct Rung {
  double rate;
  double share;
};
constexpr Rung kLadder[] = {{2000, 0.1}, {32000, 0.6}, {64000, 0.15},
                            {96000, 0.15}};
constexpr size_t kRefRung = 1;
constexpr double kWarmupRate = 2000;
constexpr double kGapS = 0.05;           // idle gap between rungs
constexpr double kSloUs = 1000.0;        // paid p99 limit
constexpr double kMaxGenLagP99Us = 2000.0;  // beyond this the run is invalid
constexpr size_t kCheckStride = 50;      // every 50th response is checked
constexpr size_t kRungWindows = 60;      // latency windows per rung
constexpr size_t kRawReserve = 512;      // bytes per recorded payload slot

struct State {
  std::unique_ptr<ServingWorld> world;
  std::unique_ptr<serve::ServeContext> ctx;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<MixSampler> mix;
  ~State() {
    if (server != nullptr) server->Stop();
  }
};

serve::EngineOptions EngineOpts() {
  serve::EngineOptions o;
  o.num_threads = 2;
  o.cache_capacity = 8192;
  return o;
}

net::ServerOptions ServerOpts() {
  net::ServerOptions o;
  o.event_threads = 2;
  o.worker_threads = 2;
  o.governor.default_tenant = {1e12, 1e12, net::Tier::kPaid};
  return o;
}

void ConfigureTenants(net::TenantGovernor* g) {
  g->SetTenant(kFree, {kFreeBucketRate, kFreeBurst, net::Tier::kFree});
}

/// The server side (engine pool, event threads, workers) runs on CPU 0 and
/// the load generator on the others, so the generator never queues behind
/// the threads it measures. One server CPU keeps the socket path's wake-ups
/// on one core: with two, the reference p99 moved several-fold between
/// runs with the host's scheduling of idle vCPUs.
constexpr size_t kServerCpus = 1;
size_t Cpus() { return std::max(1u, std::thread::hardware_concurrency()); }
void PinServerSide() { PinThisThread(0, kServerCpus); }
void PinGenerator() {
  PinThisThread(kServerCpus, Cpus() - kServerCpus);
}
void Unpin() { PinThisThread(0, Cpus()); }

std::unique_ptr<State> Setup() {
  PinServerSide();  // threads created below inherit the server CPUs
  auto st = std::make_unique<State>();
  st->world = BuildServingWorld();
  st->ctx = std::make_unique<serve::ServeContext>(st->world->Bindings());
  st->engine = std::make_unique<serve::QueryEngine>(st->ctx.get(), EngineOpts());
  st->server = std::make_unique<net::Server>(st->engine.get(), ServerOpts());
  ConfigureTenants(&st->server->governor());
  const bool started = st->server->Start().ok();
  Unpin();
  if (!started) return nullptr;
  st->mix = std::make_unique<MixSampler>(*st->world);
  return st;
}

net::Tag TagOf(serve::Endpoint ep) {
  switch (ep) {
    case serve::Endpoint::kLinkPredictTopK: return net::Tag::kLinkPredict;
    case serve::Endpoint::kNeighbors: return net::Tag::kNeighbors;
    case serve::Endpoint::kConceptsOf: return net::Tag::kConceptsOf;
    case serve::Endpoint::kEntityLink: return net::Tag::kEntityLink;
  }
  return net::Tag::kPing;
}

/// The wire form of `r`, as net::Client sends it.
net::WireRequest ToWire(const ServingWorld& world, const MixedRequest& r) {
  net::WireRequest w;
  w.tag = TagOf(r.ep);
  w.h = r.a;
  w.r = r.b;
  w.k = kTopK;
  w.entity = r.a;
  w.relation = r.ep == serve::Endpoint::kNeighbors ? rdf::kInvalidTerm : 0;
  if (r.ep == serve::Endpoint::kEntityLink) w.text = world.mentions[r.a];
  return w;
}

/// One tenant's open-loop stream over the whole ladder.
struct Stream {
  uint32_t tenant = 0;
  std::vector<double> intended_s;  // schedule, relative to the ladder start
  std::vector<int> rung;           // -1 = warm-up
  std::vector<MixedRequest> reqs;
  std::vector<int64_t> sent_ns;
  std::vector<int64_t> recv_ns;
  std::vector<uint8_t> status;
  std::vector<uint8_t> from_cache;
  std::vector<std::string> raw;  // payload bytes of request i*kCheckStride

  /// Recorded payload bytes of response i, or null.
  const std::string* Raw(size_t i) const {
    if (i % kCheckStride != 0 || raw[i / kCheckStride].empty()) return nullptr;
    return &raw[i / kCheckStride];
  }

  /// Bytes of the stream's own buffers: schedule, results and recorded
  /// payloads (their capacity, reserved up front).
  double Bytes() const {
    size_t b = intended_s.size() * sizeof(double) + rung.size() * sizeof(int) +
               reqs.size() * sizeof(MixedRequest) +
               (sent_ns.size() + recv_ns.size()) * sizeof(int64_t) +
               status.size() + from_cache.size() +
               raw.size() * sizeof(std::string);
    for (const std::string& r : raw) b += r.capacity();
    return static_cast<double>(b);
  }
};

/// Windows of the ladder, in seconds from its start: warm-up, then rungs.
struct Window {
  double start, len, rate;
  int rung;
};
std::vector<Window> Windows(double seconds) {
  std::vector<Window> w;
  double t = 0.0;
  w.push_back({t, std::min(0.5, seconds * 0.1), kWarmupRate, -1});
  t += w.back().len + kGapS;
  for (size_t i = 0; i < std::size(kLadder); ++i) {
    w.push_back({t, seconds * kLadder[i].share, kLadder[i].rate,
                 static_cast<int>(i)});
    t += w.back().len + kGapS;
  }
  return w;
}

Stream MakeStream(const MixSampler& mix, uint32_t tenant, double share,
                  const std::vector<Window>& windows, uint64_t seed) {
  Stream s;
  s.tenant = tenant;
  util::Rng rng(seed * 1315423911u + tenant);
  for (size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    for (double t : PoissonArrivals(seed * 977 + tenant * 131 + i,
                                    w.rate * share, w.start, w.len)) {
      s.intended_s.push_back(t);
      s.rung.push_back(w.rung);
      s.reqs.push_back(mix.Draw(&rng));
    }
  }
  const size_t n = s.intended_s.size();
  s.sent_ns.assign(n, 0);
  s.recv_ns.assign(n, 0);
  s.status.assign(n, 0xFF);
  s.from_cache.assign(n, 0);
  s.raw.resize(n / kCheckStride + 1);
  // Recorded payloads are copied into these slots, so the stream's memory
  // is allocated and touched before the ladder starts.
  for (std::string& r : s.raw) r.reserve(kRawReserve);
  return s;
}

void SleepUntilNs(int64_t target_ns) {
  timespec ts;
  ts.tv_sec = target_ns / 1'000'000'000;
  ts.tv_nsec = target_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Drives both streams over the socket: per tenant one sender thread that
/// paces the schedule (pipelined, never waiting for answers) and one
/// receiver thread. Returns false if a connection failed.
bool DriveSocket(State* st, std::vector<Stream>* streams, int64_t start_ns) {
  std::vector<std::unique_ptr<net::Client>> clients;
  for (Stream& s : *streams) {
    net::Client::Options o;
    o.port = st->server->port();
    o.tenant_id = s.tenant;
    clients.push_back(std::make_unique<net::Client>(o));
    if (!clients.back()->Connect().ok()) return false;
  }
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams->size(); ++c) {
    Stream& s = (*streams)[c];
    net::Client* client = clients[c].get();
    threads.emplace_back([&, client] {
      PinGenerator();
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      const ServingWorld& w = *st->world;
      for (size_t i = 0; i < s.reqs.size(); ++i) {
        int64_t target = start_ns + static_cast<int64_t>(s.intended_s[i] * 1e9);
        if (NowNs() < target) SleepUntilNs(target);
        const MixedRequest& r = s.reqs[i];
        s.sent_ns[i] = NowNs();
        switch (r.ep) {
          case serve::Endpoint::kLinkPredictTopK:
            client->SendLinkPredict(r.a, r.b, kTopK);
            break;
          case serve::Endpoint::kNeighbors:
            client->SendNeighbors(r.a);
            break;
          case serve::Endpoint::kConceptsOf:
            client->SendConceptsOf(r.a);
            break;
          case serve::Endpoint::kEntityLink:
            client->SendEntityLink(w.mentions[r.a]);
            break;
        }
        if (!client->Flush().ok()) {
          ok = false;
          return;
        }
      }
    });
    threads.emplace_back([&, client] {
      PinGenerator();
      std::string raw;
      for (size_t got = 0; got < s.reqs.size(); ++got) {
        net::WireResponse resp;
        if (!client->Recv(&resp, &raw).ok()) {
          ok = false;
          return;
        }
        const int64_t now = NowNs();
        // Request ids count up from 1 in send order on each connection.
        const size_t i = resp.request_id - 1;
        if (i >= s.reqs.size()) {
          ok = false;
          return;
        }
        s.recv_ns[i] = now;
        s.status[i] = static_cast<uint8_t>(resp.status);
        s.from_cache[i] = resp.from_cache ? 1 : 0;
        if (i % kCheckStride == 0) s.raw[i / kCheckStride] = raw;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok.load();
}

struct RungStats {
  std::vector<double> paid_us;  // OK paid latencies, sorted
  uint64_t ok = 0;              // OK answers, both tenants
  uint64_t attempted = 0;       // requests sent, both tenants
  uint64_t failed = 0;          // non-OK, free-tenant sheds excluded
  uint64_t free_shed = 0;
  double seconds = 0.0;
  bool backlog_ok = true;
  std::vector<std::vector<double>> paid_win;  // paid_us split by window

  /// Percentile `p` of the paid latencies: the median over the rung's
  /// windows, so a host stall moves one window's tail, not the result.
  /// A rung too short for the floor in every window (the lowest rate, at
  /// p99) falls back to the percentile over the whole rung.
  Quantile Paid(double p) const {
    std::vector<double> per;
    Quantile q = MedianOfWindows(paid_win, p, &per);
    return q.ok ? q : PercentileWithFloor(paid_us, p);
  }
};

std::vector<RungStats> Summarize(const std::vector<Stream>& streams,
                                 const std::vector<Window>& windows,
                                 int64_t start_ns) {
  std::vector<RungStats> rs(std::size(kLadder));
  // Backlog: answers completing in the second half of a rung's window
  // must keep up with the arrivals intended in it.
  std::vector<uint64_t> late_arrivals(rs.size(), 0), late_done(rs.size(), 0);
  for (const Window& w : windows) {
    if (w.rung < 0) continue;
    rs[w.rung].seconds = w.len;
    rs[w.rung].paid_win.resize(kRungWindows);
  }
  for (const Stream& s : streams) {
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      if (s.rung[i] < 0) continue;
      RungStats& r = rs[s.rung[i]];
      const Window& w = windows[s.rung[i] + 1];
      ++r.attempted;
      auto st = static_cast<net::WireStatus>(s.status[i]);
      if (st == net::WireStatus::kOk) {
        ++r.ok;
        if (s.tenant == kPaid) {
          const double us = static_cast<double>(s.recv_ns[i] - start_ns) / 1e3 -
                            s.intended_s[i] * 1e6;
          const size_t win = std::min<size_t>(
              kRungWindows - 1,
              static_cast<size_t>((s.intended_s[i] - w.start) / w.len *
                                  kRungWindows));
          r.paid_us.push_back(us);
          r.paid_win[win].push_back(us);
        }
      } else if (st == net::WireStatus::kShed && s.tenant == kFree) {
        ++r.free_shed;
      } else {
        ++r.failed;
      }
      const double mid = w.start + w.len / 2, end = w.start + w.len;
      if (s.intended_s[i] >= mid) ++late_arrivals[s.rung[i]];
      const double done_s = static_cast<double>(s.recv_ns[i] - start_ns) / 1e9;
      if (done_s >= mid && done_s < end) ++late_done[s.rung[i]];
    }
  }
  for (size_t k = 0; k < rs.size(); ++k) {
    std::sort(rs[k].paid_us.begin(), rs[k].paid_us.end());
    rs[k].backlog_ok = late_done[k] + late_done[k] / 20 + 10 >= late_arrivals[k];
  }
  return rs;
}

struct LadderResult {
  std::vector<Stream> streams;
  std::vector<Window> windows;
  std::vector<RungStats> rungs;
  int64_t start_ns = 0;
  // Send lateness at the rungs whose latencies are reported end to end
  // (up to the reference rate), sorted. Above it the server may push back
  // through TCP, which makes the generator late through no fault of its own.
  std::vector<double> gen_lag_us;
  serve::ResultCache::Stats cache0, cache1;
  net::Server::NetStats net0, net1;
};

/// Builds the ladder's schedule: windows and both tenants' streams.
void PrepareLadder(State* st, double seconds, uint64_t seed,
                   LadderResult* out) {
  out->windows = Windows(seconds);
  out->streams.push_back(
      MakeStream(*st->mix, kPaid, kPaidShare, out->windows, seed));
  out->streams.push_back(
      MakeStream(*st->mix, kFree, 1.0 - kPaidShare, out->windows, seed));
}

/// Drives a prepared ladder over the socket and summarizes it.
bool DriveLadder(State* st, LadderResult* out) {
  out->cache0 = st->engine->cache().stats();
  out->net0 = st->server->stats();
  out->start_ns = NowNs() + 20'000'000;  // 20 ms to connect
  if (!DriveSocket(st, &out->streams, out->start_ns)) return false;
  out->cache1 = st->engine->cache().stats();
  out->net1 = st->server->stats();
  out->rungs = Summarize(out->streams, out->windows, out->start_ns);
  for (const Stream& s : out->streams) {
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      if (s.rung[i] < 0 || s.rung[i] > static_cast<int>(kRefRung)) continue;
      out->gen_lag_us.push_back(
          static_cast<double>(s.sent_ns[i] - out->start_ns) / 1e3 -
          s.intended_s[i] * 1e6);
    }
  }
  std::sort(out->gen_lag_us.begin(), out->gen_lag_us.end());
  return true;
}

void ReportLadder(const LadderResult& l, Report* rep) {
  double own_bytes = 0.0;
  for (const Stream& s : l.streams) own_bytes += s.Bytes();
  ReportPeakRss(own_bytes, rep);
  char line[256];
  rep->Note("rung  offered/s  seconds   attempted  ok/s      free_shed  "
            "failed  paid_p50_us  paid_p99_us  backlog");
  for (size_t k = 0; k < l.rungs.size(); ++k) {
    const RungStats& r = l.rungs[k];
    Quantile p50 = r.Paid(50);
    Quantile p99 = r.Paid(99);
    std::snprintf(line, sizeof(line),
                  "%-5zu %9.0f %8.2f %11llu %9.1f %10llu %7llu %12.1f %12.1f%s"
                  "  %s",
                  k, kLadder[k].rate, r.seconds,
                  static_cast<unsigned long long>(r.attempted),
                  r.ok / r.seconds,
                  static_cast<unsigned long long>(r.free_shed),
                  static_cast<unsigned long long>(r.failed), p50.value,
                  p99.value, p99.ok ? "" : "*", r.backlog_ok ? "ok" : "GROWING");
    rep->Note(line);
  }
  const RungStats& ref = l.rungs[kRefRung];
  for (double p : {50.0, 99.0}) {
    std::vector<double> per;
    MedianOfWindows(ref.paid_win, p, &per);
    std::string w = "reference rung paid p" + std::to_string(int(p)) + " per window:";
    for (double v : per) w += " " + std::to_string(static_cast<int>(v));
    rep->Note(w);
  }
  rep->Set("throughput_rps", ref.ok / ref.seconds, "req/s",
           "OK answers/s at the reference rate " +
               std::to_string(static_cast<int>(kLadder[kRefRung].rate)));
  rep->SetQuantile("latency_p50_us", ref.Paid(50));
  rep->SetQuantile("latency_p99_us", ref.Paid(99));
  rep->SetQuantile("lo_rate_p99_us", l.rungs[0].Paid(99));
  double best = 0.0;
  int best_rung = -1;
  for (size_t k = 0; k < l.rungs.size(); ++k) {
    Quantile p99 = l.rungs[k].Paid(99);
    if (p99.ok && p99.value <= kSloUs && l.rungs[k].backlog_ok &&
        l.rungs[k].failed == 0) {
      best = l.rungs[k].ok / l.rungs[k].seconds;
      best_rung = static_cast<int>(k);
    }
  }
  rep->Set("max_rps_at_slo", best, "req/s",
           best_rung < 0 ? "no rung met paid p99 <= 1000 us"
                         : "OK answers/s at rung " + std::to_string(best_rung));
  uint64_t attempted = 0, failed = 0;
  for (const RungStats& r : l.rungs) {
    attempted += r.attempted;
    failed += r.failed;
  }
  rep->Set("fail_frac",
           attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
           "ratio", "free-tenant sheds excluded");
  rep->attempted += attempted;
  rep->failed += failed;
  const uint64_t frames = l.net1.frames_in - l.net0.frames_in;
  const uint64_t gov_shed = l.net1.shed - l.net0.shed;
  rep->Set("net.governor.shed_frac",
           frames > 0 ? static_cast<double>(gov_shed) / frames : 0.0, "ratio",
           std::to_string(gov_shed) + " governor sheds of " +
               std::to_string(frames) + " frames");
  // Engine-level statuses: wire sheds beyond the governor's are the
  // engine's admission refusals.
  uint64_t wire_shed = 0, deadline = 0, answers = 0;
  for (const Stream& s : l.streams) {
    for (uint8_t st : s.status) {
      ++answers;
      if (st == static_cast<uint8_t>(net::WireStatus::kShed)) ++wire_shed;
      if (st == static_cast<uint8_t>(net::WireStatus::kDeadlineExceeded)) {
        ++deadline;
      }
    }
  }
  const double n = answers > 0 ? static_cast<double>(answers) : 1.0;
  rep->Set("serve.shed_frac",
           static_cast<double>(wire_shed > gov_shed ? wire_shed - gov_shed : 0) /
               n,
           "ratio");
  rep->Set("serve.deadline_frac", static_cast<double>(deadline) / n, "ratio");
  Quantile lag = PercentileWithFloor(l.gen_lag_us, 99);
  rep->Set("net.gen_lag_p99_us", lag.value, "us",
           "n=" + std::to_string(lag.n) + "; limit " +
               std::to_string(static_cast<int>(kMaxGenLagP99Us)) + " us");
  if (!lag.ok || lag.value > kMaxGenLagP99Us) {
    rep->Invalidate("load generator p99 lag " + std::to_string(lag.value) +
                    " us exceeds its limit; latencies not charged to the "
                    "server");
  }
}

/// Sampled socket payloads must be byte-identical to the in-process answer
/// to the same request, computed by an engine with no cache (so a cached
/// answer the server sent is checked against a fresh computation) and
/// encoded locally (cache flags copied from the wire, since whether an
/// answer was cached depends on arrival order).
void CheckPayloads(State* st, const LadderResult& l, Report* rep) {
  serve::EngineOptions opts = EngineOpts();
  opts.cache_enabled = false;
  serve::QueryEngine reference(st->ctx.get(), opts);
  size_t checked = 0, mismatched = 0;
  for (const Stream& s : l.streams) {
    for (size_t i = 0; i < s.reqs.size(); i += kCheckStride) {
      if (s.status[i] != static_cast<uint8_t>(net::WireStatus::kOk)) continue;
      serve::Response resp = CallEngine(&reference, *st->world, s.reqs[i]);
      resp.from_cache = s.from_cache[i] != 0;
      resp.degraded = false;
      ++checked;
      if (s.Raw(i) == nullptr ||
          net::EncodeResponsePayload(TagOf(s.reqs[i].ep), resp) != *s.Raw(i)) {
        ++mismatched;
      }
    }
  }
  rep->Check("socket payloads == uncached in-process answers, encoded locally",
             checked > 0 && mismatched == 0,
             std::to_string(checked - mismatched) + "/" +
                 std::to_string(checked) + " byte-identical");
}

/// Drives the reference rung's admitted requests in-process against a
/// fresh, identically configured engine: the same schedule, served by as
/// many caller threads as the server has workers, each latency timed from
/// the intended arrival. Earlier rungs are replayed first (closed loop,
/// untimed) so the cache is as warm as the socket run's. Returns the paid
/// tenant's sorted latencies and, per replayed request, its call span.
struct InProcess {
  std::vector<double> paid_us;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> call;  // per stream
};
InProcess ReplayInProcess(State* st, const LadderResult& l) {
  PinServerSide();
  serve::QueryEngine engine(st->ctx.get(), EngineOpts());
  Unpin();
  struct Item {
    double t;
    size_t stream, i;
  };
  std::vector<Item> warm, ref;
  for (size_t c = 0; c < l.streams.size(); ++c) {
    const Stream& s = l.streams[c];
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      if (s.status[i] != static_cast<uint8_t>(net::WireStatus::kOk)) continue;
      if (s.rung[i] < static_cast<int>(kRefRung)) {
        warm.push_back({s.intended_s[i], c, i});
      } else if (s.rung[i] == static_cast<int>(kRefRung)) {
        ref.push_back({s.intended_s[i], c, i});
      }
    }
  }
  auto by_time = [](const Item& a, const Item& b) { return a.t < b.t; };
  std::sort(warm.begin(), warm.end(), by_time);
  std::sort(ref.begin(), ref.end(), by_time);
  for (const Item& it : warm) {
    CallEngine(&engine, *st->world, l.streams[it.stream].reqs[it.i]);
  }
  InProcess out;
  out.call.resize(l.streams.size());
  for (size_t c = 0; c < l.streams.size(); ++c) {
    out.call[c].assign(l.streams[c].reqs.size(), {0, 0});
  }
  if (ref.empty()) return out;
  const double t0 = ref.front().t;
  const int64_t start = NowNs() + 5'000'000;
  std::vector<double> done_us(ref.size(), 0.0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < ServerOpts().worker_threads; ++w) {
    workers.emplace_back([&] {
      PinServerSide();
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      for (size_t k; (k = next.fetch_add(1)) < ref.size();) {
        const Item& it = ref[k];
        int64_t due = start + static_cast<int64_t>((it.t - t0) * 1e9);
        if (NowNs() < due) SleepUntilNs(due);
        int64_t c0 = NowNs();
        CallEngine(&engine, *st->world, l.streams[it.stream].reqs[it.i]);
        int64_t c1 = NowNs();
        done_us[k] = static_cast<double>(c1 - due) / 1e3;
        out.call[it.stream][it.i] = {c0, c1};
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t k = 0; k < ref.size(); ++k) {
    if (l.streams[ref[k].stream].tenant == kPaid) out.paid_us.push_back(done_us[k]);
  }
  std::sort(out.paid_us.begin(), out.paid_us.end());
  return out;
}

/// Per-call nanoseconds of `fn(i)` over `n` inputs: median of `reps` passes.
template <typename Fn>
double PerCallNs(size_t n, int reps, Fn fn) {
  std::vector<double> t;
  for (int r = 0; r < reps && n > 0; ++r) {
    int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) fn(i);
    t.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(n));
  }
  return Median(t);
}

void TraceNet(State* st, const LadderResult& l, Tracer* tracer, Report* rep) {
  InProcess inproc = ReplayInProcess(st, l);
  const RungStats& ref = l.rungs[kRefRung];
  Quantile s50 = PercentileWithFloor(ref.paid_us, 50);
  Quantile s99 = PercentileWithFloor(ref.paid_us, 99);
  Quantile i50 = PercentileWithFloor(inproc.paid_us, 50);
  Quantile i99 = PercentileWithFloor(inproc.paid_us, 99);
  rep->Set("net.added_p50_us", s50.value - i50.value, "us",
           "socket " + std::to_string(s50.value) + " - in-process " +
               std::to_string(i50.value));
  rep->Set("net.added_p99_us", s99.ok && i99.ok ? s99.value - i99.value : 0.0,
           "us",
           "socket " + std::to_string(s99.value) + " - in-process " +
               std::to_string(i99.value));

  // Codec and governor, replayed over the run's own requests/responses.
  std::vector<std::pair<net::Tag, std::string>> req_payloads, resp_payloads;
  std::vector<uint32_t> tenants;
  std::vector<std::pair<double, uint32_t>> arrivals;
  for (const Stream& s : l.streams) {
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      if (s.rung[i] < 0) continue;
      net::WireRequest w = ToWire(*st->world, s.reqs[i]);
      req_payloads.emplace_back(w.tag, net::EncodeRequestPayload(w));
      if (s.Raw(i) != nullptr) resp_payloads.emplace_back(w.tag, *s.Raw(i));
      arrivals.emplace_back(s.intended_s[i], s.tenant);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (const auto& a : arrivals) tenants.push_back(a.second);
  net::WireRequest sink_req;
  size_t sink = 0;
  const double decode_ns = PerCallNs(req_payloads.size(), 9, [&](size_t i) {
    sink += net::DecodeRequestPayload(req_payloads[i].first,
                                      req_payloads[i].second, &sink_req);
  });
  std::string frame;
  const double encode_ns = PerCallNs(resp_payloads.size(), 9, [&](size_t i) {
    frame.clear();
    net::AppendResponseFrame(&frame, resp_payloads[i].first, i + 1, kPaid,
                             resp_payloads[i].second);
    sink += frame.size();
  });
  std::vector<double> admit;
  for (int r = 0; r < 9; ++r) {
    net::TenantGovernor gov(ServerOpts().governor);
    ConfigureTenants(&gov);
    admit.push_back(PerCallNs(tenants.size(), 1, [&](size_t i) {
      sink += static_cast<size_t>(gov.Admit(tenants[i]));
    }));
  }
  rep->Set("net.codec.decode_ns", decode_ns, "ns",
           "DecodeRequestPayload over " + std::to_string(req_payloads.size()) +
               " run requests");
  rep->Set("net.codec.encode_ns", encode_ns, "ns",
           "AppendResponseFrame over " + std::to_string(resp_payloads.size()) +
               " run responses");
  rep->Set("net.governor.admit_ns", Median(admit), "ns",
           "Admit over the run's tenant sequence; sink " + std::to_string(sink));
  std::vector<uint32_t> mentions;
  for (const Stream& s : l.streams) {
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      if (s.rung[i] >= 0 && s.reqs[i].ep == serve::Endpoint::kEntityLink) {
        mentions.push_back(s.reqs[i].a);
      }
    }
  }
  mentions.resize(std::min<size_t>(mentions.size(), 4000));
  rep->Set("construction.link_us",
           ReplayMedian(mentions.size(), 1e3, nullptr, "", {},
                        [&](size_t i) {
                          sink += st->world->mapper
                                      ->Link(st->world->mentions[mentions[i]])
                                      .node & 1;
                        }),
           "us", "SchemaMapper::Link over the run's mentions");

  // Request trees for the checked requests of the reference rung:
  // root = intended send -> response received; children = the generator's
  // lag, the in-process call replay, and the codec/governor replays.
  Tracer::Buffer* buf = tracer->NewBuffer();
  net::TenantGovernor gov(ServerOpts().governor);
  ConfigureTenants(&gov);
  uint64_t req_id = 0;
  for (size_t c = 0; c < l.streams.size(); ++c) {
    const Stream& s = l.streams[c];
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      if (s.rung[i] != static_cast<int>(kRefRung) || s.Raw(i) == nullptr ||
          s.status[i] != static_cast<uint8_t>(net::WireStatus::kOk) ||
          inproc.call[c][i].second == 0) {
        continue;
      }
      ++req_id;
      const int64_t due = l.start_ns + static_cast<int64_t>(s.intended_s[i] * 1e9);
      uint64_t root = buf->Add("net.socket", due, s.recv_ns[i], 0, req_id);
      buf->Add("gen.lag", due, s.sent_ns[i], root, req_id);
      buf->Add(ServeSpanName(s.reqs[i].ep), inproc.call[c][i].first,
               inproc.call[c][i].second, root, req_id);
      net::WireRequest w = ToWire(*st->world, s.reqs[i]);
      std::string payload = net::EncodeRequestPayload(w);
      int64_t t0 = NowNs();
      net::DecodeRequestPayload(w.tag, payload, &sink_req);
      int64_t t1 = NowNs();
      gov.Admit(s.tenant);
      int64_t t2 = NowNs();
      frame.clear();
      net::AppendResponseFrame(&frame, w.tag, i + 1, s.tenant, *s.Raw(i));
      int64_t t3 = NowNs();
      buf->Add("net.codec.decode_request", t0, t1, root, req_id);
      buf->Add("net.governor.admit", t1, t2, root, req_id);
      buf->Add("net.codec.encode_response", t2, t3, root, req_id);
    }
  }
}

}  // namespace

int RunNetMixedOpen(const Args& args, Report* rep) {
  std::unique_ptr<State> st = TimedSetup(rep, [] { return Setup(); });
  if (st == nullptr) {
    std::fprintf(stderr, "net_mixed_open: server start failed\n");
    return 1;
  }
  LadderResult l;
  if (!args.trace) {
    PrepareLadder(st.get(), args.seconds, args.seed, &l);
    ResetPeakRss();  // peak_rss_mb covers serving, not the set-ups
    if (!DriveLadder(st.get(), &l)) {
      std::fprintf(stderr, "net_mixed_open: connection failed\n");
      return 1;
    }
    ReportLadder(l, rep);
  } else {
    LadderResult plain;
    PrepareLadder(st.get(), args.seconds / 2, args.seed, &plain);
    if (!DriveLadder(st.get(), &plain)) return 1;
    Report untraced;
    ReportLadder(plain, &untraced);
    rep->attempted += untraced.attempted;
    rep->failed += untraced.failed;
    if (!untraced.valid()) {
      rep->Invalidate("load generator fell behind in the untraced phase");
    }
    PrepareLadder(st.get(), args.seconds / 2, args.seed + 1, &l);
    ResetPeakRss();
    if (!DriveLadder(st.get(), &l)) return 1;
    ReportLadder(l, rep);
    // Rung 0 of one half-length ladder is too short for a p99 with 10
    // samples beyond it; the rungs of both halves together are not.
    std::vector<double> lo = plain.rungs[0].paid_us;
    lo.insert(lo.end(), l.rungs[0].paid_us.begin(), l.rungs[0].paid_us.end());
    std::sort(lo.begin(), lo.end());
    rep->SetQuantile("lo_rate_p99_us", PercentileWithFloor(lo, 99));
    ReportCache(l.cache0, l.cache1, rep);
    Tracer tracer;
    TraceNet(st.get(), l, &tracer, rep);
    ReportOverhead("latency_p50_us",
                   plain.rungs[kRefRung].Paid(50).value,
                   l.rungs[kRefRung].Paid(50).value,
                   "us", rep);
    PrintTimeTable(tracer, rep);
    tracer.WriteTsv(args.work_dir + "/net_mixed_open.spans.tsv");
  }
  CheckPayloads(st.get(), l, rep);
  return 0;
}

}  // namespace perfbench
