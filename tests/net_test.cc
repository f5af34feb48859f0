// Tests for the src/net/ socket front-end: OBGWIRE1 codec roundtrips and
// corruption handling, TenantGovernor token-bucket arithmetic under
// util::FakeClock, and end-to-end socket serving — pipelined mixed-tenant
// traffic byte-identical to in-process engine answers, out-of-order
// completion, per-tenant admission, mid-run canary promotion, version
// negotiation, graceful shutdown with clean EOFs, and the net::*
// failpoints.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/openbg.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "net/client.h"
#include "net/server.h"
#include "net/tenant_governor.h"
#include "net/wire.h"
#include "serve/canary.h"
#include "serve/engine.h"
#include "util/clock.h"
#include "util/fault_injection.h"

namespace openbg::net {
namespace {

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

TEST(WireTest, HeaderRoundTrip) {
  FrameHeader h;
  h.flags = kFlagResponse;
  h.tag = static_cast<uint16_t>(Tag::kLinkPredict);
  h.request_id = 0x1122334455667788ull;
  h.tenant_id = 42;
  h.payload_len = 123;
  h.payload_crc = 0xDEADBEEF;
  uint8_t buf[kHeaderSize];
  EncodeHeader(h, buf);
  FrameHeader out;
  ASSERT_EQ(ParseHeader(buf, &out), HeaderParse::kOk);
  EXPECT_EQ(out.version, kWireVersion);
  EXPECT_EQ(out.flags, kFlagResponse);
  EXPECT_EQ(out.tag, h.tag);
  EXPECT_EQ(out.request_id, h.request_id);
  EXPECT_EQ(out.tenant_id, h.tenant_id);
  EXPECT_EQ(out.payload_len, h.payload_len);
  EXPECT_EQ(out.payload_crc, h.payload_crc);
}

TEST(WireTest, HeaderRejectsCorruption) {
  FrameHeader h;
  h.request_id = 9;
  uint8_t buf[kHeaderSize];
  EncodeHeader(h, buf);
  FrameHeader out;

  uint8_t bad_magic[kHeaderSize];
  std::copy(buf, buf + kHeaderSize, bad_magic);
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(ParseHeader(bad_magic, &out), HeaderParse::kBadMagic);

  // Every single-bit flip in the CRC-covered region must be caught.
  for (size_t byte = 4; byte < 28; byte += 5) {
    uint8_t flipped[kHeaderSize];
    std::copy(buf, buf + kHeaderSize, flipped);
    flipped[byte] ^= 0x04;
    FrameHeader parsed;
    HeaderParse hp = ParseHeader(flipped, &parsed);
    EXPECT_TRUE(hp == HeaderParse::kBadCrc || hp == HeaderParse::kBadVersion)
        << "flip at byte " << byte << " undetected";
  }

  FrameHeader big;
  big.payload_len = kMaxPayload + 1;
  uint8_t big_buf[kHeaderSize];
  EncodeHeader(big, big_buf);
  EXPECT_EQ(ParseHeader(big_buf, &out), HeaderParse::kTooLarge);

  // Unsupported version: header is intact, fields must survive so the
  // server can answer the right request id.
  FrameHeader v2;
  v2.version = kWireVersion + 1;
  v2.request_id = 77;
  uint8_t v2_buf[kHeaderSize];
  EncodeHeader(v2, v2_buf);
  EXPECT_EQ(ParseHeader(v2_buf, &out), HeaderParse::kBadVersion);
  EXPECT_EQ(out.request_id, 77u);
}

TEST(WireTest, RequestPayloadRoundTrips) {
  WireRequest in;
  in.tag = Tag::kLinkPredict;
  in.h = 12;
  in.r = 3;
  in.k = 10;
  in.deadline_us = 5000;
  WireRequest out;
  ASSERT_TRUE(
      DecodeRequestPayload(in.tag, EncodeRequestPayload(in), &out));
  EXPECT_EQ(out.h, 12u);
  EXPECT_EQ(out.r, 3u);
  EXPECT_EQ(out.k, 10u);
  EXPECT_EQ(out.deadline_us, 5000u);

  in = WireRequest{};
  in.tag = Tag::kNeighbors;
  in.entity = 99;
  in.relation = 0xFFFFFFFFu;
  ASSERT_TRUE(
      DecodeRequestPayload(in.tag, EncodeRequestPayload(in), &out));
  EXPECT_EQ(out.entity, 99u);
  EXPECT_EQ(out.relation, 0xFFFFFFFFu);

  in = WireRequest{};
  in.tag = Tag::kEntityLink;
  in.text = "Brand Seventeen";
  ASSERT_TRUE(
      DecodeRequestPayload(in.tag, EncodeRequestPayload(in), &out));
  EXPECT_EQ(out.text, "Brand Seventeen");

  // Truncated fixed-size payloads are malformed, not misparsed.
  EXPECT_FALSE(DecodeRequestPayload(Tag::kLinkPredict, "\x01\x02", &out));
  EXPECT_FALSE(DecodeRequestPayload(Tag::kConceptsOf, "", &out));
  // Trailing garbage after a fixed-size payload is also malformed.
  in = WireRequest{};
  in.tag = Tag::kConceptsOf;
  std::string padded = EncodeRequestPayload(in);
  padded.push_back('x');
  EXPECT_FALSE(DecodeRequestPayload(Tag::kConceptsOf, padded, &out));
}

TEST(WireTest, ResponsePayloadRoundTrips) {
  serve::Response resp;
  resp.status = serve::ServeStatus::kOk;
  resp.from_cache = true;
  resp.payload.topk = {{3, 0.75f}, {9, -1.25f}};
  WireResponse out;
  ASSERT_TRUE(DecodeResponsePayload(
      Tag::kLinkPredict, EncodeResponsePayload(Tag::kLinkPredict, resp),
      &out));
  EXPECT_EQ(out.status, WireStatus::kOk);
  EXPECT_TRUE(out.from_cache);
  EXPECT_EQ(out.payload.topk, resp.payload.topk);

  serve::Response links;
  links.payload.link.node = 17;
  links.payload.link.kind = construction::SchemaMapper::MatchKind::kFuzzy;
  links.payload.link.similarity = 0.625;
  ASSERT_TRUE(DecodeResponsePayload(
      Tag::kEntityLink, EncodeResponsePayload(Tag::kEntityLink, links),
      &out));
  EXPECT_EQ(out.payload.link.node, 17);
  EXPECT_EQ(out.payload.link.kind,
            construction::SchemaMapper::MatchKind::kFuzzy);
  EXPECT_EQ(out.payload.link.similarity, 0.625);

  serve::Response triples;
  triples.payload.triples = {{1, 2, 3}, {4, 5, 6}};
  ASSERT_TRUE(DecodeResponsePayload(
      Tag::kNeighbors, EncodeResponsePayload(Tag::kNeighbors, triples),
      &out));
  EXPECT_EQ(out.payload.triples, triples.payload.triples);

  // Status-only refusals and the version advertisement.
  ASSERT_TRUE(DecodeResponsePayload(
      Tag::kLinkPredict, EncodeStatusPayload(WireStatus::kShed), &out));
  EXPECT_EQ(out.status, WireStatus::kShed);
  ASSERT_TRUE(DecodeResponsePayload(
      Tag::kPing, EncodeStatusPayload(WireStatus::kBadVersion), &out));
  EXPECT_EQ(out.status, WireStatus::kBadVersion);
  EXPECT_EQ(out.server_version, kWireVersion);
}

TEST(WireTest, PayloadCrcCatchesFlips) {
  WireRequest req;
  req.tag = Tag::kEntityLink;
  req.request_id = 5;
  req.text = "payload under test";
  std::string frame;
  AppendRequestFrame(&frame, req);
  FrameHeader h;
  ASSERT_EQ(ParseHeader(reinterpret_cast<const uint8_t*>(frame.data()), &h),
            HeaderParse::kOk);
  std::string payload = frame.substr(kHeaderSize);
  EXPECT_TRUE(VerifyPayload(h, payload.data()));
  payload[4] ^= 0x10;
  EXPECT_FALSE(VerifyPayload(h, payload.data()));
}

// ---------------------------------------------------------------------
// TenantGovernor under FakeClock
// ---------------------------------------------------------------------

TEST(TenantGovernorTest, RefillArithmeticIsExactAtBoundaries) {
  util::FakeClock clock;
  GovernorOptions opts;
  opts.clock = &clock;
  opts.default_tenant = {/*rate=*/10.0, /*burst=*/5.0, Tier::kFree};
  TenantGovernor gov(opts);

  // A cold tenant owns a full burst and not a token more.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kAdmit) << i;
  }
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kShedTenantRate);

  // 100ms at 10/s = exactly one token.
  clock.Advance(100000);
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kShedTenantRate);

  // Fractional refills accumulate across shed attempts: 50ms = 0.5
  // tokens (shed), another 50ms completes the token (admit). A refill
  // implementation that drops partial tokens on each probe fails here.
  clock.Advance(50000);
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kShedTenantRate);
  clock.Advance(50000);
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kAdmit);

  // Idling forever clamps at burst, never beyond.
  clock.Advance(3600ull * 1000000ull);
  std::vector<TenantGovernor::TenantStats> stats = gov.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_DOUBLE_EQ(stats[0].tokens, 5.0);
}

TEST(TenantGovernorTest, PaidShedsLastAtGlobalSaturation) {
  util::FakeClock clock;
  GovernorOptions opts;
  opts.clock = &clock;
  opts.global_rate_per_sec = 10.0;
  opts.global_burst = 10.0;
  opts.paid_reserve_fraction = 0.2;  // 2 of 10 tokens reserved for paid
  opts.default_tenant = {/*rate=*/1e9, /*burst=*/1e9, Tier::kFree};
  TenantGovernor gov(opts);
  gov.SetTenant(7, {/*rate=*/1e9, /*burst=*/1e9, Tier::kPaid});

  // Free admits down to the reserve floor (10 -> 2 = 8 admits)...
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(gov.Admit(3), TenantGovernor::Verdict::kAdmit) << i;
  }
  // ...then free is shed while paid still drains the reserve to zero.
  EXPECT_EQ(gov.Admit(3), TenantGovernor::Verdict::kShedGlobal);
  EXPECT_EQ(gov.Admit(7), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(7), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(7), TenantGovernor::Verdict::kShedGlobal);
  EXPECT_EQ(gov.Admit(3), TenantGovernor::Verdict::kShedGlobal);

  // Refill lifts free above the floor again.
  clock.Advance(300000);  // 3 tokens
  EXPECT_EQ(gov.Admit(3), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(3), TenantGovernor::Verdict::kShedGlobal);
  EXPECT_EQ(gov.Admit(7), TenantGovernor::Verdict::kAdmit);
}

TEST(TenantGovernorTest, CountersAndLatencyStatsAreExact) {
  util::FakeClock clock;
  GovernorOptions opts;
  opts.clock = &clock;
  opts.default_tenant = {/*rate=*/0.0, /*burst=*/3.0, Tier::kFree};
  TenantGovernor gov(opts);

  EXPECT_EQ(gov.Admit(5), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(5), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(5), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(5), TenantGovernor::Verdict::kShedTenantRate);
  EXPECT_EQ(gov.Admit(5), TenantGovernor::Verdict::kShedTenantRate);
  gov.RecordLatency(5, 100.0, true);
  gov.RecordLatency(5, 200.0, true);
  gov.RecordLatency(5, 300.0, false);

  std::vector<TenantGovernor::TenantStats> stats = gov.Stats();
  ASSERT_EQ(stats.size(), 1u);
  const TenantGovernor::TenantStats& s = stats[0];
  EXPECT_EQ(s.tenant_id, 5u);
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.shed_rate, 2u);
  EXPECT_EQ(s.shed_global, 0u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_GT(s.p99_us, s.p50_us);
  EXPECT_NEAR(s.mean_us, 200.0, 10.0);

  std::string json = gov.MetricsJson();
  EXPECT_NE(json.find("\"admitted\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_rate\":2"), std::string::npos) << json;
}

TEST(TenantGovernorTest, SetTenantClampsExistingBucket) {
  util::FakeClock clock;
  GovernorOptions opts;
  opts.clock = &clock;
  opts.default_tenant = {/*rate=*/0.0, /*burst=*/100.0, Tier::kFree};
  TenantGovernor gov(opts);
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kAdmit);  // 99 left
  // Shrinking the burst clamps the stockpile instead of honoring it.
  gov.SetTenant(1, {/*rate=*/0.0, /*burst=*/2.0, Tier::kFree});
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kAdmit);
  EXPECT_EQ(gov.Admit(1), TenantGovernor::Verdict::kShedTenantRate);
}

TEST(TenantGovernorTest, MultithreadedHammerNeverOveradmits) {
  // Frozen clock + zero refill rate: exactly `burst` admissions exist,
  // no matter how many threads race for them.
  util::FakeClock clock;
  GovernorOptions opts;
  opts.clock = &clock;
  opts.global_rate_per_sec = 0.0;
  opts.default_tenant = {/*rate=*/0.0, /*burst=*/100.0, Tier::kFree};
  TenantGovernor gov(opts);

  constexpr size_t kThreads = 8, kIters = 500;
  std::atomic<uint64_t> admitted{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kIters; ++i) {
        if (gov.Admit(9) == TenantGovernor::Verdict::kAdmit) {
          admitted.fetch_add(1);
          gov.RecordLatency(9, 50.0, true);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(admitted.load(), 100u);
  std::vector<TenantGovernor::TenantStats> stats = gov.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].admitted, 100u);
  EXPECT_EQ(stats[0].shed_rate, kThreads * kIters - 100u);
  EXPECT_EQ(stats[0].completed, 100u);
}

// ---------------------------------------------------------------------
// End-to-end socket serving
// ---------------------------------------------------------------------

class NetE2ETest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::OpenBG::Options options;
    options.world.seed = 31;
    options.world.scale = 0.25;
    options.world.num_products = 300;
    kg_ = core::OpenBG::Build(options).release();

    bench_builder::BenchmarkSpec spec;
    spec.name = "net-test";
    spec.num_relations = 12;
    spec.dev_size = 40;
    spec.test_size = 80;
    ds_ = new kge::Dataset(kg_->BuildBenchmark(spec, nullptr));

    util::Rng rng(13);
    model_ = std::make_shared<kge::TransE>(
        ds_->num_entities(), ds_->num_relations(), 16, 1.0f, &rng);
    kge::TrainConfig config;
    config.epochs = 2;
    config.batch_size = 256;
    TrainKgeModel(model_.get(), *ds_, config);

    mapper_ = new construction::SchemaMapper(kg_->world().brands);
  }

  static void TearDownTestSuite() {
    delete mapper_;
    delete ds_;
    delete kg_;
    mapper_ = nullptr;
    model_ = nullptr;
    ds_ = nullptr;
    kg_ = nullptr;
  }

  void TearDown() override { util::failpoints::DisarmAll(); }

  serve::ServeContext::Bindings AllBindings() {
    serve::ServeContext::Bindings b;
    b.graph = &kg_->graph();
    b.ontology = &kg_->ontology();
    b.dataset = ds_;
    b.model = model_.get();
    b.mapper = mapper_;
    return b;
  }

  /// Server options with effectively-unlimited admission (tests that
  /// exercise the governor configure it explicitly).
  static ServerOptions OpenServerOptions() {
    ServerOptions o;
    o.event_threads = 2;
    o.worker_threads = 2;
    o.governor.default_tenant = {1e12, 1e12, Tier::kPaid};
    return o;
  }

  static Client::Options ClientOptions(uint16_t port, uint32_t tenant) {
    Client::Options o;
    o.port = port;
    o.tenant_id = tenant;
    return o;
  }

  /// Zeroes the from_cache/degraded provenance bytes so wire payloads can
  /// be compared byte-for-byte against a locally encoded answer (cache
  /// provenance legitimately differs between the two computations).
  static std::string MaskProvenance(std::string payload) {
    if (payload.size() >= 3) {
      payload[1] = 0;
      payload[2] = 0;
    }
    return payload;
  }

  static core::OpenBG* kg_;
  static kge::Dataset* ds_;
  static std::shared_ptr<kge::TransE> model_;
  static construction::SchemaMapper* mapper_;
};

core::OpenBG* NetE2ETest::kg_ = nullptr;
kge::Dataset* NetE2ETest::ds_ = nullptr;
std::shared_ptr<kge::TransE> NetE2ETest::model_;
construction::SchemaMapper* NetE2ETest::mapper_ = nullptr;

/// One pre-answered query: what to send and the payload bytes the wire
/// answer must match (modulo cache-provenance bytes).
struct GoldenQuery {
  Tag tag = Tag::kPing;
  uint32_t a = 0, b = 0, k = 0;
  std::string text;
  std::string expected;  // provenance-masked encoded payload
};

TEST_F(NetE2ETest, PipelinedMixedTenantsAreByteIdenticalAtScale) {
  // THE acceptance test: >= 10k pipelined mixed-endpoint requests from 3
  // tenants, every wire answer byte-identical to the in-process engine's
  // encoded answer, out-of-order completions observed, zero errors. The
  // golden answers are cache hits; tenant 0's first request is the one
  // uncached LinkPredict, held 5 ms by `serve::stall`, so the hits
  // pipelined behind it overtake it unless the host stalls the server's
  // other worker just as long.
  serve::ServeContext ctx(AllBindings());
  serve::EngineOptions eopts;
  eopts.num_threads = 2;
  serve::QueryEngine engine(&ctx, eopts);
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // Build the golden set from direct in-process engine calls.
  std::vector<GoldenQuery> golden;
  for (size_t i = 0; i < 24; ++i) {
    const kge::LpTriple& q = ds_->test[i % ds_->test.size()];
    GoldenQuery g;
    g.tag = Tag::kLinkPredict;
    g.a = q.h;
    g.b = q.r;
    g.k = (i % 2 == 0) ? 5 : 10;
    serve::Response resp = engine.LinkPredictTopK(q.h, q.r, g.k);
    ASSERT_EQ(resp.status, serve::ServeStatus::kOk);
    g.expected =
        MaskProvenance(EncodeResponsePayload(Tag::kLinkPredict, resp));
    golden.push_back(std::move(g));
  }
  const auto& product_terms = kg_->assembly().product_terms;
  for (size_t i = 0; i < 16; ++i) {
    GoldenQuery g;
    g.tag = Tag::kNeighbors;
    g.a = product_terms[i % product_terms.size()];
    g.b = 0xFFFFFFFFu;
    serve::Response resp = engine.Neighbors(g.a);
    ASSERT_EQ(resp.status, serve::ServeStatus::kOk);
    g.expected =
        MaskProvenance(EncodeResponsePayload(Tag::kNeighbors, resp));
    golden.push_back(std::move(g));
  }
  for (size_t i = 0; i < 12; ++i) {
    GoldenQuery g;
    g.tag = Tag::kConceptsOf;
    g.a = product_terms[(i * 7) % product_terms.size()];
    serve::Response resp = engine.ConceptsOf(g.a);
    ASSERT_EQ(resp.status, serve::ServeStatus::kOk);
    g.expected =
        MaskProvenance(EncodeResponsePayload(Tag::kConceptsOf, resp));
    golden.push_back(std::move(g));
  }
  for (size_t i = 0; i < 12; ++i) {
    const datagen::Product& p =
        kg_->world().products[(i * 13) % kg_->world().products.size()];
    GoldenQuery g;
    g.tag = Tag::kEntityLink;
    g.text = p.brand_mention.empty() ? "no-such-brand" : p.brand_mention;
    serve::Response resp = engine.EntityLink(g.text);
    ASSERT_EQ(resp.status, serve::ServeStatus::kOk);
    g.expected =
        MaskProvenance(EncodeResponsePayload(Tag::kEntityLink, resp));
    golden.push_back(std::move(g));
  }

  // The held query's (h, r) is golden, but no golden query asks k = 7, so
  // it misses the cache. Its expected bytes come from a cache-off engine
  // over the same context, so the served engine never caches it early.
  GoldenQuery held;
  held.tag = Tag::kLinkPredict;
  held.a = ds_->test[0].h;
  held.b = ds_->test[0].r;
  held.k = 7;
  {
    serve::EngineOptions cold_opts;
    cold_opts.cache_enabled = false;
    serve::QueryEngine cold(&ctx, cold_opts);
    serve::Response resp = cold.LinkPredictTopK(held.a, held.b, held.k);
    ASSERT_EQ(resp.status, serve::ServeStatus::kOk);
    held.expected =
        MaskProvenance(EncodeResponsePayload(Tag::kLinkPredict, resp));
  }
  util::failpoints::Arm("serve::stall");

  constexpr size_t kTenants = 3;
  constexpr size_t kPerTenant = 3500;  // 10500 total
  constexpr size_t kPipeline = 50;
  std::atomic<uint64_t> mismatches{0}, answered{0}, ooo_events{0};

  std::vector<std::thread> clients;
  for (size_t t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      Client client(ClientOptions(server.port(), 100 + t));
      ASSERT_TRUE(client.Connect().ok());
      size_t sent = 0;
      while (sent < kPerTenant) {
        const size_t batch = std::min(kPipeline, kPerTenant - sent);
        std::map<uint64_t, const GoldenQuery*> inflight;
        std::vector<uint64_t> send_order;
        for (size_t i = 0; i < batch; ++i) {
          const GoldenQuery& g =
              t == 0 && sent + i == 0
                  ? held
                  : golden[(t * 31 + sent + i) % golden.size()];
          uint64_t id = 0;
          switch (g.tag) {
            case Tag::kLinkPredict:
              id = client.SendLinkPredict(g.a, g.b, g.k);
              break;
            case Tag::kNeighbors:
              id = client.SendNeighbors(g.a, g.b);
              break;
            case Tag::kConceptsOf:
              id = client.SendConceptsOf(g.a);
              break;
            case Tag::kEntityLink:
              id = client.SendEntityLink(g.text);
              break;
            default:
              FAIL() << "unexpected tag";
          }
          inflight.emplace(id, &g);
          send_order.push_back(id);
        }
        ASSERT_TRUE(client.Flush().ok());
        size_t arrival = 0;
        while (!inflight.empty()) {
          WireResponse resp;
          std::string raw;
          util::Status s = client.Recv(&resp, &raw);
          ASSERT_TRUE(s.ok()) << s.message();
          auto it = inflight.find(resp.request_id);
          ASSERT_NE(it, inflight.end()) << "dropped or duplicated id";
          EXPECT_EQ(resp.status, WireStatus::kOk);
          if (MaskProvenance(raw) != it->second->expected) {
            mismatches.fetch_add(1);
          }
          if (send_order[arrival] != resp.request_id) ooo_events.fetch_add(1);
          ++arrival;
          inflight.erase(it);
          answered.fetch_add(1);
        }
        sent += batch;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  util::failpoints::Disarm("serve::stall");

  EXPECT_EQ(answered.load(), kTenants * kPerTenant);
  EXPECT_EQ(mismatches.load(), 0u);
  // Pipelining is real: at least the hits behind the held request
  // overtook it.
  EXPECT_GT(ooo_events.load(), 0u);

  Server::NetStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, kTenants * kPerTenant);
  EXPECT_EQ(stats.frames_out, kTenants * kPerTenant);
  EXPECT_EQ(stats.bad_header, 0u);
  EXPECT_EQ(stats.bad_payload, 0u);
  EXPECT_EQ(stats.shed, 0u);
  server.Stop();
}

TEST_F(NetE2ETest, ResponsesCompleteOutOfOrder) {
  // A scoring request rides the worker pool; pings are answered inline on
  // the event thread. Pings sent AFTER the scoring request must be able
  // to overtake it — out-of-order completion is a protocol guarantee.
  serve::ServeContext ctx(AllBindings());
  serve::EngineOptions eopts;
  eopts.cache_enabled = false;  // force real scoring work
  serve::QueryEngine engine(&ctx, eopts);
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());
  // Each scoring drain stalls ~5 ms, so the scoring requests outlast the
  // inline pings on any host and the overtake is guaranteed.
  util::failpoints::Arm("serve::stall");
  std::vector<uint64_t> slow_ids, ping_ids;
  for (int i = 0; i < 5; ++i) {
    const kge::LpTriple& q = ds_->test[i];
    slow_ids.push_back(client.SendLinkPredict(q.h, q.r, 10));
  }
  for (int i = 0; i < 100; ++i) ping_ids.push_back(client.SendPing("p"));
  ASSERT_TRUE(client.Flush().ok());

  size_t pings_before_last_slow = 0, slow_seen = 0, got = 0;
  while (got < slow_ids.size() + ping_ids.size()) {
    WireResponse resp;
    ASSERT_TRUE(client.Recv(&resp).ok());
    EXPECT_EQ(resp.status, WireStatus::kOk);
    const bool is_slow = std::find(slow_ids.begin(), slow_ids.end(),
                                   resp.request_id) != slow_ids.end();
    if (is_slow) {
      ++slow_seen;
    } else if (slow_seen < slow_ids.size()) {
      ++pings_before_last_slow;
    }
    ++got;
  }
  util::failpoints::Disarm("serve::stall");
  EXPECT_GT(pings_before_last_slow, 0u)
      << "no ping overtook a pipelined scoring request";
  server.Stop();
}

TEST_F(NetE2ETest, PerTenantBucketsShedFreeNeverPaid) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  ServerOptions sopts = OpenServerOptions();
  // Free tenants: 40-request burst, negligible refill. Paid: unlimited.
  sopts.governor.default_tenant = {/*rate=*/0.001, /*burst=*/40.0,
                                   Tier::kFree};
  Server server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  server.governor().SetTenant(7, {/*rate=*/1e12, /*burst=*/1e12,
                                  Tier::kPaid});

  constexpr size_t kLoad = 300;
  auto run_tenant = [&](uint32_t tenant, size_t* ok_count,
                        size_t* shed_count) {
    Client client(ClientOptions(server.port(), tenant));
    ASSERT_TRUE(client.Connect().ok());
    const kge::LpTriple& q = ds_->test[1];
    for (size_t i = 0; i < kLoad; ++i) {
      client.SendLinkPredict(q.h, q.r, 5);
    }
    ASSERT_TRUE(client.Flush().ok());
    for (size_t i = 0; i < kLoad; ++i) {
      WireResponse resp;
      ASSERT_TRUE(client.Recv(&resp).ok());
      if (resp.status == WireStatus::kOk) {
        ++*ok_count;
      } else if (resp.status == WireStatus::kShed) {
        ++*shed_count;
      } else {
        FAIL() << "unexpected status " << WireStatusName(resp.status);
      }
    }
  };

  size_t free_ok = 0, free_shed = 0, paid_ok = 0, paid_shed = 0;
  std::thread free_thread(
      [&] { run_tenant(3, &free_ok, &free_shed); });
  std::thread paid_thread(
      [&] { run_tenant(7, &paid_ok, &paid_shed); });
  free_thread.join();
  paid_thread.join();

  // Same offered load: free bounces off its bucket, paid sheds nothing.
  EXPECT_GT(free_shed, 0u);
  EXPECT_LE(free_ok, 45u);  // burst + a sliver of refill
  EXPECT_EQ(paid_shed, 0u);
  EXPECT_EQ(paid_ok, kLoad);

  bool saw_free = false, saw_paid = false;
  for (const TenantGovernor::TenantStats& s : server.governor().Stats()) {
    if (s.tenant_id == 3) {
      saw_free = true;
      EXPECT_EQ(s.admitted, free_ok);
      EXPECT_EQ(s.shed_rate, free_shed);
      EXPECT_EQ(s.completed, free_ok);  // latency recorded per admit
    }
    if (s.tenant_id == 7) {
      saw_paid = true;
      EXPECT_EQ(s.shed_rate + s.shed_global, 0u);
      EXPECT_EQ(s.admitted, kLoad);
    }
  }
  EXPECT_TRUE(saw_free);
  EXPECT_TRUE(saw_paid);
  server.Stop();
}

TEST_F(NetE2ETest, MidRunCanaryPromotionIsAtomicWithNoDropsOrDups) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  serve::CanaryOptions copts;
  copts.mirror_fraction = 0.25;
  serve::CanaryController canary(&ctx, copts);
  ServerOptions sopts = OpenServerOptions();
  sopts.canary = &canary;
  Server server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());

  // A shape-compatible candidate with different (untrained) parameters,
  // so generation-N and generation-N+1 answers are distinguishable.
  util::Rng rng(913);
  auto candidate = std::make_shared<kge::TransE>(
      ds_->num_entities(), ds_->num_relations(), 16, 1.0f, &rng);
  candidate->PrepareEval();

  constexpr size_t kQueries = 8;
  std::vector<std::vector<serve::ScoredEntity>> old_answers(kQueries),
      new_answers(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    const kge::LpTriple& q = ds_->test[i];
    std::vector<float> scores;
    model_->ScoreTails(q.h, q.r, &scores);
    old_answers[i] = serve::SelectTopK(scores, 10);
    candidate->ScoreTails(q.h, q.r, &scores);
    new_answers[i] = serve::SelectTopK(scores, 10);
    ASSERT_NE(old_answers[i], new_answers[i]) << "models indistinguishable";
  }

  constexpr size_t kTotal = 2000;
  const uint64_t gen_before = ctx.generation();
  std::atomic<size_t> received{0};
  std::atomic<size_t> old_seen{0}, new_seen{0}, other_seen{0};
  std::atomic<size_t> promote_floor{0};  // received() before Promote ran
  std::atomic<bool> begun{false};
  std::atomic<bool> promoted{false};

  std::thread client_thread([&] {
    Client client(ClientOptions(server.port(), 1));
    ASSERT_TRUE(client.Connect().ok());
    std::map<uint64_t, size_t> inflight;  // id -> query index
    size_t sent = 0;
    while (received.load() < kTotal) {
      const size_t batch = std::min<size_t>(40, kTotal - sent);
      // Keep the Begin -> Promote window non-empty: nothing past kTotal/4
      // goes out before the canary is staged, and the final batch waits for
      // the promotion. The batches in between still race the promotion.
      while ((sent >= kTotal / 4 && !begun.load()) ||
             (sent + batch == kTotal && !promoted.load())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (size_t i = 0; i < batch; ++i) {
        const size_t qi = (sent + i) % kQueries;
        const kge::LpTriple& q = ds_->test[qi];
        uint64_t id = client.SendLinkPredict(q.h, q.r, 10);
        ASSERT_TRUE(inflight.emplace(id, qi).second) << "duplicate id";
      }
      sent += batch;
      ASSERT_TRUE(client.Flush().ok());
      while (!inflight.empty()) {
        WireResponse resp;
        ASSERT_TRUE(client.Recv(&resp).ok());
        auto it = inflight.find(resp.request_id);
        ASSERT_NE(it, inflight.end()) << "dropped or duplicated response";
        ASSERT_EQ(resp.status, WireStatus::kOk);
        const size_t qi = it->second;
        if (resp.payload.topk == old_answers[qi]) {
          old_seen.fetch_add(1);
        } else if (resp.payload.topk == new_answers[qi]) {
          new_seen.fetch_add(1);
        } else {
          other_seen.fetch_add(1);
        }
        inflight.erase(it);
        received.fetch_add(1);
      }
    }
  });

  // Mid-run: stage the canary at ~25% completion, promote at ~50%.
  while (received.load() < kTotal / 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(canary.Begin(candidate).ok());
  begun.store(true);
  while (received.load() < kTotal / 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  promote_floor.store(received.load());
  ASSERT_TRUE(canary.Promote().ok());
  promoted.store(true);
  client_thread.join();

  // Every answer is EXACTLY generation N or generation N+1 — never a
  // blend — and the flip happened around the promotion point.
  EXPECT_EQ(other_seen.load(), 0u);
  EXPECT_EQ(old_seen.load() + new_seen.load(), kTotal);
  EXPECT_GE(old_seen.load(), promote_floor.load() / 2);
  EXPECT_GT(new_seen.load(), 0u);
  EXPECT_EQ(ctx.generation(), gen_before + 1);
  EXPECT_EQ(canary.state(), serve::CanaryController::State::kPromoted);
  EXPECT_GT(canary.stats().mirrored, 0u);

  ctx.ReloadModel(model_);  // restore the suite-shared model
  server.Stop();
}

TEST_F(NetE2ETest, VersionNegotiationAnswersAndKeepsConnection) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());

  // Hand-roll a ping frame claiming a future protocol version.
  FrameHeader h;
  h.version = kWireVersion + 3;
  h.tag = static_cast<uint16_t>(Tag::kPing);
  h.request_id = 424242;
  std::string frame;
  AppendFrame(&frame, h, "");
  client.SendRawFrame(frame);
  uint64_t pong_id = client.SendPing("still-alive");
  ASSERT_TRUE(client.Flush().ok());

  WireResponse resp;
  ASSERT_TRUE(client.Recv(&resp).ok());
  EXPECT_EQ(resp.request_id, 424242u);
  EXPECT_TRUE(resp.is_error_frame);
  EXPECT_EQ(resp.status, WireStatus::kBadVersion);
  EXPECT_EQ(resp.server_version, kWireVersion);

  // The connection survived: the follow-up current-version ping answers.
  ASSERT_TRUE(client.Recv(&resp).ok());
  EXPECT_EQ(resp.request_id, pong_id);
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.text, "still-alive");
  EXPECT_EQ(server.stats().bad_version, 1u);
  server.Stop();
}

TEST_F(NetE2ETest, BadPayloadCrcIsConfinedToOneRequest) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());

  WireRequest req;
  req.tag = Tag::kEntityLink;
  req.request_id = 1001;
  req.tenant_id = 1;
  req.text = "mention under corruption";
  std::string frame;
  AppendRequestFrame(&frame, req);
  frame[kHeaderSize + 2] ^= 0x40;  // flip a payload bit, header stays valid
  client.SendRawFrame(frame);
  uint64_t ok_id = client.SendPing("after-corruption");
  ASSERT_TRUE(client.Flush().ok());

  WireResponse resp;
  ASSERT_TRUE(client.Recv(&resp).ok());
  EXPECT_EQ(resp.request_id, 1001u);
  EXPECT_TRUE(resp.is_error_frame);
  EXPECT_EQ(resp.status, WireStatus::kBadPayload);

  ASSERT_TRUE(client.Recv(&resp).ok());
  EXPECT_EQ(resp.request_id, ok_id);
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(server.stats().bad_payload, 1u);
  EXPECT_EQ(server.stats().bad_header, 0u);
  server.Stop();
}

TEST_F(NetE2ETest, OversizeMentionIsInvalidAndConnectionKeepsServing) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());
  // A well-formed 1 MiB mention: inside the frame limit, far past the
  // engine's mention bound.
  uint64_t link_id = client.SendEntityLink(std::string(1u << 20, 'm'));
  uint64_t pong_id = client.SendPing("after-oversize");
  ASSERT_TRUE(client.Flush().ok());

  // Responses may complete out of order; match them by id.
  std::map<uint64_t, WireResponse> got;
  for (int i = 0; i < 2; ++i) {
    WireResponse resp;
    ASSERT_TRUE(client.Recv(&resp).ok());
    got[resp.request_id] = resp;
  }
  ASSERT_EQ(got.count(link_id), 1u);
  EXPECT_EQ(got[link_id].status, WireStatus::kInvalidArgument);
  ASSERT_EQ(got.count(pong_id), 1u);
  EXPECT_EQ(got[pong_id].status, WireStatus::kOk);
  EXPECT_EQ(got[pong_id].text, "after-oversize");
  EXPECT_EQ(engine.cache().size(), 0u) << "oversize mention was cached";
  server.Stop();
}

TEST_F(NetE2ETest, OverflowingDeadlineIsInvalidAndConnectionKeepsServing) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());
  // The wire deadline is a raw u64; its top value must not wrap the clock
  // into an already-expired request.
  uint64_t lp_id =
      client.SendLinkPredict(0, 0, 5, std::numeric_limits<uint64_t>::max());
  uint64_t pong_id = client.SendPing("after-deadline");
  ASSERT_TRUE(client.Flush().ok());

  std::map<uint64_t, WireResponse> got;
  for (int i = 0; i < 2; ++i) {
    WireResponse resp;
    ASSERT_TRUE(client.Recv(&resp).ok());
    got[resp.request_id] = resp;
  }
  ASSERT_EQ(got.count(lp_id), 1u);
  EXPECT_EQ(got[lp_id].status, WireStatus::kInvalidArgument);
  ASSERT_EQ(got.count(pong_id), 1u);
  EXPECT_EQ(got[pong_id].status, WireStatus::kOk);
  EXPECT_EQ(got[pong_id].text, "after-deadline");
  EXPECT_EQ(engine.cache().size(), 0u);
  server.Stop();
}

TEST_F(NetE2ETest, BadHeaderDrawsGoAwayThenCleanClose) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());
  client.SendRawFrame("this is definitely not an OBGWIRE1 frame........");
  ASSERT_TRUE(client.Flush().ok());

  WireResponse resp;
  util::Status s = client.Recv(&resp);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(resp.tag, Tag::kGoAway);
  EXPECT_TRUE(resp.is_error_frame);
  // After the GoAway the server closes; the client sees EOF, not a torn
  // frame or reset.
  s = client.Recv(&resp);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("eof"), std::string::npos) << s.message();
  EXPECT_EQ(server.stats().bad_header, 1u);
  server.Stop();
}

TEST_F(NetE2ETest, ShortReadsAndWritesReassembleEveryFrame) {
  // net::read and net::write clamp every syscall to one byte: frames
  // fragment maximally in both directions and must still reassemble.
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());
  util::failpoints::Arm(kFpRead, 0);
  util::failpoints::Arm(kFpWrite, 0);

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());
  std::map<uint64_t, std::string> want;
  const kge::LpTriple& q = ds_->test[2];
  want.emplace(client.SendLinkPredict(q.h, q.r, 5), "topk");
  want.emplace(client.SendPing("fragmented"), "ping");
  want.emplace(client.SendConceptsOf(kg_->assembly().product_terms[0]),
               "concepts");
  ASSERT_TRUE(client.Flush().ok());
  for (size_t i = 0; i < 3; ++i) {
    WireResponse resp;
    util::Status s = client.Recv(&resp);
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(resp.status, WireStatus::kOk);
    EXPECT_EQ(want.erase(resp.request_id), 1u);
  }
  EXPECT_TRUE(want.empty());
  EXPECT_GT(util::failpoints::FireCount(kFpRead), 0u);
  EXPECT_GT(util::failpoints::FireCount(kFpWrite), 0u);
  util::failpoints::DisarmAll();
  server.Stop();
}

TEST_F(NetE2ETest, AcceptFailpointDropsConnectionThenHeals) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  util::failpoints::Arm(kFpAccept, 0);
  {
    Client doomed(ClientOptions(server.port(), 1));
    // connect() itself succeeds (the kernel completed the handshake); the
    // server closes the accepted fd, so the first read reports EOF/reset.
    ASSERT_TRUE(doomed.Connect().ok());
    doomed.SendPing("into the void");
    (void)doomed.Flush();  // may or may not error depending on timing
    WireResponse resp;
    EXPECT_FALSE(doomed.Recv(&resp).ok());
  }
  util::failpoints::Disarm(kFpAccept);

  Client healed(ClientOptions(server.port(), 1));
  ASSERT_TRUE(healed.Connect().ok());
  uint64_t id = healed.SendPing("recovered");
  ASSERT_TRUE(healed.Flush().ok());
  WireResponse resp;
  ASSERT_TRUE(healed.Recv(&resp).ok());
  EXPECT_EQ(resp.request_id, id);
  EXPECT_EQ(resp.text, "recovered");
  EXPECT_GE(server.stats().accept_faults, 1u);
  server.Stop();
}

TEST_F(NetE2ETest, GracefulShutdownDrainsInFlightToCleanEOF) {
  serve::ServeContext ctx(AllBindings());
  serve::EngineOptions eopts;
  eopts.cache_enabled = false;  // keep requests genuinely in flight
  serve::QueryEngine engine(&ctx, eopts);
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());
  constexpr size_t kBurst = 120;
  for (size_t i = 0; i < kBurst; ++i) {
    const kge::LpTriple& q = ds_->test[i % ds_->test.size()];
    client.SendLinkPredict(q.h, q.r, 10);
  }
  ASSERT_TRUE(client.Flush().ok());

  // Stop the server while that pipeline is mid-flight.
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.RequestStop();
  });

  size_t ok = 0, refused = 0;
  for (;;) {
    WireResponse resp;
    util::Status s = client.Recv(&resp);
    if (!s.ok()) {
      // The drain contract: the stream ends with a clean EOF after a
      // whole frame — never a CRC error, torn frame, or reset.
      EXPECT_NE(s.message().find("eof"), std::string::npos) << s.message();
      break;
    }
    if (resp.status == WireStatus::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(resp.status, WireStatus::kShuttingDown);
      ++refused;
    }
  }
  stopper.join();
  server.Wait();
  // Everything admitted before the stop was answered; whatever raced the
  // stop got an explicit kShuttingDown, not silence.
  EXPECT_GT(ok, 0u);
  EXPECT_LE(ok + refused, kBurst);
  server.Stop();
}

TEST_F(NetE2ETest, ShutdownUnderTornWritesStillEndsInWholeFrames) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  ServerOptions sopts = OpenServerOptions();
  sopts.drain_deadline_ms = 500;
  Server server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  util::failpoints::Arm(kFpWrite, 0);  // every response leaves 1 byte/syscall

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());
  for (size_t i = 0; i < 60; ++i) {
    const kge::LpTriple& q = ds_->test[i % ds_->test.size()];
    client.SendLinkPredict(q.h, q.r, 10);
  }
  ASSERT_TRUE(client.Flush().ok());
  std::thread stopper([&] { server.RequestStop(); });

  for (;;) {
    WireResponse resp;
    util::Status s = client.Recv(&resp);
    if (!s.ok()) {
      EXPECT_NE(s.message().find("eof"), std::string::npos) << s.message();
      break;
    }
    EXPECT_TRUE(resp.status == WireStatus::kOk ||
                resp.status == WireStatus::kShuttingDown);
  }
  stopper.join();
  server.Wait();
  util::failpoints::DisarmAll();
  server.Stop();
}

TEST_F(NetE2ETest, DrainAnswersUnreadPipelinedInputThenEof) {
  // A drain must not close a connection over unread input: Linux answers
  // such a close with RST, and the RST discards answers still on their way
  // to the peer. 1-byte reads (net::read) leave most of a pipelined burst
  // in the kernel receive queue when the drain starts; every request must
  // still be answered (kOk or kShuttingDown), then a clean EOF.
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  ServerOptions sopts = OpenServerOptions();
  sopts.drain_deadline_ms = 10000;
  Server server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  util::failpoints::Arm(kFpRead, 0);

  Client client(ClientOptions(server.port(), 1));
  ASSERT_TRUE(client.Connect().ok());
  const rdf::TermId entity = kg_->assembly().product_terms[0];
  std::set<uint64_t> unanswered;
  for (size_t i = 0; i < 200; ++i) {
    unanswered.insert(client.SendNeighbors(entity));
  }
  ASSERT_TRUE(client.Flush().ok());
  server.RequestStop();

  for (;;) {
    WireResponse resp;
    util::Status s = client.Recv(&resp);
    if (!s.ok()) {
      EXPECT_NE(s.message().find("eof"), std::string::npos) << s.message();
      break;
    }
    EXPECT_TRUE(resp.status == WireStatus::kOk ||
                resp.status == WireStatus::kShuttingDown);
    EXPECT_EQ(unanswered.erase(resp.request_id), 1u);
  }
  EXPECT_TRUE(unanswered.empty()) << unanswered.size() << " unanswered";
  server.Wait();
}

TEST_F(NetE2ETest, MetricsEndpointFoldsGovernorAndServerCounters) {
  serve::ServeContext ctx(AllBindings());
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  Server server(&engine, OpenServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientOptions(server.port(), 11));
  ASSERT_TRUE(client.Connect().ok());
  const kge::LpTriple& q = ds_->test[0];
  client.SendLinkPredict(q.h, q.r, 5);
  uint64_t metrics_id = client.SendMetrics();
  uint64_t health_id = client.SendHealth();
  ASSERT_TRUE(client.Flush().ok());

  bool saw_metrics = false, saw_health = false;
  for (int i = 0; i < 3; ++i) {
    WireResponse resp;
    ASSERT_TRUE(client.Recv(&resp).ok());
    if (resp.request_id == metrics_id) {
      saw_metrics = true;
      EXPECT_NE(resp.text.find("\"governor\""), std::string::npos);
      EXPECT_NE(resp.text.find("\"tenants\""), std::string::npos);
      EXPECT_NE(resp.text.find("\"server\""), std::string::npos);
    }
    if (resp.request_id == health_id) {
      saw_health = true;
      EXPECT_FALSE(resp.text.empty());
    }
  }
  EXPECT_TRUE(saw_metrics);
  EXPECT_TRUE(saw_health);
  server.Stop();
}

}  // namespace
}  // namespace openbg::net
