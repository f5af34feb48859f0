// Out-of-core store suite: the OBGSNAP3 sharded store must be
// byte-identical to the in-memory TripleStore on every query surface
// (match sets, iteration order, ScanCost), must fail closed under
// systematic truncation/bit-flip corruption in both verify modes, and must
// slot under LiveGraph and QueryEngine unmodified. Also covers the
// streaming SnapshotReader (bounded-memory validation, on-demand section
// loads) and the MemoryUsage accounting the serve metrics surface.

#include <gtest/gtest.h>
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "rdf/delta_segment.h"
#include "rdf/graph.h"
#include "rdf/live_graph.h"
#include "rdf/segment_codec.h"
#include "rdf/sharded_store.h"
#include "rdf/triple_store.h"
#include "serve/engine.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/mapped_file.h"
#include "util/rng.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"

namespace openbg {
namespace {

using rdf::ShardedBuildOptions;
using rdf::ShardedOpenOptions;
using rdf::ShardedStore;
using rdf::ShardedStoreBuilder;
using rdf::Triple;
using rdf::TriplePattern;
using rdf::TripleStore;

constexpr rdf::TermId kAny = TriplePattern::kAny;

// An OBGSHRD3 shard file opens with a 48 B header; the SPO segment's block
// 0 payload starts right after it, so this byte is inside that block.
constexpr size_t kShardHeaderBytes = 48;
constexpr size_t kSpoBlock0Byte = kShardHeaderBytes + 5;

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteWholeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Removes every regular file in `dir`, then the directory itself. Test
// stores are flat directories (manifest + shard files), so one level is
// enough.
void RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::remove((dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  RemoveTree(dir);
  return dir;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name != "." && name != "..") out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

// A random graph with deliberately small term ranges so subjects repeat,
// predicates are dense, and (s, o) pairs collide across predicates — the
// shapes that exercise multi-key blocks and the OSP index.
void FillRandomGraph(util::Rng* rng, size_t n, uint64_t s_range,
                     uint64_t p_range, uint64_t o_range, TripleStore* store) {
  for (size_t i = 0; i < n; ++i) {
    store->Add(static_cast<rdf::TermId>(rng->Uniform(s_range)),
               static_cast<rdf::TermId>(rng->Uniform(p_range)),
               static_cast<rdf::TermId>(rng->Uniform(o_range)));
  }
}

std::shared_ptr<const ShardedStore> BuildAndOpen(
    const TripleStore& store, const std::string& dir,
    ShardedBuildOptions build = {}, ShardedOpenOptions open = {}) {
  EXPECT_TRUE(rdf::BuildShardedStore(store, dir, build).ok());
  auto result = ShardedStore::Open(dir, open);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.ok() ? result.value() : nullptr;
}

// The eight bound/unbound shapes a pattern can take, instantiated from one
// probe triple.
std::vector<TriplePattern> PatternShapes(const Triple& t) {
  return {{t.s, t.p, t.o}, {t.s, t.p, kAny}, {t.s, kAny, t.o},
          {kAny, t.p, t.o}, {t.s, kAny, kAny}, {kAny, t.p, kAny},
          {kAny, kAny, t.o}, {kAny, kAny, kAny}};
}

bool SpoLess(const Triple& a, const Triple& b) {
  if (a.s != b.s) return a.s < b.s;
  if (a.p != b.p) return a.p < b.p;
  return a.o < b.o;
}

// Asserts every query surface agrees between the in-memory store and the
// sharded store for `pattern`. The fully unbound pattern is the documented
// deviation: the sharded store iterates global SPO order (no insertion
// log), so only the *set* must match there — plus the sharded order itself
// must actually be sorted SPO.
void ExpectPatternParity(const TripleStore& mem, const ShardedStore& sharded,
                         const TriplePattern& pattern) {
  const bool unbound =
      pattern.s == kAny && pattern.p == kAny && pattern.o == kAny;
  std::vector<Triple> want = mem.Match(pattern);
  std::vector<Triple> got = sharded.Match(pattern);
  if (unbound) {
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), SpoLess));
    std::sort(want.begin(), want.end(), SpoLess);
  }
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);
  EXPECT_EQ(sharded.CountMatches(pattern), mem.CountMatches(pattern));
  EXPECT_EQ(sharded.ScanCost(pattern), mem.ScanCost(pattern))
      << "pattern (" << pattern.s << "," << pattern.p << "," << pattern.o
      << ")";
}

// ------------------------------------------------------------ parity suite

TEST(ShardedStoreTest, EmptyStoreRoundTrips) {
  std::string dir = FreshDir("obgs2_empty");
  TripleStore mem;
  auto store = BuildAndOpen(mem, dir, {.num_shards = 4});
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->num_shards(), 4u);
  EXPECT_TRUE(store->ok());
  EXPECT_TRUE(store->Match({kAny, kAny, kAny}).empty());
  EXPECT_EQ(store->ScanCost({kAny, kAny, kAny}), 0u);
  EXPECT_FALSE(store->Contains(1, 2, 3));
  EXPECT_TRUE(store->DistinctPredicates().empty());
  RemoveTree(dir);
}

TEST(ShardedStoreTest, ParityOnRandomizedGraphs) {
  struct Config {
    uint64_t seed;
    size_t triples;
    uint32_t shards;
    size_t block_size;
    bool hot_object = false;  // about half the triples point at object 0
  };
  // Shard counts around 1 (degenerate), block sizes small enough that
  // every segment spans several blocks, one default-sized control, and
  // one skewed graph whose object-side shard sizes are far from equal.
  const Config configs[] = {
      {11, 500, 1, 4},      {22, 2000, 3, 16}, {33, 2000, 8, 8},
      {44, 1500, 5, 1024},  {55, 2000, 8, 16, true},
  };
  for (const Config& cfg : configs) {
    SCOPED_TRACE(::testing::Message() << "seed " << cfg.seed << " shards "
                                      << cfg.shards << " block "
                                      << cfg.block_size << " hot "
                                      << cfg.hot_object);
    std::string dir = FreshDir("obgs2_parity");
    util::Rng rng(cfg.seed);
    TripleStore mem;
    FillRandomGraph(&rng, cfg.triples, 60, 8, 40, &mem);
    if (cfg.hot_object) FillRandomGraph(&rng, cfg.triples, 600, 8, 1, &mem);
    util::ThreadPool pool(2);
    auto store = BuildAndOpen(
        mem, dir, {.num_shards = cfg.shards, .block_size = cfg.block_size},
        {.verify = ShardedOpenOptions::Verify::kEager, .pool = &pool});
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->size(), mem.size());

    // Probe with present triples and with perturbed (mostly absent) ones.
    for (size_t i = 0; i < 20; ++i) {
      Triple probe = mem.triples()[rng.Uniform(mem.triples().size())];
      if (i % 3 == 1) probe.o = static_cast<rdf::TermId>(rng.Uniform(100));
      if (i % 3 == 2) probe.s = static_cast<rdf::TermId>(rng.Uniform(100));
      EXPECT_EQ(store->Contains(probe.s, probe.p, probe.o),
                mem.Contains(probe.s, probe.p, probe.o));
      for (const TriplePattern& pattern : PatternShapes(probe)) {
        ExpectPatternParity(mem, *store, pattern);
      }
      EXPECT_EQ(store->Objects(probe.s, probe.p), mem.Objects(probe.s, probe.p));
      EXPECT_EQ(store->Subjects(probe.p, probe.o),
                mem.Subjects(probe.p, probe.o));
      EXPECT_EQ(store->FirstObject(probe.s, probe.p),
                mem.FirstObject(probe.s, probe.p));
    }
    EXPECT_EQ(store->DistinctPredicates(), mem.DistinctPredicates());
    EXPECT_TRUE(store->ok());
    RemoveTree(dir);
  }
}

// Regression for the (s, ?, o) shape specifically: it routes through the
// OSP index with prefix (o, s) — the component-order inversion is the
// easiest place for an on-disk reimplementation to silently disagree.
TEST(ShardedStoreTest, SubjectObjectPatternUsesOspParity) {
  std::string dir = FreshDir("obgs2_osp");
  TripleStore mem;
  // Several predicates between the same (s, o) pairs, plus noise.
  for (rdf::TermId s = 0; s < 10; ++s) {
    for (rdf::TermId p = 0; p < 6; ++p) {
      for (rdf::TermId o = 0; o < 10; ++o) {
        if ((s + p + o) % 3 == 0) mem.Add(s, p, o);
      }
    }
  }
  auto store = BuildAndOpen(mem, dir, {.num_shards = 4, .block_size = 8});
  ASSERT_NE(store, nullptr);
  for (rdf::TermId s = 0; s < 12; ++s) {
    for (rdf::TermId o = 0; o < 12; ++o) {
      TriplePattern so{s, kAny, o};
      ExpectPatternParity(mem, *store, so);
      // The match order must be POS-within-(o, s): ascending predicate.
      std::vector<Triple> got = store->Match(so);
      for (size_t i = 1; i < got.size(); ++i) {
        EXPECT_LT(got[i - 1].p, got[i].p);
      }
    }
  }
  RemoveTree(dir);
}

TEST(ShardedStoreTest, SubjectRoutingAgreesWithSplitMix) {
  std::string dir = FreshDir("obgs2_route");
  TripleStore mem;
  util::Rng rng(7);
  FillRandomGraph(&rng, 300, 1000, 4, 50, &mem);
  auto store = BuildAndOpen(mem, dir, {.num_shards = 16, .block_size = 4});
  ASSERT_NE(store, nullptr);
  // Every subject-bound lookup must see exactly its triples; a routing
  // mismatch between builder and reader would lose whole subjects.
  for (const Triple& t : mem.triples()) {
    EXPECT_TRUE(store->Contains(t.s, t.p, t.o));
  }
  RemoveTree(dir);
}

TEST(ShardedStoreTest, ObjectRoutingAgreesWithSplitMix) {
  std::string dir = FreshDir("obgs3_objroute");
  TripleStore mem;
  util::Rng rng(17);
  FillRandomGraph(&rng, 300, 50, 4, 1000, &mem);
  auto store = BuildAndOpen(mem, dir, {.num_shards = 16, .block_size = 4});
  ASSERT_NE(store, nullptr);
  // Every object-bound lookup reads the POS segment of the object's shard
  // only; a routing mismatch between builder and reader would lose whole
  // objects.
  for (const Triple& t : mem.triples()) {
    std::vector<rdf::TermId> subjects = store->Subjects(t.p, t.o);
    EXPECT_NE(std::find(subjects.begin(), subjects.end(), t.s),
              subjects.end())
        << "(" << t.s << "," << t.p << "," << t.o << ") not found";
  }
  RemoveTree(dir);
}

// On a fresh lazily verified store, blocks_verified counts the blocks a
// query touched. Each shard's orders fit in one 64-key block here, so an
// object-bound pattern that reads one shard verifies exactly one block. The
// probes are the largest OSP and POS keys: under subject partitioning every
// shard's block would be a candidate and the query would verify all 16.
TEST(ShardedStoreTest, ObjectBoundPatternsTouchOneShard) {
  std::string dir = FreshDir("obgs3_oneshard");
  TripleStore mem;
  util::Rng rng(13);
  FillRandomGraph(&rng, 320, 1000, 4, 1000, &mem);  // ~20 keys per shard
  auto store = BuildAndOpen(
      mem, dir, {.num_shards = 16, .block_size = 64},
      {.verify = ShardedOpenOptions::Verify::kOnFirstUse});
  ASSERT_NE(store, nullptr);
  // A lazy open reads the manifest and maps the shards; it checks no block.
  EXPECT_EQ(store->Stats().blocks_verified, 0u);
  const auto& ts = mem.triples();
  const Triple last_osp = *std::max_element(
      ts.begin(), ts.end(), [](const Triple& a, const Triple& b) {
        return std::tie(a.o, a.s, a.p) < std::tie(b.o, b.s, b.p);
      });
  const Triple last_pos = *std::max_element(
      ts.begin(), ts.end(), [](const Triple& a, const Triple& b) {
        return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
      });
  for (const TriplePattern& pattern :
       {TriplePattern{kAny, kAny, last_osp.o},
        TriplePattern{kAny, last_pos.p, last_pos.o}}) {
    SCOPED_TRACE(::testing::Message()
                 << "pattern (?," << pattern.p << "," << pattern.o << ")");
    const uint64_t before = store->Stats().blocks_verified;
    EXPECT_EQ(store->Match(pattern), mem.Match(pattern));
    EXPECT_EQ(store->Stats().blocks_verified - before, 1u);
  }
  EXPECT_TRUE(store->ok());
  RemoveTree(dir);
}

TEST(ShardedStoreTest, ManifestTruncationSweepRefusesToOpen) {
  std::string dir = FreshDir("obgs2_mtrunc");
  TripleStore mem;
  util::Rng rng(3);
  FillRandomGraph(&rng, 60, 20, 4, 20, &mem);
  ASSERT_TRUE(rdf::BuildShardedStore(mem, dir, {.num_shards = 2}).ok());
  std::string manifest = dir + "/manifest.obgs2";
  const std::string blob = ReadWholeFile(manifest);
  ASSERT_GT(blob.size(), 16u);
  for (size_t len = 0; len < blob.size(); ++len) {
    WriteWholeFile(manifest, blob.substr(0, len));
    auto result = ShardedStore::Open(dir);
    EXPECT_FALSE(result.ok()) << "manifest truncated to " << len << " opened";
  }
  WriteWholeFile(manifest, blob);
  EXPECT_TRUE(ShardedStore::Open(dir).ok());
  RemoveTree(dir);
}

// The manifest's fields, as ShardedStoreBuilder writes them.
struct Manifest {
  uint32_t num_shards = 0;
  uint32_t block_size = 0;
  uint64_t total = 0;
  std::vector<std::array<uint64_t, 3>> rows;  // spo_count, obj_count, size
};

Manifest ReadManifest(const std::string& dir) {
  Manifest m;
  util::SnapshotReader reader;
  EXPECT_TRUE(reader.Open(dir + "/manifest.obgs2", "OBGSNAP3", 1).ok());
  util::SnapshotSection header = reader.section(0);
  EXPECT_TRUE(header.ReadU32(&m.num_shards).ok());
  EXPECT_TRUE(header.ReadU32(&m.block_size).ok());
  EXPECT_TRUE(header.ReadU64(&m.total).ok());
  util::SnapshotSection shards = reader.section(1);
  m.rows.resize(m.num_shards);
  for (auto& row : m.rows) {
    for (uint64_t& v : row) EXPECT_TRUE(shards.ReadU64(&v).ok());
  }
  return m;
}

// Writes `m` as a well-formed manifest with `magic`. The OBGSNAP2 layout
// has no object-side column: one (triple_count, size) row per shard.
void WriteManifest(const std::string& dir, const Manifest& m,
                   std::string_view magic = "OBGSNAP3") {
  const bool snap2 = magic == "OBGSNAP2";
  util::SnapshotWriter w(dir + "/manifest.obgs2", magic, 1);
  w.BeginSection(1);
  w.PutU32(m.num_shards);
  w.PutU32(m.block_size);
  w.PutU64(m.total);
  w.BeginSection(2);
  for (const auto& row : m.rows) {
    w.PutU64(row[0]);
    if (!snap2) w.PutU64(row[1]);
    w.PutU64(row[2]);
  }
  ASSERT_TRUE(w.Finish().ok());
}

TEST(ShardedStoreTest, PreviousFormatManifestIsRefusedByMagic) {
  std::string dir = FreshDir("obgs3_oldmagic");
  TripleStore mem;
  util::Rng rng(14);
  FillRandomGraph(&rng, 200, 40, 4, 40, &mem);
  ASSERT_TRUE(rdf::BuildShardedStore(mem, dir, {.num_shards = 3}).ok());
  const Manifest m = ReadManifest(dir);
  const std::vector<std::string> files = ListDir(dir);

  WriteManifest(dir, m, "OBGSNAP2");
  auto result = ShardedStore::Open(dir);
  ASSERT_FALSE(result.ok()) << "OBGSNAP2 manifest opened";
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("OBGSNAP2"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("OBGSNAP3"), std::string::npos)
      << result.status().message();

  // The refused open changed nothing: the same files, and the store opens
  // whole once its own manifest is back.
  EXPECT_EQ(ListDir(dir), files);
  WriteManifest(dir, m);
  auto reopened = ShardedStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->size(), mem.size());
  RemoveTree(dir);
}

TEST(ShardedStoreTest, ObjectSideCountsMustMatchTotalAndShards) {
  std::string dir = FreshDir("obgs3_objcount");
  TripleStore mem;
  util::Rng rng(15);
  FillRandomGraph(&rng, 200, 40, 4, 40, &mem);
  ASSERT_TRUE(rdf::BuildShardedStore(mem, dir, {.num_shards = 3}).ok());
  const Manifest good = ReadManifest(dir);
  ASSERT_EQ(good.rows.size(), 3u);

  // Object-side counts that no longer sum to the total.
  Manifest bad = good;
  bad.rows[0][1] += 1;
  WriteManifest(dir, bad);
  auto result = ShardedStore::Open(dir);
  ASSERT_FALSE(result.ok()) << "object-side sum off by one opened";
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("object-side"), std::string::npos)
      << result.status().message();

  // The right sum split wrongly between shards: the shard headers disagree.
  ASSERT_GT(good.rows[1][1], 0u);
  bad = good;
  bad.rows[0][1] += 1;
  bad.rows[1][1] -= 1;
  WriteManifest(dir, bad);
  result = ShardedStore::Open(dir);
  ASSERT_FALSE(result.ok()) << "object-side counts moved between shards";
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);

  WriteManifest(dir, good);
  auto reopened = ShardedStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->size(), mem.size());
  RemoveTree(dir);
}

TEST(ShardedStoreTest, ShardTruncationSweepRefusesToOpen) {
  std::string dir = FreshDir("obgs2_strunc");
  TripleStore mem;
  util::Rng rng(4);
  FillRandomGraph(&rng, 50, 12, 3, 12, &mem);
  ASSERT_TRUE(
      rdf::BuildShardedStore(mem, dir, {.num_shards = 2, .block_size = 8})
          .ok());
  std::string shard = dir + "/shard-0000.seg";
  const std::string blob = ReadWholeFile(shard);
  ASSERT_GT(blob.size(), kShardHeaderBytes);
  for (size_t len = 0; len < blob.size(); ++len) {
    WriteWholeFile(shard, blob.substr(0, len));
    auto result = ShardedStore::Open(dir);
    EXPECT_FALSE(result.ok()) << "shard truncated to " << len << " opened";
  }
  WriteWholeFile(shard, blob);
  EXPECT_TRUE(ShardedStore::Open(dir).ok());
  RemoveTree(dir);
}

TEST(ShardedStoreTest, EagerVerifyEveryBitFlipRefusesToOpen) {
  std::string dir = FreshDir("obgs2_flip");
  TripleStore mem;
  util::Rng rng(5);
  FillRandomGraph(&rng, 40, 10, 3, 10, &mem);
  ASSERT_TRUE(
      rdf::BuildShardedStore(mem, dir, {.num_shards = 1, .block_size = 8})
          .ok());
  std::string shard = dir + "/shard-0000.seg";
  const std::string blob = ReadWholeFile(shard);
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      WriteWholeFile(shard, blob);
      ASSERT_TRUE(util::FlipBit(shard, byte, bit).ok());
      auto result = ShardedStore::Open(
          dir, {.verify = ShardedOpenOptions::Verify::kEager});
      EXPECT_FALSE(result.ok())
          << "flip of byte " << byte << " bit " << bit << " opened";
    }
  }
  WriteWholeFile(shard, blob);
  RemoveTree(dir);
}

// The lazy-verify equivalent of the eager sweep: any single bit flip must
// either refuse the open (header/TOC damage) or latch the store corrupt by
// the end of one full scan — never a silently wrong or partial answer
// presented as healthy.
TEST(ShardedStoreTest, LazyVerifyEveryBitFlipIsCaughtByFullScan) {
  std::string dir = FreshDir("obgs2_lazyflip");
  TripleStore mem;
  util::Rng rng(6);
  FillRandomGraph(&rng, 40, 10, 3, 10, &mem);
  ASSERT_TRUE(
      rdf::BuildShardedStore(mem, dir, {.num_shards = 1, .block_size = 8})
          .ok());
  std::string shard = dir + "/shard-0000.seg";
  const std::string blob = ReadWholeFile(shard);
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      WriteWholeFile(shard, blob);
      ASSERT_TRUE(util::FlipBit(shard, byte, bit).ok());
      auto result = ShardedStore::Open(
          dir, {.verify = ShardedOpenOptions::Verify::kOnFirstUse});
      if (!result.ok()) continue;  // structural damage caught at open
      std::shared_ptr<const ShardedStore> store = result.value();
      // Touch every block of every order: the full scan decodes all SPO
      // blocks, DistinctPredicates decodes all POS blocks, and sweeping
      // every object value (o_range is 10 above) covers all OSP blocks.
      store->Match({kAny, kAny, kAny});
      store->DistinctPredicates();
      for (rdf::TermId o = 0; o < 10 && store->ok(); ++o) {
        store->Match({kAny, kAny, o});
      }
      EXPECT_FALSE(store->ok())
          << "flip of byte " << byte << " bit " << bit
          << " survived a full scan unlatched";
      EXPECT_FALSE(store->status().ok());
    }
  }
  WriteWholeFile(shard, blob);
  RemoveTree(dir);
}

TEST(ShardedStoreTest, LazyCorruptionLatchIsStickyAndCountsBlocks) {
  std::string dir = FreshDir("obgs2_latch");
  TripleStore mem;
  util::Rng rng(8);
  FillRandomGraph(&rng, 200, 30, 4, 30, &mem);
  ASSERT_TRUE(
      rdf::BuildShardedStore(mem, dir, {.num_shards = 1, .block_size = 16})
          .ok());
  // Flip a payload byte just past the header: block 0 of the SPO segment.
  std::string shard = dir + "/shard-0000.seg";
  ASSERT_TRUE(util::FlipBit(shard, kSpoBlock0Byte, 2).ok());

  auto result = ShardedStore::Open(
      dir, {.verify = ShardedOpenOptions::Verify::kOnFirstUse});
  ASSERT_TRUE(result.ok()) << result.status().message();
  std::shared_ptr<const ShardedStore> store = result.value();
  EXPECT_TRUE(store->ok());  // nothing touched yet

  std::vector<Triple> first = store->Match({kAny, kAny, kAny});
  EXPECT_FALSE(store->ok());
  EXPECT_LT(first.size(), mem.size());  // aborted, not silently complete

  // Latched: every later read returns nothing, the error is sticky, and
  // the corrupt-block counter reports the evidence.
  EXPECT_TRUE(store->Match({kAny, kAny, kAny}).empty());
  EXPECT_TRUE(store->Match({0, kAny, kAny}).empty());
  EXPECT_FALSE(store->Contains(mem.triples()[0].s, mem.triples()[0].p,
                               mem.triples()[0].o));
  EXPECT_FALSE(store->status().ok());
  rdf::ShardedStoreStats stats = store->Stats();
  EXPECT_FALSE(stats.ok);
  EXPECT_GE(stats.blocks_corrupt, 1u);
  EXPECT_FALSE(stats.first_error.empty());
  RemoveTree(dir);
}

TEST(ShardedStoreTest, AbandonedBuilderLeavesNoManifestAndNoSpills) {
  std::string dir = FreshDir("obgs2_abandon");
  {
    ShardedStoreBuilder builder(dir, {.num_shards = 3});
    ASSERT_TRUE(builder.status().ok());
    for (rdf::TermId i = 0; i < 100; ++i) {
      ASSERT_TRUE(builder.Add(i, 1, i + 1).ok());
    }
    // No Finish(): simulates a crash before publish.
  }
  EXPECT_FALSE(ShardedStore::Open(dir).ok()) << "store without manifest opened";
  for (const std::string& name : ListDir(dir)) {
    EXPECT_EQ(name.find("spill-"), std::string::npos)
        << "leftover spill file " << name;
  }
  RemoveTree(dir);
}

TEST(ShardedStoreTest, BuildFailureDuringShardWriteFailsClosed) {
  std::string dir = FreshDir("obgs2_buildfault");
  TripleStore mem;
  util::Rng rng(9);
  FillRandomGraph(&rng, 80, 20, 3, 20, &mem);
  util::failpoints::Arm("atomic_file::rename");
  EXPECT_FALSE(rdf::BuildShardedStore(mem, dir, {.num_shards = 2}).ok());
  util::failpoints::DisarmAll();
  EXPECT_FALSE(ShardedStore::Open(dir).ok());
  RemoveTree(dir);
}

// ----------------------------------------------------- LiveGraph overlay

TEST(ShardedStoreTest, LiveGraphOverlaysDeltaOnShardedBase) {
  std::string dir = FreshDir("obgs2_live");
  TripleStore mem;
  for (rdf::TermId s = 0; s < 20; ++s) mem.Add(s, 1, s + 100);
  auto store = BuildAndOpen(mem, dir, {.num_shards = 4, .block_size = 8});
  ASSERT_NE(store, nullptr);

  rdf::LiveGraph live(store);
  EXPECT_EQ(live.Acquire()->size(), mem.size());
  EXPECT_TRUE(live.Acquire()->Contains(5, 1, 105));

  rdf::UpdateBatch batch;
  batch.adds.push_back({500, 2, 501});   // brand-new triple
  batch.adds.push_back({5, 1, 105});     // re-add of a base triple: no-op
  batch.retracts.push_back({7, 1, 107});  // retract a base triple
  ASSERT_TRUE(live.Apply(batch).ok());

  std::shared_ptr<const rdf::GraphSnapshot> snap = live.Acquire();
  EXPECT_EQ(snap->generation, 2u);
  EXPECT_TRUE(snap->Contains(500, 2, 501));
  EXPECT_TRUE(snap->Contains(5, 1, 105));
  EXPECT_FALSE(snap->Contains(7, 1, 107));
  EXPECT_EQ(snap->size(), mem.size());  // +1 add, -1 retract
  // The delta normalized the no-op re-add away (base membership came from
  // the sharded store's Contains).
  EXPECT_EQ(snap->delta->adds().size(), 1u);
  EXPECT_EQ(snap->delta->num_retracts(), 1u);

  // Merged iteration: base match minus retracts plus delta adds.
  std::vector<Triple> all = snap->Match({kAny, 1, kAny});
  EXPECT_EQ(all.size(), mem.size() - 1);
  for (const Triple& t : all) EXPECT_NE(t.s, 7u);

  // Compaction over an out-of-core base is an offline rebuild, not an
  // in-process fold.
  util::Status st = live.Compact();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kUnimplemented);
  RemoveTree(dir);
}

TEST(ShardedStoreTest, ThresholdCompactionIsSkippedForShardedBase) {
  std::string dir = FreshDir("obgs2_livethresh");
  TripleStore mem;
  for (rdf::TermId s = 0; s < 10; ++s) mem.Add(s, 1, s);
  auto store = BuildAndOpen(mem, dir, {.num_shards = 2});
  ASSERT_NE(store, nullptr);

  rdf::LiveGraph::Options options;
  options.compact_threshold = 1;  // would fire on every publish
  rdf::LiveGraph live(store, options);
  for (rdf::TermId i = 0; i < 5; ++i) {
    rdf::UpdateBatch batch;
    batch.adds.push_back({1000 + i, 3, i});
    ASSERT_TRUE(live.Apply(batch).ok());
  }
  live.WaitForCompaction();
  EXPECT_EQ(live.stats().compactions, 0u);
  EXPECT_EQ(live.delta_size(), 5u);  // overlay kept, never folded
  EXPECT_EQ(live.Acquire()->size(), mem.size() + 5);
  RemoveTree(dir);
}

TEST(ShardedStoreTest, LiveGraphApplyFailsClosedOnLatchedCorruptBase) {
  // A latched store answers Contains() false for every triple, so a publish
  // over it would drop this retract of a base triple as a no-op — and still
  // write the WAL and publish. Apply must refuse instead, whether the store
  // latched before the call or inside Build's own Contains.
  std::string dir = FreshDir("obgs3_livecorrupt");
  std::string delta_dir = FreshDir("obgs3_livecorrupt_wal");
  ASSERT_EQ(::mkdir(delta_dir.c_str(), 0755), 0) << delta_dir;
  TripleStore mem;
  util::Rng rng(12);
  FillRandomGraph(&rng, 200, 30, 4, 30, &mem);
  ASSERT_TRUE(
      rdf::BuildShardedStore(mem, dir, {.num_shards = 1, .block_size = 16})
          .ok());
  ASSERT_TRUE(util::FlipBit(dir + "/shard-0000.seg", kSpoBlock0Byte, 2).ok());
  // The smallest SPO key lives in the corrupted block 0.
  std::vector<Triple> sorted = mem.triples();
  std::sort(sorted.begin(), sorted.end(), SpoLess);

  for (bool latch_first : {true, false}) {
    SCOPED_TRACE(latch_first ? "latched before Apply" : "latched in Build");
    auto result = ShardedStore::Open(
        dir, {.verify = ShardedOpenOptions::Verify::kOnFirstUse});
    ASSERT_TRUE(result.ok()) << result.status().message();
    std::shared_ptr<const ShardedStore> store = result.value();
    rdf::LiveGraph::Options options;
    options.delta_dir = delta_dir;
    rdf::LiveGraph live(store, options);
    if (latch_first) store->CountMatches({kAny, kAny, kAny});
    ASSERT_EQ(store->ok(), !latch_first);

    rdf::UpdateBatch batch;
    batch.retracts.push_back(sorted.front());
    util::Status st = live.Apply(batch);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(store->ok());
    EXPECT_EQ(st.message(), store->status().message());
    EXPECT_EQ(live.generation(), 1u);
    EXPECT_FALSE(util::FileExists(rdf::DeltaFilePath(delta_dir, 2)));
  }
  RemoveTree(delta_dir);
  RemoveTree(dir);
}

// ------------------------------------------------------- serve integration

TEST(ShardedStoreTest, QueryEngineServesNeighborsFromShardedBase) {
  std::string dir = FreshDir("obgs2_serve");
  TripleStore mem;
  // Out-edges and in-edges around entity 3, plus a self-loop.
  mem.Add(3, 1, 10);
  mem.Add(3, 2, 11);
  mem.Add(20, 1, 3);
  mem.Add(3, 1, 3);
  mem.Add(8, 2, 9);  // unrelated
  auto store = BuildAndOpen(mem, dir, {.num_shards = 4, .block_size = 4});
  ASSERT_NE(store, nullptr);

  serve::ServeContext::Bindings bindings;
  bindings.sharded = store;
  serve::ServeContext context(bindings);
  serve::QueryEngine engine(&context, serve::EngineOptions{});

  serve::Response resp = engine.Neighbors(3);
  ASSERT_EQ(resp.status, serve::ServeStatus::kOk);
  EXPECT_EQ(resp.payload.triples.size(), 4u);  // self-loop reported once
  // Cached second call is identical.
  serve::Response again = engine.Neighbors(3);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.payload.triples, resp.payload.triples);

  std::string metrics = engine.MetricsJson();
  EXPECT_NE(metrics.find("\"sharded_store\""), std::string::npos);
  EXPECT_NE(metrics.find("\"num_shards\":4"), std::string::npos);
  EXPECT_NE(metrics.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(metrics.find("\"memory\""), std::string::npos);
  EXPECT_NE(metrics.find("\"process_rss_bytes\""), std::string::npos);
  RemoveTree(dir);
}

TEST(ShardedStoreTest, ServeContextPrefersLiveThenShardedOverGraph) {
  // Three bindings, three different answers for entity 3: the triple source
  // is live > sharded > graph.
  std::string dir = FreshDir("obgs3_precedence");
  rdf::Graph graph;
  graph.store.Add(3, 1, 10);
  TripleStore mem;
  mem.Add(3, 1, 20);
  auto store = BuildAndOpen(mem, dir, {.num_shards = 2, .block_size = 4});
  ASSERT_NE(store, nullptr);
  auto live_base = std::make_shared<TripleStore>();
  live_base->Add(3, 1, 30);
  rdf::LiveGraph live(live_base);

  serve::ServeContext::Bindings bindings;
  bindings.graph = &graph;
  bindings.sharded = store;
  {
    serve::ServeContext context(bindings);
    serve::QueryEngine engine(&context, serve::EngineOptions{});
    serve::Response resp = engine.Neighbors(3);
    ASSERT_EQ(resp.status, serve::ServeStatus::kOk);
    EXPECT_EQ(resp.payload.triples, (std::vector<Triple>{{3, 1, 20}}));
  }
  bindings.live = &live;
  {
    serve::ServeContext context(bindings);
    serve::QueryEngine engine(&context, serve::EngineOptions{});
    serve::Response resp = engine.Neighbors(3);
    ASSERT_EQ(resp.status, serve::ServeStatus::kOk);
    EXPECT_EQ(resp.payload.triples, (std::vector<Triple>{{3, 1, 30}}));
  }
  RemoveTree(dir);
}

TEST(ShardedStoreTest, QueryEngineDegradesWhenShardedBaseLatchesCorrupt) {
  std::string dir = FreshDir("obgs2_servecorrupt");
  TripleStore mem;
  util::Rng rng(10);
  FillRandomGraph(&rng, 300, 20, 3, 20, &mem);
  ASSERT_TRUE(
      rdf::BuildShardedStore(mem, dir, {.num_shards = 1, .block_size = 16})
          .ok());
  ASSERT_TRUE(util::FlipBit(dir + "/shard-0000.seg", kSpoBlock0Byte, 1).ok());
  auto result = ShardedStore::Open(
      dir, {.verify = ShardedOpenOptions::Verify::kOnFirstUse});
  ASSERT_TRUE(result.ok());

  serve::ServeContext::Bindings bindings;
  bindings.sharded = result.value();
  serve::ServeContext context(bindings);
  serve::EngineOptions options;
  options.cache_enabled = false;  // no stale-hit escape hatch
  serve::QueryEngine engine(&context, options);

  // Query the subject with the globally smallest SPO key: its candidate
  // range starts in block 0 of the SPO segment — the block the flip above
  // corrupted — so this request is the one that discovers the damage.
  std::vector<Triple> sorted = mem.triples();
  std::sort(sorted.begin(), sorted.end(), SpoLess);

  // The request that *discovers* the corruption must not return a partial
  // answer as kOk — the post-scan BaseOk re-check degrades it.
  serve::Response first = engine.Neighbors(sorted.front().s);
  EXPECT_EQ(first.status, serve::ServeStatus::kDegraded);
  EXPECT_TRUE(first.payload.triples.empty());
  // Every later request short-circuits on the latch.
  serve::Response later = engine.Neighbors(sorted.back().s);
  EXPECT_EQ(later.status, serve::ServeStatus::kDegraded);

  serve::HealthState hs = engine.ComputeHealth();
  EXPECT_EQ(hs.base_store.health, serve::Health::kUnhealthy);
  EXPECT_EQ(hs.base_store.reason, "sharded base corrupt (cache-only): " +
                                      bindings.sharded->Stats().first_error);
  EXPECT_EQ(hs.overall(), serve::Health::kUnhealthy);
  std::string metrics = engine.MetricsJson();
  EXPECT_NE(metrics.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(metrics.find("base_store"), std::string::npos);
  RemoveTree(dir);
}

// ------------------------------------------------ streaming SnapshotReader

TEST(StreamingSnapshotReaderTest, SectionsLoadOnDemandWithFreshCursors) {
  std::string path = ::testing::TempDir() + "/obgs2_stream.snap";
  util::SnapshotWriter writer(path, "STREAMT1", 1);
  writer.BeginSection(10);
  writer.PutU32(42);
  writer.PutString("alpha");
  writer.BeginSection(20);
  writer.PutU64(1ull << 40);
  ASSERT_TRUE(writer.Finish().ok());

  util::SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, "STREAMT1", 1).ok());
  ASSERT_EQ(reader.num_sections(), 2u);

  // Out-of-order and repeated loads each get an independent cursor.
  util::SnapshotSection second = reader.section(1);
  EXPECT_EQ(second.tag(), 20u);
  uint64_t v64 = 0;
  ASSERT_TRUE(second.ReadU64(&v64).ok());
  EXPECT_EQ(v64, 1ull << 40);
  EXPECT_TRUE(second.AtEnd());

  for (int round = 0; round < 2; ++round) {
    util::SnapshotSection first = reader.section(0);
    EXPECT_EQ(first.tag(), 10u);
    uint32_t v32 = 0;
    std::string s;
    ASSERT_TRUE(first.ReadU32(&v32).ok());
    ASSERT_TRUE(first.ReadString(&s).ok());
    EXPECT_EQ(v32, 42u);
    EXPECT_EQ(s, "alpha");
  }
  std::remove(path.c_str());
}

TEST(StreamingSnapshotReaderTest, FileChangedAfterOpenFailsSectionReads) {
  std::string path = ::testing::TempDir() + "/obgs2_stream_rot.snap";
  util::SnapshotWriter writer(path, "STREAMT1", 1);
  writer.BeginSection(1);
  writer.PutString("payload that will rot");
  ASSERT_TRUE(writer.Finish().ok());

  util::SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, "STREAMT1", 1).ok());

  // Rot a payload bit AFTER validation: the on-demand load re-derives the
  // CRC, so the stale SectionInfo cannot vouch for changed bytes. Byte 40
  // is inside the string body (16B file header + 12B section header + 8B
  // string length prefix = 36).
  ASSERT_TRUE(util::FlipBit(path, 40, 4).ok());
  util::SnapshotSection section = reader.section(0);
  std::string s;
  util::Status st = section.ReadString(&s);
  EXPECT_FALSE(st.ok());
  // The error is sticky: every subsequent read keeps failing.
  uint32_t v = 0;
  EXPECT_FALSE(section.ReadU32(&v).ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------ memory accounting

TEST(MemoryAccountingTest, PerIndexBytesAppearAfterSeal) {
  TripleStore store;
  util::Rng rng(12);
  FillRandomGraph(&rng, 500, 50, 5, 50, &store);
  store.SealIndexes();
  rdf::TripleStoreMemory m = store.MemoryUsage();
  EXPECT_GE(m.triples_bytes, store.size() * sizeof(Triple));
  EXPECT_GT(m.dedup_bytes, 0u);
  EXPECT_GE(m.idx_spo_bytes, store.size() * sizeof(uint32_t));
  EXPECT_GE(m.idx_pos_bytes, store.size() * sizeof(uint32_t));
  EXPECT_GE(m.idx_osp_bytes, store.size() * sizeof(uint32_t));
  EXPECT_EQ(m.total(), m.triples_bytes + m.dedup_bytes + m.idx_spo_bytes +
                           m.idx_pos_bytes + m.idx_osp_bytes);

  rdf::TermDict dict;
  dict.AddIri("http://openbg.example/a-long-enough-iri-to-defeat-sso");
  EXPECT_GT(dict.MemoryUsage(), 0u);
  EXPECT_GT(util::ProcessRssBytes(), 0u);
}

TEST(MemoryAccountingTest, MappedFileReportsResidency) {
  std::string path = ::testing::TempDir() + "/obgs2_mapped_probe";
  std::string content(256 * 1024, 'x');
  WriteWholeFile(path, content);
  util::MappedFile file;
  ASSERT_TRUE(file.Open(path).ok());
  EXPECT_EQ(file.size(), content.size());
  // Touch every page, then residency must be complete.
  size_t sum = 0;
  for (size_t i = 0; i < file.size(); i += 4096) sum += file.data()[i];
  ASSERT_GT(sum, 0u);
  EXPECT_EQ(file.ResidentBytes(), file.size());
  file.Close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace openbg
