// Tests for the live-update MVCC layer (src/rdf/delta_segment.*,
// src/rdf/live_graph.*): delta normalization against the base store,
// snapshot isolation under concurrent publish, retract/re-add semantics,
// foreground and background compaction, the bounded publish history the
// serving layer syncs from, write-ahead delta durability, and — the
// ISSUE's headline property — crash recovery to the prior generation at
// every failpoint on the publish path.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rdf/delta_segment.h"
#include "rdf/live_graph.h"
#include "rdf/snapshot.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "util/clock.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace openbg::rdf {
namespace {

constexpr TermId kAny = TriplePattern::kAny;

bool TripleLess(const Triple& a, const Triple& b) {
  if (a.s != b.s) return a.s < b.s;
  if (a.p != b.p) return a.p < b.p;
  return a.o < b.o;
}

std::shared_ptr<TripleStore> SmallBase() {
  auto store = std::make_shared<TripleStore>();
  store->Add(1, 10, 100);
  store->Add(1, 10, 101);
  store->Add(2, 10, 100);
  store->Add(2, 11, 102);
  store->Add(3, 12, 103);
  return store;
}

std::vector<Triple> SortedTriples(const TripleStore& store) {
  std::vector<Triple> out = store.triples();
  std::sort(out.begin(), out.end(), TripleLess);
  return out;
}

std::vector<Triple> SortedTriples(const GraphSnapshot& snap) {
  std::vector<Triple> out = snap.Match(TriplePattern{});
  std::sort(out.begin(), out.end(), TripleLess);
  return out;
}

class LiveGraphTest : public ::testing::Test {
 protected:
  void TearDown() override { util::failpoints::DisarmAll(); }
};

TEST_F(LiveGraphTest, DeltaBuildNormalizesAgainstBase) {
  std::shared_ptr<TripleStore> base = SmallBase();
  base->SealIndexes();
  UpdateBatch batch;
  batch.adds.push_back({4, 10, 104});   // genuinely new
  batch.adds.push_back({1, 10, 100});   // already in base: no-op add
  batch.adds.push_back({4, 10, 104});   // duplicate add: deduplicated
  batch.retracts.push_back({2, 10, 100});  // base triple: real retract
  batch.retracts.push_back({9, 9, 9});     // not in base: no-op retract
  util::Result<std::shared_ptr<const DeltaSegment>> built =
      DeltaSegment::Build(nullptr, batch, *base);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const DeltaSegment& delta = *built.value();
  EXPECT_EQ(delta.adds().size(), 1u);
  EXPECT_TRUE(delta.ContainsAdd({4, 10, 104}));
  EXPECT_EQ(delta.num_retracts(), 1u);
  EXPECT_TRUE(delta.IsRetracted({2, 10, 100}));
  EXPECT_TRUE(
      std::is_sorted(delta.adds().begin(), delta.adds().end(), TripleLess));

  // Same triple added AND retracted in one batch: the retract wins.
  UpdateBatch conflicted;
  conflicted.adds.push_back({5, 10, 105});
  conflicted.retracts.push_back({5, 10, 105});
  built = DeltaSegment::Build(nullptr, conflicted, *base);
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(built.value()->empty());

  UpdateBatch invalid;
  invalid.adds.push_back({kInvalidTerm, 1, 2});
  EXPECT_FALSE(DeltaSegment::Build(nullptr, invalid, *base).ok());
}

TEST_F(LiveGraphTest, DeltaReAddCancelsRetractAcrossBatches) {
  std::shared_ptr<TripleStore> base = SmallBase();
  base->SealIndexes();
  UpdateBatch retract;
  retract.retracts.push_back({1, 10, 100});
  auto first = DeltaSegment::Build(nullptr, retract, *base);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value()->IsRetracted({1, 10, 100}));
  // Re-adding a retracted base triple cancels the retract rather than
  // duplicating the triple into `adds` (it is already in the base).
  UpdateBatch readd;
  readd.adds.push_back({1, 10, 100});
  auto second = DeltaSegment::Build(first.value().get(), readd, *base);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value()->IsRetracted({1, 10, 100}));
  EXPECT_FALSE(second.value()->ContainsAdd({1, 10, 100}));
  // And retracting a pure delta add removes the add, leaving no retract.
  UpdateBatch add_new;
  add_new.adds.push_back({7, 10, 107});
  auto third = DeltaSegment::Build(second.value().get(), add_new, *base);
  ASSERT_TRUE(third.ok());
  UpdateBatch drop_new;
  drop_new.retracts.push_back({7, 10, 107});
  auto fourth = DeltaSegment::Build(third.value().get(), drop_new, *base);
  ASSERT_TRUE(fourth.ok());
  EXPECT_FALSE(fourth.value()->ContainsAdd({7, 10, 107}));
  EXPECT_EQ(fourth.value()->num_retracts(), 0u);
}

TEST_F(LiveGraphTest, TouchedKeysCoverSubjectAndObjectOfEveryMutation) {
  UpdateBatch batch;
  batch.adds.push_back({1, 10, 100});
  batch.retracts.push_back({2, 11, 100});
  std::vector<uint64_t> touched = TouchedKeys(batch);
  EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
  for (TermId id : {1u, 100u, 2u}) {
    EXPECT_TRUE(std::binary_search(touched.begin(), touched.end(),
                                   EntityDepKey(id)))
        << "entity " << id;
  }
  // Predicates are not entities: the touched set is entity-keyed.
  EXPECT_FALSE(std::binary_search(touched.begin(), touched.end(),
                                  EntityDepKey(10)));
  // Object 100 appears in both mutations but only once in the set.
  EXPECT_EQ(touched.size(), 3u);
}

TEST_F(LiveGraphTest, SnapshotMergesBaseAndDelta) {
  std::shared_ptr<TripleStore> base = SmallBase();
  base->SealIndexes();
  UpdateBatch batch;
  batch.adds.push_back({1, 10, 109});
  batch.retracts.push_back({1, 10, 101});
  auto delta = DeltaSegment::Build(nullptr, batch, *base);
  ASSERT_TRUE(delta.ok());
  GraphSnapshot snap;
  snap.base = base;
  snap.delta = delta.value();
  snap.generation = 2;

  EXPECT_TRUE(snap.Contains(1, 10, 109));   // delta add
  EXPECT_FALSE(snap.Contains(1, 10, 101));  // retracted base triple
  EXPECT_TRUE(snap.Contains(1, 10, 100));   // untouched base triple
  EXPECT_EQ(snap.size(), base->size());     // one add, one retract
  std::vector<Triple> got = snap.Match(TriplePattern{1, 10, kAny});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Triple{1, 10, 100}));
  EXPECT_EQ(got[1], (Triple{1, 10, 109}));
  EXPECT_EQ(snap.CountMatches(TriplePattern{}), base->size());
  // Early stop works across the base/delta seam.
  size_t seen = 0;
  snap.ForEachMatchFn(TriplePattern{1, 10, kAny}, [&seen](const Triple&) {
    ++seen;
    return false;
  });
  EXPECT_EQ(seen, 1u);
}

TEST_F(LiveGraphTest, ApplyPublishesAndOldSnapshotsStayFrozen) {
  LiveGraph live(SmallBase());
  EXPECT_EQ(live.generation(), 1u);
  std::shared_ptr<const GraphSnapshot> before = live.Acquire();

  UpdateBatch batch;
  batch.adds.push_back({6, 10, 106});
  batch.retracts.push_back({3, 12, 103});
  ASSERT_TRUE(live.Apply(batch).ok());
  EXPECT_EQ(live.generation(), 2u);

  // The pre-publish snapshot is bitwise what it was (MVCC isolation)...
  EXPECT_EQ(before->generation, 1u);
  EXPECT_FALSE(before->Contains(6, 10, 106));
  EXPECT_TRUE(before->Contains(3, 12, 103));
  // ...and the new snapshot sees the batch.
  std::shared_ptr<const GraphSnapshot> after = live.Acquire();
  EXPECT_TRUE(after->Contains(6, 10, 106));
  EXPECT_FALSE(after->Contains(3, 12, 103));
  EXPECT_EQ(after->size(), before->size());

  // An empty batch publishes nothing.
  ASSERT_TRUE(live.Apply(UpdateBatch{}).ok());
  EXPECT_EQ(live.generation(), 2u);
}

TEST_F(LiveGraphTest, CompactionPreservesContentAndOldSnapshots) {
  LiveGraph live(SmallBase());
  UpdateBatch batch;
  batch.adds.push_back({6, 10, 106});
  batch.retracts.push_back({1, 10, 100});
  ASSERT_TRUE(live.Apply(batch).ok());
  std::shared_ptr<const GraphSnapshot> overlaid = live.Acquire();
  std::vector<Triple> before = SortedTriples(*overlaid);
  ASSERT_NE(overlaid->delta, nullptr);

  ASSERT_TRUE(live.Compact().ok());
  std::shared_ptr<const GraphSnapshot> compacted = live.Acquire();
  EXPECT_EQ(compacted->generation, overlaid->generation + 1);
  EXPECT_EQ(compacted->delta, nullptr);
  EXPECT_TRUE(compacted->base->IndexesSealed());
  EXPECT_EQ(SortedTriples(*compacted), before) << "compaction changed content";
  // The overlaid snapshot still answers identically: its base is kept
  // alive by shared ownership even though the live graph moved on.
  EXPECT_EQ(SortedTriples(*overlaid), before);
  // Compacting an already-clean graph is a no-op.
  uint64_t gen = live.generation();
  ASSERT_TRUE(live.Compact().ok());
  EXPECT_EQ(live.generation(), gen);
}

TEST_F(LiveGraphTest, ThresholdTriggersBackgroundCompaction) {
  util::ThreadPool pool(2);
  LiveGraph::Options options;
  options.compact_threshold = 4;
  options.pool = &pool;
  LiveGraph live(SmallBase(), options);
  for (TermId i = 0; i < 6; ++i) {
    UpdateBatch batch;
    batch.adds.push_back({20 + i, 10, 300 + i});
    ASSERT_TRUE(live.Apply(batch).ok());
  }
  live.WaitForCompaction();
  std::shared_ptr<const GraphSnapshot> snap = live.Acquire();
  // The delta was folded away (entirely, or up to the adds that landed
  // after the fold was scheduled).
  EXPECT_TRUE(snap->delta == nullptr || snap->delta->size() < 6u);
  for (TermId i = 0; i < 6; ++i) {
    EXPECT_TRUE(snap->Contains(20 + i, 10, 300 + i)) << i;
  }
  EXPECT_EQ(snap->size(), SmallBase()->size() + 6);
}

TEST_F(LiveGraphTest, PublishHistoryIsBoundedAndDetectsGaps) {
  LiveGraph live(SmallBase());
  auto one_add = [](TermId i) {
    UpdateBatch b;
    b.adds.push_back({40, 10, 400 + i});
    return b;
  };
  ASSERT_TRUE(live.Apply(one_add(0)).ok());  // generation 2
  std::vector<PublishRecord> records;
  ASSERT_TRUE(live.CollectPublishesSince(1, &records));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].generation, 2u);
  EXPECT_TRUE(std::binary_search(records[0].touched.begin(),
                                 records[0].touched.end(),
                                 EntityDepKey(40)));
  // Push the history past its bound: the oldest records fall off and a
  // reader that far behind is told so (it must invalidate everything).
  for (TermId i = 1; i <= LiveGraph::kMaxHistory + 5; ++i) {
    ASSERT_TRUE(live.Apply(one_add(i)).ok());
  }
  records.clear();
  EXPECT_FALSE(live.CollectPublishesSince(1, &records));
  records.clear();
  EXPECT_TRUE(live.CollectPublishesSince(live.generation(), &records));
  EXPECT_TRUE(records.empty());
  records.clear();
  EXPECT_TRUE(live.CollectPublishesSince(live.generation() - 3, &records));
  EXPECT_EQ(records.size(), 3u);
}

TEST_F(LiveGraphTest, DeltaBatchRoundTripsAndFailsClosed) {
  std::string path = ::testing::TempDir() + "/openbg_delta_rt.obgd";
  UpdateBatch batch;
  batch.adds.push_back({1, 2, 3});
  batch.adds.push_back({4, 5, 6});
  batch.retracts.push_back({7, 8, 9});
  ASSERT_TRUE(SaveDeltaBatch(batch, 17, path).ok());
  UpdateBatch loaded;
  uint64_t generation = 0;
  ASSERT_TRUE(LoadDeltaBatch(path, &loaded, &generation).ok());
  EXPECT_EQ(generation, 17u);
  EXPECT_EQ(loaded.adds, batch.adds);
  EXPECT_EQ(loaded.retracts, batch.retracts);
  // Truncation is detected, and the failed load leaves outputs untouched.
  util::Result<uint64_t> size = util::FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(util::TruncateFile(path, size.value() - 5).ok());
  UpdateBatch unchanged = loaded;
  uint64_t unchanged_gen = generation;
  EXPECT_FALSE(LoadDeltaBatch(path, &loaded, &generation).ok());
  EXPECT_EQ(loaded.adds, unchanged.adds);
  EXPECT_EQ(generation, unchanged_gen);
  std::remove(path.c_str());
}

/// The tentpole durability property: arm each failpoint on the publish
/// path in turn, watch the publish fail, and prove that BOTH the in-memory
/// snapshot AND a cold recovery from disk (base snapshot + delta replay)
/// land on the prior generation with the prior content.
TEST_F(LiveGraphTest, CrashAtEveryPublishFailpointRecoversPriorGeneration) {
  const char* kSites[] = {"live::publish", "atomic_file::write",
                          "atomic_file::fsync", "atomic_file::rename"};
  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    std::string dir = ::testing::TempDir();
    std::string base_path = dir + "/openbg_live_base.obgsnap";

    // World: a dict-backed base saved to disk, wrapped in a LiveGraph
    // journaling to `dir`.
    TermDict dict;
    auto base = std::make_shared<TripleStore>();
    std::vector<TermId> e(8);
    for (size_t i = 0; i < e.size(); ++i) {
      e[i] = dict.AddIri("http://x/e" + std::to_string(i));
    }
    base->Add(e[0], e[1], e[2]);
    base->Add(e[3], e[1], e[4]);
    ASSERT_TRUE(SaveSnapshot(dict, *base, base_path).ok());

    LiveGraph::Options options;
    options.delta_dir = dir;
    LiveGraph live(base, options);

    // One successful publish first, so recovery must replay real state.
    UpdateBatch first;
    first.adds.push_back({e[5], e[1], e[6]});
    ASSERT_TRUE(live.Apply(first).ok());
    ASSERT_EQ(live.generation(), 2u);
    ASSERT_TRUE(util::FileExists(DeltaFilePath(dir, 2)));
    std::vector<Triple> good = SortedTriples(*live.Acquire());

    // The crash: the next publish dies at `site`.
    util::failpoints::Arm(site);
    UpdateBatch second;
    second.adds.push_back({e[7], e[1], e[6]});
    second.retracts.push_back({e[0], e[1], e[2]});
    EXPECT_FALSE(live.Apply(second).ok());
    util::failpoints::Disarm(site);

    // In memory: prior generation, prior content, and no delta file for
    // the attempted generation (AtomicFile never leaves a torn target).
    EXPECT_EQ(live.generation(), 2u);
    EXPECT_EQ(SortedTriples(*live.Acquire()), good);
    EXPECT_FALSE(util::FileExists(DeltaFilePath(dir, 3)));

    // Cold recovery from disk reaches the same generation and content.
    TermDict rdict;
    TripleStore rstore;
    ASSERT_TRUE(LoadSnapshot(base_path, &rdict, &rstore).ok());
    uint64_t recovered = 0;
    ASSERT_TRUE(ReplayDeltaDir(dir, 1, &rstore, &recovered).ok());
    EXPECT_EQ(recovered, 2u);
    EXPECT_EQ(SortedTriples(rstore), good);

    // And the failed batch applies cleanly once the fault is gone.
    ASSERT_TRUE(live.Apply(second).ok());
    EXPECT_EQ(live.generation(), 3u);
    EXPECT_TRUE(live.Acquire()->Contains(e[7], e[1], e[6]));
    EXPECT_FALSE(live.Acquire()->Contains(e[0], e[1], e[2]));

    for (uint64_t g = 2; g <= 3; ++g) {
      std::remove(DeltaFilePath(dir, g).c_str());
    }
    std::remove(base_path.c_str());
  }
}

TEST_F(LiveGraphTest, ReplayStopsAtGapAndFailsClosedOnCorruption) {
  std::string dir = ::testing::TempDir();
  UpdateBatch b2, b3;
  b2.adds.push_back({1, 2, 30});
  b3.adds.push_back({1, 2, 31});
  ASSERT_TRUE(SaveDeltaBatch(b2, 2, DeltaFilePath(dir, 2)).ok());
  ASSERT_TRUE(SaveDeltaBatch(b3, 3, DeltaFilePath(dir, 3)).ok());

  // Clean chain: both replay.
  {
    TripleStore store;
    store.Add(9, 9, 9);
    uint64_t gen = 0;
    ASSERT_TRUE(ReplayDeltaDir(dir, 1, &store, &gen).ok());
    EXPECT_EQ(gen, 3u);
    EXPECT_EQ(store.size(), 3u);
  }
  // A gap (gen 2 missing) ends the chain before gen 3.
  ASSERT_EQ(std::remove(DeltaFilePath(dir, 2).c_str()), 0);
  {
    TripleStore store;
    store.Add(9, 9, 9);
    uint64_t gen = 0;
    ASSERT_TRUE(ReplayDeltaDir(dir, 1, &store, &gen).ok());
    EXPECT_EQ(gen, 1u);
    EXPECT_EQ(store.size(), 1u);
  }
  // A corrupt file aborts the replay with an error (fail closed).
  ASSERT_TRUE(SaveDeltaBatch(b2, 2, DeltaFilePath(dir, 2)).ok());
  util::Result<uint64_t> size = util::FileSize(DeltaFilePath(dir, 3));
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(util::FlipBit(DeltaFilePath(dir, 3), size.value() / 2, 3).ok());
  {
    TripleStore store;
    store.Add(9, 9, 9);
    uint64_t gen = 0;
    EXPECT_FALSE(ReplayDeltaDir(dir, 1, &store, &gen).ok());
  }
  std::remove(DeltaFilePath(dir, 2).c_str());
  std::remove(DeltaFilePath(dir, 3).c_str());
}

TEST_F(LiveGraphTest, TransientWalFaultIsRetriedAndPublishSucceeds) {
  // A fire_count=1 fault on the delta-file rename: the first WAL attempt
  // fails, the retry succeeds, and the caller never sees an error.
  std::string dir = ::testing::TempDir();
  util::FakeClock clock;
  LiveGraph::Options options;
  options.delta_dir = dir;
  options.retry.clock = &clock;
  LiveGraph live(SmallBase(), options);

  util::failpoints::FailpointSpec spec;
  spec.fire_count = 1;
  util::failpoints::ArmSpec("atomic_file::rename", spec);
  UpdateBatch batch;
  batch.adds.push_back({7, 10, 107});
  ASSERT_TRUE(live.Apply(batch).ok());

  EXPECT_EQ(live.generation(), 2u);
  EXPECT_TRUE(live.Acquire()->Contains(7, 10, 107));
  EXPECT_TRUE(util::FileExists(DeltaFilePath(dir, 2)));
  LiveGraph::StatsSnapshot stats = live.stats();
  EXPECT_GE(stats.publish_retries, 1u);
  EXPECT_EQ(stats.publish_failures, 0u);
  EXPECT_EQ(stats.consecutive_publish_failures, 0u);
  EXPECT_GT(clock.NowMicros(), 0u);  // the retry actually backed off
  std::remove(DeltaFilePath(dir, 2).c_str());
}

TEST_F(LiveGraphTest, ExhaustedWalRetriesFailThePublishAndCount) {
  std::string dir = ::testing::TempDir();
  util::FakeClock clock;
  LiveGraph::Options options;
  options.delta_dir = dir;
  options.retry.clock = &clock;
  LiveGraph live(SmallBase(), options);

  util::failpoints::Arm("atomic_file::rename");  // fires forever
  UpdateBatch batch;
  batch.adds.push_back({7, 10, 107});
  EXPECT_FALSE(live.Apply(batch).ok());
  util::failpoints::DisarmAll();

  EXPECT_EQ(live.generation(), 1u);
  LiveGraph::StatsSnapshot stats = live.stats();
  EXPECT_EQ(stats.publish_failures, 1u);
  EXPECT_EQ(stats.consecutive_publish_failures, 1u);
  // The fault heals -> the same batch lands and the streak resets.
  ASSERT_TRUE(live.Apply(batch).ok());
  EXPECT_EQ(live.stats().consecutive_publish_failures, 0u);
  std::remove(DeltaFilePath(dir, 2).c_str());
}

TEST_F(LiveGraphTest, TransientCompactionFaultIsRetried) {
  util::FakeClock clock;
  LiveGraph::Options options;
  options.retry.clock = &clock;
  LiveGraph live(SmallBase(), options);
  UpdateBatch batch;
  batch.adds.push_back({8, 10, 108});
  ASSERT_TRUE(live.Apply(batch).ok());

  util::failpoints::FailpointSpec spec;
  spec.fire_count = 1;
  util::failpoints::ArmSpec("live::compact", spec);
  ASSERT_TRUE(live.Compact().ok());

  EXPECT_EQ(live.delta_size(), 0u);
  EXPECT_TRUE(live.Acquire()->Contains(8, 10, 108));
  LiveGraph::StatsSnapshot stats = live.stats();
  EXPECT_GE(stats.compact_retries, 1u);
  EXPECT_EQ(stats.compact_failures, 0u);
  EXPECT_EQ(stats.compactions, 1u);
}

TEST_F(LiveGraphTest, BackgroundCompactionFailureNeverWedges) {
  // ISSUE acceptance: a transient fault during compaction is retried; one
  // that outlives the retry budget delays compaction but must never wedge
  // it — the next Apply whose delta still exceeds the threshold simply
  // re-schedules.
  util::ThreadPool pool(2);
  util::FakeClock clock;
  LiveGraph::Options options;
  options.compact_threshold = 2;
  options.pool = &pool;
  options.retry.clock = &clock;
  LiveGraph live(SmallBase(), options);

  util::failpoints::Arm("live::compact");  // outlives every retry budget
  UpdateBatch batch;
  batch.adds.push_back({8, 10, 108});
  batch.adds.push_back({8, 10, 109});
  ASSERT_TRUE(live.Apply(batch).ok());
  live.WaitForCompaction();  // must return: the failed task cleared pending

  EXPECT_GE(live.delta_size(), 2u);  // compaction did not happen
  LiveGraph::StatsSnapshot stats = live.stats();
  EXPECT_GE(stats.compact_failures, 1u);
  EXPECT_GE(stats.consecutive_compact_failures, 1u);

  // Fault clears; the next over-threshold publish re-triggers compaction
  // and it succeeds.
  util::failpoints::DisarmAll();
  UpdateBatch more;
  more.adds.push_back({8, 10, 110});
  ASSERT_TRUE(live.Apply(more).ok());
  live.WaitForCompaction();
  EXPECT_EQ(live.delta_size(), 0u);
  stats = live.stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.consecutive_compact_failures, 0u);
  EXPECT_TRUE(live.Acquire()->Contains(8, 10, 108));
  EXPECT_TRUE(live.Acquire()->Contains(8, 10, 110));
}

TEST_F(LiveGraphTest, SaturatedPoolFallsBackToInlineCompaction) {
  // max_queued_compactions = 0 makes TryEnqueue reject every handoff (the
  // bounded-admission satellite): the publish must compact inline rather
  // than silently drop the scheduled compaction.
  util::ThreadPool pool(1);
  LiveGraph::Options options;
  options.compact_threshold = 2;
  options.pool = &pool;
  options.max_queued_compactions = 0;
  LiveGraph live(SmallBase(), options);

  UpdateBatch batch;
  batch.adds.push_back({8, 10, 108});
  batch.adds.push_back({8, 10, 109});
  ASSERT_TRUE(live.Apply(batch).ok());
  live.WaitForCompaction();  // inline path must also clear pending

  LiveGraph::StatsSnapshot stats = live.stats();
  EXPECT_EQ(stats.inline_fallbacks, 1u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(live.delta_size(), 0u);
  EXPECT_TRUE(live.Acquire()->Contains(8, 10, 108));
}

TEST_F(LiveGraphTest, QuarantineReplayServesLastGoodGeneration) {
  std::string dir = ::testing::TempDir() + "/openbg_quarantine";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
  UpdateBatch b2, b3, b4;
  b2.adds.push_back({1, 2, 30});
  b3.adds.push_back({1, 2, 31});
  b4.adds.push_back({1, 2, 32});
  ASSERT_TRUE(SaveDeltaBatch(b2, 2, DeltaFilePath(dir, 2)).ok());
  ASSERT_TRUE(SaveDeltaBatch(b3, 3, DeltaFilePath(dir, 3)).ok());
  ASSERT_TRUE(SaveDeltaBatch(b4, 4, DeltaFilePath(dir, 4)).ok());
  // Rot generation 3 and leave a crash orphan next to the chain.
  util::Result<uint64_t> size = util::FileSize(DeltaFilePath(dir, 3));
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(util::FlipBit(DeltaFilePath(dir, 3), size.value() / 2, 3).ok());
  {
    std::ofstream orphan(dir + "/delta.obgd.tmp");
    orphan << "torn";
  }

  // Strict mode still fails closed.
  {
    TripleStore store;
    uint64_t gen = 0;
    EXPECT_FALSE(ReplayDeltaDir(dir, 1, &store, &gen).ok());
  }
  // Quarantine mode: replay stops cleanly at generation 2, the corrupt
  // file is moved aside (not destroyed), and the stale temp is swept.
  std::vector<std::string> quarantined;
  ReplayOptions ropts;
  ropts.quarantine_corrupt = true;
  ropts.sweep_stale_temps = true;
  ropts.quarantined = &quarantined;
  TripleStore store;
  store.Add(9, 9, 9);
  uint64_t gen = 0;
  ASSERT_TRUE(ReplayDeltaDir(dir, 1, &store, &gen, ropts).ok());
  EXPECT_EQ(gen, 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(1, 2, 30));
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0], DeltaFilePath(dir, 3) + ".quarantine");
  EXPECT_FALSE(util::FileExists(DeltaFilePath(dir, 3)));
  EXPECT_TRUE(util::FileExists(quarantined[0]));
  EXPECT_FALSE(util::FileExists(dir + "/delta.obgd.tmp"));
  // Generation 4 is untouched — past the gap, but preserved for forensics.
  EXPECT_TRUE(util::FileExists(DeltaFilePath(dir, 4)));

  // A second quarantine replay is idempotent (nothing left to move).
  {
    TripleStore again;
    uint64_t g = 0;
    ASSERT_TRUE(ReplayDeltaDir(dir, 1, &again, &g, ropts).ok());
    EXPECT_EQ(g, 2u);
  }
  std::remove(DeltaFilePath(dir, 2).c_str());
  std::remove(quarantined[0].c_str());
  std::remove(DeltaFilePath(dir, 4).c_str());
  ::rmdir(dir.c_str());
}

TEST_F(LiveGraphTest, QuarantineReplayMovesWrongStampAside) {
  std::string dir = ::testing::TempDir() + "/openbg_quarantine_stamp";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
  UpdateBatch b;
  b.adds.push_back({1, 2, 40});
  ASSERT_TRUE(SaveDeltaBatch(b, 5, DeltaFilePath(dir, 2)).ok());
  ReplayOptions ropts;
  ropts.quarantine_corrupt = true;
  TripleStore store;
  uint64_t gen = 0;
  ASSERT_TRUE(ReplayDeltaDir(dir, 1, &store, &gen, ropts).ok());
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(util::FileExists(DeltaFilePath(dir, 2) + ".quarantine"));
  std::remove((DeltaFilePath(dir, 2) + ".quarantine").c_str());
  ::rmdir(dir.c_str());
}

TEST_F(LiveGraphTest, WrongGenerationStampIsRejected) {
  std::string dir = ::testing::TempDir();
  UpdateBatch b;
  b.adds.push_back({1, 2, 40});
  // File named for generation 2 but stamped 5: replay must refuse rather
  // than apply a batch out of order.
  ASSERT_TRUE(SaveDeltaBatch(b, 5, DeltaFilePath(dir, 2)).ok());
  TripleStore store;
  uint64_t gen = 0;
  EXPECT_FALSE(ReplayDeltaDir(dir, 1, &store, &gen).ok());
  std::remove(DeltaFilePath(dir, 2).c_str());
}

/// The 8-thread MVCC acceptance test (TSan-covered): 7 readers serve
/// queries continuously while 1 writer ingests and publishes delta batches
/// (with background compaction enabled). Each batch replaces entity 60's
/// single fact atomically, so EVERY snapshot any reader ever acquires must
/// show exactly one (60, 2000, *) triple — a torn publish, a non-atomic
/// swap, or a reader observing a half-applied batch all break the count.
TEST_F(LiveGraphTest, ConcurrentReadersDuringIngestAndCompaction) {
  util::ThreadPool pool(2);
  LiveGraph::Options options;
  options.compact_threshold = 16;
  options.pool = &pool;
  auto base = std::make_shared<TripleStore>();
  for (TermId s = 1; s <= 50; ++s) base->Add(s, 1000, 100 + s);
  LiveGraph live(base, options);

  constexpr size_t kReaders = 7;
  constexpr uint64_t kBatches = 150;
  constexpr size_t kReaderIters = 250;
  std::atomic<size_t> errors{0};

  std::vector<std::thread> readers;
  for (size_t ri = 0; ri < kReaders; ++ri) {
    readers.emplace_back([&live, &errors] {
      uint64_t last_gen = 0;
      for (size_t i = 0; i < kReaderIters; ++i) {
        std::shared_ptr<const GraphSnapshot> snap = live.Acquire();
        if (snap->generation < last_gen) errors.fetch_add(1);
        last_gen = snap->generation;
        // The never-touched base fact is visible in every snapshot.
        if (!snap->Contains(1, 1000, 101)) errors.fetch_add(1);
        // Entity 60 holds exactly one fact once the first batch landed.
        size_t n = snap->CountMatches(TriplePattern{60, kAny, kAny});
        if (snap->generation == 1 ? n != 0 : n != 1) errors.fetch_add(1);
      }
    });
  }
  std::thread writer([&live, &errors] {
    for (uint64_t i = 0; i < kBatches; ++i) {
      UpdateBatch batch;
      batch.adds.push_back({60, 2000, static_cast<TermId>(3000 + i)});
      if (i > 0) {
        batch.retracts.push_back({60, 2000, static_cast<TermId>(3000 + i - 1)});
      }
      if (!live.Apply(batch).ok()) errors.fetch_add(1);
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  live.WaitForCompaction();

  EXPECT_EQ(errors.load(), 0u);
  std::shared_ptr<const GraphSnapshot> final_snap = live.Acquire();
  EXPECT_EQ(final_snap->CountMatches(TriplePattern{60, kAny, kAny}), 1u);
  EXPECT_TRUE(
      final_snap->Contains(60, 2000, static_cast<TermId>(3000 + kBatches - 1)));
  EXPECT_EQ(final_snap->size(), 50u + 1u);
}

// The seal check lives in GraphSnapshot, so it guards every snapshot
// reader: an Add() slipped into a base after LiveGraph sealed it would put
// the index-rebuild mutex back on the read path, and the next read aborts.
TEST(LiveGraphDeathTest, ReadAfterMutatingASealedBaseIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::shared_ptr<TripleStore> base = SmallBase();
  LiveGraph live(LiveGraph::Alias(base.get()));
  std::shared_ptr<const GraphSnapshot> snap = live.Acquire();
  EXPECT_EQ(snap->Match(TriplePattern{1, 10, kAny}).size(), 2u);
  base->Add(1, 10, 109);
  EXPECT_DEATH(snap->Match(TriplePattern{1, 10, kAny}),
               "mutated after LiveGraph sealed it");
}

}  // namespace
}  // namespace openbg::rdf
