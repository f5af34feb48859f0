// Unit tests of the benchmark's statistics: the sample-floor percentile,
// the seeded Poisson schedule, and the self-time table.
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Range(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileWithFloor, NearestRankValue) {
  Quantile q = PercentileWithFloor(Range(100), 50);
  EXPECT_EQ(q.value, 50.0);
  EXPECT_EQ(q.n, 100u);
  EXPECT_EQ(q.beyond, 50u);
  EXPECT_TRUE(q.ok);
}

TEST(PercentileWithFloor, P99NeedsTenSamplesBeyond) {
  // 999 samples: the p99 rank is 990, leaving 9 beyond -> not reported.
  Quantile thin = PercentileWithFloor(Range(999), 99);
  EXPECT_EQ(thin.beyond, 9u);
  EXPECT_FALSE(thin.ok);
  // 1000 samples: rank 990, 10 beyond -> reported, value as measured.
  Quantile enough = PercentileWithFloor(Range(1000), 99);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.ok);
  EXPECT_EQ(enough.value, 990.0);
}

TEST(PercentileWithFloor, SmallAndEmptySets) {
  EXPECT_FALSE(PercentileWithFloor({}, 50).ok);
  EXPECT_EQ(PercentileWithFloor({}, 50).n, 0u);
  Quantile median = PercentileWithFloor(Range(20), 50);
  EXPECT_EQ(median.beyond, 10u);
  EXPECT_TRUE(median.ok);
  EXPECT_FALSE(PercentileWithFloor(Range(19), 50).ok);
  EXPECT_TRUE(PercentileWithFloor(Range(19), 50, /*floor=*/9).ok);
}

TEST(PoissonArrivals, SameSeedSameSchedule) {
  std::vector<double> a = PoissonArrivals(42, 5000.0, 1.0, 2.0);
  std::vector<double> b = PoissonArrivals(42, 5000.0, 1.0, 2.0);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(PoissonArrivals, DifferentSeedDifferentSchedule) {
  EXPECT_NE(PoissonArrivals(42, 5000.0, 0.0, 1.0),
            PoissonArrivals(43, 5000.0, 0.0, 1.0));
}

TEST(PoissonArrivals, WindowAndRate) {
  std::vector<double> a = PoissonArrivals(7, 10000.0, 3.0, 4.0);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 3.0);
  EXPECT_LT(a.back(), 7.0);
  // 40000 expected arrivals; the Poisson count's sd is 200.
  EXPECT_NEAR(static_cast<double>(a.size()), 40000.0, 1000.0);
  EXPECT_TRUE(PoissonArrivals(7, 0.0, 0.0, 1.0).empty());
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer t;
  Tracer::Buffer* b = t.NewBuffer();
  uint64_t root = b->Add("net.socket", 0, 10'000, 0, 1);
  b->Add("serve.neighbors", 2'000, 6'000, root, 1);
  b->Add("gen.lag", 0, 1'000, root, 1);
  b->Add("net.socket", 0, 5'000, 0, 2);  // no children: not attributed
  Tracer::Table table = t.SelfTimeTable();
  ASSERT_EQ(table.requests, 1u);
  EXPECT_DOUBLE_EQ(table.e2e_us_per_req, 10.0);
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.rows[0].name, "net.socket");
  EXPECT_DOUBLE_EQ(table.rows[0].self_us_per_req, 5.0);
  EXPECT_DOUBLE_EQ(table.rows[0].share, 0.5);
  EXPECT_EQ(table.rows[1].name, "serve.neighbors");
  EXPECT_DOUBLE_EQ(table.rows[1].self_us_per_req, 4.0);
}

}  // namespace
}  // namespace perfbench
