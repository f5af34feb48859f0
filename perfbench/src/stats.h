#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// A percentile read off a sample, with the evidence behind it. `ok` is
/// false when fewer than `floor` samples lie beyond the percentile's rank:
/// such a value rests on a handful of requests and is not reported.
struct Quantile {
  double value = 0.0;
  size_t n = 0;       // samples in the set
  size_t beyond = 0;  // samples ranked strictly above the percentile
  bool ok = false;
  bool windowed = false;  // median of per-window percentiles
};

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted` (ascending). The
/// value is a sample as measured, never interpolated or bucketed.
inline Quantile PercentileWithFloor(const std::vector<double>& sorted,
                                    double p, size_t floor = 10) {
  Quantile q;
  q.n = sorted.size();
  if (q.n == 0) return q;
  double rank = std::ceil(p / 100.0 * static_cast<double>(q.n));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  idx = std::min(idx, q.n - 1);
  q.value = sorted[idx];
  q.beyond = q.n - 1 - idx;
  q.ok = q.beyond >= floor;
  return q;
}

/// Poisson arrival times (seconds, ascending) at `rate` per second over
/// [start_s, start_s + duration_s), drawn from `seed` alone: the same seed
/// always yields the same schedule.
inline std::vector<double> PoissonArrivals(uint64_t seed, double rate,
                                           double start_s,
                                           double duration_s) {
  std::vector<double> out;
  if (rate <= 0.0 || duration_s <= 0.0) return out;
  openbg::util::Rng rng(seed);
  out.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  double t = start_s;
  const double end = start_s + duration_s;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= end) break;
    out.push_back(t);
  }
  return out;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
