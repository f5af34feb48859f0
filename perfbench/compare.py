#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or summarizes one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds run records written by `run.py --record`. For every
workload and metric this prints each set's median and quartiles and, with
two sets, one verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile distance;
  regressed   an end-to-end metric whose median is worse than the base's by
              more than its bound in BENCHMARK.json, while both sets' spreads
              are within that bound; a per-layer metric (no bound) that
              loses 9 of 10 pairs by more than the base's interquartile
              distance;
  unresolved  neither: no resolved change, a spread wider than the bound,
              or fewer than MIN_PAIRS pairs (printed with the reason).

Runs pair up by seed: only seeds with a valid run in both sets count, and
with fewer than MIN_PAIRS such pairs every verdict is unresolved. Run the
two sides alternately, same seed on both, flipping which goes first in
each pair: two sets run one after the other see the host's drift as a
change of the code. With one set, the spread of each end-to-end metric
(interquartile distance over median) is printed against a third of its
bound, and the exit code is 1 if any spread exceeds its bound. Runs marked
invalid (the load generator fell behind its schedule) are left out of both
and counted in the output.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0


def pairs(base, change):
    """(base run, change run) pairs of the seeds both sets ran, by seed."""
    bs = {r["seed"]: r for r in base}
    cs = {r["seed"]: r for r in change}
    return [(bs[s], cs[s]) for s in sorted(set(bs) & set(cs))]


def verdict(paired, better, bound=None):
    """Verdict for one metric over (base, change) value pairs.
    Returns (verdict, reason)."""
    n = len(paired)
    if n < MIN_PAIRS:
        return "unresolved", "only %d valid same-seed pairs (need %d)" % (n, MIN_PAIRS)
    base = [b for b, _ in paired]
    change = [c for _, c in paired]
    sign = -1.0 if better == "lower" else 1.0
    q1b, mb, q3b = quartiles(base)
    _, mc, _ = quartiles(change)
    iqr_b = q3b - q1b
    wins = sum(1 for b, c in paired if sign * (c - b) > 0)
    losses = sum(1 for b, c in paired if sign * (c - b) < 0)
    gain = sign * (mc - mb)
    if wins >= 0.9 * n and gain > iqr_b:
        return "improved", "won %d/%d pairs; medians differ by %.4g > base IQR %.4g" % (
            wins, n, abs(mc - mb), iqr_b)
    if bound is not None:
        worse_by = -gain / abs(mb) if mb else 0.0
        widest = max(spread(base), spread(change))
        if widest > bound:
            all_better = all(sign * (c - b) > 0 for b in base for c in change)
            if not all_better:
                return "unresolved", "spread %.3f exceeds bound %.3f" % (widest, bound)
        if worse_by > bound:
            return "regressed", "median worse by %.1f%% > bound %.0f%%" % (
                100 * worse_by, 100 * bound)
        return "unresolved", "median moved %+.1f%% (bound %.0f%%); no resolved change" % (
            -100 * worse_by, 100 * bound)
    if losses >= 0.9 * n and -gain > iqr_b:
        return "regressed", "lost %d/%d pairs; medians differ by %.4g > base IQR %.4g" % (
            losses, n, abs(mc - mb), iqr_b)
    return "unresolved", "no resolved change (won %d, lost %d of %d pairs)" % (wins, losses, n)


def load(path):
    """Valid run records of `path` by (workload, trace). Runs marked invalid
    (the load generator fell behind its schedule) are left out and counted
    per workload."""
    runs, invalid = {}, {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                key = (r["workload"], r["trace"])
                runs.setdefault(key, [])
                if r.get("valid", True):
                    runs[key].append(r)
                else:
                    invalid[key] = invalid.get(key, 0) + 1
    for (workload, trace), n in sorted(invalid.items()):
        print("%s: %s (trace %d): %d of %d runs invalid, left out" % (
            path, workload, trace, n, n + len(runs[(workload, trace)])))
    return {k: v for k, v in runs.items() if v}


def metric_specs(root):
    """name -> (better, bound); bound is None for per-layer metrics."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"]["metrics"]]


def summarize(runs, specs):
    bad = 0
    for (workload, trace), rs in sorted(runs.items()):
        print("%s (trace %d, %d runs)" % (workload, trace, len(rs)))
        ok = sum(1 for r in rs if r["result"]["correct"])
        print("  correct in %d/%d runs" % (ok, len(rs)))
        for name in rs[0]["result"]["metrics"]:
            vals = values(rs, name)
            q1, med, q3 = quartiles(vals)
            better, bound = specs.get(name, ("lower", None))
            s = spread(vals)
            flag = ""
            if bound is not None:
                flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                bad += s > bound
            print("  %-34s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.3f %s" % (
                name, med, q1, q3, s, flag))
    return bad


def compare(base, change, specs):
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print("%s (trace %d): %d base runs, %d change runs" % (
            workload, trace, len(base[key]), len(change[key])))
        runs = pairs(base[key], change[key])
        print("  %d same-seed pairs" % len(runs))
        for name in base[key][0]["result"]["metrics"]:
            paired = [(x["result"]["metrics"][name]["value"],
                       y["result"]["metrics"][name]["value"]) for x, y in runs
                      if name in x["result"]["metrics"] and name in y["result"]["metrics"]]
            if not paired:
                continue
            better, bound = specs.get(name, ("lower", None))
            v, why = verdict(paired, better, bound)
            b, c = [x for x, _ in paired], [y for _, y in paired]
            qb, qc = quartiles(b), quartiles(c)
            print("  %-30s base %12.6g [%.6g, %.6g]  change %12.6g [%.6g, %.6g]  %-10s %s" % (
                name, qb[1], qb[0], qb[2], qc[1], qc[0], qc[2], v, why))


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs(os.path.dirname(HERE))
    if len(argv) == 2:
        return 1 if summarize(load(argv[1]), specs) else 0
    compare(load(argv[1]), load(argv[2]), specs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
