#!/usr/bin/env python3
"""Compare benchmark result sets written by run.py --results.

    python3 perfbench/compare.py RESULTS.jsonl
        per workload and end-to-end metric: median, quartiles and the
        spread (quartile gap over median) against the metric's bound
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
        per workload and metric: both sides' median and quartiles and a
        verdict (improved, worse or unresolved)
    python3 perfbench/compare.py --overhead RESULTS.jsonl
        traced against untraced end-to-end medians per workload
    python3 perfbench/compare.py --self-test

A change is "improved" only when it wins at least 9 of 10 pairs (ties
count for neither side) and the medians differ by more than the
parent's quartile gap; "worse" when its median is worse than the
parent's by more than the metric's bound; "unresolved" otherwise.
Pairs are runs with the same seed; when the two sets share no seed,
runs pair in seed order.  The "agree" column says whether the medians
are within the metric's bound of each other, which is what two sets
of the same code must show.

Two sets are only compared when the host ran at the same speed for
both.  Every verdict of a workload is "unresolved" when its two sets
were not interleaved in time (each set's span, first start to last
end, must overlap the other's by at least half), or when the sets'
median calibration figures (a fixed CPU task every run times) differ
by more than the metric's bound.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def records(path, trace=False):
    """Run records with the given trace flag."""
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return [r for r in recs if bool(r["trace"]) == trace]


def load(path, trace=False):
    """{workload: {seed: {metric: value}}} for runs with the given trace flag."""
    out = {}
    for rec in records(path, trace):
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        out.setdefault(rec["workload"], {})[rec["seed"]] = metrics
    return out


def hosts(path):
    """{workload: (first start, last end, median calibration ms)}; None
    for a workload whose runs lack the timing metadata."""
    out = {}
    for rec in records(path):
        out.setdefault(rec["workload"], []).append(rec["metadata"])
    res = {}
    for wl, metas in out.items():
        if all("started_unix" in m and "calibration_ms" in m for m in metas):
            res[wl] = (min(m["started_unix"] for m in metas),
                       max(m["ended_unix"] for m in metas),
                       statistics.median(m["calibration_ms"] for m in metas))
        else:
            res[wl] = None
    return res


def interleaved(a, b):
    """a, b: (start, end).  True when their overlap covers at least half
    of each span."""
    overlap = min(a[1], b[1]) - max(a[0], b[0])
    return overlap > 0 and all(overlap >= 0.5 * (e - s) for s, e in (a, b))


def same_host(p_host, c_host, bound):
    """None when two sets may be compared, else the reason they may not."""
    if p_host is None or c_host is None:
        return "no timing metadata"
    if not interleaved(p_host[:2], c_host[:2]):
        return "not interleaved"
    drift = c_host[2] / p_host[2] - 1.0
    if abs(drift) > bound:
        return "calibration %+.0f%%" % (100.0 * drift)
    return None


def pairs(parent, change):
    """[(parent value, change value)], by seed, or in seed order when the
    sets share no seed."""
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[s], change[s]) for s in common]
    return list(zip([parent[s] for s in sorted(parent)], [change[s] for s in sorted(change)]))


def stats(values):
    """(median, first quartile, third quartile), as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(parent, change, better, bound):
    """parent, change: {seed: value}.  Returns (verdict, wins, pairs)."""
    ps = pairs(parent, change)
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in ps if sign * (c - p) < 0)
    p_med, p_q1, p_q3 = stats(list(parent.values()))
    c_med, _, _ = stats(list(change.values()))
    gain = sign * (p_med - c_med)
    if ps and wins >= 0.9 * len(ps) and gain > (p_q3 - p_q1):
        return "improved", wins, len(ps)
    if -gain > bound * abs(p_med):
        return "worse", wins, len(ps)
    return "unresolved", wins, len(ps)


def metrics_spec():
    with open(BENCHMARK) as f:
        return json.load(f)["end_to_end"]


def summary(path):
    runs = load(path)
    print("%-11s %-16s %5s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"))
    for wl in sorted(runs):
        for m in metrics_spec():
            vals = [r[m["name"]] for r in runs[wl].values() if m["name"] in r]
            if not vals:
                continue
            med, q1, q3 = stats(vals)
            spread = (q3 - q1) / med if med else float("inf")
            print("%-11s %-16s %5d %12.4f %12.4f %12.4f %8.3f %6.2f" %
                  (wl, m["name"], len(vals), med, q1, q3, spread, m["bound"]))


def compare(parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    p_hosts, c_hosts = hosts(parent_path), hosts(change_path)
    print("%-11s %-16s %24s %24s %7s %8s %6s  %s" %
          ("workload", "metric", "parent med [q1, q3]", "change med [q1, q3]", "wins",
           "change", "agree", "verdict"))
    for wl in sorted(set(parent) & set(change)):
        for m in metrics_spec():
            name = m["name"]
            p = {s: r[name] for s, r in parent[wl].items() if name in r}
            c = {s: r[name] for s, r in change[wl].items() if name in r}
            if not p or not c:
                continue
            v, wins, n = verdict(p, c, m["better"], m["bound"])
            why = same_host(p_hosts.get(wl), c_hosts.get(wl), m["bound"])
            if why is not None:
                v = "unresolved (%s)" % why
            ps, cs = stats(list(p.values())), stats(list(c.values()))
            rel = cs[0] / ps[0] - 1.0 if ps[0] else float("inf")
            print("%-11s %-16s %9.3f [%6.3f, %6.3f] %9.3f [%6.3f, %6.3f] %3d/%-3d %+7.1f%% %6s  %s" %
                  (wl, name, ps[0], ps[1], ps[2], cs[0], cs[1], cs[2], wins, n, 100.0 * rel,
                   "yes" if abs(rel) <= m["bound"] else "NO", v))


def overhead(path):
    plain = {}
    traced = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                side = traced if rec["trace"] else plain
                e2e = rec["metadata"]["end_to_end"]
                for k, v in e2e.items():
                    side.setdefault(rec["workload"], {}).setdefault(k, []).append(v["value"])
    for wl in sorted(set(plain) & set(traced)):
        for k in ("query_p50_ms", "query_p95_ms", "throughput_qps", "batch_p50_ms"):
            u, t = statistics.median(plain[wl][k]), statistics.median(traced[wl][k])
            print("%-11s %-16s untraced %10.3f  traced %10.3f  overhead %+6.1f%%" %
                  (wl, k, u, t, 100.0 * (t / u - 1.0) if u else float("nan")))


def self_test():
    parent = {s: 10.0 + 0.1 * s for s in range(10)}
    faster = {s: 8.0 + 0.1 * s for s in range(10)}
    assert verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert verdict(faster, parent, "lower", 0.1)[0] == "worse"
    assert verdict(parent, dict(parent), "lower", 0.1)[0] == "unresolved"
    # wins every pair but by less than the parent's own quartile gap
    close = {s: v - 0.05 for s, v in parent.items()}
    assert verdict(parent, close, "lower", 0.1)[0] == "unresolved"
    # higher is better: more throughput wins
    assert verdict(faster, parent, "higher", 0.1)[0] == "improved"
    # sets that share no seed pair in seed order
    shifted = {s + 10: v for s, v in faster.items()}
    assert verdict(parent, shifted, "lower", 0.1)[1:] == (10, 10)
    # host checks: interleaved spans on an equally fast host pass
    assert same_host((0, 100, 40.0), (5, 105, 41.0), 0.1) is None
    assert same_host((0, 100, 40.0), (100, 200, 40.0), 0.1) == "not interleaved"
    assert same_host((0, 100, 40.0), (0, 100, 50.0), 0.1) == "calibration +25%"
    assert same_host(None, (0, 100, 40.0), 0.1) == "no timing metadata"
    assert stats([1.0, 2.0, 3.0, 4.0]) == tuple([statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4)[i]
                                                  for i in (1, 0, 2)])
    print("compare.py self-test ok")


def main():
    a = sys.argv[1:]
    if a == ["--self-test"]:
        self_test()
    elif len(a) == 2 and a[0] == "--overhead":
        overhead(a[1])
    elif len(a) == 1:
        summary(a[0])
    elif len(a) == 2:
        compare(a[0], a[1])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
