#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check the spread of one set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --spread RUNS_DIR

A run is the saved standard output of perfbench/run.py, one file per run
(any name): its first line names the workload, seed and trace mode, its last
line is the result. Metric directions and bounds come from BENCHMARK.json.

Compare prints, per workload and metric, each side's median and quartiles
and a verdict under the rule for claiming a gain: the change wins at least
nine tenths of the parent/change pairs (ties count for neither; runs pair by
seed, else in file order) and the medians differ by more than the parent's
interquartile range. A metric whose spread (IQR / median) exceeds its bound
on either side is unresolved, unless every change run beats, or loses to,
every parent run. "worse" means the change median is worse than the parent
median by more than the bound. Per-layer metrics have no bound and are
judged by the win rule alone.

--spread prints each metric's spread against its bound and exits 1 when an
end-to-end spread other than setup_s exceeds its bound.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HEADER = re.compile(r"^# perfbench workload=(\S+) seed=(\d+) trace=([01])")


def load_runs(directory):
    """{(workload, trace): [(seed, {metric: value}), ...]} in file order."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text(errors="replace").splitlines()
        head = next((HEADER.match(l) for l in lines if HEADER.match(l)), None)
        if head is None or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        key = (head.group(1), int(head.group(3)))
        runs.setdefault(key, []).append((int(head.group(2)), values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pair_up(parent, change):
    """Pairs of values, by seed when both sides ran the same seeds."""
    ps, cs = dict(parent), dict(change)
    if len(ps) == len(parent) and set(ps) == set(cs):
        return [(ps[s], cs[s]) for s in sorted(ps)]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(parent, change, pairs, better, bound):
    """One metric: parent and change values, their pairs, direction, bound."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) < 0 for p in parent for c in change)
    if bound is not None and max(spread(parent), spread(change)) > bound:
        if not (all_better or all_worse):
            return "unresolved"
    gap = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gap > p3 - p1:
        return "better"
    if bound is not None:
        return "worse" if pm and -gap / abs(pm) > bound else "within bound"
    if pairs and losses >= 0.9 * len(pairs) and -gap > p3 - p1:
        return "worse"
    return "no clear change"


def metric_defs(bench):
    return [(m, 0) for m in bench["end_to_end"]] + [(m, 1) for m in bench["per_layer"]]


def compare(bench, parent_runs, change_runs):
    rows = []
    for w in (x["name"] for x in bench["workloads"]):
        for m, trace in metric_defs(bench):
            parent = parent_runs.get((w, trace), [])
            change = change_runs.get((w, trace), [])
            pv = [v[m["name"]] for _, v in parent if m["name"] in v]
            cv = [v[m["name"]] for _, v in change if m["name"] in v]
            if not pv or not cv:
                continue
            pairs = [(p[m["name"]], c[m["name"]]) for p, c in pair_up(parent, change)
                     if m["name"] in p and m["name"] in c]
            rows.append((w, m, pv, cv, verdict(pv, cv, pairs, m["better"], m.get("bound"))))
    print(f"{'workload':<13} {'metric':<32} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} verdict")
    for w, m, pv, cv, v in rows:
        pq, cq = quartiles(pv), quartiles(cv)
        print(f"{w:<13} {m['name']:<32} "
              f"{pq[1]:<11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(83) +
              f" {cq[1]:<11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(37) + f" {v}")
    return rows


def check_spread(bench, runs):
    failed = False
    print(f"{'workload':<13} {'metric':<32} {'n':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  status")
    for w in (x["name"] for x in bench["workloads"]):
        for m in bench["end_to_end"]:
            values = [v[m["name"]] for _, v in runs.get((w, 0), []) if m["name"] in v]
            if not values:
                continue
            s = spread(values)
            if m["name"] == "setup_s":
                status = "not gated"
            elif s <= m["bound"] / 3:
                status = "steady"
            elif s <= m["bound"]:
                status = "within bound"
            else:
                status, failed = "TOO WIDE", True
            print(f"{w:<13} {m['name']:<32} {len(values):>3} {statistics.median(values):>12.5g} "
                  f"{s:>8.3f} {m['bound']:>6.2f}  {status}")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", nargs="+", help="PARENT_DIR CHANGE_DIR, or RUNS_DIR with --spread")
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent /
                                               "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    if args.spread:
        if len(args.dirs) != 1:
            ap.error("--spread takes one directory")
        sys.exit(1 if check_spread(bench, load_runs(args.dirs[0])) else 0)
    if len(args.dirs) != 2:
        ap.error("compare takes PARENT_DIR CHANGE_DIR")
    compare(bench, load_runs(args.dirs[0]), load_runs(args.dirs[1]))


if __name__ == "__main__":
    main()
