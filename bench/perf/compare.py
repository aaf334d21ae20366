#!/usr/bin/env python3
"""Compare sets of benchmark records against the bounds in BENCHMARK.json.

A record is the JSON line bench/perf/run.sh prints before its result line
(it carries "workload", "seed", "metrics", "result_digest", ...).  Each FILE
holds the captured stdout of any number of runs; other lines are ignored.
Only untraced records are read, and only the end-to-end metrics compared.

  compare.py spread FILE...          per (workload, metric): median, quartiles
                                     and the quartile spread as a share of the
                                     median, against a third of the bound
  compare.py agree A B               two sets of runs of the same commit: each
                                     spread within the bound (setup_s: see
                                     SPREAD_UNCHECKED), and the medians within
                                     the bound of each other in either
                                     direction
  compare.py compare PARENT CHANGE   the gain rule: medians and quartiles, the
                                     share of pairs the change wins, a verdict
                                     (improved / unchanged / regressed /
                                     unresolved) and whether result_digest
                                     changed; plus one failed_frac row per
                                     workload, regressed on any increase

Quartiles are statistics.quantiles(values, n=4).  Runs are paired by
(workload, seed, order of appearance); a verdict needs at least MIN_PAIRS
pairs and reads unresolved with fewer.  spread and agree exit 1 when a pair
fails its check, compare when a pair regressed.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")

# The choosing-metrics rule: at least ten pairs, and a gain only when the
# change wins nine tenths of them.
MIN_PAIRS = 10
WIN_SHARE = 0.9

# Metrics whose spread agree does not hold to the bound; their medians it
# does.  A set-up round is a cold start in a fresh process, whose time
# carries page-fault and allocation costs the reference mix does not track:
# over five sets of ten runs on a shared 4-core VM, setup_s spread by
# 0.08-0.35 of its median while its median moved by at most 0.13 between
# sets.
SPREAD_UNCHECKED = {"setup_s"}


def load_bench():
    with open(BENCHMARK) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def load_records(paths):
    """{workload: [record, ...]} in file order, untraced runs only."""
    out = defaultdict(list)
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "workload" in rec and not rec.get("trace"):
                    out[rec["workload"]].append(rec)
    return out


def values(recs, metric):
    return [r["metrics"][metric]["value"] for r in recs
            if metric in r.get("metrics", {})]


def summary(vals):
    """(median, q1, q3, spread) or None with fewer than two values."""
    if len(vals) < 2:
        return None
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def band(vals):
    med, q1, q3, _ = summary(vals)
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"


def worse_by(parent, change, better):
    """Signed share by which `change` is worse than `parent`."""
    d = (change - parent) / parent
    return d if better == "lower" else -d


def failed_frac(recs):
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else 0.0


def fmt(x):
    return f"{x:.4g}"


def cmd_spread(paths):
    bench = load_bench()
    recs = load_records(paths)
    ok = True
    print(f"{'workload':<12} {'metric':<16} {'n':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>8} {'bound/3':>8}  ok")
    for w in sorted(recs):
        for name, m in bench.items():
            s = summary(values(recs[w], name))
            if s is None:
                continue
            med, q1, q3, spread = s
            good = spread < m["bound"] / 3
            ok &= good
            print(f"{w:<12} {name:<16} {len(values(recs[w], name)):>3} "
                  f"{fmt(med):>11} {fmt(q1):>11} {fmt(q3):>11} "
                  f"{spread:>8.4f} {m['bound'] / 3:>8.4f}  "
                  f"{'yes' if good else 'NO'}")
    return 0 if ok else 1


def cmd_agree(path_a, path_b):
    bench = load_bench()
    a, b = load_records([path_a]), load_records([path_b])
    ok = True
    print(f"{'workload':<12} {'metric':<16} {'median A':>11} {'median B':>11} "
          f"{'|B-A|/A':>8} {'spread A':>8} {'spread B':>8} {'bound':>6}  ok")
    for w in sorted(set(a) & set(b)):
        for name, m in bench.items():
            sa, sb = summary(values(a[w], name)), summary(values(b[w], name))
            if sa is None or sb is None:
                continue
            diff = abs(sb[0] - sa[0]) / sa[0]
            spread_ok = (name in SPREAD_UNCHECKED or
                         max(sa[3], sb[3]) <= m["bound"])
            good = diff <= m["bound"] and spread_ok
            ok &= good
            print(f"{w:<12} {name:<16} {fmt(sa[0]):>11} {fmt(sb[0]):>11} "
                  f"{diff:>8.4f} {sa[3]:>8.4f} {sb[3]:>8.4f} "
                  f"{m['bound']:>6}  {'yes' if good else 'NO'}")
    return 0 if ok else 1


def pairs(parent, change):
    """Runs paired by (seed, order of appearance)."""
    by_seed = defaultdict(list)
    for r in parent:
        by_seed[r["seed"]].append(r)
    seen = defaultdict(int)
    out = []
    for r in change:
        k = seen[r["seed"]]
        seen[r["seed"]] += 1
        if k < len(by_seed[r["seed"]]):
            out.append((by_seed[r["seed"]][k], r))
    return out


def digest_state(matched):
    comparable = [(p, c) for p, c in matched
                  if p.get("digest_items") and
                  p.get("digest_items") == c.get("digest_items")]
    if not comparable:
        return "n/a"
    same = all(p["result_digest"] == c["result_digest"] for p, c in comparable)
    return "same" if same else "CHANGED"


def verdict(pv, cv, matched_vals, m, more_failures):
    """(verdict, share of pairs the change wins)."""
    sp, sc = summary(pv), summary(cv)
    better = m["better"]
    wins = sum(1 for p, c in matched_vals
               if (c < p if better == "lower" else c > p))
    share = wins / len(matched_vals) if matched_vals else 0.0
    if len(matched_vals) < MIN_PAIRS:
        return "unresolved", share
    worse = worse_by(sp[0], sc[0], better)
    gain = -worse * sp[0]  # in the metric's unit
    all_better = (max(cv) < min(pv)) if better == "lower" else (min(cv) > max(pv))
    if share >= WIN_SHARE and gain > sp[2] - sp[1] and not more_failures:
        return "improved", share
    if max(sp[3], sc[3]) > m["bound"] and not all_better:
        return "unresolved", share
    if worse > m["bound"]:
        return "regressed", share
    return "unchanged", share


def cmd_compare(path_p, path_c):
    bench = load_bench()
    p, c = load_records([path_p]), load_records([path_c])
    bad = False
    print(f"{'workload':<12} {'metric':<16} {'parent med [q1, q3]':>34} "
          f"{'change med [q1, q3]':>34} {'wins':>5} {'verdict':<10} digest")
    for w in sorted(set(p) & set(c)):
        matched = pairs(p[w], c[w])
        digest = digest_state(matched)
        fp, fc = failed_frac(p[w]), failed_frac(c[w])
        for name, m in bench.items():
            pv, cv = values(p[w], name), values(c[w], name)
            mv = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for a, b in matched
                  if name in a["metrics"] and name in b["metrics"]]
            if summary(pv) is None or summary(cv) is None:
                continue
            v, share = verdict(pv, cv, mv, m, fc > fp)
            bad |= v == "regressed"
            print(f"{w:<12} {name:<16} {band(pv):>34} {band(cv):>34} "
                  f"{share:>5.2f} {v:<10} {digest}")
        # Any increase in the share of failed items is a regression.
        v = "regressed" if fc > fp else "unchanged"
        bad |= v == "regressed"
        print(f"{w:<12} {'failed_frac':<16} {fmt(fp):>34} {fmt(fc):>34} "
              f"{'':>5} {v:<10} {digest}")
    return 1 if bad else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "spread":
        return cmd_spread(argv[1:])
    if len(argv) == 3 and argv[0] == "agree":
        return cmd_agree(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "compare":
        return cmd_compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
