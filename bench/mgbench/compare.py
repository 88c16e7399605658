#!/usr/bin/env python3
"""Compare two sets of mgbench runs: the parent (BASE) and a change.

    python3 bench/mgbench/compare.py BASE CHANGE [--per-layer]

BASE and CHANGE are results.json files written by run.py, or directories
holding any number of them (each run of a set, e.g. one per seed).  For every
workload, failures are judged first:

  0. The change is WORSE when it fails a larger share of its checked
     operations (wrong answers, lost replies) than the parent.  A workload
     whose change fails more, or has a lower success_frac, gets no gain.

Then for every (workload, metric) the rules apply in this order:

  1. Runs are paired: by seed when both sides ran the same seeds, otherwise
     in seed order.
  2. Each side's median and quartiles over its runs are printed, with n.
  3. The pairing is marked worse when the change's median is worse than the
     parent's by more than the metric's BENCHMARK.json bound, better or
     within bound otherwise.
  4. It is marked unresolved instead of within bound when the parent's own
     quartile spread (Q3 - Q1, as a share of its median) is wider than the
     bound, unless every run of the change reads better than every run of
     the parent.
  5. A gain (better) counts only over at least ten pairs, when the change
     wins at least 9 of every 10 of them (ties count for neither) and the
     medians differ by more than the parent's quartile spread.
  6. Every ratio is printed with its base.

Exits 1 when any pairing is worse, else 0.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True  # importing run.py leaves nothing behind
from run import ratios, summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path)
                       for f in fs if f == "results.json")
    runs = []
    for name in files:
        with open(name) as f:
            runs += json.load(f)["runs"]
    return runs


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    for rs in out.values():
        rs.sort(key=lambda r: r["seed"])
    return out


def values(runs, metric):
    return [(r["seed"], r["metrics"][metric]["value"]) for r in runs
            if r["metrics"].get(metric, {}).get("value") is not None]


def median(runs, metric):
    return summarize([v for _, v in values(runs, metric)])["median"]


def pair(base, change):
    bs, cs = dict(base), dict(change)
    if set(bs) == set(cs):
        return [(bs[s], cs[s]) for s in sorted(bs)]
    return list(zip([v for _, v in base], [v for _, v in change]))


def fail_share(runs):
    return (sum(r["failed"] for r in runs) /
            max(sum(r["attempted"] for r in runs), 1))


def judge(metric, base, change, gain_allowed):
    """The verdict for one (workload, metric) and the numbers behind it."""
    higher = metric["better"] == "higher"
    bound = metric.get("bound")
    bv, cv = [v for _, v in base], [v for _, v in change]
    b, c = summarize(bv), summarize(cv)
    bmed, cmed = b["median"], c["median"]
    # Relative change of the median, positive = the change is worse.
    worse_by = (bmed - cmed) / bmed if higher else (cmed - bmed) / bmed
    spread = (b["q3"] - b["q1"]) / bmed if bmed else float("inf")
    pairs = pair(base, change)
    wins = sum(1 for pb, pc in pairs if (pc > pb if higher else pc < pb))
    all_better = (min(cv) > max(bv)) if higher else (max(cv) < min(bv))
    gain = (gain_allowed and len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
            and abs(cmed - bmed) > b["q3"] - b["q1"] and worse_by < 0)
    if bound is None:
        verdict = "better" if gain else "-"
    elif worse_by > bound:
        verdict = "WORSE"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif gain:
        verdict = "better"
    else:
        verdict = "within"
    return {
        "verdict": verdict, "base": b, "change": c, "gain": -worse_by,
        "spread": spread, "wins": wins, "pairs": len(pairs),
    }


def fmt(s):
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def main():
    p = argparse.ArgumentParser(description="compare two sets of mgbench runs")
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--per-layer", action="store_true",
                   help="also compare the per-layer metrics (no bounds)")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = list(bench["end_to_end"])
    if args.per_layer:
        metrics += bench["per_layer"]
    base, change = by_workload(load_runs(args.base)), by_workload(load_runs(args.change))

    worse = 0
    print(f"{'workload':10} {'metric':34} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'gain':>8} {'spread':>7} "
          f"{'wins':>6}  verdict")
    for w in sorted(set(base) & set(change)):
        bf, cf = fail_share(base[w]), fail_share(change[w])
        more_failures = cf > bf
        worse += more_failures
        print(f"{w:10} {'failed / attempted':34} {bf:<34.3g} {cf:<34.3g} "
              f"{'':>8} {'':>7} {'':>6}  {'WORSE' if more_failures else 'within'}")
        bs, cs = median(base[w], "success_frac"), median(change[w], "success_frac")
        gain_allowed = not more_failures and (bs is None or cs is None or cs >= bs)
        for m in metrics:
            b, c = values(base[w], m["name"]), values(change[w], m["name"])
            if not b or not c:
                continue
            j = judge(m, b, c, gain_allowed)
            worse += j["verdict"] == "WORSE"
            bound = f" (bound {m['bound']:.1%})" if "bound" in m else ""
            print(f"{w:10} {m['name']:34} {fmt(j['base']):34} {fmt(j['change']):34} "
                  f"{j['gain']:+8.1%} {j['spread']:7.1%} "
                  f"{j['wins']:>2}/{j['pairs']:<3}  {j['verdict']}{bound}")
        for label, runs in (("base", base[w]), ("change", change[w])):
            info = {k: v for r in runs for k, v in r.get("info", {}).items()}
            for name, (num, den) in ratios(info).items():
                r, n, d = (median(runs, k) for k in (name, num, den))
                if None not in (r, n, d):
                    print(f"{w:10} {name} ({label}) = {num} {n:.5g} / {den} {d:.5g}"
                          f" = {n / d:.4g} (median of the runs' ratios {r:.4g})")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
