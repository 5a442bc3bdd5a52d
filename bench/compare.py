"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are result record files or directories searched for them
(``bench/results/`` after ``run.py``; copy it aside between commits).  Only
untraced records count.  For each workload and end-to-end metric the report
gives each side's median and quartiles, the share of seed-matched pairs the
change won (ties count for neither side), and a verdict:

- improved: the change won at least 9/10 of the pairs and its median is
  better by more than the base's own quartile distance;
- unresolved: the base's quartile distance, as a share of its median, is
  wider than the metric's bound, and not every change run beat every base
  run;
- worse: the change's median is worse than the base's by more than the
  bound from BENCHMARK.json;
- no worse: otherwise.

It also reports failed/attempted operations per side, and the answers that
moved: the largest relative theta-hat shift over fits on the same inputs,
the q* that changed and the sweep.csv hashes that differ.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """Untraced result records under ``path``, keyed by workload."""
    p = Path(path)
    files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
    out = {}
    for f in files:
        rec = json.loads(f.read_text())
        if isinstance(rec, dict) and "workload" in rec and not rec.get("trace"):
            out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(base, change, better, bound, pairs):
    """Apply the rules in the module notes to two lists of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    won = wins / len(pairs) if pairs else float("nan")
    gain = sign * (cmed - bmed)
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if pairs and won >= 0.9 and gain > bq3 - bq1:
        return "improved", won
    if (bq3 - bq1) > bound * abs(bmed) and not all_better:
        return "unresolved", won
    if -gain > bound * abs(bmed):
        return "worse", won
    return "no worse", won


def _by_seed(records, metric):
    out = {}
    for r in records:
        out.setdefault(r["seed"], []).append(r["metrics"][metric]["value"])
    return {s: statistics.median(v) for s, v in out.items()}


def answer_shift(base, change):
    """Largest relative theta-hat shift, changed q*, differing sweep hashes."""
    def index(records):
        fits, extras = {}, {}
        for r in records:
            for ans in r["answers"]:
                for k, fit in enumerate(ans["fits"]):
                    if "theta" in fit:
                        fits[(ans["data_seed"], k)] = fit["theta"]
                extras[ans["data_seed"]] = (ans.get("q_star"), ans.get("sweep_csv_sha256"))
        return fits, extras

    bf, bx = index(base)
    cf, cx = index(change)
    shift = 0.0
    for key in bf.keys() & cf.keys():
        for a, b in zip(bf[key], cf[key]):
            shift = max(shift, abs(b - a) / abs(a))
    common = bx.keys() & cx.keys()
    q_moved = sum(1 for k in common if bx[k][0] != cx[k][0])
    hash_moved = sum(1 for k in common if bx[k][1] != cx[k][1])
    return shift, len(bf.keys() & cf.keys()), q_moved, hash_moved, len(common)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in base and w["name"] in change]
    if not workloads:
        print("no workload has untraced results on both sides", file=sys.stderr)
        return 1
    for w in workloads:
        b, c = base[w], change[w]
        print("== %s: %d base runs, %d change runs" % (w, len(b), len(c)))
        for side, recs in (("base", b), ("change", c)):
            att = sum(r["attempted"] for r in recs)
            fail = sum(r["failed"] for r in recs)
            print("   %-6s failed %d of %d operations (%.3g)" % (side, fail, att, fail / att))
        print("   %-12s %-6s %32s  %32s  %5s %s" % ("metric", "unit", "base q1 / median / q3",
                                                   "change q1 / median / q3", "won", "verdict"))
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b]
            cv = [r["metrics"][name]["value"] for r in c]
            bs, cs = _by_seed(b, name), _by_seed(c, name)
            pairs = [(bs[s], cs[s]) for s in sorted(bs.keys() & cs.keys())]
            v, won = verdict(bv, cv, m["better"], m["bound"], pairs)
            print("   %-12s %-6s %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g  %5.0f%% %s" % (
                name, m["unit"], *quartiles(bv), *quartiles(cv), 100 * won, v))
        shift, n_fits, q_moved, hash_moved, n_sets = answer_shift(b, c)
        print("   answers: largest relative theta-hat shift %.3g over %d fits; "
              "q* moved on %d and sweep.csv hash on %d of %d datasets"
              % (shift, n_fits, q_moved, hash_moved, n_sets))
    return 0


if __name__ == "__main__":
    sys.exit(main())
