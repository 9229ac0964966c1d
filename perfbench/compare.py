"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Input files are written by ``collect.py``.  With one file, prints per
workload and end-to-end metric the median, the quartiles and the spread
(interquartile distance over median) next to the metric's bound.  With
two, pairs the runs by seed and prints each side's median and
quartiles, the pairs the change won and lost, the median change, and a
verdict: "better" or "worse" when the change wins (or loses) at least
9 of 10 pairs and the medians differ by more than the parent's
interquartile distance, else "unresolved".  The last column says
whether the change's median stays within the metric's bound.  Each
workload gets its own rows.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import stats
from collect import load_benchmark


def load_runs(path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metric values of that run."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            runs[rec["workload"]][rec["seed"]] = {
                k: v["value"] for k, v in rec["result"]["metrics"].items()}
    return runs


def _fmt(q) -> str:
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summarise(runs, metrics) -> None:
    print(f"{'workload':<12} {'metric':<12} {'n':>3}  {'median [q1, q3]':<30}"
          f" {'spread':>7} {'bound':>6}")
    for workload, by_seed in runs.items():
        for m in metrics:
            vals = [r[m["name"]] for r in by_seed.values() if m["name"] in r]
            if not vals:
                continue
            print(f"{workload:<12} {m['name']:<12} {len(vals):>3}  "
                  f"{_fmt(stats.quartiles(vals)):<30} "
                  f"{stats.spread(vals):>7.1%} {m['bound']:>6.0%}")


def compare(parent, change, metrics) -> None:
    print(f"{'workload':<12} {'metric':<12} {'pairs':>5}  "
          f"{'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
          f"{'won/lost':>8} {'change':>7}  {'verdict':<10} bound")
    for workload in parent:
        seeds = sorted(set(parent[workload]) & set(change.get(workload, {})))
        for m in metrics:
            name = m["name"]
            a = [parent[workload][s][name] for s in seeds]
            b = [change[workload][s][name] for s in seeds]
            if not a:
                continue
            verdict, won, lost = stats.verdict(a, b, m["better"])
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            rel = (qb[1] - qa[1]) / qa[1]
            worse = rel if m["better"] == "lower" else -rel
            print(f"{workload:<12} {name:<12} {len(seeds):>5}  {_fmt(qa):<30} "
                  f"{_fmt(qb):<30} {won:>4}/{lost:<3} {rel:>+7.1%}  "
                  f"{verdict:<10} {'ok' if worse <= m['bound'] else 'EXCEEDED'}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = load_benchmark()["end_to_end"]
    sets = [load_runs(path) for path in argv]
    if len(sets) == 1:
        summarise(sets[0], metrics)
    else:
        compare(sets[0], sets[1], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
