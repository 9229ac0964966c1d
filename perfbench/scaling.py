"""Scaling curve: run time against the length bound, for affine A2.

    python3 perfbench/scaling.py

Not part of the gated benchmark.  For each length in SCALING_LENGTHS
it runs the A2 case of ``kl_table`` (all b_x with l(x) <= length) and
of ``lcf_window`` (``--max-len length``), REPS repetitions each in a
fresh interpreter with the seed SEED, and prints the median run time
(``run_s``: probe-scaled reference seconds, as in the benchmark) with
the local growth exponent d log(run_s) / d log(length), so that cubic
and quadratic growth can be told apart.  Outputs are checked as
in the benchmark; the last stdout line is the curve as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

import run

# make_refs.py pins kl_table words and lcf_window digests up to these.
SCALING_LENGTHS = (6, 8, 10, 12, 14)
REPS = 3
SEED = 1


def curve(workload: str) -> list[dict]:
    points = []
    for n in SCALING_LENGTHS:
        recs = [run.spawn(workload, SEED, time.monotonic() + run.TIME_LIMIT_S,
                          bounds={"A2": n}) for _ in range(REPS)]
        if any(r["failed"] for r in recs):
            raise run.BenchError(f"{workload} A2 at length {n} failed its checks")
        points.append({"length": n,
                       "run_s": statistics.median(r["run_s"] for r in recs)})
    return points


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    result = {}
    for workload in ("kl_table", "lcf_window"):
        try:
            points = curve(workload)
        except run.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{workload}, A2\n  length    run_s  exponent")
        prev = None
        for pt in points:
            slope = ""
            if prev is not None:
                slope = "%.2f" % (math.log(pt["run_s"] / prev["run_s"])
                                  / math.log(pt["length"] / prev["length"]))
            print(f"  {pt['length']:>6} {pt['run_s']:>8.3f}  {slope}")
            prev = pt
        result[workload] = points
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
