"""Run the benchmark over several seeds and keep every result.

    python3 perfbench/collect.py --out perfbench/out/parent.jsonl [--seeds 1-10]

Runs the command of BENCHMARK.json untraced once per seed and per
workload of BENCHMARK.json, with the workloads alternating inside each
seed (the machine's speed drifts over minutes, so blocks of one
workload would absorb the drift).  Each run
appends one JSON line ``{"workload", "seed", "meta", "result"}`` to
``--out``.  Summarise or compare such files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(spec: str) -> list[int]:
    """"1-10" or "3,5,8" or a mix: "1-3,7"."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    for seed in parse_seeds(args.seeds):
        for workload in names:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            meta, result = (json.loads(line)
                            for line in proc.stdout.strip().splitlines()[-2:])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "meta": meta["meta"],
                                     "result": result}) + "\n")
            shown = ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"seed {seed} {workload}: failed {result['failed']}/"
                  f"{result['attempted']}, {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
