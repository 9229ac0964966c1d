"""The weylkit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload kl_table --seed 1 --seconds 30 --trace 0

Every repetition is a fresh interpreter (``worker.py``), because
weylkit's module-level caches would make a second repetition in one
process nearly free.  Repetitions run until ``--seconds`` have passed
(at least three), and each metric is the median over them.

The shared machine's speed drifts by up to 1.9x over minutes, so
``run_s`` and ``setup_s`` are scaled by a probe loop timed between the
operations (see ``worker.py``): they are seconds on a machine where
the probe takes ``probe.REF_PROBE_S``.  This process times the probe
whenever a repetition asks for it (``probe.py``).  The raw wall and
probe times of every repetition are in the metadata line, and
``run.wall_s`` and ``run.probe_s`` are per-layer metrics.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` traced and untraced repetitions alternate; the result
holds the per-layer metrics, derived from the span files the traced
repetitions write under ``perfbench/out/``, and the tracing overhead.

Two lines go to stdout: run metadata (Python version, CPU count, load
average at start, seed, and each repetition's times including
``proc.wait_s``), then the result object.  Exit status 0 means the
measurement completed; ``"correct": false`` marks outputs that failed
their checks.  A missing program or a crashed repetition exits 1 or 2
without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("kl_table", "lcf_window", "char_sweep")
MIN_REPS = 3
# The whole run ends well inside three minutes.
TIME_LIMIT_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.{m}": unit for layer in spans.LAYERS
       for m, unit in (("calls", "count"), ("self_s", "s"),
                       ("errors", "count"))},
    "coxeter.multiply_calls": "count",
    "coxeter.length_calls": "count",
    "coxeter.reduced_word_calls": "count",
    "coxeter.orbit_rows": "count",
    "hecke.kl_terms": "count",
    "lcf.kept_ratio": "ratio",
    "charring.terms_out": "count",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "proc.cpu_s": "s",
    "proc.wait_s": "s",
    "run.wall_s": "s",
    "run.probe_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "run.failed_share": "ratio",
}


class BenchError(RuntimeError):
    """A repetition crashed, printed no result or ran out of time."""


def spawn(workload: str, seed: int, deadline: float, trace: bool = False,
          spans_out: Path | None = None, bounds: dict | None = None) -> dict:
    """Run one repetition in a fresh interpreter and return its record.

    While it runs, answer its requests to time the probe.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    if bounds is not None:
        cmd += ["--bounds", json.dumps(bounds)]
    began = time.monotonic()
    timeout = deadline - began
    if timeout <= 0:
        raise BenchError("no time left for another repetition")
    requests_r, requests_w = os.pipe()
    answers_r, answers_w = os.pipe()
    cmd += ["--spawned-at", repr(began),
            "--probe-fds", f"{requests_w},{answers_r}"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            pass_fds=(requests_w, answers_r))
    os.close(requests_w)
    os.close(answers_r)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        probe.serve(requests_r, answers_w)
    except BrokenPipeError:
        pass  # the repetition died; its exit status tells
    finally:
        stdout, _ = proc.communicate()
        watchdog.cancel()
        watchdog.join()
    if proc.returncode != 0 and time.monotonic() >= deadline:
        raise BenchError(f"{workload} repetition timed out")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            bounds: dict | None = None) -> tuple[list[dict], list[dict]]:
    """Untraced and traced repetitions (traced ones only with ``trace``)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    try:  # write the bytecode caches before the first measured start-up
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src" / "weylkit"), str(HERE)],
                       cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60)
    except subprocess.TimeoutExpired:
        raise BenchError("byte-compiling the sources timed out") from None
    stop_at = time.monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        round_began = time.monotonic()
        plain.append(spawn(workload, seed, deadline, bounds=bounds))
        if trace:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{workload}.{len(traced)}.spans"
            rec = spawn(workload, seed, deadline, True, path, bounds)
            rec["layers"] = spans.layer_metrics(spans.read_spans(path))
            traced.append(rec)
        now = time.monotonic()
        if len(plain) >= MIN_REPS and now >= stop_at:
            break
        if now + 1.5 * (now - round_began) > deadline:
            break
    return plain, traced


def _median(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs)


def end_to_end_metrics(plain: list[dict]) -> dict[str, float]:
    return {name: _median(plain, name) for name in END_TO_END}


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Span-derived metrics from the traced repetitions; the runtime and
    raw-time metrics from the untraced ones, so that the tracer's own
    time and allocations stay out of them."""
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["gc.pause_s"] = _median(plain, "gc_pause_s")
    out["gc.gen2_collections"] = _median(plain, "gc_gen2_collections")
    out["proc.cpu_s"] = _median(plain, "cpu_s")
    out["proc.wait_s"] = statistics.median(r["run_wall_s"] - r["cpu_s"]
                                           for r in plain)
    out["run.wall_s"] = _median(plain, "run_wall_s")
    out["run.probe_s"] = _median(plain, "probe_s")
    out["trace.run_s"] = _median(traced, "run_s")
    out["trace.overhead_s"] = out["trace.run_s"] - _median(plain, "run_s")
    recs = plain + traced
    out["run.failed_share"] = (sum(r["failed"] for r in recs)
                               / sum(r["attempted"] for r in recs))
    return out


def run_metadata(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weylkit" / "__init__.py").is_file():
        print("error: no weylkit sources under src/", file=sys.stderr)
        return 2
    meta = run_metadata(args.workload, args.seed, args.trace)
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer_metrics(plain, traced), PER_LAYER
    else:
        values, units = end_to_end_metrics(plain), END_TO_END
    recs = plain + traced
    meta["reps"] = [{"traced": "layers" in r, "setup_wall_s": r["setup_wall_s"],
                     "run_wall_s": r["run_wall_s"], "probe_s": r["probe_s"],
                     "proc.wait_s": r["run_wall_s"] - r["cpu_s"]}
                    for r in recs]
    failed = sum(r["failed"] for r in recs)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in recs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
