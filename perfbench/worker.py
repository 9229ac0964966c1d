"""One repetition of a workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last stdout line:

    python3 perfbench/worker.py --workload kl_table --seed 1 --trace 0 \
        --spawned-at <time.monotonic() of the parent just before spawning> \
        --probe-fds <request pipe's write end>,<answer pipe's read end>

The module-level caches in weylkit make a second run in the same
process nearly free, so every repetition is its own process.  Set-up
time runs from the parent's spawn (same system-wide monotonic clock)
to the point where weylkit is imported and the workload's root data
and generators are built.

The shared machine's speed drifts by up to 1.9x over minutes, which
swamps any code change.  So the worker has the parent time a fixed
pure-Python probe (``probe.py``): once right after set-up and then
after every SEGMENT_S seconds of operations.  Each segment's wall time
is scaled by REF_PROBE_S over the mean of the probes around it, and
set-up time by REF_PROBE_S over the first probe; ``setup_s`` and
``run_s`` are the results, in seconds on a machine where the probe
takes REF_PROBE_S.  The probe runs in the parent, whose heap holds no
weylkit objects, so the program's heap cannot move it; ratios between
commits survive while the drift cancels.  The raw times are reported
as ``setup_wall_s`` and ``run_wall_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from probe import REF_PROBE_S, Client  # noqa: E402
import workloads  # noqa: E402  (imports weylkit: part of set-up time)

SEGMENT_S = 1.0


def timed_run(op, ctx, requests, probe, first_probe: float) -> dict:
    """Perform the operations one after another, timing only them, and
    probe the machine's speed between segments of SEGMENT_S seconds.

    An operation that raises yields the output None; the run goes on.
    """
    outputs = []
    probes = [first_probe]
    wall = ref = cpu = segment = 0.0

    def close_segment():
        nonlocal wall, ref, segment
        probes.append(probe())
        wall += segment
        ref += segment * REF_PROBE_S * 2 / (probes[-2] + probes[-1])
        segment = 0.0

    for req in requests:
        cpu0 = time.process_time()
        began = time.perf_counter()
        try:
            out = op(ctx, req)
        except Exception as exc:  # one failed operation must not end the run
            print(f"operation {req!r} raised {exc!r}", file=sys.stderr)
            out = None
        segment += time.perf_counter() - began
        cpu += time.process_time() - cpu0
        outputs.append(out)
        if segment >= SEGMENT_S:
            close_segment()
    if segment or len(probes) == 1:
        close_segment()
    return {"outputs": outputs, "run_wall_s": wall, "run_s": ref,
            "cpu_s": cpu, "probe_s": statistics.median(probes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=list(workloads.SPECS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--probe-fds", required=True,
                    help="pipe ends to the parent's probe: REQUESTS,ANSWERS")
    ap.add_argument("--spans-out", default=None,
                    help="file for the span records of a traced run")
    ap.add_argument("--bounds", default=None,
                    help='JSON length bounds per type, e.g. {"A2": 12}')
    args = ap.parse_args(argv)
    if args.trace and not args.spans_out:
        ap.error("--trace 1 needs --spans-out")

    setup, make_requests, op, check, bounds = workloads.SPECS[args.workload]
    if args.bounds:
        bounds = json.loads(args.bounds)
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install([workloads])
    ctx = setup(bounds)
    setup_wall_s = time.monotonic() - args.spawned_at
    probe = Client(args.probe_fds)
    first_probe = probe()

    with open(HERE / "ref" / f"{args.workload}.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    requests = make_requests(args.seed, refs, bounds)

    gc_clock = spans.GcClock()
    gc.callbacks.append(gc_clock)
    timing = timed_run(op, ctx, requests, probe, first_probe)
    gc.callbacks.remove(gc_clock)
    probe.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.uninstall()
    outputs = timing.pop("outputs")

    fails = [f for f in check(requests, outputs, refs) if f]
    for f in fails[:5]:
        print(f"check failed: {f}", file=sys.stderr)
    if recorder is not None:
        recorder.write(args.spans_out)
    print(json.dumps({
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_wall_s * REF_PROBE_S / first_probe,
        **timing,
        "peak_rss_mb": peak_rss_mb,
        "gc_pause_s": gc_clock.pause_s,
        "gc_gen2_collections": gc_clock.gen2_collections,
        "attempted": len(requests),
        "failed": len(fails),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
