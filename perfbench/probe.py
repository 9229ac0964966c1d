"""The machine-speed probe, timed in the benchmark's parent process.

The shared machine's speed drifts by up to 1.9x over minutes, which
swamps any code change.  So a repetition times a fixed pure-Python
probe right after set-up and then after every second of operations,
and scales its times by REF_PROBE_S over the probe's time (see
``worker.py``).

The probe runs in ``run.py``'s process, not in the repetition's: the
repetition sends a line down one pipe, ``run.py`` times the probe and
writes the seconds back down another.  ``run.py`` never imports
weylkit, so the heap the probe allocates in does not depend on the
program under test, and the probe adds nothing to the repetition's
peak resident memory.
"""

from __future__ import annotations

import gc
import os
import time

PROBE_ENTRIES = 20_000
PROBE_ROUNDS = 2
# The probe's time on the fast phase of a shared 2-CPU Linux VM with
# Python 3.11.7; it only sets the scale of the reported times.
REF_PROBE_S = 0.055


def probe() -> float:
    """Seconds to fill and sort PROBE_ROUNDS dicts of PROBE_ENTRIES tuple
    keys, with the collector off.

    Like weylkit's own work it allocates small objects and misses the
    cache; a loop over a tiny dict speeds up more than weylkit does
    when the machine's fast phase begins, and so tracks it worse.
    """
    gc.disable()
    try:
        began = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            table: dict[tuple[int, int], int] = {}
            for i in range(PROBE_ENTRIES):
                key = (i * 7919 % 65521, i % 7)
                table[key] = table.get(key, 0) + 1
            sorted(table.items())
            del table
        return time.perf_counter() - began
    finally:
        gc.enable()


def serve(requests_fd: int, answers_fd: int) -> None:
    """Answer each request line with the probe's time, until the other
    end closes (or dies).  Raises BrokenPipeError if it dies while an
    answer is on its way."""
    with os.fdopen(requests_fd) as requests, \
            os.fdopen(answers_fd, "w") as answers:
        for _ in requests:
            answers.write(f"{probe()!r}\n")
            answers.flush()


class Client:
    """The repetition's end: ``client()`` returns the probe's seconds."""

    def __init__(self, fds: str):
        requests_fd, answers_fd = (int(fd) for fd in fds.split(","))
        self.requests = os.fdopen(requests_fd, "w")
        self.answers = os.fdopen(answers_fd)

    def __call__(self) -> float:
        self.requests.write("\n")
        self.requests.flush()
        return float(self.answers.readline())

    def close(self) -> None:
        self.requests.close()
        self.answers.close()
