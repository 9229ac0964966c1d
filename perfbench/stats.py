"""Summary statistics and the better/worse/unresolved verdict."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (one value: itself)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, better: str) -> tuple[str, int, int]:
    """Compare paired runs of one metric on one workload.

    ``parent[i]`` and ``change[i]`` are the i-th runs of each side.  The
    change is "better" (or "worse") only when it wins (or loses) at
    least nine tenths of the pairs, ties counting for neither, and the
    medians differ by more than the parent's interquartile distance.
    Otherwise it is "unresolved".  Returns the verdict with the number
    of pairs the change won and the number it lost.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1 if better == "higher" else -1
    won = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    lost = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    q1, p_med, q3 = quartiles(parent)
    gap = statistics.median(change) - p_med
    if abs(gap) > q3 - q1:
        if won * 10 >= 9 * len(parent) and sign * gap > 0:
            return "better", won, lost
        if lost * 10 >= 9 * len(parent) and sign * gap < 0:
            return "worse", won, lost
    return "unresolved", won, lost
