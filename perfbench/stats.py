"""Small statistics helpers shared by the runner and its tests."""

from __future__ import annotations

import math
import re
from typing import Sequence

#: What the benchmark contract allows as a metric or workload name.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer make it the reading of a handful of outliers.
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """Whether *name* is a legal metric or workload name."""
    return NAME_RE.fullmatch(name) is not None


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* sorted samples lie above the *q*-th percentile."""
    return n - math.ceil(n * q / 100.0 - 1e-9)


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> float:
    """The nearest-rank *q*-th percentile of *samples*.

    Raises :class:`ValueError` when fewer than *min_beyond* samples lie
    beyond it, so a p99 needs at least 1,000 samples.
    """
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {samples_beyond(n, q) if n else 0}"
            f" beyond it; need {min_beyond}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(n * q / 100.0 - 1e-9))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The median of *values* (the mean of the middle two when even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
