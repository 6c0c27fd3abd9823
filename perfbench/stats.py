"""Small statistics helpers shared by the workloads and the reporter."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, str, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, label, samples)``; with fewer than 11 samples no
    such percentile exists and the maximum is reported as ``"max"``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, "none", 0
    if n < 11:
        return ordered[-1], "max", n
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}", n


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
