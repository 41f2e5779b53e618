"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th quantile (0 <= q <= 1) by linear interpolation between ranks.

    Rank q * (len - 1) of the sorted values, so q=0 is the minimum, q=1 the
    maximum and q=0.5 the usual median.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and interquartile range as a share of the median.

    Quartiles come from ``statistics.quantiles(values, n=4)``, the same
    definition the regression gate applies to repeated runs.
    """
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / abs(med)}
