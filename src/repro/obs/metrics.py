"""Sample digests: percentiles and the count/min/mean/p50/p90/max summary.

Counts live on the objects that make them (every engine's result, the
server's caches, ring pool and job table); this module only digests a
list of samples, exactly (the lists are bounded by their owners), for
``repro.obs.analyze``, the job server's ``/metrics`` and the
end-to-end benchmark.
"""

from __future__ import annotations


def percentile(sorted_values: list[float], q: float) -> float:
    """The *q*-quantile (0..1) of pre-sorted *sorted_values*.

    Linear interpolation between closest ranks; empty input is a
    caller error.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sample")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


#: The digest of an empty sample list: every statistic present (so
#: consumers can read keys unconditionally) but explicitly null.
EMPTY_DIGEST: dict = {
    "count": 0,
    "min": None,
    "mean": None,
    "p50": None,
    "p90": None,
    "max": None,
}


def summarize(values: list[float]) -> dict:
    """count/min/mean/p50/p90/max digest of a sample list.

    An empty sample yields :data:`EMPTY_DIGEST` — all keys present,
    all statistics ``None`` — never a raise or a NaN, so an empty
    series survives rendering and JSON round-trips.
    """
    if not values:
        return dict(EMPTY_DIGEST)
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "min": ordered[0],
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(ordered, 0.50),
        "p90": percentile(ordered, 0.90),
        "max": ordered[-1],
    }

