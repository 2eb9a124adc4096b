"""Sample statistics the benchmark reports: percentiles, the percentile a
sample supports, and open-loop latency accounting."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

#: A tail is reported only at a percentile with this many samples beyond it.
SAMPLES_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then at most 63 of
    letters, digits, ``_``, ``.`` and ``-``."""
    return bool(_NAME.fullmatch(name))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in (0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (rounded first, so 99.9 % of 10,000 is rank 9,990, not 9,991)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def supported_percentile(n: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`SAMPLES_BEYOND` of ``n`` samples above its nearest rank, or
    ``None`` when even the median has fewer."""
    best = None
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= SAMPLES_BEYOND:
            best = q
    return best


@dataclass(frozen=True)
class Job:
    """One open-loop operation.  Times are seconds on one monotonic clock;
    ``done`` is ``None`` for a job that was refused or failed."""

    due: float
    sent: float
    done: Optional[float]


def latencies_from_due(jobs: Sequence[Job]) -> list[float]:
    """Each job's latency timed from when it was due, not when it was
    sent, so a stalled generator still charges the wait to the jobs it
    delayed.  A refused or failed job misses every limit: ``inf``."""
    return [
        math.inf if job.done is None else job.done - job.due for job in jobs
    ]


def lateness(jobs: Sequence[Job]) -> list[float]:
    """How late the generator sent each job (never negative)."""
    return [max(0.0, job.sent - job.due) for job in jobs]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, by ``statistics.quantiles(values, n=4)``."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
