"""Host speed probe (standard library only).

The benchmark's host is shared, and its speed drifts: the same
pure-Python work takes up to 1.6x longer in some minutes than in others,
in spells of seconds to about a minute, so a run's raw times depend on
when it ran more than on the program.  The client therefore runs this
probe — a fixed piece of interpreter work that never touches the
program — right before and right after every timed operation (and
around each set-up), and the entry point scales the operation's time by
``REFERENCE_S / probe time``: the reported times are what the operation
would take on a host where the probe takes ``REFERENCE_S``.  A change to
the program moves the scaled times exactly as much as the raw ones.

The probe has two halves of about equal time: a small backtracking
search over frozensets, dicts, lists and tuples (the program's
interpreter mix, cache-resident), and a pointer chase over a table of a
few megabytes (its memory traffic on a large data graph).  On
proxy-prepare runs spread over fast and slow spells, scaling by the sum
of the two cut the run-to-run spread of query_p50_ms from 0.33 to 0.04;
either half alone did worse.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, Iterator, List

#: Probe time that the scaled times refer to (seconds); about what the
#: probe takes on a 2-CPU shared host in its fast spells.
REFERENCE_S = 1e-3

#: Probe repetitions per sample; the sample is their median.
REPEATS = 3

_SETS = [frozenset(range(k, 400, 3 + k % 5)) for k in range(24)]

#: Pointer-chase table size (entries) and hops per repetition.
_CHASE_SIZE = 1 << 17
_HOPS = 1200


def _extend(partial: List[int], depth: int) -> Iterator[List[int]]:
    candidates = _SETS[depth % 24] & _SETS[(depth * 7 + 3) % 24]
    for v in sorted(candidates)[:3]:
        if v not in partial:
            partial.append(v)
            if depth == 4:
                yield list(partial)
            else:
                yield from _extend(partial, depth + 1)
            partial.pop()


class Probe:
    """The probe of one process; building it (about 0.2 s) belongs
    outside every timer."""

    def __init__(self) -> None:
        order = list(range(_CHASE_SIZE))
        random.Random(0).shuffle(order)
        table = [0] * _CHASE_SIZE
        for a, b in zip(order, order[1:] + order[:1]):
            table[a] = b
        #: one random cycle through every entry; fresh int objects laid
        #: out in table order, not shared with ``order``
        self.table = [v + _CHASE_SIZE - _CHASE_SIZE for v in table]
        self._cursor = 0

    def _work(self) -> int:
        index: Dict[int, int] = {}
        found = 0
        for embedding in _extend([], 0):
            key = tuple(embedding)
            index[hash(key) & 1023] = index.get(hash(key) & 1023, 0) + len(key)
            found += 1
        table, at = self.table, self._cursor
        for _ in range(_HOPS):
            at = table[at]
        self._cursor = at
        return found + len(index) + at

    def __call__(self) -> float:
        """Seconds one probe takes now (median of ``REPEATS``)."""
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - started)
        return statistics.median(times)


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured beside a probe of ``probe_s``, on the
    reference host."""
    return seconds * REFERENCE_S / probe_s
