"""Host-speed probe: turns wall times into seconds at a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
30-50% over seconds to hours, for every process on it (CPU time moves
with wall time, so it is not the scheduler).  A fixed piece of benchmark
code, the *probe*, runs right before and right after every timed
operation; the operation's time is scaled by how slow the probe ran::

    seconds = wall_s * REFERENCE_PROBE_S / mean(probe before, probe after)

The probe mimics the program's mix of interpreter work: dict updates,
many numpy calls on tiny arrays, and a graph walk over list adjacency
with set-built condensation edges.  Bulk numpy work (sorts, large
gathers) tracked the program's slowdowns worse and is left out.  The
probe calls nothing of the program, so a faster or slower program moves
``seconds`` exactly as it moves ``wall_s``.  ``NOTES.md`` gives the
measured effect on the spread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

#: The probe's time on the reference host; normalized times are seconds there.
REFERENCE_PROBE_S = 0.010

_rng = np.random.default_rng(0)
_NODES = 3_000
_ADJACENCY = _rng.integers(0, _NODES, size=(_NODES, 3)).tolist()
_WORDS = [_rng.integers(0, 1 << 62, size=8, dtype=np.int64) for _ in range(256)]


def _interpreter() -> int:
    """Dict and int work, as in the program's per-node bookkeeping."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(15_000):
        key = i % 251
        counts[key] = counts.get(key, 0) + i
        total += len(counts)
    return total


def _small_arrays() -> int:
    """Many numpy calls on 8-word arrays, as in packed reach-set unions."""
    acc = np.zeros(8, dtype=np.int64)
    total = 0
    for i in range(1_000):
        words = _WORDS[i & 255]
        acc = np.bitwise_or(acc, words)
        total += int(np.count_nonzero(words > 0))
    return total


def _graph_walk() -> int:
    """Depth-first walk over list adjacency plus set-based condensation edges."""
    seen = bytearray(_NODES)
    order = []
    for root in range(_NODES):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for v in _ADJACENCY[u]:
                if not seen[v]:
                    seen[v] = 1
                    stack.append(v)
    group = {u: i % 97 for i, u in enumerate(order)}
    children: list[set[int]] = [set() for _ in range(97)]
    for u in range(_NODES):
        for v in _ADJACENCY[u]:
            children[group[u]].add(group[v])
    return len(order)


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    started = time.perf_counter()
    _interpreter()
    _small_arrays()
    _graph_walk()
    return time.perf_counter() - started


@dataclass(frozen=True)
class Timing:
    """One timed operation: its wall time and the host probe around it."""

    wall_s: float
    probe_s: float  # mean of the probes right before and right after

    @property
    def seconds(self) -> float:
        """The wall time scaled to the reference host speed."""
        return self.wall_s * REFERENCE_PROBE_S / self.probe_s
