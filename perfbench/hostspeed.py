"""Host-speed probe: scales host times to a fixed reference speed.

The benchmark shares its CPUs with other tenants.  Their load does not
take CPU time away from the process (its CPU time grows as fast as the
wall clock); it makes every instruction slower, by up to about 2×, and
the slowdown changes from one second to the next.  A time measured on
such a host says as much about the neighbours as about the program.

:class:`SpeedProbe` samples the slowdown while the program runs: a
``SIGALRM`` interval timer interrupts the program every
:data:`INTERVAL_S` seconds, and the handler times one of three small
fixed pure-Python kernels (dict and string work, object allocation and
sorting, and scattered reads of a 2 MB buffer).  A kernel's duration
over its fixed reference duration is the host's slowdown at that
moment; the probe's :meth:`~SpeedProbe.slowdown` is the mean of the
three kernels' trimmed means.  A time divided by it is the time the
same work takes at the reference speed.

The kernels' own time is not the program's: :func:`clock` is
``time.perf_counter`` minus every second spent in the kernels so far,
and the benchmark reads all its times from it.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List

#: Seconds between two samples.
INTERVAL_S = 0.004

#: Share of each kernel's slowest samples dropped before the mean: a
#: sample that straddles a descheduling of the virtual CPU says nothing
#: about the speed while running.
TRIM = 0.02

_probed_s = 0.0


def clock() -> float:
    """Host seconds, with the time spent in probe kernels left out."""
    return time.perf_counter() - _probed_s


class _Item:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str) -> None:
        self.key = key
        self.label = label


_SCATTER = bytearray(range(256)) * (2 * 2**20 // 256)
_state = [12345]


def _dict_and_str() -> int:
    counts: Dict[int, int] = {}
    total = 0
    for i in range(300):
        counts[i & 63] = counts.get(i & 63, 0) + i
        total += len(str(i))
    return total


def _alloc_and_sort() -> int:
    items = [_Item(i, str(i)) for i in range(150)]
    items.sort(key=lambda item: -item.key)
    return sum(item.key for item in items)


def _scattered_reads() -> int:
    x = _state[0]
    total = 0
    mask = len(_SCATTER) - 1
    for _ in range(150):
        x = (x * 1103515245 + 12345) & 0x3FFFFFFF
        total += _SCATTER[x & mask]
    _state[0] = x
    return total


#: Each kernel with its reference duration in seconds: round figures
#: near its duration on a lightly loaded core of the reference host (a
#: 2-vCPU virtual machine, Intel Xeon, Python 3.11).  They fix the scale
#: of every reported time; changing one rescales them all.
KERNELS = (
    (_dict_and_str, 48e-6),
    (_alloc_and_sort, 49e-6),
    (_scattered_reads, 40e-6),
)


def _trimmed_mean(values: List[float]) -> float:
    ordered = sorted(values)
    kept = ordered[: max(1, len(ordered) - int(len(ordered) * TRIM))]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Samples the host's slowdown while its ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: List[List[float]] = [[] for _ in KERNELS]
        self._ticks = 0
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        global _probed_s
        index = self._ticks % len(KERNELS)
        self._ticks += 1
        started = time.perf_counter()
        KERNELS[index][0]()
        took = time.perf_counter() - started
        self.samples[index].append(took)
        _probed_s += took

    def slowdown(self) -> float:
        """Mean over kernels of sampled duration / reference duration;
        1.0 when the block was too short to be sampled by every kernel."""
        if not all(self.samples):
            return 1.0
        ratios = [
            _trimmed_mean(samples) / reference
            for samples, (_, reference) in zip(self.samples, KERNELS)
        ]
        return sum(ratios) / len(ratios)
