"""Host-speed sampling, to take a shared machine's drift out of timings.

On a host shared with other tenants the same pure-Python work can run up
to ~1.7x slower for seconds or minutes at a time, and that drift is most of
the run-to-run spread of a wall-clock timing. ``HostSpeed`` measures it
while the program runs by timing *reference slices*: a fixed breadth-first
search over a fixed graph owned by the benchmark (no program code), run in
the program's own thread and so on its CPU: inside ``with HostSpeed()`` a
``SIGALRM`` timer interrupts the main thread every ``INTERVAL_S`` to run one.

A program interval is then scaled to *reference speed*: its wall time,
less the slices that ran inside it, times ``REF_SLICE_S`` over the local
slice time (the median of the ``WINDOW`` slices nearest to it). A program
change moves the scaled time as it moves the wall time; a host that runs
everything 1.5x slower for a while leaves it where it was.
"""
from __future__ import annotations

import random
import signal
import time
from collections import deque

import numpy as np

#: a slice every INTERVAL_S of wall time (about 3% of it goes to slices)
INTERVAL_S = 0.05
#: the local host speed is the median of this many nearest slices
WINDOW = 9
#: scaled timings are what they would read on a host where one slice
#: takes this long (close to the median on a 4-vCPU 2.1 GHz Xeon VM)
REF_SLICE_S = 1.6e-3

_N = 3000
_rng = random.Random(20190408)
_ADJ = [[_rng.randrange(_N) for _ in range(3)] for _ in range(_N)]


def reference_slice() -> int:
    """The fixed unit of work whose time tracks the host's speed."""
    seen = {0}
    queue = deque([0])
    adj = _ADJ
    while queue:
        for v in adj[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen)


class HostSpeed:
    """Context manager that samples reference slices while it is open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old = None
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        # A signal arriving during a slice would nest a second slice in it.
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_slice()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._sample()  # at least one slice at each end
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def scale(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Scaled durations of the intervals ``[start, end)`` (perf_counter
        seconds): the wall time less the slices that started inside each
        interval, at reference speed."""
        start, end = np.asarray(start, float), np.asarray(end, float)
        ts = np.array(self.starts)
        ds = np.array(self.durations)
        in_slices = np.concatenate([[0.0], np.cumsum(ds)])
        own = (end - start) - (
            in_slices[np.searchsorted(ts, end)] - in_slices[np.searchsorted(ts, start)]
        )
        # median of the WINDOW slices nearest each interval's midpoint
        width = min(WINDOW, len(ds))
        padded = np.pad(ds, (width // 2, (width - 1) // 2), mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, width), axis=1)
        i = np.clip(np.searchsorted(ts, (start + end) / 2), 0, len(ts) - 1)
        return own * (REF_SLICE_S / local[i])
