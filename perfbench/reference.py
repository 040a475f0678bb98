"""A fixed piece of the benchmark's own work, timed around and during
every call to tell how fast the machine is at that moment.

On a shared host the speed of a vCPU changes by 1.5x or more every few
seconds, so the same call can take 0.35 s or 0.65 s. This work is a short
tabu walk with dict-keyed pair weights over a fixed graph, the same kind of
interpreter work as the walk kernel, and its time follows those changes.
Calls are timed in seconds and then rescaled by the reference speed.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# Reported seconds are seconds on a machine where one unit of the reference
# takes this long (about the 2-core Xeon VM the benchmark was built on).
UNIT_S = 0.004
# A window measurement is the median unit time over a window this long.
WINDOW_S = 0.1
# During a call, one unit is timed this often (about 1.5% of the call).
INTERVAL_S = 0.25


class Reference:
    def __init__(self) -> None:
        rng = random.Random(7)
        n = 200
        self._adjacency: list[list[int]] = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if (u // 20 == v // 20 and rng.random() < 0.5) or rng.random() < 0.01:
                    self._adjacency[u].append(v)
                    self._adjacency[v].append(u)
        self._uniform = [rng.random() for _ in range(4096)]

    def _unit(self) -> None:
        adjacency, uniform = self._adjacency, self._uniform
        weights: dict[tuple[int, int], int] = {}
        get = weights.get
        k = 0
        for start in range(150):
            current = start
            seen = {current}
            for _ in range(3):
                candidates = [v for v in adjacency[current] if v not in seen] or adjacency[current]
                row = [1 + get((current, v) if current < v else (v, current), 0) for v in candidates]
                r = uniform[k & 4095] * sum(row)
                k += 1
                current = candidates[-1]
                acc = 0
                for v, w in zip(candidates, row):
                    acc += w
                    if r < acc:
                        current = v
                        break
                seen.add(current)
            nodes = sorted(seen)
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    weights[(u, v)] = get((u, v), 0) + 1

    @contextmanager
    def sampling(self):
        """Time one unit every INTERVAL_S, from a SIGALRM handler, while the
        block runs. Yields the list of (start, seconds) samples."""
        samples: list[tuple[float, float]] = []

        def on_alarm(signum, frame):
            start = perf_counter()
            self._unit()
            samples.append((start, perf_counter() - start))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def time_call(self, fn):
        """Call fn() with in-call sampling. Returns (its result, its seconds
        without the samples, the samples taken during it)."""
        with self.sampling() as samples:
            start = perf_counter()
            result = fn()
            end = perf_counter()
        inside = [seconds for at, seconds in samples if start <= at < end]
        return result, end - start - sum(inside), inside

    def measure(self) -> float:
        """Median seconds per unit over one window."""
        times = []
        end = perf_counter() + WINDOW_S
        while not times or perf_counter() < end:
            start = perf_counter()
            self._unit()
            times.append(perf_counter() - start)
        return statistics.median(times)


def rescale(seconds: float, units: list[float]) -> float:
    """seconds on a machine where one unit takes UNIT_S, given unit times
    measured around and during the interval."""
    return seconds * UNIT_S / statistics.median(units)
