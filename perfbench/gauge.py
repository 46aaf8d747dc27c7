"""A fixed piece of work that gauges how fast the host runs right now.

On a shared host the speed a process gets drifts by a third and more, over
times from a second to minutes, as other tenants come and go: its virtual
core is shared in time, and a busy sibling core or a shared cache slows
every instruction. CPU time drifts with it too. So the benchmark scales
each wall time it reports to the speed the host had when ``REFERENCE_S``
was recorded:

    wall time x REFERENCE_S / mean gauge wall time while it was spent

During a timed pass, ``Sampler`` runs the gauge from a profiling-timer
signal every ``INTERVAL_S`` of the process's CPU time, so the readings
are spread evenly over the pass's own work; their time is taken out of
the pass's. Set-up, which runs in fresh processes, is timed between two
calls of ``measure``.

The gauge mixes what the program spends its time on: interpreted row
parsing and dict updates (the CSV reader), and array work on a few
hundred points (a distance matrix and EM-style reductions). It is the
benchmark's own code, so a change to the program leaves it alone.

Run ``python3 perfbench/gauge.py`` for gauge readings on this host.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# A round figure for the wall time of one warm ``_work`` on a 2-core Intel
# Xeon guest, the host the bounds were tuned on; readings there ran from
# 0.002 to 0.0036 s within a minute. Only the scale of reported times
# depends on it.
REFERENCE_S = 0.003
INTERVAL_S = 0.1

# Small enough to stay in a core's own caches, so that what the program
# left in them does not change the gauge's time.
_POINTS = np.random.default_rng(20240903).normal(size=(120, 4))
_LINES = [f"hh{i % 12},2024-03-{1 + i % 28:02d}T{i % 24:02d}:{i % 60:02d}:00,kitchen,{i % 5}"
          for i in range(400)]
_ROUNDS = 4


def _work() -> float:
    total = 0.0
    for _ in range(_ROUNDS):
        counts: dict[str, int] = {}
        for line in _LINES:
            hh, ts, room, value = line.split(",")
            key = hh + ts[:10] + room
            counts[key] = counts.get(key, 0) + int(value) + int(ts[11:13])
        x = _POINTS
        d = np.zeros((len(x), len(x)))
        for k in range(x.shape[1]):
            d += (x[:, None, k] - x[None, :, k]) ** 2
        np.sqrt(d, out=d)
        logp = -0.5 * d[:, :16] ** 2
        resp = np.exp(logp - logp.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        total += float((d < 0.8).sum()) + float((resp.T @ x[:, :1]).sum()) + len(counts)
    return total


def _timed_work() -> float:
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def measure(repeats: int = 40) -> float:
    """Mean wall seconds of one gauge, over ``repeats`` after a warm-up one."""
    _work()
    return statistics.fmean(_timed_work() for _ in range(repeats))


def scaled(wall_s: float, gauge_s: float) -> float:
    """``wall_s`` taken at a mean gauge time of ``gauge_s``, at reference speed."""
    return wall_s * REFERENCE_S / gauge_s


class Sampler:
    """Runs the gauge every INTERVAL_S of process CPU time inside a with-block.

    ``samples`` holds the wall time of each timed gauge, ``spent_s`` the
    wall time of the handler calls in all. The handler runs between bytecodes
    of the main thread, so a long array call defers it until the call
    returns.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        # The first run brings the gauge's code and data back into the
        # caches the program used; timing only the second keeps what the
        # program left there out of the reading.
        _work()
        self.samples.append(_timed_work())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        if not self.samples:  # a block shorter than one interval
            self._tick(signal.SIGPROF, None)


if __name__ == "__main__":
    print(" ".join(f"{measure():.5f}" for _ in range(20)))
