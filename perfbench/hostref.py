"""A fixed reference burst that measures the host's speed while a run goes on.

The host this benchmark runs on swings by up to 2x in speed over tens of
seconds, and a slow spell slows every kind of work by about as much.  So
``run.py`` runs one burst before the first step of the timed phase and
one after every step, and scales each step's times by
``REF_BURST_S / (mean of the bursts on either side)``.  The figures it
reports are then seconds at the host speed where one burst takes
``REF_BURST_S``, and a slow spell cancels out of them.  After a long
step the burst is run several times, so that about ``BURST_SHARE`` as
much time goes into measuring the host as into the step, and the
measurement of a long step is not one short burst's noise.

The bursts run on the cores the workload runs on, taken in turn: a
workload that runs one thread is held to one core together with its
bursts, and ``sweep``'s two worker threads use both cores, so its
bursts measure both.  A burst on a core other than the program's
measures a neighbour's load, not the program's host speed.

The burst is this file's own code and never calls corrquant, so a change
to corrquant cannot move it.  It mixes the three kinds of work that the
workloads spend their time in: interpreter overhead, small dense
LAPACK calls made one at a time from Python, and sparse and dense
products of a few hundred rows.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np
import scipy.sparse as sp

# about the burst's time on the machine described in README.md, when fast
REF_BURST_S = 0.06
BURST_SHARE = 0.05

_rng = np.random.default_rng(0)
_SMALL = [a @ a.T + np.eye(k) for k in (2, 4, 8, 16) for a in [_rng.normal(size=(k, k))]]
_SPARSE = sp.random(400, 6000, density=0.004, random_state=1, format="csr")
_VEC = _rng.normal(size=6000)
_DENSE = (lambda g: g @ g.T + np.eye(120))(_rng.normal(size=(120, 120)))


def _interpreter():
    total = 0
    for k in range(400_000):
        total += k
    return total


def _small_lapack():
    for _ in range(180):
        for a in _SMALL:
            w, v = np.linalg.eigh(a)
            np.linalg.cholesky(a)
            (v * w) @ v.T


def _products():
    for _ in range(60):
        y = _SPARSE @ _VEC
        _SPARSE.T @ y
        np.linalg.cholesky(_DENSE)
        _DENSE @ _DENSE


def burst() -> float:
    """Run the reference burst once; return its wall time in seconds."""
    start = perf_counter()
    _interpreter()
    _small_lapack()
    _products()
    return perf_counter() - start


class HostClock:
    """Step times scaled to the reference host speed.

    ``start()`` runs the first bursts; ``step()`` closes a step, runs the
    next bursts and returns the step's scale factor: the reference burst
    time over the mean of the burst times measured before and after the
    step.  Bursts run on each of ``cores`` in turn, the calling thread
    held to that core meanwhile.  The time of a burst is not part of any
    step.
    """

    def __init__(self, cores):
        self.cores = sorted(cores)
        self.bursts = []
        self.steps = []         # (start, end, factor)
        self._before = None     # mean burst time measured before this step
        self._step_start = None

    def _measure(self, count: int) -> float:
        """Mean time of ``count`` bursts, rounded to a whole turn of cores."""
        turns = max(1, round(count / len(self.cores)))
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for _ in range(turns):
                for core in self.cores:
                    os.sched_setaffinity(0, {core})
                    times.append(burst())
        finally:
            os.sched_setaffinity(0, allowed)
        self.bursts.extend(times)
        return sum(times) / len(times)

    def start(self) -> None:
        self._before = self._measure(1)
        self._step_start = perf_counter()

    def step(self) -> float:
        end = perf_counter()
        after = self._measure(round(BURST_SHARE * (end - self._step_start) / REF_BURST_S))
        factor = 2 * REF_BURST_S / (self._before + after)
        self.steps.append((self._step_start, end, factor))
        self._before = after
        self._step_start = perf_counter()
        return factor

    def factor_at(self, t: float) -> float:
        """Scale factor of the step that holds time ``t``."""
        for start, end, factor in self.steps:
            if start <= t <= end:
                return factor
        raise ValueError(f"time {t} lies in no step")

    def scaled_wall(self) -> float:
        return sum((end - start) * factor for start, end, factor in self.steps)

    def raw_wall(self) -> float:
        return sum(end - start for start, end, _ in self.steps)
