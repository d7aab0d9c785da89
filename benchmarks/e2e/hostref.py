"""Host reference: a fixed job that times how fast the host runs right now.

The benchmark host's speed drifts by tens of percent within seconds and
over minutes (other tenants share its cores and caches), far more than
the regressions the benchmark should see.  So while a unit runs,
:class:`PausedSampling` stops it every ``PERIOD_S`` seconds, times one
pass of a reference basket on both cores and resumes it.  The unit's
time excludes the pauses, and ``run.py`` reports times at *reference
speed*: a measured time multiplied by ``NOMINAL_S`` / the mean pass time
of the run.  Passes are spread evenly over the unit's run, so their mean
weighs slow stretches as the unit felt them; a median would skip them.

The basket does not import the program, so a change to the program never
changes it.  It mixes the kinds of work a replication does, each on both
cores like a two-worker campaign: an event loop over a heap of Python
objects with random draws, NumPy scalar arithmetic, and random reads
from a working set larger than the caches.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import random
import signal
import statistics
import threading
import time
from typing import List, Tuple

#: Basket time, in seconds, that counts as reference speed: one pass
#: took about this long on the quiet 2-vCPU development host.
NOMINAL_S = 0.12
#: Seconds a unit runs between two passes.
PERIOD_S = 0.4

_EVENTS = 15_000
_SCALARS = 22_000
_READS = 25_000
_WORKING_SET = 150_000


class _Event:
    __slots__ = ("time", "action", "arg")

    def __init__(self, time_: float, action, arg: int) -> None:
        self.time = time_
        self.action = action
        self.arg = arg

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def _events(n: int) -> float:
    """A small discrete-event loop: checkpoints, failures and work steps."""
    rng = random.Random(1)
    queue: List[_Event] = []
    state = {"now": 0.0, "work": 0.0, "lost": 0.0}

    def checkpoint(i: int) -> None:
        state["lost"] = 0.0
        heapq.heappush(queue, _Event(state["now"] + rng.expovariate(1.0), checkpoint, i))

    def failure(i: int) -> None:
        state["lost"] += state["work"] * 0.1
        heapq.heappush(queue, _Event(state["now"] + rng.weibullvariate(5.0, 0.7),
                                     failure, i))

    def step(i: int) -> None:
        state["work"] += rng.random()
        heapq.heappush(queue, _Event(state["now"] + 0.1, step, i))

    for i in range(48):
        heapq.heappush(queue, _Event(rng.random(), (checkpoint, failure, step)[i % 3], i))
    for _ in range(n):
        event = heapq.heappop(queue)
        state["now"] = event.time
        event.action(event.arg)
    return state["work"]


def _scalars(n: int) -> float:
    """NumPy scalar arithmetic, the way scalar SciPy calls spend their time."""
    import numpy as np

    rng = np.random.default_rng(1)
    x = np.float64(1.5)
    total = 0.0
    for _ in range(n):
        total += float(np.exp(-x * rng.random())) + float(np.log1p(x))
    return total


_TABLE: dict = {}


def _reads(n: int) -> float:
    """Random reads from a dict of tuples of about 20 MB."""
    if not _TABLE:
        _TABLE.update((i, (i, float(i))) for i in range(_WORKING_SET))
    rng = random.Random(2)
    table = _TABLE
    total = 0.0
    for _ in range(n):
        total += table[rng.randrange(_WORKING_SET)][1]
    return total


def _basket(_: int) -> float:
    return _events(_EVENTS) + _scalars(_SCALARS) + _reads(_READS)


class HostReference:
    """Two forked processes that run the basket on demand.

    Create it before starting threads; use it as a context manager so
    both processes are stopped and reaped on every way out.
    """

    def __init__(self) -> None:
        self._pool = multiprocessing.get_context("fork").Pool(2)
        self.times: List[float] = []
        try:
            self._pass()  # imports, the working set, both workers running
        except BaseException:
            self._pool.terminate()
            self._pool.join()
            raise

    def _pass(self) -> float:
        t0 = time.perf_counter()
        self._pool.map(_basket, [0, 1], chunksize=1)
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Time one pass of the basket on both processes and keep it."""
        seconds = self._pass()
        self.times.append(seconds)
        return seconds

    def scale(self) -> float:
        """Factor from measured seconds to reference seconds."""
        return NOMINAL_S / statistics.fmean(self.times)

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "HostReference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PausedSampling:
    """Times the basket every ``PERIOD_S`` seconds while a unit is paused.

    The unit is the process group *pgid*: it gets ``SIGSTOP``, the basket
    runs, and ``SIGCONT`` resumes it, also when the basket fails.
    ``pauses`` holds each pause as ``(start, end)`` in ``perf_counter``
    seconds, a clock all processes of the host share.
    """

    def __init__(self, ref: HostReference, pgid: int) -> None:
        self.ref = ref
        self.pgid = pgid
        self.pauses: List[Tuple[float, float]] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostref",
                                        daemon=True)

    def _sample(self) -> None:
        while not self._done.wait(PERIOD_S):
            t0 = time.perf_counter()
            try:
                os.killpg(self.pgid, signal.SIGSTOP)
            except ProcessLookupError:
                return
            try:
                self.ref.measure()
            finally:
                try:
                    os.killpg(self.pgid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
                self.pauses.append((t0, time.perf_counter()))

    def __enter__(self) -> "PausedSampling":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()


def active(pauses: List[Tuple[float, float]], t0: float, t1: float) -> float:
    """Seconds of ``[t0, t1]`` outside every pause."""
    paused = sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in pauses)
    return t1 - t0 - paused
