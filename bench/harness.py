"""Measurement plumbing shared by the workloads: the per-operation
record, deadlines, host-speed scaling, in-memory spans, percentiles and
peak memory.

Everything here is stdlib-only and single-threaded. Deadlines use
SIGALRM, so operations must run in the main thread.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Outcome:
    """One operation: seconds spent computing, seconds spent waiting for
    calls abandoned at their deadline (wall-clock time that host speed
    does not change), calls attempted and failed, failed calls that make
    the run incorrect, units of work credited, and the factor that
    scales `seconds` to the reference host speed."""

    seconds: float = 0.0
    waited: float = 0.0
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    work: int = 0
    info: dict = field(default_factory=dict)
    scale: float = 1.0

    def record(self, seconds: float, finished: bool, correct: bool, known_hang: bool = False) -> None:
        """Account for one call: its time, and whether it failed.

        A failed call is unexpected, and makes the run incorrect, when
        it finished with a wrong answer or missed its deadline without
        being a `known_hang`.
        """
        self.attempted += 1
        if finished:
            self.seconds += seconds
        else:
            self.waited += seconds
        if not (finished and correct):
            self.failed += 1
            self.unexpected += finished or not known_hang

    def latency(self, scaled: bool) -> float:
        return self.seconds * (self.scale if scaled else 1.0) + self.waited


class DeadlineExceeded(Exception):
    """An operation ran past its deadline and was abandoned."""


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded inside the block once `seconds` have passed.

    The alarm interrupts pure-Python loops between bytecodes, which is
    where every burstkit operation spends its time.
    """

    def fire(signum, frame):
        raise DeadlineExceeded(f"deadline of {seconds} s exceeded")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# Seconds HostSpeed's sampler has taken from the program so far.
_interrupted_s = 0.0


def clock() -> float:
    """perf_counter() that stands still while HostSpeed samples, so a
    duration taken with it leaves the sampler's interruptions out."""
    return perf_counter() - _interrupted_s


def timed(limit: float, fn, *args):
    """Run fn(*args) under a deadline.

    Returns (value, seconds, finished). An abandoned call returns
    (None, time until it was abandoned, False).
    """
    t0 = clock()
    try:
        with deadline(limit):
            t0 = clock()
            value = fn(*args)
            t1 = clock()
    except DeadlineExceeded:
        return None, clock() - t0, False
    return value, t1 - t0, True


def reference_kernel() -> int:
    """A fixed pure-Python loop (tuples, a dict, integer arithmetic)
    that shares no code with burstkit; its time tracks the host's speed."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(500):
        t = tuple((i * j) % 97 for j in range(4))
        k = (t[0] << 16) ^ (t[1] << 8) ^ t[2] ^ acc
        d[k] = d.get(k, 0) + 1
        acc = (acc * 31 + t[3]) & 0xFFFF
    return len(d)


# Seconds reference_kernel takes at the host speed all reported times
# are scaled to (its fast phases on a 2-vCPU x86 VM with Python 3.11).
REFERENCE_KERNEL_S = 0.0006


class HostSpeed:
    """Samples the host's speed while measurements are taken.

    Shared hosts change speed: the one this benchmark was tuned on swings
    by up to 2x within seconds, for burstkit and for unrelated code
    alike, and not through stolen CPU time (process and wall time agree),
    so only a kernel run in between tells the speed. Inside `with
    HostSpeed()`, a profiling timer interrupts the program every
    SAMPLE_EVERY_S of CPU time and times reference_kernel once, which
    costs about 3% of a run; `clock` leaves that time out. `scale(start,
    end)` is REFERENCE_KERNEL_S over the mean kernel time of the samples
    taken between two `clock` readings, widened on both sides to at
    least MIN_SAMPLES samples.
    """

    SAMPLE_EVERY_S = 0.02
    MIN_SAMPLES = 8

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock at start, kernel seconds)

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)

    def _sample(self, signum, frame) -> None:
        global _interrupted_s
        at = clock()
        t0 = perf_counter()
        try:
            reference_kernel()
            self.samples.append((at, perf_counter() - t0))
        finally:
            _interrupted_s += perf_counter() - t0

    def scale(self, start: float, end: float) -> float:
        n = len(self.samples)
        i = bisect_left(self.samples, start, key=lambda s: s[0])
        j = bisect_right(self.samples, end, key=lambda s: s[0])
        while j - i < self.MIN_SAMPLES and (i > 0 or j < n):
            i, j = max(0, i - 1), min(n, j + 1)
        return REFERENCE_KERNEL_S / statistics.fmean(s[1] for s in self.samples[i:j])


class Tracer:
    """Spans kept in memory: name `<module>.<function>`, start, end,
    parent span index and operation id."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.t0 = perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def durations(self, name: str) -> dict:
        """Durations of the spans called `name`, keyed by operation id
        (summed when one operation has several)."""
        out: dict = {}
        for s in self.spans:
            if s[0] == name:
                out[s[4]] = out.get(s[4], 0.0) + s[2] - s[1]
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the name before the first dot) that no
        child span covers. Children run sequentially, so their
        durations add."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_s": start - self.t0,
                            "end_s": end - self.t0,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Stands in for Tracer where nothing is recorded."""

    op = None

    def call(self, name: str, fn, *args):
        return fn(*args)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    share p of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def beyond(n: int, p: float) -> int:
    """Of n samples, how many rank after the nearest-rank percentile p."""
    return n - max(1, math.ceil(p * n))


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
