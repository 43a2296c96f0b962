"""Spans and CPU-speed scaling for the benchmark's timings.

The speed of each CPU of a shared machine drifts by tens of percent over
seconds to minutes, jitters within fractions of a second, and the CPUs
drift independently.  So timed work runs on known CPUs, a fixed loop is
timed on those CPUs too, and times are scaled by CALIBRATION_REF_S /
(loop time): seconds at the speed at which the loop takes
CALIBRATION_REF_S, about its median on the 2-vCPU Xeon VM the baseline
was taken on.

The loop adds small ``fractions.Fraction`` values: pure-Python code of
the standard library, with the calls, allocations and branches of the
program's own code.  In slow spells of that VM the program's code took
up to 1.9 times as long, a tight integer loop only about 1.45 times, so
times scaled by the integer loop still read up to 25 % high; scaled by
the Fraction loop they stayed within 6-12 % (ranges of the medians of
windows of 150 alternating samples, over four minutes).

- ``Speed`` times the whole loop before and after a process of the
  end-to-end workloads.
- ``sampled_span`` times a part of the loop every SAMPLE_INTERVAL_S
  inside the span (from a SIGALRM handler, so in the same thread as the
  work), and scales by the mean of those samples.  A calibration before
  and after cannot follow the jitter during a per-layer batch.

A span is the start and end (``time.perf_counter_ns``) of one batch of
calls, with the scale of the CPUs it ran on.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

CALIBRATION_ROUNDS = 50_000
CALIBRATION_REF_S = 0.2
# A sample is a hundredth of the loop.
SAMPLE_ROUNDS = CALIBRATION_ROUNDS // 100
SAMPLE_INTERVAL_S = 0.025


@contextmanager
def pinned(cpus):
    """Run this process (and what it starts meanwhile) on ``cpus`` only."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def loop_s(rounds: int) -> float:
    """Seconds that ``rounds`` rounds of the calibration loop take now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(rounds):
        acc += Fraction(i % 13 + 1, i % 7 + 2)
    return time.perf_counter() - start


def calibrate(cpu: int) -> float:
    """Seconds the whole calibration loop takes now on ``cpu``."""
    with pinned({cpu}):
        return loop_s(CALIBRATION_ROUNDS)


class Speed:
    """The latest calibration-loop time of each CPU."""

    def __init__(self, cpus):
        self.loop = {cpu: calibrate(cpu) for cpu in cpus}

    def scale(self, cpus) -> float:
        """Recalibrate ``cpus``; the factor for what ran on them since their last calibration."""
        before = sum(self.loop[c] for c in cpus)
        self.loop.update({c: calibrate(c) for c in cpus})
        after = sum(self.loop[c] for c in cpus)
        return CALIBRATION_REF_S * len(cpus) / ((before + after) / 2)


@contextmanager
def span(name: str):
    """Record one span; whoever knows the CPUs it ran on sets its scale."""
    record = {"name": name, "start": time.perf_counter_ns(), "end": None, "scale": 1.0}
    try:
        yield record
    finally:
        record["end"] = time.perf_counter_ns()


@contextmanager
def sampled_span(name: str, in_process: bool = True):
    """A span scaled by calibration samples taken during it.

    If the work runs ``in_process``, the samples delay it, and their own
    time is taken out of the span; work in child processes goes on
    meanwhile.  A span too short for a sample gets one right after it.
    """
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(loop_s(SAMPLE_ROUNDS)))
    try:
        with span(name) as record:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            try:
                yield record
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    if in_process:
        record["end"] -= round(sum(samples) * 1e9)
    samples = samples or [loop_s(SAMPLE_ROUNDS)]
    record["scale"] = CALIBRATION_REF_S / (statistics.mean(samples) * CALIBRATION_ROUNDS / SAMPLE_ROUNDS)


def seconds(record: dict) -> float:
    """Scaled duration of a finished span."""
    return (record["end"] - record["start"]) * 1e-9 * record["scale"]
