"""Host-speed calibration: a fixed kernel timed alongside the workload.

A shared host's speed drifts by tens of percent for seconds to minutes
at a time (frequency, neighbours on the same cores), and a slow spell
can cover a whole run, so no summary of one run's wall times is steady
across runs.  The benchmark therefore times a fixed kernel of its own
after each timed operation, and reports times as they would read on a
host that runs the kernel in :data:`REFERENCE_MS`::

    reference seconds = wall seconds * REFERENCE_MS / kernel ms

where ``kernel ms`` is the median of every sample of the run.  A sample
next to one operation does not follow the host's speed closely enough
to correct that operation alone (the speed also moves within a second),
but the run's median follows the slow spells that move whole runs.  The
kernel mixes what the codec does (whole-frame SADs over a few offsets,
batched 8x8 transforms, quantisation, and a Python-level symbol loop),
so the host's drift moves it as it moves the program.  The kernel is
the benchmark's own code and never changes with the program, so a
faster program still reads faster.

Each sample is the median of :data:`REPS` single kernel runs, so a
preemption in one of them does not move it.

The drift differs from one CPU to the next: a kernel on one CPU does
not see the other CPU slow down.  A workload that runs on one CPU is
therefore pinned to it together with the clock.  A workload that keeps
every CPU busy (the grid's two workers) is not converted: its wall time
did not follow the kernel, sampled on one CPU or on all at once, and
converting it widened its spread between runs two- to threefold.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: The kernel's median time, in ms, on the host that defines reference
#: seconds: a 2-vCPU x86-64 KVM guest at its usual speed.
REFERENCE_MS = 3.5
#: Kernel runs per sample (about 85 ms on the reference host).
REPS = 24

_RNG = np.random.default_rng(20050606)
_FRAMES = _RNG.integers(0, 256, size=(2, 144, 176)).astype(np.int16)
_BASIS = np.linalg.qr(_RNG.standard_normal((8, 8)))[0]


def kernel() -> int:
    """One fixed unit of codec-like work on a QCIF-sized frame pair."""
    current, reference = _FRAMES
    total = 0
    for dy in (-2, -1, 0, 1, 2):
        for dx in (-2, -1, 0, 1, 2):
            shifted = np.roll(reference, (dy, dx), axis=(0, 1))
            sad = np.abs(current - shifted).reshape(9, 16, 11, 16).sum(axis=(1, 3))
            total += int(sad.min())
    blocks = (
        current.reshape(18, 8, 22, 8).swapaxes(1, 2).reshape(-1, 8, 8).astype(np.float64)
    )
    levels = np.round((_BASIS @ blocks @ _BASIS.T) / 12.0).astype(np.int32)
    bits = 0
    for block in levels[:120]:
        run = 0
        for value in block.ravel().tolist():
            if value == 0:
                run += 1
            else:
                bits += (abs(value).bit_length() << 1) + run
                run = 0
    return total + bits


def sample_ms() -> float:
    """The kernel's median time over :data:`REPS` runs, in ms."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


@dataclass
class Timing:
    """Wall seconds of one timed operation."""

    wall_s: float = 0.0


@dataclass
class HostClock:
    """Times operations and converts wall seconds to reference seconds.

    To convert, the process must be pinned to the one CPU its timed
    operations run on.  With ``convert`` off, :meth:`ref` leaves wall
    seconds as they are and the samples are only reported.
    """

    convert: bool = True
    samples: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        kernel()  # warm caches and numpy's dispatch before the first sample
        self.samples.append(sample_ms())

    @contextmanager
    def timed(self):
        """Time the ``with`` body, then take a sample; the yielded
        :class:`Timing` fills in on exit."""
        timing = Timing()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall_s = time.perf_counter() - start
            self.samples.append(sample_ms())

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def ref(self, seconds: float) -> float:
        """``seconds`` of wall time in reference seconds, at the median of
        every sample so far."""
        if not self.convert:
            return seconds
        return seconds * REFERENCE_MS / self.median_ms
