"""Unit test of the host-speed clock's conversion to reference seconds."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from hostspeed import REFERENCE_MS, HostClock  # noqa: E402


def test_reference_seconds_scale_by_the_median_sample():
    clock = HostClock()
    clock.samples[:] = [2.0 * REFERENCE_MS, 9.0 * REFERENCE_MS, REFERENCE_MS]
    # A host twice as slow as the reference halves the time.
    assert clock.ref(3.0) == 1.5
    clock.convert = False
    assert clock.ref(3.0) == 3.0


def test_timed_takes_one_sample_per_operation():
    clock = HostClock()
    with clock.timed() as timing:
        sum(range(1000))
    assert timing.wall_s > 0
    assert len(clock.samples) == 2
