"""Tests of the benchmark's host-speed meter (run.Meter).

    python3 -m pytest perfbench
"""

import pytest

import run

REFS = [ref for _kernel, ref in run.CAL_KERNELS]
TICKS = 4 * run.CAL_WINDOW + 2          # per kernel


def settled(slowness):
    """A meter whose kernels ticked in turn every 0.1 s, kernel k's j-th
    tick taking slowness(j) times its reference time."""
    m = run.Meter()
    kinds = len(REFS)
    m.stamps = [[0.1 * (kinds * j + k) for j in range(TICKS)] for k in range(kinds)]
    m.times = [[ref * slowness(j) for j in range(TICKS)] for ref in REFS]
    m.settle()
    return m


def test_at_reference_speed_a_step_keeps_its_wall_time():
    m = settled(lambda j: 1.0)
    assert m.reference_s(0.35, 1.75) == pytest.approx(1.4)


def test_on_a_host_twice_as_slow_a_step_counts_half():
    m = settled(lambda j: 2.0)
    assert m.reference_s(0.35, 1.75) == pytest.approx(0.7)


def test_each_stretch_is_scaled_by_the_speed_around_it():
    half = TICKS // 2
    m = settled(lambda j: 1.0 if j < half else 3.0)
    period = 0.1 * len(REFS)
    fast_end = period * (half - run.CAL_WINDOW - 1)
    slow_start = period * (half + run.CAL_WINDOW + 1)
    assert m.reference_s(0.0, fast_end) == pytest.approx(fast_end)
    end = period * TICKS
    assert m.reference_s(slow_start, end) == pytest.approx((end - slow_start) / 3)


def test_too_few_samples_are_refused():
    m = run.Meter()
    m.stamps = [[0.0] for _ in REFS]
    m.times = [[ref] for ref in REFS]
    with pytest.raises(RuntimeError):
        m.settle()
