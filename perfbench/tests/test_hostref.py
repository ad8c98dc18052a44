"""HostClock scales each step by the reference bursts on either side of it.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import pytest

import hostref


def test_steps_are_scaled_by_the_bursts_around_them(monkeypatch):
    ref = hostref.REF_BURST_S
    bursts = iter([ref, 3 * ref, ref])
    monkeypatch.setattr(hostref, "burst", lambda: next(bursts))
    clock = hostref.HostClock([min(hostref.os.sched_getaffinity(0))])
    clock.start()
    first = clock.step()
    second = clock.step()
    assert first == pytest.approx(0.5) and second == pytest.approx(0.5)
    (s0, e0, _), (s1, e1, _) = clock.steps
    assert clock.factor_at((s0 + e0) / 2) == first
    assert clock.scaled_wall() == pytest.approx(0.5 * clock.raw_wall())
    with pytest.raises(ValueError):
        clock.factor_at(e1 + 1.0)


def test_long_step_is_measured_by_several_bursts(monkeypatch):
    ref = hostref.REF_BURST_S
    monkeypatch.setattr(hostref, "burst", lambda: 2 * ref)
    # the step lasts as long as 5 bursts' worth of BURST_SHARE
    times = iter([0.0, 5 * ref / hostref.BURST_SHARE, 100.0])
    monkeypatch.setattr(hostref, "perf_counter", lambda: next(times))
    clock = hostref.HostClock([min(hostref.os.sched_getaffinity(0))])
    clock.start()
    assert clock.step() == pytest.approx(0.5)
    assert len(clock.bursts) == 1 + 5


def test_burst_takes_time():
    assert hostref.burst() > 0.0
