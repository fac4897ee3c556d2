import time

import pytest

import speed
from speed import REFERENCE_PROBE_S, SpeedProbe


def probe_with(*rows):
    """A probe whose samples are ``(start, duration)`` rows."""
    probe = SpeedProbe()
    for at, took in rows:
        probe.at.append(at)
        probe.took.append(took)
    return probe


def test_scaled_removes_probes_inside_and_divides_by_their_speed(monkeypatch):
    monkeypatch.setattr(speed, "MIN_PROBES", 2)
    # two probes inside [1, 3], each twice the reference time
    probe = probe_with((1.5, 2 * REFERENCE_PROBE_S), (2.5, 2 * REFERENCE_PROBE_S))
    assert probe.inside_s(1, 3) == pytest.approx(4 * REFERENCE_PROBE_S)
    assert probe.scaled(1, 3) == pytest.approx((2 - 4 * REFERENCE_PROBE_S) / 2)


def test_a_host_at_reference_speed_scales_by_one(monkeypatch):
    monkeypatch.setattr(speed, "MIN_PROBES", 1)
    probe = probe_with((0.5, REFERENCE_PROBE_S))
    assert probe.scaled(0, 1) == pytest.approx(1 - REFERENCE_PROBE_S)


def test_short_interval_widens_its_window_to_enough_probes(monkeypatch):
    monkeypatch.setattr(speed, "MIN_PROBES", 3)
    probe = probe_with((0.0, 1.0), (9.0, 2.0), (10.05, 3.0), (11.0, 4.0), (30.0, 5.0))
    # margin 0.25 holds one probe, 0.5 one, 1.0 three: 2, 3 and 4
    assert probe.probe_s(10.0, 10.1) == pytest.approx(3.0)
    # no interval has more probes than were taken
    assert probe.probe_s(100.0, 100.1) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        SpeedProbe().probe_s(0, 1)


def test_timer_samples_while_started_and_not_after():
    probe = SpeedProbe(period=0.01)
    with probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(probe.took)
    assert taken >= 2
    assert probe.at == sorted(probe.at)
    end = time.perf_counter() + 0.05
    while time.perf_counter() < end:
        pass
    assert len(probe.took) == taken
