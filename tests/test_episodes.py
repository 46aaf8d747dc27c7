from datetime import datetime, timedelta

import pytest

from mealclust.episodes import episodes_to_csv, read_episodes_csv, segment_episodes
from mealclust.events import SensorEvent

T0 = datetime(2024, 3, 1, 12, 0, 0)


def ev(minutes, hh="h1"):
    return SensorEvent(
        timestamp=T0 + timedelta(minutes=minutes),
        household_id=hh,
        sensor_id="s1",
        sensor_kind="motion",
        location="kitchen",
        value=1,
    )


def test_empty_events():
    assert segment_episodes([]) == []


def test_single_burst():
    eps = segment_episodes([ev(0), ev(2), ev(4)], gap_threshold_min=10, min_duration_min=0, min_events=1)
    assert len(eps) == 1
    assert eps[0].duration_min == pytest.approx(4)
    assert eps[0].event_count == 3
    assert eps[0].start_hour == pytest.approx(12.0)


def test_gap_splits_episodes():
    eps = segment_episodes([ev(0), ev(2), ev(60), ev(61)], gap_threshold_min=10,
                           min_duration_min=0, min_events=1)
    assert [e.duration_min for e in eps] == [pytest.approx(2), pytest.approx(1)]


def test_unsorted_input_rejected():
    with pytest.raises(ValueError):
        segment_episodes([ev(5), ev(0)])


def test_negative_thresholds_rejected():
    with pytest.raises(ValueError):
        segment_episodes([ev(0)], gap_threshold_min=-1)
    with pytest.raises(ValueError):
        segment_episodes([ev(0)], min_duration_min=-1)
    with pytest.raises(ValueError):
        segment_episodes([ev(0)], min_events=0)


def test_nan_thresholds_rejected():
    with pytest.raises(ValueError):
        segment_episodes([ev(0)], gap_threshold_min=float("nan"))
    with pytest.raises(ValueError):
        segment_episodes([ev(0)], min_duration_min=float("nan"))


def test_blips_discarded_by_defaults():
    # lone activation and a sub-minute pair both fall below the defaults
    eps = segment_episodes([ev(0), ev(30), ev(30.5)])
    assert eps == []


def test_episodes_disjoint_and_ordered():
    events = [ev(m) for m in (0, 1, 3, 30, 32, 90, 95, 200, 203)]
    eps = segment_episodes(events, min_duration_min=0, min_events=1)
    for a, b in zip(eps, eps[1:]):
        assert a.end < b.start


def test_event_conservation():
    events = [ev(m) for m in (0, 1, 3, 30, 32, 90, 95)]
    eps = segment_episodes(events, min_duration_min=0, min_events=1)
    assert sum(e.event_count for e in eps) == len(events)


def test_gap_threshold_monotonicity():
    events = [ev(m) for m in (0, 4, 9, 20, 22, 45, 46, 47, 80)]
    counts = []
    for gap in (2, 5, 10, 30, 100):
        counts.append(len(segment_episodes(events, gap_threshold_min=gap,
                                           min_duration_min=0, min_events=1)))
    assert counts == sorted(counts, reverse=True)


def test_translation_invariance():
    events = [ev(m) for m in (0, 2, 4, 40, 43)]
    shifted = [ev(m + 600) for m in (0, 2, 4, 40, 43)]
    d1 = [e.duration_min for e in segment_episodes(events, min_duration_min=0, min_events=1)]
    d2 = [e.duration_min for e in segment_episodes(shifted, min_duration_min=0, min_events=1)]
    assert d1 == d2


def test_gap_exactly_threshold_splits():
    # gaps < threshold merge, so a gap of exactly the threshold splits
    eps = segment_episodes([ev(0), ev(10), ev(20)], gap_threshold_min=10,
                           min_duration_min=0, min_events=1)
    assert len(eps) == 3


def test_csv_round_trip():
    events = [ev(m) for m in (0, 2, 4, 40, 43)]
    eps = segment_episodes(events, min_duration_min=0, min_events=1)
    assert read_episodes_csv(episodes_to_csv(eps)) == eps
