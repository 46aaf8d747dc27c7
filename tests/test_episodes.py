from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from mealclust.episodes import (
    ActivityEpisode,
    EpisodeTable,
    check_thresholds,
    segment_episodes,
)
from mealclust.events import (
    EventTable,
    SensorEvent,
    filter_meal_locations,
    household_codes,
    household_events,
    records_from_csv,
    records_to_csv,
)
from mealclust.features import MODE_DURATION_AND_START_HOUR, MODE_DURATION_ONLY, build_features
from mealclust.synth import default_profile, generate_trace

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


def reference_segment_episodes(events, gap_threshold_min=10.0, min_duration_min=1.0, min_events=2):
    """The event-at-a-time segmentation loop. The columnar
    `segment_episodes` must equal it exactly, floats included."""
    check_thresholds(gap_threshold_min, min_duration_min, min_events)
    for prev, cur in zip(events, events[1:]):
        if cur.timestamp < prev.timestamp:
            raise ValueError("events must be sorted ascending by timestamp")

    episodes = []
    run = []

    def flush(run):
        duration_min = (run[-1].timestamp - run[0].timestamp).total_seconds() / 60.0
        if duration_min < min_duration_min or len(run) < min_events:
            return
        start = run[0].timestamp
        episodes.append(
            ActivityEpisode(
                household_id=run[0].household_id,
                start=start,
                end=run[-1].timestamp,
                duration_min=duration_min,
                start_hour=start.hour + start.minute / 60.0 + start.second / 3600.0,
                event_count=len(run),
            )
        )

    for event in events:
        if run and (event.timestamp - run[-1].timestamp).total_seconds() / 60.0 >= gap_threshold_min:
            flush(run)
            run = []
        run.append(event)
    if run:
        flush(run)
    return episodes


def _events_at(offsets_s):
    return [SensorEvent(T0 + timedelta(seconds=s), "h1", "s1", "motion", "kitchen", 1) for s in offsets_s]


def assert_segments_like_reference(events, **thresholds):
    episodes = segment_episodes(events, **thresholds)
    expected = reference_segment_episodes(list(events), **thresholds)
    assert isinstance(episodes, EpisodeTable)
    assert episodes == expected and EpisodeTable.from_records(expected) == expected
    # exact floats, as Python floats (the CSV writes them through repr)
    assert [(type(e.duration_min), type(e.start_hour)) for e in episodes] == [(float, float)] * len(expected)
    # the table's columns give the bytes the episode objects give
    assert records_to_csv(ActivityEpisode, episodes) == records_to_csv(ActivityEpisode, expected)
    if expected:
        for mode in (MODE_DURATION_ONLY, MODE_DURATION_AND_START_HOUR):
            table, objects = build_features(episodes, mode), build_features(expected, mode)
            assert table.data.tobytes() == objects.data.tobytes() and table.data.shape == objects.data.shape


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
    assert records_from_csv(ActivityEpisode, records_to_csv(ActivityEpisode, eps)) == eps


@pytest.mark.parametrize("gap", [0.1, 0.5, 1, 7.3, 10, 10.0, 29.999, 45.5])
def test_bundled_trace_matches_reference(gap):
    meals = filter_meal_locations(generate_trace(default_profile(days=120)))
    assert_segments_like_reference(meals, gap_threshold_min=gap)
    assert_segments_like_reference(meals, gap_threshold_min=gap, min_duration_min=0.1, min_events=1)


def test_non_integer_gaps_and_gap_at_threshold_match_reference():
    # steps of 6 s (0.1 min), 438 s (7.3 min), 439 s, 600 s (10 min) and
    # 498 s, where 498 / 60.0 >= 8.3 holds but 498 >= 8.3 * 60.0 does not
    events = _events_at([0, 6, 12, 450, 888, 1327, 1927, 2527, 2533, 3031])
    for gap in (0.1, 0.10000001, 7.3, 7.3 + 1 / 60, 8.3, 10, 9.99):
        for min_duration in (0, 0.1, 7.3, 8.3):
            for min_events in (1, 2, 3):
                assert_segments_like_reference(events, gap_threshold_min=gap, min_duration_min=min_duration,
                                               min_events=min_events)


def test_table_and_list_inputs_agree():
    events = [ev(m, hh) for m, hh in ((0, "a"), (2, "a"), (30, "b"), (31, "a"), (33, "a"))]
    table = EventTable.from_records(events)
    assert segment_episodes(table, min_events=1) == segment_episodes(events, min_events=1)
    assert [e.household_id for e in segment_episodes(table, min_duration_min=0, min_events=1)] == ["a", "b"]
    assert segment_episodes(household_events(table, household_codes(table)["a"]), min_duration_min=0) == reference_segment_episodes(
        [e for e in events if e.household_id == "a"], min_duration_min=0)


def test_a_table_holds_sub_second_episode_times_exactly():
    start = T0 + timedelta(microseconds=250_001)
    episodes = [ActivityEpisode("h1", start, start + timedelta(minutes=7.3), 7.3, 12.0000694, 4),
                ActivityEpisode("h2", T0, T0 + timedelta(days=400), 576000.0, 12.0, 2)]
    table = EpisodeTable.from_records(episodes)
    assert table == episodes and list(table) == episodes and table[1:] == episodes[1:]
    assert EpisodeTable.from_records(table) is table
    assert records_to_csv(ActivityEpisode, table) == records_to_csv(ActivityEpisode, episodes)


def test_sub_second_timestamps_rejected():
    with pytest.raises(ValueError, match="whole second"):
        segment_episodes([ev(0), ev(0.001)])


# -- properties ---------------------------------------------------------------

_offsets = st.lists(st.integers(0, 6 * 3600), max_size=60).map(sorted)
_gaps = st.sampled_from([0.1, 1, 2.5, 7.3, 10, 30, 600])
_PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@_PROPERTY_SETTINGS
@given(_offsets, _gaps, st.sampled_from([0, 0.5, 1.0, 7.3]), st.integers(1, 4))
def test_segmentation_matches_reference_property(offsets_s, gap, min_duration, min_events):
    assert_segments_like_reference(_events_at(offsets_s), gap_threshold_min=gap, min_duration_min=min_duration,
                                   min_events=min_events)


@_PROPERTY_SETTINGS
@given(_offsets, _gaps)
def test_segmentation_invariants_property(offsets_s, gap):
    events = _events_at(offsets_s)
    episodes = segment_episodes(events, gap_threshold_min=gap, min_duration_min=0, min_events=1)
    # conservation: with no filter, every event lies in exactly one episode
    assert sum(e.event_count for e in episodes) == len(events)
    # disjoint and ordered, separated by at least the gap
    for a, b in zip(episodes, episodes[1:]):
        assert a.start <= a.end < b.start
        assert (b.start - a.end).total_seconds() / 60.0 >= gap
    # a wider gap never makes more episodes
    wider = segment_episodes(events, gap_threshold_min=gap * 2, min_duration_min=0, min_events=1)
    assert len(wider) <= len(episodes)
