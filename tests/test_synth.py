import re

import numpy as np
import pytest

from mealclust.episodes import segment_episodes
from mealclust.events import epoch_seconds, events_to_csv, filter_meal_locations, parse_events
from mealclust.synth import (
    BASE_DATE,
    NOISE_LOCATIONS,
    HouseholdProfile,
    MealCategory,
    default_profile,
    format_profile,
    generate_trace,
    generate_with_truth,
    parse_profile,
    planted_to_csv,
)


def one_category_profile(days=30, seed=0, probability=1.0):
    return HouseholdProfile(
        household_id="h1",
        categories=(MealCategory("lunch", 12.5, 0.5, 30.0, 6.0, probability),),
        days=days,
        noise_events_per_day=5.0,
        seed=seed,
    )


def test_zero_days_empty_trace():
    assert generate_trace(one_category_profile(days=0)) == []


def reference_noise(profile):
    """Noise offsets (seconds from BASE_DATE) and rooms drawn one scalar
    call at a time, for a profile whose categories never fire, so the
    meal loop takes exactly one rng.random() per category and day."""
    rng = np.random.default_rng(profile.seed)
    for _ in range(profile.days * len(profile.categories)):
        rng.random()
    n_noise = int(rng.poisson(profile.noise_events_per_day * profile.days)) if profile.days else 0
    offsets = np.empty(n_noise, dtype=np.int64)
    rooms = np.empty(n_noise, dtype=np.int64)
    for i in range(n_noise):
        offsets[i] = rng.integers(0, max(profile.days * 86400, 1))
        rooms[i] = rng.integers(0, len(NOISE_LOCATIONS))
    order = np.argsort(offsets, kind="stable")
    return offsets[order], [NOISE_LOCATIONS[r] for r in rooms[order]]


@pytest.mark.parametrize("days, rate", [(0, 5.0), (1, 5.0), (365, 30.0), (50_000, 0.002)])
def test_noise_matches_scalar_draws(days, rate):
    # 50,000 days span more than 2**32 seconds, numpy's 64-bit bounded path
    profile = HouseholdProfile(
        household_id="h1",
        categories=(MealCategory("lunch", 12.5, 0.5, 30.0, 6.0, 0.0),),
        days=days,
        noise_events_per_day=rate,
        seed=days + 3,
    )
    events = generate_trace(profile)
    offsets, rooms = reference_noise(profile)
    assert days == 0 or len(offsets) > 0
    assert np.array_equal(events.seconds - epoch_seconds(BASE_DATE), offsets)
    assert events.decoded(events.location) == rooms


def test_one_category_daily_recovers_planted_count():
    profile = one_category_profile(days=30)
    events, planted = generate_with_truth(profile)
    assert len(planted) == 30
    meals = filter_meal_locations(events)
    episodes = segment_episodes(meals)
    assert len(episodes) == 30


def test_default_profile_expected_count():
    profile = default_profile(days=365, seed=7)
    _, planted = generate_with_truth(profile)
    expected = 365 * (0.95 + 1.0 + 0.6 + 1.0)
    assert abs(len(planted) - expected) / expected < 0.10


def test_trace_is_time_sorted_and_binary():
    events = generate_trace(default_profile(days=10, seed=3))
    for a, b in zip(events, events[1:]):
        assert a.timestamp <= b.timestamp
    assert all(e.value in (0, 1) for e in events)


def test_determinism_byte_identical():
    profile = default_profile(days=20, seed=99)
    a = events_to_csv(generate_trace(profile))
    b = events_to_csv(generate_trace(profile))
    assert a == b


def test_different_seeds_differ():
    a = events_to_csv(generate_trace(default_profile(days=20, seed=1)))
    b = events_to_csv(generate_trace(default_profile(days=20, seed=2)))
    assert a != b


def test_planted_truth_values_sane():
    _, planted = generate_with_truth(default_profile(days=60, seed=5))
    for p in planted:
        assert p.duration_min > 0
        hour = p.start.hour + p.start.minute / 60.0
        assert 0 <= hour < 24


def test_trace_round_trips_through_parser():
    events = generate_trace(default_profile(days=5, seed=11))
    reparsed, rejections = parse_events(events_to_csv(events))
    assert not rejections
    assert reparsed == events


def test_invalid_profile_rejected():
    with pytest.raises(ValueError):
        HouseholdProfile(household_id="h", categories=(), days=3).validate()
    bad_cat = MealCategory("x", 8.0, 0.5, 10.0, 4.0, 1.0)  # mean - 3*sd <= 0
    with pytest.raises(ValueError):
        HouseholdProfile(household_id="h", categories=(bad_cat,), days=3).validate()


def test_planted_csv_has_header():
    _, planted = generate_with_truth(one_category_profile(days=3))
    lines = planted_to_csv(planted).splitlines()
    assert lines[0] == "day,category,start,duration_min"
    assert len(lines) == 4


def test_profile_format_round_trip():
    profile = default_profile(days=42, seed=17)
    assert parse_profile(format_profile(profile)) == profile


def test_profile_parse_errors_name_the_field():
    with pytest.raises(ValueError, match="days"):
        parse_profile("household_id = h\ndays = soon\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_profile("household_id = h\ndays = 3\nwibble = 1\n")
    with pytest.raises(ValueError, match="duration_sd_min"):
        parse_profile(
            "household_id = h\ndays = 3\n"
            "category = lunch\nstart_hour_mean = 12\nstart_hour_sd = 0.5\n"
            "duration_mean_min = 30\ndaily_probability = 1\n"
        )
    # non-finite numbers and a negative seed fail here, not inside numpy
    base = format_profile(default_profile(days=3))
    for key, value in [("start_hour_sd", "nan"), ("duration_mean_min", "inf"), ("duration_sd_min", "-inf"),
                       ("events_per_minute", "inf"), ("noise_events_per_day", "inf"),
                       ("noise_events_per_day", "nan"), ("seed", "-1")]:
        with pytest.raises(ValueError, match=f"{key} must be"):
            parse_profile(re.sub(rf"^{key} = .*$", f"{key} = {value}", base, count=1, flags=re.M))
