"""Synthetic household sensor traces with planted meal structure.

Stand-in for private real-home data: each day, each meal category fires
with its daily probability, drawing a start hour and a duration from
truncated normals, then laying down kitchen sensor events at a fixed
rate across the episode (endpoints included). Spurious noise events land
in non-meal locations. Generation uses numpy's seeded PCG64 generator,
so identical profiles produce byte-identical traces.

The planted episode list is returned alongside the events so tests can
compare recovered clusters against ground truth. The events' table is
built once, each column in time order at its final dtype, so generating
a trace holds little more than the table itself.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timedelta

import numpy as np

from mealclust.events import EventTable, epoch_seconds, field_types

BASE_DATE = datetime(2024, 1, 1)
NOISE_LOCATIONS = ("bedroom", "bathroom", "living_room")


@dataclass(frozen=True)
class MealCategory:
    name: str
    start_hour_mean: float
    start_hour_sd: float
    duration_mean_min: float
    duration_sd_min: float
    daily_probability: float
    events_per_minute: float = 1.0

    def validate(self) -> None:
        for field in fields(self)[1:]:
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"category {self.name}: {field.name} must be finite")
        if not 0 <= self.start_hour_mean < 24:
            raise ValueError(f"category {self.name}: start_hour_mean must be in [0, 24)")
        if self.start_hour_sd <= 0:
            raise ValueError(f"category {self.name}: start_hour_sd must be positive")
        if self.duration_mean_min <= 0 or self.duration_sd_min <= 0:
            raise ValueError(f"category {self.name}: duration parameters must be positive")
        if self.duration_mean_min - 3 * self.duration_sd_min <= 0:
            raise ValueError(
                f"category {self.name}: duration_mean_min - 3*duration_sd_min must stay positive"
            )
        if not 0 <= self.daily_probability <= 1:
            raise ValueError(f"category {self.name}: daily_probability must be in [0, 1]")
        if self.events_per_minute <= 0:
            raise ValueError(f"category {self.name}: events_per_minute must be positive")


@dataclass(frozen=True)
class HouseholdProfile:
    household_id: str
    categories: tuple[MealCategory, ...]
    days: int
    noise_events_per_day: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if not self.household_id:
            raise ValueError("household_id must be non-empty")
        if not self.categories:
            raise ValueError("categories must be non-empty")
        if self.days < 0:
            raise ValueError("days must be non-negative")
        if not 0 <= self.noise_events_per_day < math.inf:
            raise ValueError("noise_events_per_day must be finite and non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for cat in self.categories:
            cat.validate()


@dataclass(frozen=True)
class PlantedEpisode:
    day: int
    category: str
    start: datetime
    duration_min: float


# Desk-scale 4-category fixture: breakfast / lunch / snack / dinner with
# start-hour sd 0.5 h and duration sd at 20% of the mean.
DEFAULT_CATEGORIES = (
    MealCategory("breakfast", 8.0, 0.5, 15.0, 3.0, 0.95),
    MealCategory("lunch", 12.5, 0.5, 30.0, 6.0, 1.0),
    MealCategory("snack", 16.5, 0.5, 8.0, 1.6, 0.6),
    MealCategory("dinner", 19.5, 0.5, 35.0, 7.0, 1.0),
)


def default_profile(household_id: str = "house-1", days: int = 365, seed: int = 12345) -> HouseholdProfile:
    return HouseholdProfile(
        household_id=household_id,
        categories=DEFAULT_CATEGORIES,
        days=days,
        noise_events_per_day=30.0,
        seed=seed,
    )


def _truncated_normal(rng: np.random.Generator, mean: float, sd: float, low: float, high: float) -> float:
    for _ in range(1000):
        x = float(rng.normal(mean, sd))
        if low < x < high:
            return x
    raise RuntimeError("truncated normal failed to land inside bounds")


def generate_with_truth(profile: HouseholdProfile) -> tuple[EventTable, list[PlantedEpisode]]:
    """Generate a sensor trace plus its planted ground-truth episodes."""
    profile.validate()
    rng = np.random.default_rng(profile.seed)
    meal_seconds: list[np.ndarray] = []
    planted: list[PlantedEpisode] = []

    for day in range(profile.days):
        day_start = BASE_DATE + timedelta(days=day)
        for cat in profile.categories:
            if rng.random() >= cat.daily_probability:
                continue
            start_hour = _truncated_normal(rng, cat.start_hour_mean, cat.start_hour_sd, 0.0, 24.0)
            duration = _truncated_normal(
                rng,
                cat.duration_mean_min,
                cat.duration_sd_min,
                max(0.0, cat.duration_mean_min - 3 * cat.duration_sd_min),
                cat.duration_mean_min + 3 * cat.duration_sd_min,
            )
            start = day_start + timedelta(seconds=round(start_hour * 3600))
            planted.append(PlantedEpisode(day=day, category=cat.name, start=start, duration_min=duration))
            # evenly spaced activations across the episode, endpoints included,
            # rounded to whole seconds half to even, as round() does
            step_min = 1.0 / cat.events_per_minute
            offsets_min = np.append(np.arange(0.0, duration, step_min), duration)
            meal_seconds.append(epoch_seconds(start) + np.rint(offsets_min * 60).astype(np.int64))

    # One draw of (offset, room) pairs: numpy takes each element through
    # the same bounded generator, in the same order, as a scalar call would.
    n_noise = int(rng.poisson(profile.noise_events_per_day * profile.days))
    highs = np.tile([profile.days * 86400, len(NOISE_LOCATIONS)], n_noise)
    offsets_s, rooms = rng.integers(0, highs).reshape(-1, 2).T
    del highs

    # Codes into `names`: household 0, kind 1 ("motion"), and for room r
    # (0 the kitchen, then NOISE_LOCATIONS) location 2r + 2 and sensor
    # 2r + 3. Meals come before noise, so the stable sort keeps meals
    # first among events at the same second. The per-meal arrays and the
    # noise draw are released before the sort, and each column is built
    # once, in time order, at its table dtype.
    names = [profile.household_id, "motion"]
    for room in ("kitchen", *NOISE_LOCATIONS):
        names += [room, f"{room}_pir"]
    n_meal = sum(map(len, meal_seconds))
    n = n_meal + n_noise
    seconds = np.empty(n, dtype=np.int64)
    if meal_seconds:
        np.concatenate(meal_seconds, out=seconds[:n_meal])
    del meal_seconds
    seconds[n_meal:] = epoch_seconds(BASE_DATE) + offsets_s
    location = np.full(n, 2, dtype=np.int32)
    location[n_meal:] = 2 * (rooms + 1) + 2
    del offsets_s, rooms
    order = np.argsort(seconds, kind="stable")
    seconds.sort()  # the values of seconds[order], with no copy
    location = location[order]
    del order
    household, kind, value = np.zeros(n, dtype=np.int32), np.ones(n, dtype=np.int32), np.ones(n, dtype=np.int8)
    return EventTable(seconds, household, location + 1, kind, location, value, names=names), planted


def generate_trace(profile: HouseholdProfile) -> EventTable:
    """Generate a sensor trace (ground truth discarded)."""
    events, _ = generate_with_truth(profile)
    return events


# ---------------------------------------------------------------------------
# Profile file format: one `key = value` per line; blank lines and
# `#` comments ignored. Each `category = NAME` line opens a new category
# block whose subsequent keys belong to that category. The keys are the
# fields of HouseholdProfile but its categories and of MealCategory but
# its name, each read by its declared type; a field with a default may be
# left out.
# ---------------------------------------------------------------------------


def _keys(record_type: type, stated_apart: str) -> dict[str, type]:
    """The profile keys of `record_type`, each with its type: every field
    but `stated_apart`, which the format states in another way."""
    return {key: kind for key, kind in field_types(record_type).items() if key != stated_apart}


def _first_missing(record_type: type, given) -> str | None:
    """The first field of `record_type` with no default that is not among
    the names `given`."""
    return next((f.name for f in fields(record_type) if f.default is MISSING and f.name not in given), None)


def parse_profile(text: str) -> HouseholdProfile:
    """Parse the flat key-value profile format; errors name the field."""
    profile_keys, category_keys = _keys(HouseholdProfile, "categories"), _keys(MealCategory, "name")
    top: dict = {}
    categories: list[dict] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "category":
            categories.append({"name": value})
            continue
        if key in category_keys:
            if not categories:
                raise ValueError(f"line {line_no}: {key} outside a category block")
            block, kind = categories[-1], category_keys[key]
        elif key in profile_keys:
            block, kind = top, profile_keys[key]
        else:
            raise ValueError(f"line {line_no}: unknown key: {key}")
        try:
            block[key] = kind(value)
        except ValueError:
            raise ValueError(f"line {line_no}: bad value for {key}: {value!r}") from None

    if missing := _first_missing(HouseholdProfile, {*top, "categories"}):
        raise ValueError(f"missing required profile key: {missing}")
    if not categories:
        raise ValueError("profile defines no categories")
    for cat in categories:
        if missing := _first_missing(MealCategory, cat):
            raise ValueError(f"category {cat['name']}: missing key: {missing}")
    profile = HouseholdProfile(categories=tuple(MealCategory(**cat) for cat in categories), **top)
    profile.validate()
    return profile


def load_profile(path) -> HouseholdProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())


def _value_text(record, key: str, kind: type) -> str:
    """The text of field `key` of `record`, of declared type `kind`, in a
    profile. A value that would read back as another is a ValueError
    naming the field: a `#` opens a comment, a line break ends the line,
    whitespace at either end is stripped, and the text is read as `kind`."""
    value = getattr(record, key)
    text = f"{value}"
    try:
        same = kind(text) == value
    except ValueError:
        same = False
    if not same or "#" in text or text != text.strip() or len(text.splitlines()) > 1:
        raise ValueError(f"{type(record).__name__}.{key} = {value!r} cannot be written to a profile: "
                         f"it would not read back as the same {kind.__name__}")
    return text


def format_profile(profile: HouseholdProfile) -> str:
    """The profile text that `parse_profile` reads back as `profile`;
    raises ValueError for an invalid profile or a value the format cannot
    hold (see `_value_text`)."""
    profile.validate()
    profile_keys, category_keys = _keys(HouseholdProfile, "categories"), _keys(MealCategory, "name")
    lines = [f"{key} = {_value_text(profile, key, kind)}" for key, kind in profile_keys.items()]
    for cat in profile.categories:
        lines += ["", f"category = {_value_text(cat, 'name', str)}"]
        lines += [f"{key} = {_value_text(cat, key, kind)}" for key, kind in category_keys.items()]
    return "\n".join(lines) + "\n"
