"""Synthetic household sensor traces with planted meal structure.

Stand-in for private real-home data: each day, each meal category fires
with its daily probability, drawing a start hour and a duration from
truncated normals, then laying down kitchen sensor events at a fixed
rate across the episode (endpoints included). Spurious noise events land
in non-meal locations. Generation uses numpy's seeded PCG64 generator,
so identical profiles produce byte-identical traces.

The planted episode list is returned alongside the events so tests can
compare recovered clusters against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from mealclust.events import EventTable, TIMESTAMP_FORMAT, csv_text, epoch_seconds

BASE_DATE = datetime(2024, 1, 1)
NOISE_LOCATIONS = ("bedroom", "bathroom", "living_room")
TRUTH_CSV_COLUMNS = ("day", "category", "start", "duration_min")


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
        if self.noise_events_per_day < 0:
            raise ValueError("noise_events_per_day must be non-negative")
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

    # Codes into `names`: household 0, kind 1 ("motion"), and for room r
    # (0 the kitchen, then NOISE_LOCATIONS) location 2r + 2 and sensor
    # 2r + 3. Meals come before noise, so the stable sort keeps meals
    # first among events at the same second.
    names = [profile.household_id, "motion"]
    for room in ("kitchen", *NOISE_LOCATIONS):
        names += [room, f"{room}_pir"]
    n_meal = sum(map(len, meal_seconds))
    room = np.concatenate((np.zeros(n_meal, dtype=np.int64), rooms + 1))
    seconds = np.concatenate((*meal_seconds, epoch_seconds(BASE_DATE) + offsets_s))
    n = len(seconds)
    events = EventTable(seconds, np.zeros(n), 2 * room + 3, np.ones(n), 2 * room + 2, np.ones(n), names)
    return events.take(np.argsort(seconds, kind="stable")), planted


def generate_trace(profile: HouseholdProfile) -> EventTable:
    """Generate a sensor trace (ground truth discarded)."""
    events, _ = generate_with_truth(profile)
    return events


def planted_to_csv(planted: list[PlantedEpisode]) -> str:
    return csv_text(
        TRUTH_CSV_COLUMNS,
        ([p.day, p.category, p.start.strftime(TIMESTAMP_FORMAT), repr(p.duration_min)] for p in planted),
    )


# ---------------------------------------------------------------------------
# Profile file format: one `key = value` per line; blank lines and
# `#` comments ignored. Each `category = NAME` line opens a new category
# block whose subsequent keys belong to that category.
# ---------------------------------------------------------------------------

_PROFILE_KEYS = {"household_id": str, "days": int, "noise_events_per_day": float, "seed": int}
_CATEGORY_KEYS = {
    "start_hour_mean": float,
    "start_hour_sd": float,
    "duration_mean_min": float,
    "duration_sd_min": float,
    "daily_probability": float,
    "events_per_minute": float,
}


def parse_profile(text: str) -> HouseholdProfile:
    """Parse the flat key-value profile format; errors name the field."""
    top: dict = {}
    categories: list[dict] = []
    current: dict | None = None
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
            current = {"name": value}
            categories.append(current)
        elif key in _CATEGORY_KEYS:
            if current is None:
                raise ValueError(f"line {line_no}: {key} outside a category block")
            try:
                current[key] = _CATEGORY_KEYS[key](value)
            except ValueError:
                raise ValueError(f"line {line_no}: bad value for {key}: {value!r}") from None
        elif key in _PROFILE_KEYS:
            try:
                top[key] = _PROFILE_KEYS[key](value)
            except ValueError:
                raise ValueError(f"line {line_no}: bad value for {key}: {value!r}") from None
        else:
            raise ValueError(f"line {line_no}: unknown key: {key}")

    for required in ("household_id", "days"):
        if required not in top:
            raise ValueError(f"missing required profile key: {required}")
    if not categories:
        raise ValueError("profile defines no categories")
    cats = []
    for cat in categories:
        missing = set(_CATEGORY_KEYS) - {"events_per_minute"} - set(cat)
        if missing:
            raise ValueError(f"category {cat['name']}: missing key: {sorted(missing)[0]}")
        cats.append(MealCategory(**cat))
    profile = HouseholdProfile(
        household_id=top["household_id"],
        categories=tuple(cats),
        days=top["days"],
        noise_events_per_day=top.get("noise_events_per_day", 0.0),
        seed=top.get("seed", 0),
    )
    profile.validate()
    return profile


def load_profile(path) -> HouseholdProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())


def format_profile(profile: HouseholdProfile) -> str:
    lines = [
        f"household_id = {profile.household_id}",
        f"days = {profile.days}",
        f"noise_events_per_day = {profile.noise_events_per_day}",
        f"seed = {profile.seed}",
    ]
    for cat in profile.categories:
        lines.append("")
        lines.append(f"category = {cat.name}")
        for key in _CATEGORY_KEYS:
            lines.append(f"{key} = {getattr(cat, key)}")
    return "\n".join(lines) + "\n"
