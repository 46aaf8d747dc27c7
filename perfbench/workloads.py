"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the benchmark seed and the size. The
meal events, which set the clustering work, are fixed per workload: the
bundled default profile for ``household_year``, twelve fixed profiles for
``fleet_ingest`` and the first criterion-6 profiles for
``model_selection``. EM's iteration count moves by a third from one
trace to the next, so seed-dependent meals would bury a change to the
code under a change of input. The seed sets what the pipeline filters out
or rejects: the noise events in non-meal rooms, the malformed rows and
their kinds, and the calendar start (a whole-day move, which keeps every
start hour, duration and gap).

The generator also derives what a correct run must report, so the checks
do not depend on the outputs they judge:

* the episodes a gap-based segmentation must find, computed here with a
  vectorised split of the meal-location timestamps at the CLI's default
  gap, duration and event-count thresholds;
* for ``fleet_ingest``, the exact line number and rejection reason of
  every malformed row injected into the CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from mealclust import synth

DEFAULT_SEED = 0

# CLI defaults the expected episodes are derived under (mealclust.episodes
# and mealclust.events); the benchmark always runs with these defaults.
MEAL_LOCATIONS = frozenset({"kitchen", "dining_room"})
GAP_S = 600
MIN_DURATION_S = 60
MIN_EVENTS = 2

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"
HEADER = "timestamp,household_id,sensor_id,sensor_kind,location,value"
_EPOCH = datetime(2000, 1, 1)


@dataclass(frozen=True)
class Size:
    year_days: int
    fleet_households: int
    fleet_days: int
    fleet_noise_per_day: float
    study_seeds: int
    study_days: int


FULL = Size(year_days=365, fleet_households=12, fleet_days=60, fleet_noise_per_day=250.0,
            study_seeds=6, study_days=365)
# One short household per CSV workload path and one study seed: enough
# episodes (> 10) for the default k/g ranges, small enough for seconds.
SMOKE = Size(year_days=21, fleet_households=2, fleet_days=21, fleet_noise_per_day=40.0,
             study_seeds=1, study_days=21)
SIZES = {"full": FULL, "smoke": SMOKE}

BAD_ROW_SHARE = 0.03


@dataclass(frozen=True)
class Episode:
    start: str
    end: str
    event_count: int


@dataclass
class CsvInput:
    """A sensor-log CSV on disk plus what a correct run reports for it."""

    path: Path
    rows: int
    episodes: dict[str, list[Episode]]  # household id -> expected episodes
    rejections: list[tuple[int, str]]  # (1-based line, reason), ascending


@dataclass
class StudyInput:
    """Profiles of a planted-k study plus the episode count each must yield."""

    seeds: list[int]
    days: int
    episode_counts: dict[int, int]


def _seconds(ts: datetime) -> int:
    return (ts - _EPOCH) // timedelta(seconds=1)


def expected_episodes(events) -> list[Episode]:
    """Episodes of one household's time-ordered events under the defaults."""
    meal = [e.timestamp for e in events if e.location in MEAL_LOCATIONS]
    if not meal:
        return []
    secs = np.array([_seconds(ts) for ts in meal], dtype=np.int64)
    cuts = np.flatnonzero(np.diff(secs) >= GAP_S) + 1
    firsts = np.concatenate(([0], cuts))
    lasts = np.concatenate((cuts, [len(secs)])) - 1
    out = []
    for a, b in zip(firsts.tolist(), lasts.tolist()):
        if secs[b] - secs[a] >= MIN_DURATION_S and b - a + 1 >= MIN_EVENTS:
            out.append(Episode(meal[a].strftime(TIMESTAMP_FORMAT), meal[b].strftime(TIMESTAMP_FORMAT), b - a + 1))
    return out


def _row(e) -> str:
    return f"{e.timestamp.strftime(TIMESTAMP_FORMAT)},{e.household_id},{e.sensor_id},{e.sensor_kind},{e.location},{e.value}"


def _corrupt(row: str, kind: int) -> tuple[str, str]:
    """One malformed copy of a valid row and the reason the parser gives.

    Each variant breaks exactly one field, so the first check the parser
    applies that fails is the intended one.
    """
    ts, hh, sensor, skind, loc, value = row.split(",")
    if kind == 0:
        return ",".join([ts, hh, skind, loc, value]), "expected 6 fields, got 5"
    if kind == 1:
        return row + ",extra", "expected 6 fields, got 7"
    if kind == 2:
        bad = ts.replace("T", " ")
        return ",".join([bad, hh, sensor, skind, loc, value]), (
            f"bad timestamp: time data {bad!r} does not match format {TIMESTAMP_FORMAT!r}"
        )
    if kind == 3:
        bad = "1996" + ts[4:]  # a leap year, so every generated month-day stays a valid date
        return ",".join([bad, hh, sensor, skind, loc, value]), "bad timestamp: timestamp year 1996 outside [2000, 2100]"
    if kind == 4:
        return ",".join([ts, hh, sensor, "pressure", loc, value]), "unknown sensor_kind: 'pressure'"
    if kind == 5:
        return ",".join([ts, hh, sensor, skind, loc, "2"]), "non-binary value: '2'"
    return ",".join([ts, hh, sensor, skind, "", value]), "empty location"


N_CORRUPTIONS = 7


def _meal_rows(profile, shift_days: int):
    """Meal-location rows of a profile, moved by whole days, plus the
    episodes a correct run finds in them.

    The profile is generated without noise; synth draws noise after all
    meals, so the meal events are those of the same profile with noise.
    A whole-day move keeps every start hour, duration and gap.
    """
    meals = synth.generate_trace(replace(profile, noise_events_per_day=0.0))
    shift = timedelta(days=shift_days)
    meals = [replace(e, timestamp=e.timestamp + shift) for e in meals]
    return [(_seconds(e.timestamp), _row(e)) for e in meals], expected_episodes(meals)


def _noise_rows(rng: np.random.Generator, household_id: str, days: int, per_day: float, shift_days: int):
    """Noise rows at uniform times in non-meal rooms, as synth lays them down."""
    n = round(per_day * days)
    offsets = rng.integers(0, max(days * 86400, 1), size=n)
    rooms = rng.integers(0, len(synth.NOISE_LOCATIONS), size=n)
    start = np.datetime64(synth.BASE_DATE + timedelta(days=shift_days), "s")
    stamps = np.datetime_as_string(start + offsets.astype("timedelta64[s]"), unit="s")
    base = _seconds(synth.BASE_DATE + timedelta(days=shift_days))
    return [
        (base + int(off), f"{ts},{household_id},{synth.NOISE_LOCATIONS[r]}_pir,motion,{synth.NOISE_LOCATIONS[r]},1")
        for off, r, ts in zip(offsets.tolist(), rooms.tolist(), stamps.tolist())
    ]


def household_year(seed: int, work_dir: Path, size: Size = FULL) -> CsvInput:
    """The bundled default profile's meals with seeded noise and start date, as a clean CSV."""
    rng = np.random.default_rng([seed, 1])
    shift = int(rng.integers(0, 1000))
    profile = synth.default_profile(days=size.year_days)
    meals, episodes = _meal_rows(profile, shift)
    rows = meals + _noise_rows(rng, profile.household_id, profile.days, profile.noise_events_per_day, shift)
    rows.sort(key=lambda r: r[0])
    path = work_dir / "household_year.csv"
    path.write_text("\n".join([HEADER] + [row for _, row in rows]) + "\n")
    return CsvInput(path=path, rows=len(rows), episodes={profile.household_id: episodes}, rejections=[])


def fleet_ingest(seed: int, work_dir: Path, size: Size = FULL) -> CsvInput:
    """Noisy households interleaved by timestamp, with malformed rows injected."""
    rng = np.random.default_rng([seed, 2])
    shift = int(rng.integers(0, 1000))
    episodes: dict[str, list[Episode]] = {}
    keyed = []
    for i in range(size.fleet_households):
        profile = synth.HouseholdProfile(
            household_id=f"hh-{i + 1:02d}",
            categories=synth.DEFAULT_CATEGORIES,
            days=size.fleet_days,
            seed=100_000 + i,
        )
        meals, episodes[profile.household_id] = _meal_rows(profile, shift)
        noise = _noise_rows(rng, profile.household_id, profile.days, size.fleet_noise_per_day, shift)
        keyed.extend((sec, i, row) for sec, row in meals + noise)
    keyed.sort(key=lambda r: r[:2])
    valid = [row for *_, row in keyed]
    del keyed

    n_bad = round(BAD_ROW_SHARE * len(valid))
    after = set(rng.choice(len(valid), size=n_bad, replace=False).tolist())
    kinds = rng.integers(0, N_CORRUPTIONS, size=len(valid))
    lines = [HEADER]
    rejections = []
    for j, row in enumerate(valid):
        lines.append(row)
        if j in after:
            bad, reason = _corrupt(row, int(kinds[j]))
            lines.append(bad)
            rejections.append((len(lines), reason))
    path = work_dir / "fleet_ingest.csv"
    path.write_text("\n".join(lines) + "\n")
    return CsvInput(path=path, rows=len(lines) - 1, episodes=episodes, rejections=rejections)


def model_selection(seed: int, size: Size = FULL) -> StudyInput:
    """The first criterion-6 study seeds. The profiles are the whole input
    of this workload and fix its meals, so they are the same at every
    benchmark seed."""
    seeds = list(range(size.study_seeds))
    counts = {
        s: len(expected_episodes(synth.generate_trace(synth.default_profile(days=size.study_days, seed=s))))
        for s in seeds
    }
    return StudyInput(seeds=seeds, days=size.study_days, episode_counts=counts)
