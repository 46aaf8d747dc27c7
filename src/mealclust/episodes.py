"""Gap-based segmentation of meal-location events into activity episodes.

Consecutive events separated by less than the gap threshold form one
episode; an episode's duration is last event minus first event. Episodes
shorter than the minimum duration or with too few events (single-sensor
blips) are discarded. The split runs on the whole timestamp column at
once; `ActivityEpisode`s are built only for the kept episodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

import numpy as np

from mealclust.events import EventTable, SensorEvent, datetimes

DEFAULT_GAP_THRESHOLD_MIN = 10.0
DEFAULT_MIN_DURATION_MIN = 1.0
DEFAULT_MIN_EVENTS = 2


@dataclass(frozen=True)
class ActivityEpisode:
    household_id: str
    start: datetime
    end: datetime
    duration_min: float
    start_hour: float
    event_count: int


def check_thresholds(gap_threshold_min: float, min_duration_min: float, min_events: int) -> None:
    """Raise ValueError unless the segmentation thresholds are usable."""
    if not 0 < gap_threshold_min < math.inf:
        raise ValueError("gap_threshold_min must be finite and positive")
    if not 0 <= min_duration_min < math.inf:
        raise ValueError("min_duration_min must be finite and non-negative")
    if min_events < 1:
        raise ValueError("min_events must be at least 1")


def segment_episodes(
    events: Sequence[SensorEvent],
    gap_threshold_min: float = DEFAULT_GAP_THRESHOLD_MIN,
    min_duration_min: float = DEFAULT_MIN_DURATION_MIN,
    min_events: int = DEFAULT_MIN_EVENTS,
) -> list[ActivityEpisode]:
    """Group a time-ordered event stream into activity episodes.

    Events whose inter-event gap is strictly below `gap_threshold_min`
    belong to the same episode. Input must already be filtered to a
    single household's meal locations and sorted ascending by timestamp.
    A list of `SensorEvent`s is read as an `EventTable`.
    """
    check_thresholds(gap_threshold_min, min_duration_min, min_events)
    table = EventTable.from_events(events)
    if not len(table):
        return []
    seconds = table.seconds
    steps = np.diff(seconds)
    if (steps < 0).any():
        raise ValueError("events must be sorted ascending by timestamp")

    cuts = np.flatnonzero(steps / 60.0 >= gap_threshold_min) + 1
    firsts = np.concatenate(([0], cuts))
    lasts = np.concatenate((cuts, [len(seconds)])) - 1
    duration_min = (seconds[lasts] - seconds[firsts]) / 60.0
    event_count = lasts - firsts + 1
    keep = ~(duration_min < min_duration_min) & (event_count >= min_events)
    firsts, lasts = firsts[keep], lasts[keep]

    time_of_day = seconds[firsts] % 86400
    hour, minute, second = time_of_day // 3600, time_of_day // 60 % 60, time_of_day % 60
    start_hour = hour + minute / 60.0 + second / 3600.0
    return [
        ActivityEpisode(*row)
        for row in zip(
            table.decoded(table.household[firsts]),
            datetimes(seconds[firsts]),
            datetimes(seconds[lasts]),
            duration_min[keep].tolist(),
            start_hour.tolist(),
            event_count[keep].tolist(),
        )
    ]

