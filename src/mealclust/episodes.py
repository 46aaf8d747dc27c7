"""Gap-based segmentation of meal-location events into activity episodes.

Consecutive events separated by less than the gap threshold form one
episode; an episode's duration is last event minus first event. Episodes
shorter than the minimum duration or with too few events (single-sensor
blips) are discarded. The split runs on the whole timestamp column at
once and returns the kept episodes as an `EpisodeTable` of columns,
which builds an `ActivityEpisode` only where one is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

import numpy as np

from mealclust.events import EventTable, RecordTable, SensorEvent

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


class EpisodeTable(RecordTable):
    """Activity episodes as columns, in a fixed order.

    `household` holds int32 codes into `names`; `start` and `end` hold
    int64 epoch microseconds, so any episode's datetimes are held exactly;
    `duration_min` and `start_hour` hold float64 and `event_count` int64.
    """

    record_type = ActivityEpisode
    _columns = {"household": np.int32, "start": np.int64, "end": np.int64, "duration_min": np.float64,
                "start_hour": np.float64, "event_count": np.int64}
    _unit = "us"


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
) -> EpisodeTable:
    """Group a time-ordered event stream into activity episodes.

    Events whose inter-event gap is strictly below `gap_threshold_min`
    belong to the same episode. Input must already be filtered to a
    single household's meal locations and sorted ascending by timestamp.
    A list of `SensorEvent`s is read as an `EventTable`.
    """
    check_thresholds(gap_threshold_min, min_duration_min, min_events)
    table = EventTable.from_records(events)
    if not len(table):
        return EpisodeTable.from_records([])
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
    return EpisodeTable(table.household[firsts], seconds[firsts] * 10**6, seconds[lasts] * 10**6,
                        duration_min[keep], start_hour, event_count[keep], names=table.names)
