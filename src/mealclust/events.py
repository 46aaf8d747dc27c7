"""Parsing and filtering of raw binary sensor event logs.

Input schema (CSV with header):
    timestamp,household_id,sensor_id,sensor_kind,location,value

Timestamps are naive local ISO-8601 (``YYYY-MM-DDTHH:MM:SS``); values are
strictly binary. Malformed rows are collected into a rejection report
rather than silently dropped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, TextIO

REQUIRED_COLUMNS = ("timestamp", "household_id", "sensor_id", "sensor_kind", "location", "value")
SENSOR_KINDS = frozenset({"motion", "contact"})
DEFAULT_MEAL_LOCATIONS = frozenset({"kitchen", "dining_room"})

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"
MIN_YEAR = 2000
MAX_YEAR = 2100


class SchemaError(ValueError):
    """The CSV header does not match the expected event schema."""


@dataclass(frozen=True)
class SensorEvent:
    timestamp: datetime
    household_id: str
    sensor_id: str
    sensor_kind: str
    location: str
    value: int


@dataclass(frozen=True)
class Rejection:
    """One rejected input row: 1-based line number plus reason."""

    line: int
    reason: str


def parse_timestamp(text: str) -> datetime:
    """Parse a strict ISO-8601 local timestamp, enforcing sanity bounds."""
    ts = datetime.strptime(text, TIMESTAMP_FORMAT)
    if not (MIN_YEAR <= ts.year <= MAX_YEAR):
        raise ValueError(f"timestamp year {ts.year} outside [{MIN_YEAR}, {MAX_YEAR}]")
    return ts


def parse_events(stream: TextIO | str) -> tuple[list[SensorEvent], list[Rejection]]:
    """Parse a sensor-log CSV into time-ordered events plus a rejection report.

    Returns events sorted ascending by timestamp (stable, so equal
    timestamps keep input order). Every data row lands either in the
    event list or in the rejection report.

    Raises SchemaError if the header is missing a required column or
    carries an unknown one.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty input: missing header row") from None
    header = [h.strip() for h in header]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise SchemaError(f"missing required column: {col}")
    for col in header:
        if col not in REQUIRED_COLUMNS:
            raise SchemaError(f"unknown column: {col}")
    idx = {col: header.index(col) for col in REQUIRED_COLUMNS}

    events: list[SensorEvent] = []
    rejections: list[Rejection] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            rejections.append(Rejection(line_no, f"expected {len(header)} fields, got {len(row)}"))
            continue
        try:
            timestamp = parse_timestamp(row[idx["timestamp"]].strip())
        except ValueError as exc:
            rejections.append(Rejection(line_no, f"bad timestamp: {exc}"))
            continue
        kind = row[idx["sensor_kind"]].strip()
        if kind not in SENSOR_KINDS:
            rejections.append(Rejection(line_no, f"unknown sensor_kind: {kind!r}"))
            continue
        raw_value = row[idx["value"]].strip()
        if raw_value not in ("0", "1"):
            rejections.append(Rejection(line_no, f"non-binary value: {raw_value!r}"))
            continue
        location = row[idx["location"]].strip()
        if not location:
            rejections.append(Rejection(line_no, "empty location"))
            continue
        events.append(
            SensorEvent(
                timestamp=timestamp,
                household_id=row[idx["household_id"]].strip(),
                sensor_id=row[idx["sensor_id"]].strip(),
                sensor_kind=kind,
                location=location,
                value=int(raw_value),
            )
        )
    events.sort(key=lambda e: e.timestamp)
    return events, rejections


def filter_meal_locations(
    events: Iterable[SensorEvent],
    locations: frozenset[str] | set[str] = DEFAULT_MEAL_LOCATIONS,
) -> list[SensorEvent]:
    """Keep only events whose location is in `locations`, order preserved."""
    if not locations:
        raise ValueError("locations set must be non-empty")
    return [e for e in events if e.location in locations]


def group_by_household(events: Iterable[SensorEvent]) -> dict[str, list[SensorEvent]]:
    """Split an event stream into per-household streams, order preserved."""
    groups: dict[str, list[SensorEvent]] = {}
    for e in events:
        groups.setdefault(e.household_id, []).append(e)
    return groups


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """CSV text: the header line, then one line per row, each ending in
    a bare newline. Every artifact CSV of the package is written here."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def events_to_csv(events: Iterable[SensorEvent]) -> str:
    """Serialize events back into the input CSV schema."""
    return csv_text(
        REQUIRED_COLUMNS,
        (
            [
                e.timestamp.strftime(TIMESTAMP_FORMAT),
                e.household_id,
                e.sensor_id,
                e.sensor_kind,
                e.location,
                e.value,
            ]
            for e in events
        ),
    )


def rejections_to_csv(rejections: Iterable[Rejection]) -> str:
    return csv_text(["line", "reason"], ([r.line, r.reason] for r in rejections))
