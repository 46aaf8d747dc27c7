import csv
import gc
import io
import os
import random
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealclust import events as events_mod
from mealclust.events import (
    DEFAULT_MEAL_LOCATIONS,
    REQUIRED_COLUMNS,
    SENSOR_KINDS,
    TIMESTAMP_FORMAT,
    EventTable,
    Rejection,
    SchemaError,
    SensorEvent,
    filter_meal_locations,
    household_codes,
    household_events,
    parse_events,
    parse_timestamp,
    records_from_csv,
    records_to_csv,
)
from mealclust.synth import default_profile, generate_trace
from test_cli import needs_fork, no_child_is_left, set_cpus

HEADER = "timestamp,household_id,sensor_id,sensor_kind,location,value\n"
QUOTED_HEADER = ",".join(f'"{c}"' for c in REQUIRED_COLUMNS) + "\n"


def reference_parse_events(stream):
    """The row-at-a-time parser: one `parse_timestamp` call and one
    `SensorEvent` per row. The columnar parser must equal it exactly."""
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
    for i, col in enumerate(header):
        if col in header[:i]:
            raise SchemaError(f"duplicate column: {col}")
    idx = {col: header.index(col) for col in REQUIRED_COLUMNS}

    events = []
    rejections = []
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


def assert_parses_like_reference(text):
    events, rejections = parse_events(text)
    expected_events, expected_rejections = reference_parse_events(text)
    assert isinstance(events, EventTable)
    assert events == expected_events
    assert list(events) == expected_events
    assert rejections == expected_rejections


def row(ts, hh="h1", sensor="s1", kind="motion", loc="kitchen", value="1"):
    return f"{ts},{hh},{sensor},{kind},{loc},{value}\n"


def test_empty_input_after_header():
    events, rejections = parse_events(HEADER)
    assert events == []
    assert rejections == []


def test_missing_header_column():
    with pytest.raises(SchemaError, match="value"):
        parse_events("timestamp,household_id,sensor_id,sensor_kind,location\n")


def test_unknown_header_column():
    with pytest.raises(SchemaError, match="extra"):
        parse_events(HEADER.rstrip() + ",extra\n")


@pytest.mark.parametrize("parse", [parse_events, reference_parse_events])
def test_duplicate_header_column(parse):
    text = HEADER.rstrip() + ",value\n" + row("2024-03-01T08:00:00").rstrip() + ",1\n"
    with pytest.raises(SchemaError, match="^duplicate column: value$"):
        parse(text)
    with pytest.raises(SchemaError, match="^duplicate column: location$"):
        parse("location," + HEADER.replace("location", " location "))


def test_a_header_record_that_runs_past_line_1_is_refused():
    # the row-at-a-time reference reads the quoted name on into line 2
    text = '"timestamp\n",household_id,sensor_id,sensor_kind,location,value\n' + row("2024-03-01T08:00:00")
    assert len(reference_parse_events(text)[0]) == 1
    for source in (text, text.encode(), io.BytesIO(text.replace("\n", "\r\n").encode())):
        with pytest.raises(SchemaError, match="^line 1: the header runs on past its line"):
            parse_events(source)
    # a quote within an unquoted name ends its record on line 1: the name is refused as before
    for parse in (parse_events, reference_parse_events):
        with pytest.raises(SchemaError, match='^unknown column: x"y$'):
            parse(HEADER.rstrip() + ',x"y\n' + row("2024-03-01T08:00:00"))


@needs_fork
def test_byte_order_mark_before_the_header_is_dropped(tmp_path, monkeypatch):
    text = HEADER + row("2024-03-01T08:00:00")
    expected = parse_events(text)
    assert len(expected[0]) == 1
    assert parse_events("\ufeff" + text) == expected
    quoted = '"timestamp","household_id",sensor_id,sensor_kind,location,value\n' + row("2024-03-01T08:00:00")
    assert parse_events("\ufeff" + quoted) == expected
    for empty in ("", "\ufeff"):
        with pytest.raises(SchemaError, match="empty input: missing header row"):
            parse_events(empty)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    with open(path, encoding="utf-8") as fh:
        assert parse_events(fh) == expected
    # a file of many blocks is cut into ranges under either header
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 64)
    rows = "".join(row(f"2024-03-01T08:{i:02d}:00", sensor=f"s{i}") for i in range(40))
    forks = count_forks(monkeypatch)
    for header in (HEADER, QUOTED_HEADER):
        path.write_bytes(b"\xef\xbb\xbf" + (header + rows).encode())
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            forks.clear()
            assert parse_file(path) == reference_parse_events(header + rows)
            assert len(forks) == cpus - 1
    no_child_is_left()


def test_out_of_order_rows_sorted():
    text = HEADER + row("2024-03-02T09:00:00") + row("2024-03-01T08:00:00")
    events, rejections = parse_events(text)
    assert not rejections
    assert [e.timestamp.day for e in events] == [1, 2]


def test_sort_is_stable_on_equal_timestamps():
    text = HEADER + row("2024-03-01T08:00:00", sensor="b") + row("2024-03-01T08:00:00", sensor="a")
    events, _ = parse_events(text)
    assert [e.sensor_id for e in events] == ["b", "a"]


def test_bad_rows_are_rejected_with_line_numbers():
    text = (
        HEADER
        + row("2024-03-01T08:00:00")
        + row("not-a-date")
        + row("2024-03-01T09:00:00", value="2")
        + row("2024-03-01T10:00:00", kind="laser")
        + row("1999-12-31T23:59:59")
        + row("2024-03-01T11:00:00")
    )
    events, rejections = parse_events(text)
    assert len(events) == 2
    assert [r.line for r in rejections] == [3, 4, 5, 6]
    assert "timestamp" in rejections[0].reason
    assert "value" in rejections[1].reason
    assert "sensor_kind" in rejections[2].reason


def test_large_fixture_with_known_corruption():
    # 1000 rows, rows at these (1-based file) lines corrupted
    corrupted_lines = {101, 502, 903}
    lines = [HEADER.rstrip()]
    for i in range(1000):
        line_no = i + 2
        minute = i % 60
        hour = (i // 60) % 24
        day = 1 + i // 1440
        ts = f"2024-03-{day:02d}T{hour:02d}:{minute:02d}:00"
        if line_no in corrupted_lines:
            lines.append(row(ts, value="7").rstrip())
        else:
            lines.append(row(ts).rstrip())
    events, rejections = parse_events("\n".join(lines) + "\n")
    assert len(events) == 997
    assert sorted(r.line for r in rejections) == sorted(corrupted_lines)


def test_conservation_of_rows():
    rng = random.Random(4)
    lines = [HEADER.rstrip()]
    n_rows = 200
    for i in range(n_rows):
        value = rng.choice(["0", "1", "x"])
        lines.append(row(f"2024-05-01T{i % 24:02d}:00:00", value=value).rstrip())
    events, rejections = parse_events("\n".join(lines) + "\n")
    assert len(events) + len(rejections) == n_rows


def test_parse_is_deterministic():
    text = HEADER + row("2024-03-01T08:00:00") + row("bad-row")
    assert parse_events(text) == parse_events(text)


def test_filter_disjoint_locations():
    events, _ = parse_events(HEADER + row("2024-03-01T08:00:00", loc="bedroom"))
    assert filter_meal_locations(events, {"kitchen"}) == []


def test_filter_identity_with_all_locations():
    text = HEADER + row("2024-03-01T08:00:00", loc="kitchen") + row("2024-03-01T09:00:00", loc="bedroom")
    events, _ = parse_events(text)
    assert filter_meal_locations(events, {"kitchen", "bedroom"}) == events


def test_filter_empty_locations_rejected():
    with pytest.raises(ValueError, match="locations set must be non-empty"):
        filter_meal_locations([], set())


def test_filter_mixed_fixture_counts():
    lines = [HEADER.rstrip()]
    for i in range(600):
        lines.append(row(f"2024-04-01T{i % 24:02d}:{i % 60:02d}:00", loc="kitchen").rstrip())
    for i in range(400):
        lines.append(row(f"2024-04-02T{i % 24:02d}:{i % 60:02d}:00", loc="bedroom").rstrip())
    events, _ = parse_events("\n".join(lines) + "\n")
    kept = filter_meal_locations(events, {"kitchen"})
    assert len(kept) == 600
    assert all(e.location == "kitchen" for e in kept)
    # original relative order preserved
    originals = [e for e in events if e.location == "kitchen"]
    assert kept == originals


def test_filter_union_property():
    rng = random.Random(11)
    lines = [HEADER.rstrip()]
    locs = ["kitchen", "dining_room", "bedroom"]
    for i in range(120):
        lines.append(row(f"2024-04-01T{i % 24:02d}:{i % 60:02d}:00", loc=rng.choice(locs)).rstrip())
    events, _ = parse_events("\n".join(lines) + "\n")
    union = filter_meal_locations(events, {"kitchen", "dining_room"})
    merged = [e for e in events if e in set(filter_meal_locations(events, {"kitchen"}))
              or e in set(filter_meal_locations(events, {"dining_room"}))]
    assert union == merged


def test_csv_round_trip():
    text = HEADER + row("2024-03-01T08:00:00") + row("2024-03-01T09:30:12", loc="dining_room", value="0")
    events, _ = parse_events(text)
    reparsed, rejections = parse_events(records_to_csv(SensorEvent, events))
    assert reparsed == events
    assert not rejections


def test_rejections_csv():
    _, rejections = parse_events(HEADER + row("bogus"))
    text = records_to_csv(Rejection, rejections)
    assert text.splitlines()[0] == "line,reason"
    assert text.splitlines()[1].startswith("2,")
    assert records_from_csv(Rejection, text) == rejections


def test_default_locations():
    assert DEFAULT_MEAL_LOCATIONS == {"kitchen", "dining_room"}


def test_every_rejection_reason_matches_reference():
    text = (
        HEADER
        + row("2024-03-01T08:00:00")
        + "2024-03-01T08:00:00,h1,s1,motion,kitchen\n"
        + "2024-03-01T08:00:00,h1,s1,motion,kitchen,1,extra\n"
        + "\n"
        + row("2024-03-01 08:00:00")
        + row("1999-12-31T23:59:59")
        + row("2024-03-01T08:00:00", kind="pressure")
        + row("2024-03-01T08:00:00", kind=" ")
        + row("2024-03-01T08:00:00", value="2")
        + row("2024-03-01T08:00:00", value="")
        + row("2024-03-01T08:00:00", loc=" ")
        # several faults in one row: the first check in order decides
        + row("bad", kind="pressure", value="7", loc="")
        + row("2024-03-01T08:00:00", kind="pressure", value="7", loc="")
        + row("2024-03-01T08:00:00", value="7", loc="")
        + row(" 2024-03-01T07:00:00 ", hh=" h2 ", sensor=" s2 ", kind=" contact ", loc=" dining_room ", value=" 0 ")
    )
    events, rejections = parse_events(text)
    assert len(events) == 2 and len(rejections) == 12
    assert [r.line for r in rejections] == sorted(r.line for r in rejections)
    assert_parses_like_reference(text)


TIMESTAMP_EDGES = [
    "2024-03-01T08:00:00",
    "2000-01-01T00:00:00",
    "2100-12-31T23:59:59",
    "1999-12-31T23:59:59",
    "2101-01-01T00:00:00",
    "0000-01-01T00:00:00",
    "9999-12-31T23:59:59",
    "2024-02-29T12:00:00",
    "2023-02-29T12:00:00",
    "2000-02-29T12:00:00",
    "2100-02-29T12:00:00",
    "2024-04-31T12:00:00",
    "2024-13-01T12:00:00",
    "2024-00-10T12:00:00",
    "2024-01-00T12:00:00",
    "2024-01-01T24:00:00",
    "2024-01-01T23:60:00",
    "2024-01-01T23:59:60",
    "2024-01-01T23:59:61",
    "\uff12\uff10\uff12\uff14-01-01T08:00:00",
    "2024-01-01T08:00:0\uff10",
    "2024-01-01T08:00:0\u0660",
    "2024-01-01T08:00:0\u00e9",
    "2024-01-01t08:00:00",
    "2024/01/01T08:00:00",
    "2024-01-01T08-00-00",
    "+024-01-01T08:00:00",
    "2024-01-01T08:00:+0",
    " 2024-01-01T08:00:00",
    "2024-01-01T08:00:00 ",
    "\t2024-01-01T08:00:00\u3000",
    "2024-1-1T8:00:00",
    "2024-01-01T8:0:0",
    "2024-01-01 08:00:00",
    "2024-01-01",
    "2024-01-01T08:00:00Z",
    "2024-01-01T08:00:00.000",
    "2024-01-01T08:00",
    "20240101T080000",
    "",
    "2024-01-01T08:00:0",
]


@pytest.mark.parametrize("stamp", TIMESTAMP_EDGES)
def test_timestamp_edge_matches_reference(stamp):
    assert_parses_like_reference(HEADER + row(stamp))


def test_timestamp_edges_together_match_reference():
    # every edge in one file, so the array path and the fallback share a batch
    assert_parses_like_reference(HEADER + "".join(row(s, sensor=f"s{i}") for i, s in enumerate(TIMESTAMP_EDGES)))


def test_bundled_trace_matches_reference():
    text = records_to_csv(SensorEvent, generate_trace(default_profile()))
    assert_parses_like_reference(text)


def test_batches_split_anywhere_match_reference(monkeypatch):
    # faults, blank lines and equal timestamps across batch boundaries
    rng = random.Random(8)
    lines = [HEADER]
    for i in range(300):
        ts = f"2024-05-{1 + i // 100:02d}T{(i * 7) % 24:02d}:{i % 3:02d}:00"
        choice = rng.random()
        if choice < 0.05:
            lines.append("\n")
        elif choice < 0.1:
            lines.append(row(ts, value="x"))
        elif choice < 0.15:
            lines.append(row(ts)[:-3] + "\n")
        else:
            lines.append(row(ts, hh=f"h{i % 3}", sensor=f"s{i}", loc=rng.choice(["kitchen", "bedroom"])))
    text = "".join(lines)
    for chunk_bytes in (1, 7, 64, 4096, events_mod.CHUNK_BYTES):
        monkeypatch.setattr(events_mod, "CHUNK_BYTES", chunk_bytes)
        assert_parses_like_reference(text)
        assert parse_events("\ufeff" + text) == parse_events(text.encode())


def test_each_distinct_remainder_is_checked_once_per_parse(monkeypatch):
    # 400 rows over 7 distinct remainders, one of them rejected, read in
    # blocks of about 256 bytes
    real_event_fields, real_parse_block = events_mod._event_fields, events_mod._parse_block
    checked, blocks = [], []

    def counting_event_fields(rest, idx):
        checked.append(rest)
        return real_event_fields(rest, idx)

    def counting_parse_block(*args):
        blocks.append(args[1])
        return real_parse_block(*args)

    monkeypatch.setattr(events_mod, "_event_fields", counting_event_fields)
    monkeypatch.setattr(events_mod, "_parse_block", counting_parse_block)
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 256)
    fields = [dict(hh=f"h{i}", loc=loc) for i in range(3) for loc in ("kitchen", "bedroom")] + [dict(value="x")]
    text = HEADER + "".join(row(f"2024-05-01T{i % 24:02d}:{i % 60:02d}:00", **fields[i % 7]) for i in range(400))
    assert_parses_like_reference(text)
    assert len(blocks) > 50
    assert sorted(checked) == sorted(set(checked)) and len(checked) == 7


def test_rows_that_only_look_canonical_match_reference():
    # a timestamp glued to the next field, a timestamp-shaped household
    # under a header that does not start with the timestamp
    assert_parses_like_reference(HEADER + "2024-03-01T08:00:00Xh1,s1,motion,kitchen,1\n" + row("2024-03-01T09:00:00"))
    header = "household_id,timestamp,sensor_id,sensor_kind,location,value\n"
    assert_parses_like_reference(header + "2024-03-01T08:00:00,2024-03-01T09:00:00,s1,motion,kitchen,1\n")


def test_rows_of_both_paths_keep_input_order_on_equal_timestamps():
    # padded and non-ASCII rows go through csv.reader, the others are read
    # from their bytes; all tie on the same second within one block
    text = HEADER + "".join(
        row(f" {ts}" if i % 3 == 0 else ts, sensor=f"s{i}é" if i % 3 == 1 else f"s{i}")
        for i, ts in enumerate(["2024-03-01T08:00:00"] * 6 + ["2024-03-01T07:00:00"] * 6)
    )
    events, _ = parse_events(text)
    assert [e.sensor_id for e in events][:6] == ["s6", "s7é", "s8", "s9", "s10é", "s11"]
    assert_parses_like_reference(text)


def test_oversized_field_is_a_schema_error_naming_the_line():
    text = HEADER + row("2024-03-01T08:00:00") + row("2024-03-01T09:00:00", loc='"' + "x" * 200_000 + '"')
    with pytest.raises(SchemaError, match="line 3: malformed CSV"):
        parse_events(text)


def _with_bad_byte(lines, at, offset, ending=b"\n"):
    """`lines` joined by `ending`, with byte 0xff at `offset` of line `at` (1-based)."""
    lines = [line.encode() for line in lines]
    lines[at - 1] = lines[at - 1][:offset] + b"\xff" + lines[at - 1][offset + 1:]
    return b"".join(line + ending for line in lines)


@pytest.mark.parametrize("chunk_bytes", [64, events_mod.CHUNK_BYTES])
@pytest.mark.parametrize("offset", [3, 20])
def test_non_utf8_line_is_named_alike_on_every_read_path(monkeypatch, chunk_bytes, offset):
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", chunk_bytes)
    lines = [HEADER.rstrip()] + [row(f"2024-03-01T08:{i % 60:02d}:00").rstrip() for i in range(40)]
    quoted = list(lines)
    quoted[5] = quoted[5].replace(",kitchen,", ',"kitchen",')
    sources = {
        "byte path": _with_bad_byte(lines, 30, offset),
        "byte path, CRLF": _with_bad_byte(lines, 30, offset, b"\r\n"),
        "bare CR": _with_bad_byte(lines, 30, offset, b"\r"),
        "csv.reader after a quoted row": _with_bad_byte(quoted, 30, offset),
    }
    for path, data in sources.items():
        for source in (data, io.BytesIO(data)):
            with pytest.raises(SchemaError) as excinfo:
                parse_events(source)
            assert str(excinfo.value) == f"line 30: not valid UTF-8: byte 0xff at offset {offset} of the line", path
    # on the header line, the offset counts the byte-order mark
    with pytest.raises(SchemaError, match="^line 1: not valid UTF-8: byte 0xff at offset 8 of the line$"):
        parse_events(b"\xef\xbb\xbf" + _with_bad_byte(lines, 1, 5))


def test_parse_leaves_the_callers_stream_open(tmp_path):
    good = (HEADER + row("2024-03-01T08:00:00")).encode()
    path = tmp_path / "events.csv"
    path.write_bytes(good)
    with open(path, "rb") as fh:
        assert len(parse_events(fh)[0]) == 1
        assert fh.read() == b""  # read to the end, and still readable
    for bad in (b"timestamp\n", good + b"\xff\n"):
        path.write_bytes(bad)
        with open(path, "rb") as fh:
            with pytest.raises(SchemaError):
                parse_events(fh)
            assert not fh.closed


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_pauses_the_collector_and_restores_the_callers_state(monkeypatch, enabled):
    real_parse_chunk = events_mod._parse_chunk
    during = []

    def recording_parse_chunk(*args):
        during.append(gc.isenabled())
        return real_parse_chunk(*args)

    monkeypatch.setattr(events_mod, "_parse_chunk", recording_parse_chunk)
    # the padded timestamp sends one row through csv.reader and `_parse_chunk`
    good = HEADER + row("2024-03-01T08:00:00") + row(" 2024-03-01T09:00:00")
    bad = good + row("2024-03-01T10:00:00", loc='"' + "x" * 200_000 + '"')
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        parse_events(good)
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError, match="malformed CSV"):
            parse_events(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)


def test_crlf_rows_take_the_byte_path(monkeypatch):
    """A CRLF or a bare-CR log, or a log under a quoted header, sends
    `_parse_chunk` only the rows that an LF log sends it: here the one
    padded timestamp."""
    real_parse_chunk = events_mod._parse_chunk
    sent = []

    def recording_parse_chunk(rows, *args):
        sent.extend(rows)
        return real_parse_chunk(rows, *args)

    monkeypatch.setattr(events_mod, "_parse_chunk", recording_parse_chunk)
    rows = row("2024-03-01T08:00:00") + row(" 2024-03-01T09:00:00") + row("2024-03-01T10:00:00")
    padded = [" 2024-03-01T09:00:00", "h1", "s1", "motion", "kitchen", "1"]
    lf = parse_events((HEADER + rows).encode())
    assert sent == [padded]
    for header in (HEADER, QUOTED_HEADER):
        for ending in ("\n", "\r\n", "\r"):
            sent.clear()
            assert parse_events((header + rows).replace("\n", ending).encode()) == lf
            assert sent == [padded]


def test_bare_cr_log_parses_in_blocks_like_its_lf_copy(monkeypatch):
    # a bare-CR log is cut into blocks at its "\r"s, so its parse holds no
    # more of the input at once than the parse of its LF copy
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 16 * 1024)
    lf = records_to_csv(SensorEvent, generate_trace(default_profile(days=60))).encode()
    parsed, peaks = [], []
    for data in (lf, lf.replace(b"\n", b"\r")):
        tracemalloc.start()
        try:
            parsed.append(parse_events(data))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert parsed[0] == parsed[1]
    assert peaks[1] <= 1.5 * peaks[0]


def test_table_slicing_and_indexing():
    text = HEADER + row("2024-03-01T08:00:00", sensor="a") + row("2024-03-01T09:00:00", sensor="b")
    events, _ = parse_events(text)
    rows = list(events)
    assert events[-1] == rows[-1] == events[1]
    assert isinstance(events[1:], EventTable) and events[1:] == rows[1:]
    assert events[::-1] == rows[::-1]
    with pytest.raises(IndexError):
        events[2]
    assert events != rows[:1] and events != "ab"


def test_households_split_in_id_order_keeping_event_order():
    text = (HEADER + row("2024-03-01T08:00:00", hh="b") + row("2024-03-01T08:00:00", hh="a")
            + row("2024-03-01T09:00:00", hh="b", sensor="s2"))
    events, _ = parse_events(text)
    codes = household_codes(events)
    assert list(codes) == ["a", "b"]
    groups = {household: household_events(events, code) for household, code in codes.items()}
    assert groups["b"] == [e for e in events if e.household_id == "b"]
    assert groups["a"] == [e for e in events if e.household_id == "a"]
    assert all(isinstance(g, EventTable) for g in groups.values())
    # a table of one household is its own split, not a copy
    assert household_events(groups["b"], household_codes(groups["b"])["b"]) is groups["b"]


# -- properties ---------------------------------------------------------------

_names = st.text(alphabet="abcdefghij_-. 0123456789", min_size=1, max_size=8).map(str.strip).filter(bool)
_events = st.builds(
    SensorEvent,
    timestamp=st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 12, 31, 23, 59, 59)).map(
        lambda ts: ts.replace(microsecond=0)),
    household_id=_names,
    sensor_id=_names,
    sensor_kind=st.sampled_from(sorted(SENSOR_KINDS)),
    location=_names,
    value=st.sampled_from([0, 1]),
)
_PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@_PROPERTY_SETTINGS
@given(st.lists(_events, max_size=40))
def test_csv_round_trip_property(events):
    ordered = sorted(events, key=lambda e: e.timestamp)
    text = records_to_csv(SensorEvent, events)
    parsed, rejections = parse_events(text)
    assert not rejections
    assert parsed == ordered
    assert parse_events(records_to_csv(SensorEvent, parsed))[0] == parsed
    assert (parsed, rejections) == reference_parse_events(text)


@_PROPERTY_SETTINGS
@given(st.lists(_events, max_size=40), st.sampled_from([{"kitchen"}, {"a", "b"}, {"kitchen", "dining_room"}]))
def test_table_equals_event_list_property(events, locations):
    table = EventTable.from_records(events)
    assert table == events and list(table) == events and len(table) == len(events)
    assert records_to_csv(SensorEvent, table) == records_to_csv(SensorEvent, events)
    assert filter_meal_locations(table, locations) == [e for e in events if e.location in locations]
    codes = household_codes(table)
    expected: dict = {}
    for e in events:
        expected.setdefault(e.household_id, []).append(e)
    assert list(codes) == sorted(expected)
    assert all(household_events(table, codes[h]) == expected[h] for h in expected)


@_PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.integers(0, 5), _names), max_size=40))
def test_equal_timestamps_keep_input_order_property(rows):
    # few distinct seconds, so most timestamps tie
    text = HEADER + "".join(row(f"2024-03-01T08:00:0{sec}", sensor=name) for sec, name in rows)
    events, _ = parse_events(text)
    assert [e.sensor_id for e in events] == [name for _, name in sorted(rows, key=lambda r: r[0])]
    assert_parses_like_reference(text)


# Each row of `test_mixed_rows_match_reference_property` is a canonical row
# or one of these variants, which the byte-level path must leave to csv.reader.
_VARIANTS = {
    "non-ASCII": ("location", lambda v: v + "é"),
    "non-ASCII space": ("household_id", lambda v: "\u00a0" + v),
    "control": ("sensor_id", lambda v: v + "\x1c"),
    "delete": ("sensor_id", lambda v: v + "\x7f"),
    "NUL": ("location", lambda v: v + "\x00"),
    "tab": ("household_id", lambda v: "\t" + v),
    "padded timestamp": ("timestamp", lambda v: f" {v}"),
    "bad timestamp": ("timestamp", lambda v: v.replace("T", " ")),
    "bad kind": ("sensor_kind", lambda v: "pressure"),
    "bad value": ("value", lambda v: "2"),
    "blank location": ("location", lambda v: " "),
    # a quote sends the rest of the input to csv.reader
    "quoted": ("location", lambda v: f'"{v}"'),
    "quoted comma": ("household_id", lambda v: f'"{v},x"'),
    "quoted newline": ("sensor_id", lambda v: f'"{v}\nx"'),
}
_UNQUOTED_ROWS = ["canonical"] * 6 + ["blank", "short", "long"] + [k for k in _VARIANTS if "quoted" not in k]


def _mixed_rows(kinds, endings):
    # three distinct seconds, so rows of both paths tie and must keep their order
    tied = _events.map(lambda e: replace(e, timestamp=datetime(2024, 3, 1, 8, 0, e.timestamp.second % 3)))
    return st.lists(st.tuples(tied, st.sampled_from(kinds), st.sampled_from(endings)), max_size=30)


def _mixed_line(event, kind, header):
    if kind == "blank":
        return ""
    fields = {"timestamp": event.timestamp.isoformat(), "household_id": event.household_id,
              "sensor_id": event.sensor_id, "sensor_kind": event.sensor_kind,
              "location": event.location, "value": str(event.value)}
    if kind in _VARIANTS:
        column, change = _VARIANTS[kind]
        fields[column] = change(fields[column])
    values = [fields[c] for c in header]
    return ",".join(values[:-1] if kind == "short" else values + ["x"] if kind == "long" else values)


def _outcome(parse, source):
    try:
        events, rejections = parse(source)
    except (csv.Error, SchemaError) as exc:
        assert isinstance(exc, csv.Error) or "malformed CSV" in str(exc)
        return "malformed CSV"
    return list(events), rejections


@_PROPERTY_SETTINGS
@given(
    # either every row takes a path of its own, or a quote or CR sends the
    # rest of the input to csv.reader
    rows=st.one_of(_mixed_rows(_UNQUOTED_ROWS, ["\n"]), _mixed_rows([*_UNQUOTED_ROWS, *_VARIANTS], ["\n", "\r\n", "\r"])),
    # a header that does not start with the timestamp sends every row to csv.reader
    header=st.one_of(st.just(REQUIRED_COLUMNS), st.permutations(REQUIRED_COLUMNS)),
    bom=st.booleans(),
    final_newline=st.booleans(),
    chunk_bytes=st.sampled_from([1, 7, 64, 4096, events_mod.CHUNK_BYTES]),
)
def test_mixed_rows_match_reference_property(rows, header, bom, final_newline, chunk_bytes):
    text = ",".join(header) + "\n" + "".join(_mixed_line(e, kind, header) + end for e, kind, end in rows)
    if rows and not final_newline:
        text = text.rstrip("\r\n")
    if bom:
        text = "\ufeff" + text
    data = text.encode()
    with mock.patch.object(events_mod, "CHUNK_BYTES", chunk_bytes):
        assert _outcome(parse_events, text) == _outcome(reference_parse_events, text.removeprefix("\ufeff"))
        expected = _outcome(reference_parse_events, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"))
        assert _outcome(parse_events, io.BytesIO(data)) == expected


# -- one range of lines per CPU --------------------------------------------------

def assert_same_parse(got, expected):
    """Equal events and rejections, and the same `names` and code columns."""
    (events, rejections), (expected_events, expected_rejections) = got, expected
    assert rejections == expected_rejections
    assert events.names == expected_events.names
    for column in ("seconds", "household", "sensor", "kind", "location", "value"):
        assert np.array_equal(getattr(events, column), getattr(expected_events, column)), column


def count_forks(monkeypatch):
    """Count os.fork calls; returns the list that grows by one per call."""
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def parse_file(path):
    with open(path, "rb") as fh:
        result = parse_events(fh)
        assert fh.read() == b""  # read to its end, and still open
    return result


def fleet_like_text(rows=3000, seed=24):
    """Households interleaved in time with about 3% malformed rows, which
    cover every rejection reason; no quote and no carriage return."""
    rng = random.Random(seed)
    faults = [
        lambda r: r.rsplit(",", 1)[0] + "\n",
        lambda r: r.rstrip("\n") + ",extra\n",
        lambda r: "\n",
        lambda r: r.replace("T", " ", 1),
        lambda r: "1999-12-31T23:59:59" + r[19:],
        lambda r: r.replace(",motion,", ",pressure,").replace(",contact,", ",pressure,"),
        lambda r: r[:-2] + "2\n",
        lambda r: r[:-2] + "\n",
        lambda r: r.replace(",kitchen,", ", ,").replace(",bedroom,", ", ,"),
        lambda r: " " + r.replace(",h", ", h", 1),  # padded: read by csv.reader, kept
        lambda r: r.replace(",kitchen,", ",kitchené,"),  # non-ASCII: read by csv.reader, kept
    ]
    lines = [HEADER]
    for i in range(rows):
        ts = f"2024-03-{1 + i // 1000:02d}T{(i // 60) % 24:02d}:{i % 60:02d}:{rng.randrange(60):02d}"
        text = row(ts, hh=f"h{rng.randrange(12)}", sensor=f"s{rng.randrange(30)}",
                   kind=rng.choice(["motion", "contact"]), loc=rng.choice(["kitchen", "bedroom", "dining_room"]),
                   value=rng.choice("01"))
        lines.append(rng.choice(faults)(text) if rng.random() < 0.03 else text)
    lines += [fault(row("2024-03-05T12:00:00")) for fault in faults]  # each reason at least once, at the end
    return "".join(lines)


@needs_fork
@pytest.mark.parametrize("chunk_bytes", [64, 4096])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_file_parsed_in_ranges_equals_the_serial_parse(tmp_path, monkeypatch, cpus, chunk_bytes):
    text = fleet_like_text()
    path = tmp_path / "fleet.csv"
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", chunk_bytes)
    set_cpus(monkeypatch, 1)
    serial = parse_events(text.encode())
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    # the header's quoting decides nothing about the cut
    for header in (HEADER, QUOTED_HEADER):
        path.write_text(header + text.removeprefix(HEADER))
        forks.clear()
        assert_same_parse(parse_file(path), serial)
        assert len(forks) == cpus - 1
    events, rejections = serial
    expected_events, expected_rejections = reference_parse_events(text)
    assert events == expected_events and rejections == expected_rejections
    reasons = {r.reason.split(":")[0].split(" ")[0] for r in rejections}
    assert reasons == {"expected", "bad", "unknown", "non-binary", "empty"}
    no_child_is_left()


@needs_fork
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=_mixed_rows(_UNQUOTED_ROWS, ["\n"]),
    header=st.one_of(st.just(REQUIRED_COLUMNS), st.permutations(REQUIRED_COLUMNS)),
    # the header's quoting decides nothing about how the rows are read
    quoted=st.sets(st.sampled_from(REQUIRED_COLUMNS)),
    bom=st.booleans(),
    final_newline=st.booleans(),
    chunk_bytes=st.sampled_from([64, 4096]),
    cpus=st.sampled_from([2, 3]),
)
def test_unquoted_mixed_rows_in_ranges_match_reference_property(rows, header, quoted, bom, final_newline, chunk_bytes,
                                                                cpus):
    names = ",".join(f'"{c}"' if c in quoted else c for c in header)
    text = names + "\n" + "".join(_mixed_line(e, kind, header) + end for e, kind, end in rows)
    if rows and not final_newline:
        text = text.rstrip("\n")
    data = ("\ufeff" + text if bom else text).encode()
    with mock.patch.object(events_mod, "CHUNK_BYTES", chunk_bytes), tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.seek(0)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
            split = _outcome(parse_events, fh)
        assert _outcome(parse_events, data) == split == _outcome(reference_parse_events, text)
        if split != "malformed CSV":
            with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(1)), create=True):
                serial = parse_events(data)
            fh.seek(0)
            with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
                assert_same_parse(parse_events(fh), serial)
    no_child_is_left()


def _rows_with_last_line(last, rows=8000):
    """A file of `rows` canonical rows and then the bytes `last`, a whole
    line, which the last of three ranges holds."""
    body = "".join(row(f"2024-03-01T{i // 60 % 24:02d}:{i % 60:02d}:00", sensor=f"s{i}") for i in range(rows))
    return (HEADER + body).encode() + last


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("last", [
    row("2024-03-02T08:00:00", loc="kit\xffchen").encode("latin-1"),
    row("2024-03-02T08:00:00", loc="x" * 140_000).encode(),
], ids=["non-UTF-8 byte", "oversized field"])
def test_an_error_in_the_last_range_is_the_serial_parse_error(tmp_path, monkeypatch, cpus, last):
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 4096)
    data = _rows_with_last_line(last)
    assert len(last) > csv.field_size_limit() or b"\xff" in last
    set_cpus(monkeypatch, 1)
    with pytest.raises(SchemaError) as serial:
        parse_events(data)
    assert str(serial.value).startswith("line 8002: ")
    path = tmp_path / "events.csv"
    path.write_bytes(data)
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    with open(path, "rb") as fh:
        with pytest.raises(SchemaError) as split:
            parse_events(fh)
        assert not fh.closed
    assert str(split.value) == str(serial.value)
    assert len(forks) == cpus - 1
    no_child_is_left()


@needs_fork
@pytest.mark.parametrize("failure", ["exit", "raise"])
def test_a_range_whose_child_fails_is_parsed_again_here(tmp_path, monkeypatch, failure):
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 4096)
    text = fleet_like_text()
    serial = parse_events(text.encode())
    path = tmp_path / "fleet.csv"
    path.write_text(text)
    set_cpus(monkeypatch, 3)
    parent, real_parse_lines, here = os.getpid(), events_mod._parse_lines, []

    def failing_parse_lines(idx, blocks, line, *args):
        if os.getpid() != parent:
            if failure == "exit":
                os._exit(9)
            raise RuntimeError("a range child fails")
        here.append(line)
        return real_parse_lines(idx, blocks, line, *args)

    monkeypatch.setattr(events_mod, "_parse_lines", failing_parse_lines)
    assert_same_parse(parse_file(path), serial)
    assert len(here) == 3 and here[0] == 2  # every range, in order, in this process
    no_child_is_left()


def _fed_by_a_thread(data):
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as out:
            out.write(data)

    thread = threading.Thread(target=feed)
    thread.start()
    return os.fdopen(r, "rb"), thread


@pytest.mark.parametrize("source", ["quoted file", "CRLF file", "bare-CR file", "pipe", "bytes", "str",
                                    "file under two blocks"])
def test_input_that_cannot_be_cut_is_parsed_without_forking(tmp_path, monkeypatch, source):
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 64)
    text = HEADER + "".join(row(f"2024-03-01T08:{i:02d}:00", sensor=f"s{i}") for i in range(40))
    expected = parse_events(text)
    set_cpus(monkeypatch, 2)

    def forbidden_fork():
        raise AssertionError("a parse forked")

    monkeypatch.setattr(os, "fork", forbidden_fork, raising=False)
    path = tmp_path / "events.csv"
    if source == "file under two blocks":
        text = HEADER + row("2024-03-01T08:00:00") + row("2024-03-01T09:00:00")
        expected = parse_events(text)
        assert len(text) - len(HEADER) < 2 * 64
    if source == "quoted file":
        text = text.replace(",kitchen,", ',"kitchen",')
    data = text.replace("\n", {"CRLF file": "\r\n", "bare-CR file": "\r"}.get(source, "\n")).encode()
    if source == "bytes":
        got = parse_events(data)
    elif source == "str":
        got = parse_events(text)
    elif source == "pipe":
        stream, thread = _fed_by_a_thread(data)
        with stream:
            got = parse_events(stream)
        thread.join(timeout=10)
        assert not thread.is_alive()
    else:
        path.write_bytes(data)
        got = parse_file(path)
    assert_same_parse(got, expected)


def in_order_rows(n, repeat=1, household="h"):
    """`n` canonical rows in time order, 7 s apart, each timestamp on
    `repeat` rows in a run; row j is from household f"{household}{j % 3}"
    and sensor f"s{j % 7}"."""
    start = datetime(2024, 3, 1)
    return [row((start + timedelta(seconds=j // repeat * 7)).strftime(TIMESTAMP_FORMAT), hh=f"{household}{j % 3}",
                sensor=f"s{j % 7}", kind=("motion", "contact")[j % 2], value=str(j % 2)) for j in range(n)]


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_an_in_order_file_is_parsed_holding_its_table_about_once(tmp_path, monkeypatch, cpus):
    # no sort, and one column joined at a time: a sorted copy beside every
    # column joined at once held the table three times or more
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 16 * 1024)
    path = tmp_path / "events.csv"
    path.write_text(HEADER + "".join(in_order_rows(20_000)))
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    tracemalloc.start()
    try:
        events, rejections = parse_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 20_000 and not rejections
    assert len(forks) == cpus - 1
    columns = ("seconds", "household", "sensor", "kind", "location", "value")
    assert peak < 2 * sum(getattr(events, column).nbytes for column in columns)
    no_child_is_left()


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork), pytest.param(3, marks=needs_fork)])
def test_a_file_whose_later_ranges_hold_earlier_events_is_sorted_stably(tmp_path, monkeypatch, cpus):
    # every timestamp of the first half comes again, in order, in the second
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 4096)
    text = HEADER + "".join(in_order_rows(3000, household="a") + in_order_rows(3000, household="b"))
    set_cpus(monkeypatch, 1)
    serial = parse_events(text.encode())
    path = tmp_path / "events.csv"
    path.write_text(text)
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    assert_same_parse(parse_file(path), serial)
    assert len(forks) == cpus - 1
    events, rejections = serial
    assert [e.household_id[0] for e in events] == ["a", "b"] * 3000
    assert (events, rejections) == reference_parse_events(text)
    no_child_is_left()


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_an_in_order_file_keeps_input_order_on_equal_timestamps(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 4096)
    rows = in_order_rows(6000, repeat=4)
    path = tmp_path / "events.csv"
    path.write_text(HEADER + "".join(rows))
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    events, rejections = parse_file(path)
    assert len(forks) == cpus - 1
    assert [e.sensor_id for e in events] == [f"s{j % 7}" for j in range(6000)]
    assert (events, rejections) == reference_parse_events(HEADER + "".join(rows))
    no_child_is_left()


# -- keeping the events at some locations ----------------------------------------

def assert_keeps_only(got, unfiltered, locations):
    """`got`, a parse at `locations`, holds the events of `unfiltered`, a
    parse of the same input at every location, that `filter_meal_locations`
    keeps, and the same rejections."""
    (events, rejections), (all_events, all_rejections) = got, unfiltered
    assert isinstance(events, EventTable)
    assert events == filter_meal_locations(all_events, locations)
    assert {e.location for e in events} <= set(locations)
    assert rejections == all_rejections


@needs_fork
@pytest.mark.parametrize("locations", [DEFAULT_MEAL_LOCATIONS, {"bedroom"}, {"hall"}])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_parse_at_some_locations_equals_the_filtered_parse(tmp_path, monkeypatch, cpus, locations):
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 4096)
    text = fleet_like_text()
    path = tmp_path / "fleet.csv"
    path.write_text(text)
    set_cpus(monkeypatch, 1)
    unfiltered = parse_events(text.encode())
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    with open(path, "rb") as fh:
        got = parse_events(fh, locations)
        assert fh.read() == b""
    assert len(forks) == cpus - 1
    no_child_is_left()
    assert_keeps_only(got, unfiltered, locations)
    assert 0 < len(got[0]) < len(unfiltered[0]) or locations == {"hall"}


@pytest.mark.parametrize("source", ["quoted file", "CRLF file", "text stream", "pipe", "bytes", "str"])
def test_a_parse_read_by_csv_reader_keeps_only_its_locations(tmp_path, monkeypatch, source):
    monkeypatch.setattr(events_mod, "CHUNK_BYTES", 4096)
    text = fleet_like_text(rows=600)
    if source == "quoted file":
        text = text.replace(",kitchen,", ',"kitchen",')
    data = text.replace("\n", "\r\n" if source == "CRLF file" else "\n").encode()
    set_cpus(monkeypatch, 2)
    unfiltered = parse_events(data)
    if source in ("quoted file", "CRLF file"):
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            got = parse_events(fh, {"kitchen"})
    elif source == "pipe":
        stream, thread = _fed_by_a_thread(data)
        with stream:
            got = parse_events(stream, {"kitchen"})
        thread.join(timeout=10)
        assert not thread.is_alive()
    else:
        got = parse_events({"text stream": io.StringIO(text), "bytes": data, "str": text}[source], {"kitchen"})
    assert_keeps_only(got, unfiltered, {"kitchen"})
    assert got[0] and got[1]


def test_malformed_rows_elsewhere_are_still_rejected():
    good = row("2024-03-01T08:00:00")
    bad = [
        row("2024-03-01 08:00:01", loc="bedroom"),  # bad timestamp
        row("1999-03-01T08:00:02", loc="bedroom"),  # canonical shape, out of bounds
        row("2024-03-01T08:00:03", loc="bedroom", kind="pressure"),
        row("2024-03-01T08:00:04", loc="bedroom", value="2"),
        row("2024-03-01T08:00:05", loc="bedroom").rstrip("\n") + ",extra\n",
        " " + row("2024-03-01T08:00:06", loc="bedroom"),  # read by csv.reader, valid
        row("2024-03-01T08:00:07", loc="bedroomé"),  # read by csv.reader, valid
    ]
    text = HEADER + good + "".join(bad) + good
    for source in (text, text.encode(), text.replace("\n", "\r\n").encode()):
        events, rejections = parse_events(source, {"kitchen"})
        assert [e.location for e in events] == ["kitchen", "kitchen"]
        assert [r.line for r in rejections] == [3, 4, 5, 6, 7]
        assert rejections == parse_events(source)[1] == reference_parse_events(text)[1]


def test_canonical_rows_elsewhere_stay_on_the_byte_path(monkeypatch):
    def forbidden_parse_chunk(*args):
        raise AssertionError("a canonical row went through csv.reader")

    monkeypatch.setattr(events_mod, "_parse_chunk", forbidden_parse_chunk)
    text = HEADER + row("2024-03-01T08:00:00", loc="bedroom") + row("2024-03-01T08:00:01")
    events, rejections = parse_events(text.encode(), {"kitchen"})
    assert [e.location for e in events] == ["kitchen"] and not rejections


def test_an_empty_location_set_is_refused():
    with pytest.raises(ValueError, match="non-empty"):
        parse_events(HEADER + row("2024-03-01T08:00:00"), set())


_ROOMS = ["kitchen", "dining_room", "bedroom", " hall "]


@needs_fork
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.one_of(_mixed_rows(_UNQUOTED_ROWS, ["\n"]), _mixed_rows([*_UNQUOTED_ROWS, *_VARIANTS], ["\n", "\r\n"])),
    rooms=st.lists(st.sampled_from(_ROOMS), min_size=30, max_size=30),
    locations=st.sets(st.sampled_from([*_ROOMS, "hall"]), min_size=1),
    chunk_bytes=st.sampled_from([64, 4096]),
    cpus=st.sampled_from([1, 2, 3]),
)
def test_a_parse_at_some_locations_equals_the_filtered_parse_property(rows, rooms, locations, chunk_bytes, cpus):
    rows = [(replace(e, location=room), kind, end) for (e, kind, end), room in zip(rows, rooms)]
    text = HEADER + "".join(_mixed_line(e, kind, REQUIRED_COLUMNS) + end for e, kind, end in rows)
    data = text.encode()
    with mock.patch.object(events_mod, "CHUNK_BYTES", chunk_bytes), tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.seek(0)
        unfiltered = _outcome(parse_events, data)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
            got = _outcome(lambda source: parse_events(source, locations), fh)
        no_child_is_left()
        assert _outcome(lambda source: parse_events(source, locations), text) == got
    if unfiltered == "malformed CSV":
        assert got == unfiltered
    else:
        assert got == (filter_meal_locations(unfiltered[0], locations), unfiltered[1])
