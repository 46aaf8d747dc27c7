"""Parsing and filtering of raw binary sensor event logs.

Input schema (CSV with header):
    timestamp,household_id,sensor_id,sensor_kind,location,value

Timestamps are naive local ISO-8601 (``YYYY-MM-DDTHH:MM:SS``); values are
strictly binary. Malformed rows are collected into a rejection report
rather than silently dropped.

Events are held as columns in an `EventTable`: int64 seconds since
1970-01-01T00:00:00 plus integer codes into one string vocabulary for
household, sensor, kind and location. The table is a sequence of
`SensorEvent`s, built one at a time as they are read. Its columns and
indexing come from `RecordTable`, which `episodes.EpisodeTable` shares,
and `records_to_csv` writes either table from its columns.

The parser reads bytes, byte input with universal newlines, and the
header from line 1 alone. A canonical row (a canonical timestamp first,
then printable ASCII fields that pass every check) is parsed from its
bytes; every other row goes through csv.reader and the per-row checks,
so each rejection keeps its line.

One range reader (`_parse_lines`) parses a run of lines with its own
vocabulary. A regular file whose rows hold no quote and no carriage
return, so that csv.reader would split them at every "\n", is cut into
one range per CPU, each parsed in its own process (`parallel.fork_map`);
all other input is one range. The ranges are joined in order, one column at a
time, their codes remapped into one sorted vocabulary, so the result does
not depend on the cuts. Events already in time order, as a log written
while they happen holds them, are returned as joined; any others are
sorted stably by time. Given a location set, each range keeps only the
events at those locations, after checking every row.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import os
import stat
import sys
from collections.abc import Sequence, Set as AbstractSet
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain, compress, islice
from operator import attrgetter, itemgetter, methodcaller
from typing import BinaryIO, Iterable, Iterator, TextIO, get_type_hints

import numpy as np

from mealclust import parallel

SENSOR_KINDS = frozenset({"motion", "contact"})
DEFAULT_MEAL_LOCATIONS = frozenset({"kitchen", "dining_room"})

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"
MIN_YEAR = 2000
MAX_YEAR = 2100

EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
# Bytes of input parsed per block: bounds the per-row Python objects alive
# at once. Rows that csv.reader frames go in batches of as many rows as a
# block holds at _ROW_BYTES a row.
CHUNK_BYTES = 256 * 1024
_ROW_BYTES = 64
_BINARY = {"0": 0, "1": 1}

# The canonical timestamp shape, ``YYYY-MM-DDTHH:MM:SS``, by character position.
_DIGIT_AT = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATOR_AT = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}
_STAMP_BYTES = 19
# A row's bytes after its timestamp and the comma that ends it.
_AFTER_STAMP = itemgetter(slice(_STAMP_BYTES + 1, None))
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


class SchemaError(ValueError):
    """The CSV header does not match the expected event schema, or the
    file is not well-formed CSV."""


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


# The input columns are the fields of `SensorEvent`; the fields of a row
# other than its timestamp are in `EventTable` order.
REQUIRED_COLUMNS = tuple(f.name for f in dataclasses.fields(SensorEvent))
_FIELD_COLUMNS = REQUIRED_COLUMNS[1:]


def epoch_seconds(ts: datetime) -> int:
    """Whole seconds from EPOCH to a naive timestamp."""
    seconds, rest = divmod(ts - EPOCH, _SECOND)
    if rest:
        raise ValueError(f"timestamp {ts} is not a whole second")
    return seconds


class RecordTable(Sequence):
    """Records of the frozen dataclass `record_type` held as columns, one
    array per field in field order, named and typed by `_columns`: a
    datetime field as int64 counts of `_unit` (a numpy time unit) since
    EPOCH, a str field as int32 codes into `names`, any other field as its
    values. Indexing and iteration build records; a slice is a table. A
    table equals any sequence holding equal records in the same order."""

    record_type: type
    _columns: dict[str, type]  # column name -> dtype, in field order
    _unit = "s"

    def __init__(self, *columns, names: Sequence[str]):
        for (name, dtype), column in zip(self._columns.items(), columns, strict=True):
            setattr(self, name, np.asarray(column, dtype=dtype))
        self.names = list(names)

    @classmethod
    def from_records(cls, records: Iterable):
        """A table of `records` in their order; a table is returned as is."""
        if isinstance(records, cls):
            return records
        records = list(records)
        vocab: dict[str, int] = {}
        columns = []
        for name, kind in field_types(cls.record_type).items():
            column = [getattr(record, name) for record in records]
            if kind is datetime:
                column = _ticks(column, cls._unit)
            elif kind is str:
                column = _codes(vocab, column)
            columns.append(column)
        return cls(*columns, names=list(vocab))

    def take(self, index):
        """The rows at `index` (a slice, a boolean mask or positions)."""
        return type(self)(*(getattr(self, name)[index] for name in self._columns), names=self.names)

    def decoded(self, codes: np.ndarray) -> list[str]:
        """The strings of one code column."""
        return np.asarray(self.names, dtype=object)[codes].tolist()

    def fields(self, stamps) -> list[list]:
        """Each column as a list of values, in field order: a datetime
        column is `stamps` of it as numpy datetimes, a str column its
        strings, any other column its Python values."""
        kinds = field_types(self.record_type).values()
        return [
            stamps(column.view(f"datetime64[{self._unit}]")) if kind is datetime
            else self.decoded(column) if kind is str else column.tolist()
            for column, kind in zip((getattr(self, name) for name in self._columns), kinds)
        ]

    def __len__(self) -> int:
        return len(getattr(self, next(iter(self._columns))))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        i = range(len(self))[index]
        return next(iter(self.take(slice(i, i + 1))))

    def __iter__(self) -> Iterator:
        return map(self.record_type, *self.fields(lambda stamps: stamps.astype(object).tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


def _ticks(stamps: list[datetime], unit: str) -> np.ndarray:
    """Whole `unit`s, seconds or microseconds, from EPOCH to each naive
    timestamp; one between two seconds is a ValueError."""
    exact = np.array(stamps, dtype="datetime64[us]")
    ticks = exact.astype(f"datetime64[{unit}]")
    if len(off := np.flatnonzero(ticks != exact)):
        raise ValueError(f"timestamp {stamps[off[0]]} is not a whole second")
    return ticks.view(np.int64)


class EventTable(RecordTable):
    """Sensor events as columns, in a fixed order.

    `seconds` holds int64 epoch seconds; `household`, `sensor`, `kind` and
    `location` hold int32 codes into `names`; `value` holds int8 0 or 1.
    """

    record_type = SensorEvent
    _columns = {"seconds": np.int64, "household": np.int32, "sensor": np.int32, "kind": np.int32,
                "location": np.int32, "value": np.int8}


def _codes(vocab: dict[str, int], strings: list[str]) -> np.ndarray:
    """Codes of `strings` in `vocab`, which gains each new string."""
    return np.array([vocab.setdefault(s, len(vocab)) for s in strings], dtype=np.int32)


def parse_timestamp(text: str) -> datetime:
    """Parse a strict ISO-8601 local timestamp, enforcing sanity bounds."""
    ts = datetime.strptime(text, TIMESTAMP_FORMAT)
    if not (MIN_YEAR <= ts.year <= MAX_YEAR):
        raise ValueError(f"timestamp year {ts.year} outside [{MIN_YEAR}, {MAX_YEAR}]")
    return ts


def _canonical_seconds(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of every row of `chars`, an (n, 19) uint8 array, that
    is a valid timestamp of the exact canonical shape (ASCII digits and
    separators at fixed places, a real calendar date, hour <= 23, minute
    and second <= 59, year within bounds), plus the mask of those rows.
    `parse_timestamp` accepts each of them with the same value; the other
    rows are left to it."""
    digits = chars[:, _DIGIT_AT].astype(np.int32) - ord("0")
    ok = ((digits >= 0) & (digits <= 9)).all(axis=1)
    for pos, sep in _SEPARATOR_AT.items():
        ok &= chars[:, pos] == ord(sep)
    year = (digits[:, :4] @ np.array([1000, 100, 10, 1], dtype=np.int32)).astype(np.int64)
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 0, 12)] + (leap & (month == 2))
    ok &= (MIN_YEAR <= year) & (year <= MAX_YEAR) & (1 <= month) & (month <= 12)
    ok &= (1 <= day) & (day <= month_days) & (hour <= 23) & (minute <= 59) & (second <= 59)
    months = ((year[ok] - 1970) * 12 + month[ok] - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]").astype(np.int64) + day[ok] - 1
    seconds = np.zeros(len(chars), dtype=np.int64)
    seconds[ok] = days * 86400 + hour[ok] * 3600 + minute[ok] * 60 + second[ok]
    return seconds, ok


def _read(reader, n: int, lines: Sequence[int]) -> list[list[str]]:
    """Up to `n` more records; malformed CSV framing (such as a field over
    the csv module's size limit) is a SchemaError naming the line, where
    `lines` holds the input line of each line the reader reads."""
    try:
        return list(islice(reader, n))
    except csv.Error as exc:
        raise SchemaError(f"line {lines[reader.line_num - 1]}: malformed CSV: {exc}") from None


def _header(line: str) -> dict[str, int]:
    """The column index of each required column, read from the header line
    `line` alone (decoded, with no byte-order mark); a record that runs on
    past it is a SchemaError."""
    if not line:
        raise SchemaError("empty input: missing header row")
    # a record that `line` does not end reads on into the empty line after it
    reader = csv.reader([line, ""])
    header = [h.strip() for h in _read(reader, 1, (1, 1))[0]]
    if reader.line_num > 1:
        raise SchemaError("line 1: the header runs on past its line: a quoted name holds a line break")
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise SchemaError(f"missing required column: {col}")
    for col in header:
        if col not in REQUIRED_COLUMNS:
            raise SchemaError(f"unknown column: {col}")
    if len(header) > len(REQUIRED_COLUMNS):
        # every column is known, so one repeats within the first len + 1
        duplicate = next(col for i, col in enumerate(header) if col in header[:i])
        raise SchemaError(f"duplicate column: {duplicate}")
    return {col: header.index(col) for col in REQUIRED_COLUMNS}


def _parse_chunk(rows: list[list[str]], lines: np.ndarray, idx: dict[str, int], vocab: dict[str, int],
                 locations: AbstractSet[str] | None) -> tuple[list[np.ndarray], list[Rejection], np.ndarray]:
    """The event columns (in `EventTable` order, codes from `vocab`), the
    rejections and the lines of the kept events of `rows`, which stand on
    the input lines `lines`; events are kept at `locations` only, unless
    it is None, after every row is checked.

    Each row is judged by the first check it fails, in the order: field
    count, timestamp, kind, value, location. A log repeats few distinct
    (household, sensor, kind, location, value) fields, so those are
    stripped, checked and coded once per distinct tuple."""
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    whole = lengths == len(REQUIRED_COLUMNS)
    rejections = [
        Rejection(int(lines[i]), f"expected {len(REQUIRED_COLUMNS)} fields, got {lengths[i]}")
        for i in np.flatnonzero(~whole & (lengths > 0)).tolist()
    ]
    full = list(compress(rows, whole))
    lines = lines[whole]

    stamps = list(map(str.strip, map(itemgetter(idx["timestamp"]), full)))
    seconds = np.zeros(len(stamps), dtype=np.int64)
    ts_ok = np.zeros(len(stamps), dtype=bool)
    at = np.flatnonzero(np.fromiter(map(len, stamps), np.intp, len(stamps)) == _STAMP_BYTES)
    # One byte per character: a non-ASCII character becomes "?", which
    # fails the shape check.
    raw = "".join([stamps[i] for i in at]).encode("ascii", "replace")
    seconds[at], ts_ok[at] = _canonical_seconds(np.frombuffer(raw, dtype=np.uint8).reshape(-1, _STAMP_BYTES))
    ts_error: dict[int, str] = {}
    for i in np.flatnonzero(~ts_ok).tolist():
        try:
            seconds[i] = epoch_seconds(parse_timestamp(stamps[i]))
            ts_ok[i] = True
        except ValueError as exc:
            ts_error[i] = f"bad timestamp: {exc}"

    distinct: dict[tuple[str, ...], int] = {}
    fields = itemgetter(*(idx[c] for c in _FIELD_COLUMNS))
    of_row = np.array([distinct.setdefault(f, len(distinct)) for f in map(fields, full)], dtype=np.intp)
    stripped = [[s.strip() for s in f] for f in distinct]
    household, sensor, kinds, places, values = zip(*stripped) if stripped else [()] * 5
    errors = [_field_error(*f[2:]) for f in stripped]

    keep = ts_ok & np.array([e is None for e in errors], dtype=bool)[of_row]
    for i in np.flatnonzero(~keep).tolist():
        rejections.append(Rejection(int(lines[i]), ts_error.get(i) or errors[of_row[i]]))
    rejections.sort(key=lambda r: r.line)
    if locations is not None:
        keep &= np.array([place in locations for place in places], dtype=bool)[of_row]

    of_row = of_row[keep]
    codes = [_codes(vocab, column)[of_row] for column in (household, sensor, kinds, places)]
    value = np.array([_BINARY.get(v, 0) for v in values], dtype=np.int8)[of_row]
    return [seconds[keep], *codes, value], rejections, lines[keep]


def _field_error(kind: str, location: str, value: str) -> str | None:
    """Why a row with these stripped fields is rejected, or None if it is
    not: the first check it fails, in the order kind, value, location."""
    if kind not in SENSOR_KINDS:
        return f"unknown sensor_kind: {kind!r}"
    if value not in _BINARY:
        return f"non-binary value: {value!r}"
    if not location:
        return "empty location"
    return None


def _event_fields(rest: bytes, idx: dict[str, int]) -> tuple | None:
    """The stripped (household, sensor, kind, location, value) of a row's
    bytes after its timestamp and comma, when they are printable ASCII, the
    right number of fields and pass every check; else None. Such bytes
    csv.reader splits at their commas alone (before Python 3.11 it rejects
    a line with a NUL), and `_parse_chunk` strips them with the same
    `str.strip`."""
    if rest.count(b",") != len(_FIELD_COLUMNS) - 1 or not rest.isascii():
        return None
    text = rest.decode("ascii")
    if not text.isprintable():
        return None
    fields = text.split(",")
    household, sensor, kind, location, value = (fields[idx[c] - 1].strip() for c in _FIELD_COLUMNS)
    return None if _field_error(kind, location, value) else (household, sensor, kind, location, _BINARY[value])


def _parse_block(block: bytes, line: int, idx: dict[str, int], vocab: dict[str, int],
                 checked: dict[bytes, tuple | None],
                 locations: AbstractSet[str] | None) -> tuple[list[np.ndarray], list[Rejection], int]:
    """The event columns at `locations` (as in `_parse_chunk`), the
    rejections and the line count of a block of whole lines, the first on
    input line `line`, that holds no quote and no carriage return (`_blocks`
    makes each line end of byte input "\\n"), under a header whose first
    column is the timestamp.

    A canonical row, whose timestamp has the canonical shape and whose
    other fields are printable ASCII and pass every check, is parsed from
    its bytes: its timestamp on an array, its other fields coded once per
    distinct remainder in the block. `checked` maps each remainder already
    split, stripped and checked by `_event_fields` to its result, and
    carries those results from block to block. Every other row goes
    through csv.reader and `_parse_chunk`, and the two merge in line order."""
    lines = block.split(b"\n")
    if not lines[-1]:
        lines.pop()
    n = len(lines)
    lengths = np.fromiter(map(len, lines), np.intp, n)
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    # each line's first _STAMP_BYTES + 1 bytes, read past the block's end
    # into zeros; a line shorter than that is never fast
    padded = np.frombuffer(block + bytes(_STAMP_BYTES + 1), dtype=np.uint8)
    head = np.lib.stride_tricks.sliding_window_view(padded, _STAMP_BYTES + 1)[starts]
    seconds, fast = _canonical_seconds(head[:, :_STAMP_BYTES])
    fast &= (head[:, _STAMP_BYTES] == ord(",")) & (lengths > _STAMP_BYTES) & (lengths <= csv.field_size_limit())

    rests = list(map(_AFTER_STAMP, compress(lines, fast.tolist())))
    distinct = {rest: i for i, rest in enumerate(dict.fromkeys(rests))}
    of_row = np.fromiter(map(distinct.__getitem__, rests), np.intp, len(rests))
    for rest in distinct.keys() - checked.keys():
        checked[rest] = _event_fields(rest, idx)
    fields = [checked[rest] for rest in distinct]
    at = np.flatnonzero(fast)
    fast[at] = np.array([f is not None for f in fields], dtype=bool)[of_row]
    # a valid row elsewhere is checked, not kept
    wanted = np.array([f is not None and (locations is None or f[3] in locations) for f in fields], dtype=bool)
    kept = wanted[of_row]
    at, of_row = at[kept], (np.cumsum(wanted) - 1)[of_row[kept]]
    valid = list(compress(fields, wanted))
    household, sensor, kinds, places, values = zip(*valid) if valid else [()] * 5
    codes = [_codes(vocab, column)[of_row] for column in (household, sensor, kinds, places)]
    columns = [seconds[at], *codes, np.array(values, dtype=np.int8)[of_row]]

    slow = np.flatnonzero(~fast)
    if not len(slow):
        return columns, [], n
    try:
        texts = [lines[i].decode("utf-8") for i in slow.tolist()]
    except UnicodeDecodeError:
        # every fast row is ASCII, so the first bad slow row is the block's first bad line
        _decode(block, line)
        raise
    slow_lines = line + slow
    rows = _read(csv.reader(texts), len(texts), slow_lines)
    slow_columns, rejections, slow_kept = _parse_chunk(rows, slow_lines, idx, vocab, locations)
    order = np.argsort(np.concatenate([line + at, slow_kept]), kind="stable")
    return [np.concatenate(pair)[order] for pair in zip(columns, slow_columns)], rejections, n


def _blocks(stream) -> Iterator[bytes]:
    """`stream` as UTF-8 in blocks of whole lines, of about CHUNK_BYTES
    each, each ending at its last line end; the last line may lack its line
    end. Bytes are read with universal newlines, each "\\r\\n" or lone
    "\\r" ending a line and becoming "\\n" as in a text-mode file (no other
    UTF-8 character holds either byte). Text is read whole and encoded;
    its lines end at "\\n" only."""
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    universal = not (isinstance(stream, str) or isinstance(stream.read(0), str))
    if not universal:
        stream = io.BytesIO((stream if isinstance(stream, str) else stream.read()).encode("utf-8"))
    ends = (b"\n", b"\r") if universal else (b"\n",)
    pending = b""
    # no name but `data` holds what is read, so a block being parsed is
    # the only copy of its bytes
    while len(data := pending + stream.read(CHUNK_BYTES)) > len(pending):
        # `pending` ends no line before its last byte; a "\r" at the end of
        # `data` waits for the next byte, which may be its "\n"
        start, stop = max(len(pending) - 1, 0), len(data) - (universal and data.endswith(b"\r"))
        if cut := max(data.rfind(end, start, stop) for end in ends) + 1:
            block, data = data[:cut], data[cut:]
            yield _universal(block) if universal else block
        pending = data
    if pending:
        yield _universal(pending) if universal else pending


def _universal(run: bytes) -> bytes:
    """`run`, which ends no line between a "\\r" and its "\\n", with each
    of its line ends made "\\n"."""
    return run.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in run else run


def _decode(run: bytes, line: int) -> str:
    """`run`, whole lines from input line `line` on, decoded from UTF-8; a
    byte that is not valid UTF-8 is a SchemaError naming its line."""
    try:
        return run.decode("utf-8")
    except UnicodeDecodeError as exc:
        *above, head = run[: exc.start].split(b"\n")
        raise SchemaError(f"line {line + len(above)}: not valid UTF-8: "
                          f"byte 0x{run[exc.start]:02x} at offset {len(head)} of the line") from None


def _texts(runs: Iterable[bytes], line: int) -> Iterator[io.StringIO]:
    """Each of `runs`, runs of whole lines from input line `line` on, decoded
    when it is reached, as a text stream splitting lines at "\\n"."""
    for run in runs:
        yield io.StringIO(_decode(run, line))
        line += run.count(b"\n")


def _framed(chunk: bytes) -> bool:
    """Whether `chunk` holds a quote or a carriage return, whose framing
    only csv.reader gets right."""
    return b'"' in chunk or b"\r" in chunk


class _Pread:
    """A binary stream of bytes [start, stop) of the file open on `fd`,
    read with os.pread, which leaves the file's offset where it is."""

    def __init__(self, fd: int, start: int, stop: int):
        self.fd, self.at, self.stop = fd, start, stop

    def read(self, n: int) -> bytes:
        data = os.pread(self.fd, min(n, self.stop - self.at), self.at)
        self.at += len(data)
        return data


def _file(stream) -> tuple[int, int] | None:
    """The descriptor and offset of `stream` when it reads the bytes of a
    regular file as they are stored, so that os.pread reads the same; else
    None (bytes, text, a pipe, or a stream that decodes what it reads)."""
    raw = getattr(stream, "raw", stream)
    if not isinstance(raw, io.FileIO) or not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
        return None
    return raw.fileno(), stream.tell()


def _line_ranges(fd: int, body: int) -> list[tuple[Iterator[bytes], int]] | None:
    """The rows of the file open on `fd`, from byte `body` (where line 2
    starts after a header line ending in "\\n") on, as one range per CPU:
    the blocks of each (read with os.pread when they are first iterated)
    and the input line it starts on. Each range but the last ends after a
    "\\n", near an equal share of the rows' bytes. None where that gives
    fewer than two ranges, or where the rows or the header's line end hold
    a quote or a carriage return, whose framing only a serial read gets
    right.

    There are no more ranges than whole blocks of CHUNK_BYTES after the
    header, so input shorter than two blocks is read serially. The rows are
    read here once, a block at a time, to check them and to count the lines
    before each cut."""
    size = os.fstat(fd).st_size
    n = min(parallel.cpu_budget(), (size - body) // CHUNK_BYTES)
    if n < 2:
        return None
    targets = [body + (size - body) * i // n for i in range(1, n)]
    # from the header's last byte on: after a "\r\n", line 2 starts past `body`
    cuts, lines, newlines, at = [body], [2], 0, body - 1
    while block := os.pread(fd, CHUNK_BYTES, at):
        if _framed(block):
            return None
        for target in targets[len(cuts) - 1:]:
            # the first line end at or past the target, in this block or a later one
            cut = block.find(b"\n", max(target, cuts[-1], at) - at) + 1
            if not cut:
                break
            cuts.append(at + cut)
            lines.append(1 + newlines + block.count(b"\n", 0, cut))
        newlines += block.count(b"\n")
        at += len(block)
    return [(_blocks(_Pread(fd, a, b)), line) for a, b, line in zip(cuts, cuts[1:] + [at], lines) if a < b]


def _parse_lines(idx: dict[str, int], blocks: Iterator[bytes], line: int,
                 locations: AbstractSet[str] | None) -> tuple[list[list[np.ndarray]], list[Rejection], list[str]]:
    """The event columns at `locations` of each chunk of `blocks`, runs of
    whole lines from input line `line` on, with codes into the vocabulary
    returned last; and the rejections, in line order.

    Under a header whose first column is the timestamp, each block is parsed
    from its bytes (`_parse_block`) up to the first that holds a quote or a
    carriage return; csv.reader reads the rows from there on, or all of
    them under any other header."""
    vocab: dict[str, int] = {}
    checked: dict[bytes, tuple | None] = {}
    chunks: list[list[np.ndarray]] = []
    rejections: list[Rejection] = []
    if idx["timestamp"] == 0:
        for block in blocks:
            if _framed(block):
                blocks = chain([block], blocks)
                break
            columns, rejected, n = _parse_block(block, line, idx, vocab, checked, locations)
            chunks.append(columns)
            rejections.extend(rejected)
            line += n
    reader, reader_lines = csv.reader(chain.from_iterable(_texts(blocks, line))), range(line, sys.maxsize)
    while rows := _read(reader, max(1, CHUNK_BYTES // _ROW_BYTES), reader_lines):
        columns, rejected, _ = _parse_chunk(rows, np.arange(line, line + len(rows)), idx, vocab, locations)
        chunks.append(columns)
        rejections.extend(rejected)
        line += len(rows)
    return chunks, rejections, list(vocab)


def parse_events(stream: BinaryIO | TextIO | bytes | str,
                 locations: AbstractSet[str] | None = None) -> tuple[EventTable, list[Rejection]]:
    """Parse a sensor-log CSV into time-ordered events plus a rejection report.

    With `locations` a set, only the events at those locations are kept,
    as `filter_meal_locations` keeps them, so no range holds or sends the
    others; every row is still checked, so the rejections are the same.

    `stream` is bytes, a binary stream, a str or a text stream; text is
    read whole and encoded to UTF-8. Bytes are read as UTF-8 with
    universal newlines, as a text-mode file reads them, so a CRLF log
    parses as its LF copy; text ends its lines at "\\n" only. A caller's
    stream is read to its end, never closed.

    The header is read from line 1 alone. A binary file whose rows hold
    no quote and no carriage return is parsed in one range of lines per
    CPU (`_line_ranges`): the first in this process and each other in a
    forked child (`parallel.fork_map`), which reads its own bytes. Any
    other input, and a file under two blocks of CHUNK_BYTES or with one
    CPU to use, is one range parsed here. Either way the result
    is the same: the vocabulary `names` is sorted, whatever the ranges.
    The ranges are joined one column at a time, each column's chunks
    released once it is joined, so the parse holds the table about once
    while joining it.

    Returns events sorted ascending by timestamp (stable, so equal
    timestamps keep input order). Events already in that order are
    returned as joined, with no sort. Every data row lands in the event
    table, in the rejection report, which is in line order, or, valid at
    a location not in `locations`, in neither.

    Raises ValueError for an empty `locations`, and SchemaError if the
    header is missing a required column, carries an unknown or a repeated
    one, or runs on past line 1 (a quoted name holding a line break), if
    the file is not well-formed CSV, or at its first line that is not
    valid UTF-8, naming that line and the offset of the bad byte in it.
    """
    if locations is not None:
        check_locations(locations)
    file = _file(stream)
    blocks = _blocks(stream)
    head = next(blocks, b"")
    first = head[: head.find(b"\n") + 1] or head
    # a UTF-8 byte-order mark, which csv and str.strip keep, is no part of the header
    idx = _header(_decode(first, 1).removeprefix("\ufeff"))
    if file is not None and (split := _line_ranges(file[0], file[1] + len(first))):
        ranges = split
        stream.seek(0, io.SEEK_END)  # as a serial read leaves it; each range reads with os.pread
    else:
        ranges = [(chain([head[len(first):]] if len(head) > len(first) else [], blocks), 2)]
    # The row lists of a batch hold only strings, so they form no cycles;
    # left on, the cyclic collector would scan them again and again.
    collecting = gc.isenabled()
    gc.disable()
    try:
        # a range that fails in its child is parsed again here, so the
        # error of the earliest failing range is the one raised
        parts = parallel.fork_map(lambda r: _parse_lines(idx, *r, locations), ranges)
    finally:
        if collecting:
            gc.enable()
    rejections = [rejection for _, rejected, _ in parts for rejection in rejected]
    names = sorted(set().union(*(vocab for _, _, vocab in parts)))
    code = {name: i for i, name in enumerate(names)}
    # each range's row count, and the map from its codes, into its own
    # vocabulary, to codes into `names`
    remaps = [(sum(len(seconds) for seconds, *_ in part), np.array([code[name] for name in vocab], dtype=np.int32))
              for part, _, vocab in parts]
    # the chunks by column, each column's released as soon as it is joined
    stacks = list(zip(*(chunk for part, _, _ in parts for chunk in part))) or [[np.array([], np.int32)]] * 6
    del parts
    columns = [np.concatenate(stacks.pop(0)) for _ in range(len(stacks))]
    start = 0
    for rows, remap in remaps:
        for codes in columns[1:5]:
            codes[start:start + rows] = remap[codes[start:start + rows]]
        start += rows
    events = EventTable(*columns, names=names)
    # a stable sort of a column already in order leaves every row where it is
    if (events.seconds[1:] >= events.seconds[:-1]).all():
        return events, rejections
    return events.take(np.argsort(events.seconds, kind="stable")), rejections


def check_locations(locations: frozenset[str] | set[str]) -> None:
    """Raise ValueError unless the meal-location set is usable."""
    if not locations:
        raise ValueError("locations set must be non-empty")


def filter_meal_locations(
    events: Iterable[SensorEvent],
    locations: frozenset[str] | set[str] = DEFAULT_MEAL_LOCATIONS,
) -> EventTable:
    """Keep only events whose location is in `locations`, order preserved."""
    check_locations(locations)
    table = EventTable.from_records(events)
    wanted = [code for code, name in enumerate(table.names) if name in locations]
    return table.take(np.isin(table.location, wanted))


def household_codes(table: EventTable) -> dict[str, int]:
    """Each household id of `table`, in id order, with its code into
    `table.names`."""
    present = np.flatnonzero(np.bincount(table.household, minlength=len(table.names)))
    return dict(sorted((table.names[code], code) for code in present.tolist()))


def household_events(table: EventTable, code: int) -> EventTable:
    """The events of the household `code`, order preserved: `table` itself
    when it holds no other household, so no copy is taken."""
    rows = table.household == code
    return table if rows.all() else table.take(rows)


def field_types(record_type: type) -> dict[str, type]:
    """The declared type of each field of the dataclass `record_type`, by
    name in field order: the columns or keys of its file format."""
    hints = get_type_hints(record_type)
    return {f.name: hints[f.name] for f in dataclasses.fields(record_type)}


def records_to_csv(record_type: type, records: Iterable) -> str:
    """CSV text of `records`, instances of the dataclass `record_type` or
    a `RecordTable` of them: a header of its field names in order, then one
    line per record, each ending in a bare newline. Every CSV the package
    writes is written here, so a record type is its own file format. Each
    column's format follows from its field's declared type: a datetime in
    TIMESTAMP_FORMAT, any other value as csv.writer writes it (a float
    through repr, None empty). A table is written from its columns, each
    datetime column formatted by one np.datetime_as_string, which writes
    what strftime does for the years 1000 to 9999."""
    kinds = field_types(record_type)
    if isinstance(records, RecordTable) and records.record_type is record_type:
        columns = records.fields(lambda stamps: np.datetime_as_string(stamps, unit="s").tolist())
    else:
        records = list(records)
        columns = []
        for name, kind in kinds.items():
            column = map(attrgetter(name), records)
            if kind is datetime:
                column = map(methodcaller("strftime", TIMESTAMP_FORMAT), column)
            columns.append(column)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(kinds)
    writer.writerows(zip(*columns))
    return out.getvalue()


def _cell_reader(kind):
    """The function that reads a field of declared type `kind` back from
    its `records_to_csv` text: an empty field is None where None is allowed."""
    if kind is datetime:
        return lambda text: datetime.strptime(text, TIMESTAMP_FORMAT)
    if type(None) in getattr(kind, "__args__", ()):
        (inner,) = (arg for arg in kind.__args__ if arg is not type(None))
        read = _cell_reader(inner)
        return lambda text: None if text == "" else read(text)
    return kind


def records_from_csv(record_type: type, text: str) -> list:
    """The records of `records_to_csv(record_type, records)` text, read by
    the types of the same fields; raises ValueError on another header."""
    reader = csv.reader(io.StringIO(text))
    kinds = field_types(record_type)
    header = next(reader, [])
    if header != list(kinds):
        raise ValueError(f"unexpected {record_type.__name__} CSV header: {header}")
    cells = list(map(_cell_reader, kinds.values()))
    return [record_type(*(read(cell) for read, cell in zip(cells, row))) for row in reader if row]

