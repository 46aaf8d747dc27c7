"""How many CPUs a process may use, and one scheduler that spreads items
over reused forked children, keeping no more processes busy than that.

The scheduler writes the items' indices into one job pipe and then forks
its children, each given its share of the caller's CPUs. Each child pulls
index after index and writes an (index, raised, result or exception)
record per item to a pipe of its own. Children are forked, not spawned,
so they start with the caller's data; only their records are pickled.
"""

from __future__ import annotations

import os
import pickle
import select
import selectors
import signal
import sys
from contextlib import suppress
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Per process: only the scheduler's children set it, to their share of
# their parent's CPUs, so the caller, and every test, reads its affinity.
_budget: int | None = None

# The indices one job pipe takes: a write of at most PIPE_BUF bytes to an
# empty pipe never blocks, so it is filled before any child starts.
_PER_PIPE = select.PIPE_BUF // 4


def cpu_budget() -> int:
    """The number of processes this one may keep busy at once, itself
    included."""
    if _budget is not None:
        return _budget
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _pulled(jobs: int) -> Iterator[int]:
    """The indices pulled from the job pipe `jobs` until it is empty, which
    reads as its end: its write end is closed before any child starts. A
    4-byte read from a pipe is atomic, so no index is pulled twice."""
    while data := os.read(jobs, 4):
        yield int.from_bytes(data, sys.byteorder)


def _fork(fn: Callable[[T], R], items: Sequence[T], jobs: int, budget: int) -> tuple[BinaryIO, int] | None:
    """The record pipe's read end and the pid of a child with `budget` CPUs
    that writes (i, raised, fn(items[i]) or its exception) for each index i
    it pulls from `jobs`; None if it could not start. The child ends
    through `os._exit`, with status 0 once every record is written."""
    global _budget
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)
            _budget = budget
            with os.fdopen(w, "wb") as out:
                for i in _pulled(jobs):
                    try:
                        record = (i, False, fn(items[i]))
                    except Exception as exc:
                        record = (i, True, exc)
                    pickle.dump(record, out, protocol=pickle.HIGHEST_PROTOCOL)
                    out.flush()
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return os.fdopen(r, "rb"), pid


def _read(stream: BinaryIO, records: dict) -> bool:
    """Load into `records` each record `stream` gives at once, including
    those it buffered, which a selector cannot see; False once it ends."""
    try:
        while True:
            i, raised, result = pickle.load(stream)
            records[i] = raised, result, False
            os.set_blocking(stream.fileno(), False)
            more = stream.peek(1)
            os.set_blocking(stream.fileno(), True)
            if not more:
                return True
    except (EOFError, pickle.UnpicklingError):  # the child exited, or died mid-record
        return False


def _schedule(fn: Callable[[T], R], items: Sequence[T], children: int, first: bool) -> dict[int, tuple]:
    """Compute fn(item) for each of the first `_PER_PIPE` items in up to
    `children` forked children that pull indices from one job pipe, each
    given this process's CPUs divided by the processes computing. With
    `first`, this process computes items[0] and then pulls beside them;
    without, it replaces a child that dies while items may remain. It
    computes what no child pulled. Returns (raised, result or exception,
    computed here) by index; a missing index was lost with its child.
    Every child is reaped before this returns or raises."""
    records: dict[int, tuple[bool, object, bool]] = {}
    live: dict[BinaryIO, int] = {}
    deaths, share = 0, cpu_budget() // (children + first)

    def here(pulled: Iterable[int]) -> None:
        for i in pulled:
            try:
                records[i] = False, fn(items[i]), True
            except Exception as exc:
                if first and i == 0:
                    raise  # the earliest item's error: no record can come before it
                records[i] = True, exc, True

    try:
        jobs, w = os.pipe()
    except OSError:
        here(range(len(items)))
        return records
    try:
        with os.fdopen(w, "wb") as out:
            out.write(b"".join(i.to_bytes(4, sys.byteorder) for i in range(first, min(len(items), _PER_PIPE))))
        for _ in range(children):
            if child := _fork(fn, items, jobs, share):
                live.update([child])
        if first:
            here(chain([0], _pulled(jobs)))
        with selectors.DefaultSelector() as selector:
            for stream in live:
                selector.register(stream, selectors.EVENT_READ)
            while live:
                for stream in [key.fileobj for key, _ in selector.select()]:
                    if _read(stream, records):
                        continue
                    selector.unregister(stream)
                    stream.close()
                    if os.waitstatus_to_exitcode(os.waitpid(live.pop(stream), 0)[1]) == 0:
                        continue
                    deaths += 1  # each death may have taken an item with it
                    if not first and len(records) + len(live) + deaths < len(items) and (
                            child := _fork(fn, items, jobs, share)):
                        live.update([child])
                        selector.register(child[0], selectors.EVENT_READ)
        here(_pulled(jobs))
        return records
    finally:
        os.close(jobs)
        for stream, pid in live.items():
            stream.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def fork_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(item) for item in items], with at most `cpu_budget()` processes
    busy: this process computes items[0] and then pulls items beside
    `min(cpu_budget(), len(items)) - 1` forked children, and computes the
    items past the first `_PER_PIPE`. An item whose child could not start,
    died, raised or sent no whole record is computed again here, so only
    this process raises: the error of the earliest failing item. No items
    give [] with no fork.
    """
    children = min(cpu_budget(), len(items)) - 1
    records = _schedule(fn, items, children, first=True) if children > 0 else {}
    results = []
    for i, item in enumerate(items):
        raised, result, here = records.get(i, (True, None, False))
        if raised and here:
            raise result
        results.append(fn(item) if raised else result)
    return results


def fork_each(fn: Callable[[T], R], items: Sequence[T], lost: Callable[[T], R]) -> list[R]:
    """[fn(item) for item in items] from `min(cpu_budget(), len(items))`
    forked children, none computed here while a child can take it; with
    one CPU or item, all here. An item lost with its child gives
    lost(item); an exception fn raised in a child is raised again here.
    """
    children = min(cpu_budget(), len(items))
    if children < 2:
        return [fn(item) for item in items]
    if len(items) > _PER_PIPE:
        return [*fork_each(fn, items[:_PER_PIPE], lost), *fork_each(fn, items[_PER_PIPE:], lost)]
    records = _schedule(fn, items, children, first=False)
    results = []
    for i, item in enumerate(items):
        raised, result, _ = records.get(i, (False, lost(item), False))
        if raised:
            raise result
        results.append(result)
    return results
