"""How many CPUs a process may use, and a map that spreads its items over
forked children, keeping no more processes busy than that.

A process may keep as many CPUs busy as its affinity mask holds, or one
where the platform cannot fork. A household pool worker is given its
share of the pool's CPUs instead (`set_cpu_budget`, the pool's
initializer), so workers that fork again never ask for more CPUs than
the run has.

Children are forked, not spawned, so they start with the caller's data
and imports and nothing is sent to them; only their results are
pickled.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress
from typing import BinaryIO, Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Per process: only a pool worker's initializer sets it, so the process
# that runs the pool, and every test, reads its affinity.
_budget: int | None = None


def cpu_budget() -> int:
    """The number of processes this one may keep busy at once, itself
    included."""
    if _budget is not None:
        return _budget
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def set_cpu_budget(cpus: int) -> None:
    """Let this process keep `cpus` processes busy, whatever its affinity."""
    global _budget
    _budget = cpus


def _fork(fn: Callable[[T], R], item: T) -> tuple[int, BinaryIO] | None:
    """A child computing fn(item) and writing it, pickled, to the pipe
    whose read end is returned with its pid; None if it could not start.

    The child ends through `os._exit` whatever fn does, so it never runs
    its parent's code past this call; it exits with status 0 only once
    the whole result is written.
    """
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
            with os.fdopen(w, "wb") as out:
                pickle.dump(fn(item), out, protocol=pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _receive(pid: int, stream: BinaryIO) -> tuple[bool, object]:
    """Whether the child `pid` sent its whole result over `stream` and then
    exited with status 0, and that result; the child is reaped.

    The result is unpickled as it is read, so it is held once. The stream
    is closed before the wait, so a child still writing to it ends.
    """
    with stream:
        try:
            result, loaded = pickle.load(stream), True
        except (EOFError, pickle.UnpicklingError):  # the child died or raised mid-write
            result, loaded = None, False
    _, status = os.waitpid(pid, 0)
    return loaded and os.waitstatus_to_exitcode(status) == 0, result


def fork_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(item) for item in items], with at most `cpu_budget()` processes
    busy at once: items[1:cpu_budget()] each in a forked child that sends
    its result back over a pipe, items[0] and then every item past them
    in this process.

    An item whose child could not start, died, raised or did not send its
    whole result is computed again in this process, so only this process
    raises. Every child is reaped before this returns or raises.
    """
    children: list[tuple[int, BinaryIO] | None] = []
    try:
        for item in items[1:cpu_budget()]:
            children.append(_fork(fn, item))
        children += [None] * (len(items) - 1 - len(children))  # items past the budget: computed here
        results = [fn(items[0])]
        for i, item in enumerate(items[1:]):
            if children[i] is not None:
                sent, result = _receive(*children[i])
                children[i] = None
                if sent:
                    results.append(result)
                    continue
            results.append(fn(item))
        return results
    finally:
        for child in children:
            if child is not None:
                pid, stream = child
                stream.close()
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
