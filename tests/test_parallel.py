import os
import signal
import time
import tracemalloc

import pytest

from mealclust import parallel
from mealclust.parallel import fork_each, fork_map
from test_cli import needs_fork, no_child_is_left, set_cpus


def fail_pipe_call(monkeypatch, call, error):
    """Make the `call`-th os.pipe call raise `error`; returns the call count."""
    real_pipe = os.pipe
    calls = []

    def pipe():
        calls.append(1)
        if len(calls) == call:
            raise error
        return real_pipe()

    monkeypatch.setattr(os, "pipe", pipe)
    return calls


def count_forks(monkeypatch):
    """Count the os.fork calls of this process; returns the count."""
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@needs_fork
def test_an_item_whose_pipe_cannot_be_made_is_computed_here(monkeypatch):
    set_cpus(monkeypatch, 3)
    # the job pipe: every item here, and no fork
    calls = fail_pipe_call(monkeypatch, 1, OSError(24, "Too many open files"))
    forks = count_forks(monkeypatch)
    results = fork_map(lambda x: (x * x, os.getpid()), [1, 2, 3])
    assert results == [(1, os.getpid()), (4, os.getpid()), (9, os.getpid())]
    assert len(calls) == 1 and not forks
    # the first child's record pipe: the second child and this process
    # pull every item past the first
    calls = fail_pipe_call(monkeypatch, 2, OSError(24, "Too many open files"))
    results = fork_map(lambda x: (x * x, os.getpid()), [1, 2, 3])
    assert [square for square, _ in results] == [1, 4, 9]
    assert results[0][1] == os.getpid()
    assert len(calls) == 3 and len(forks) == 1
    no_child_is_left()


@needs_fork
def test_a_child_already_forked_is_reaped_when_forking_fails(monkeypatch):
    # the job pipe and the first child's pipe are made; the second child's is not
    set_cpus(monkeypatch, 3)
    fail_pipe_call(monkeypatch, 3, RuntimeError("not an OSError"))
    forks = count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="not an OSError"):
        fork_map(lambda x: x, [1, 2, 3])
    assert len(forks) == 1
    no_child_is_left()


@pytest.mark.parametrize("budget", [1, pytest.param(2, marks=needs_fork), pytest.param(3, marks=needs_fork)])
def test_no_more_items_fork_than_the_cpu_budget_has_spare(monkeypatch, budget):
    # items[1:budget] each in a child; item 0 and the items past them here
    set_cpus(monkeypatch, budget)
    forks = []
    real_fork = getattr(os, "fork", None)

    def counting_fork():
        forks.append(1)
        if budget == 1:
            raise AssertionError("a fork was tried at a budget of one CPU")
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork, raising=False)
    results = fork_map(lambda x: (x, os.getpid()), [0, 1, 2, 3])
    assert [x for x, _ in results] == [0, 1, 2, 3]
    assert len(forks) == budget - 1
    # item 0 here, every other item wherever it was pulled first: here or
    # in one of the children
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) <= budget
    no_child_is_left()


@needs_fork
def test_a_result_larger_than_the_pipe_buffer_is_held_once(monkeypatch, tmp_path):
    # 8 MB from the child, over a pipe that holds 64 KiB: the parent
    # unpickles it as it reads, so it never holds a second copy
    set_cpus(monkeypatch, 2)
    size = 8_000_000
    started = tmp_path / "started"

    def fn(n):
        # item 0 waits here until the child has pulled item 1
        if n == size:
            started.touch()
        while not started.exists():
            time.sleep(0.005)
        return bytes([n % 251]) * n, os.getpid()

    tracemalloc.start()
    try:
        results = fork_map(fn, [1, size])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [data for data, _ in results] == [b"\x01", bytes([size % 251]) * size]
    assert results[0][1] == os.getpid() != results[1][1]
    assert peak < 1.5 * size
    no_child_is_left()


class _DiesWhenPickled:
    """Kills the process that pickles it, so a child sending it has written
    the part of its result before it and then dies."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
def test_an_item_whose_child_dies_mid_write_is_computed_here(monkeypatch, tmp_path):
    set_cpus(monkeypatch, 3)
    parent = os.getpid()

    def fn(x):
        # item 0 waits here until each child has pulled an item
        if os.getpid() != parent:
            (tmp_path / str(x)).touch()
        while x == 1 and len(list(tmp_path.iterdir())) < 2:
            time.sleep(0.005)
        return bytes([x]) * 1_000_000, os.getpid(), _DiesWhenPickled()

    results = fork_map(fn, [1, 2, 3])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["2", "3"]
    assert [data for data, _, _ in results] == [bytes([x]) * 1_000_000 for x in (1, 2, 3)]
    assert all(pid == parent for _, pid, _ in results)
    no_child_is_left()


@needs_fork
def test_an_error_of_the_first_item_is_raised_at_once(monkeypatch):
    # no item can fail before the first, so its child is not waited for
    set_cpus(monkeypatch, 2)

    def fn(x):
        if x == 0:
            raise ValueError("the first item")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError, match="the first item"):
        fork_map(fn, [0, 1])
    assert time.monotonic() - start < 30
    no_child_is_left()


@pytest.mark.parametrize("budget", [1, 2])
def test_no_items_give_no_results_and_no_fork(monkeypatch, budget):
    set_cpus(monkeypatch, budget)

    def forbidden_fork():
        raise AssertionError("fork_map forked for no items")

    monkeypatch.setattr(os, "fork", forbidden_fork, raising=False)
    assert fork_map(lambda x: x, []) == []


def died(x):
    return f"{x} died"


@needs_fork
@pytest.mark.parametrize("budget", [2, 3])
def test_fork_each_computes_every_item_once_in_reused_children(monkeypatch, tmp_path, budget):
    # each child logs the items it computes; an index pulled twice would
    # show twice
    set_cpus(monkeypatch, budget)
    forks = count_forks(monkeypatch)
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def fn(x):
        os.write(log, b"%d\n" % x)
        return x * x, os.getpid()

    try:
        results = fork_each(fn, range(300), died)
    finally:
        os.close(log)
    assert [square for square, _ in results] == [x * x for x in range(300)]
    assert sorted(map(int, (tmp_path / "log").read_text().split())) == list(range(300))
    pids = {pid for _, pid in results}
    assert len(forks) == budget and len(pids) <= budget and os.getpid() not in pids
    no_child_is_left()


@needs_fork
def test_fork_each_loses_only_the_items_whose_children_die(monkeypatch):
    # two items kill the two first children; each is replaced, so no
    # other item is lost or computed here
    set_cpus(monkeypatch, 2)

    def fn(x):
        if x in (1, 2):
            os._exit(9)
        return x, os.getpid()

    results = fork_each(fn, range(8), died)
    assert results[1:3] == ["1 died", "2 died"]
    assert [x for x, _ in results[:1] + results[3:]] == [0, *range(3, 8)]
    assert os.getpid() not in {pid for _, pid in results[:1] + results[3:]}
    no_child_is_left()


@needs_fork
def test_fork_each_raises_here_what_a_child_raised(monkeypatch):
    set_cpus(monkeypatch, 2)

    def fn(x):
        if x == 3:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        fork_each(fn, range(6), died)
    no_child_is_left()


@needs_fork
def test_fork_each_computes_here_what_no_child_could_take(monkeypatch):
    set_cpus(monkeypatch, 2)

    def failing_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert fork_each(lambda x: (x, os.getpid()), range(4), died) == [(x, os.getpid()) for x in range(4)]


@needs_fork
def test_items_past_one_job_pipe(monkeypatch):
    # fork_each sends them to fresh children, one job pipe at a time;
    # fork_map computes them here
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    n = 2 * parallel._PER_PIPE + 5
    results = fork_each(lambda x: (x, os.getpid()), range(n), died)
    assert [x for x, _ in results] == list(range(n)) and os.getpid() not in {pid for _, pid in results}
    assert len(forks) == 2 * 3
    results = fork_map(lambda x: (x, os.getpid()), range(n))
    assert [x for x, _ in results] == list(range(n))
    assert {pid for _, pid in results[parallel._PER_PIPE:]} == {os.getpid()}
    assert len(forks) == 2 * 3 + 1
    no_child_is_left()
