import os
import signal
import tracemalloc

import pytest

from mealclust.parallel import fork_map
from test_cli import needs_fork, no_child_is_left, set_cpus


def fail_second_pipe(monkeypatch, error):
    """Make the second os.pipe call raise `error`; returns the call count."""
    real_pipe = os.pipe
    calls = []

    def pipe():
        calls.append(1)
        if len(calls) == 2:
            raise error
        return real_pipe()

    monkeypatch.setattr(os, "pipe", pipe)
    return calls


@needs_fork
def test_an_item_whose_pipe_cannot_be_made_is_computed_here(monkeypatch):
    set_cpus(monkeypatch, 3)
    calls = fail_second_pipe(monkeypatch, OSError(24, "Too many open files"))
    results = fork_map(lambda x: (x * x, os.getpid()), [1, 2, 3])
    assert [square for square, _ in results] == [1, 4, 9]
    pids = [pid for _, pid in results]
    assert pids[0] == pids[2] == os.getpid() != pids[1]  # item 1 in its child, item 2 here
    assert len(calls) == 2
    no_child_is_left()


@needs_fork
def test_a_child_already_forked_is_reaped_when_forking_fails(monkeypatch):
    set_cpus(monkeypatch, 3)
    fail_second_pipe(monkeypatch, RuntimeError("not an OSError"))
    with pytest.raises(RuntimeError, match="not an OSError"):
        fork_map(lambda x: x, [1, 2, 3])
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
    here = [x for x, pid in results if pid == os.getpid()]
    assert here == [0, *range(budget, 4)]
    no_child_is_left()


@needs_fork
def test_a_result_larger_than_the_pipe_buffer_is_held_once(monkeypatch):
    # 8 MB from the child, over a pipe that holds 64 KiB: the parent
    # unpickles it as it reads, so it never holds a second copy
    set_cpus(monkeypatch, 2)
    size = 8_000_000
    tracemalloc.start()
    try:
        results = fork_map(lambda n: (bytes([n % 251]) * n, os.getpid()), [1, size])
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
def test_an_item_whose_child_dies_mid_write_is_computed_here(monkeypatch):
    set_cpus(monkeypatch, 3)
    results = fork_map(lambda x: (bytes([x]) * 1_000_000, os.getpid(), _DiesWhenPickled()), [1, 2, 3])
    assert [data for data, _, _ in results] == [bytes([x]) * 1_000_000 for x in (1, 2, 3)]
    assert all(pid == os.getpid() for _, pid, _ in results)
    no_child_is_left()


@pytest.mark.parametrize("budget", [1, 2])
def test_no_items_give_no_results_and_no_fork(monkeypatch, budget):
    set_cpus(monkeypatch, budget)

    def forbidden_fork():
        raise AssertionError("fork_map forked for no items")

    monkeypatch.setattr(os, "fork", forbidden_fork, raising=False)
    assert fork_map(lambda x: x, []) == []
