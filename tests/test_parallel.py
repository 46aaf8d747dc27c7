import os

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
