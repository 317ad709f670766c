"""report.run_essays, the essay runner every search goes through, with stub essays,
and the int checks every search config makes.

With jobs > 1 the essays run in forked workers, so a stub records each call
as a marker file under tmp_path, named by its index and holding the pid of
the process that ran it, and returns its finish time as the essay's seconds.
"""

import multiprocessing
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from hadclique import Clique, ExactSearchConfig, FastConfig, GaConfig
from hadclique import exact, fast, ga, graph
from hadclique.errors import HadcliqueError
from hadclique.report import EssayResult, run_essays

CONFIG = (("essays", 0), ("rng_seed", 0))


def _stub(marks, delay=lambda i: 0.0):
    def essay(i: int) -> EssayResult:
        time.sleep(delay(i))
        fd, _ = tempfile.mkstemp(prefix=f"{i}-", dir=marks)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return EssayResult(index=i, clique=Clique(t=2, members=()), seconds=time.perf_counter())

    return essay


def _calls(marks) -> list[int]:
    """The index of every essay call so far, one entry per call, ascending."""
    return sorted(int(p.name.split("-")[0]) for p in marks.iterdir())


def _pids(marks) -> set[int]:
    return {int(p.read_text()) for p in marks.iterdir()}


def test_results_keep_index_order_when_later_essays_finish_first(tmp_path):
    rep = run_essays("stub", 2, CONFIG, _stub(tmp_path, lambda i: 0.04 * (3 - i % 3)), essays=7, jobs=3)
    assert [e.index for e in rep.essays] == list(range(7))
    finished = [e.index for e in sorted(rep.essays, key=lambda e: e.seconds)]
    assert finished != sorted(finished)  # the workers did finish out of order
    assert _calls(tmp_path) == list(range(7))
    assert (rep.algorithm, rep.t, rep.config) == ("stub", 2, CONFIG)


@pytest.mark.parametrize("jobs", [1, 3])
def test_a_spent_time_limit_runs_exactly_the_first_wave(jobs, tmp_path):
    rep = run_essays("stub", 2, CONFIG, _stub(tmp_path), essays=10, jobs=jobs, time_limit=0)
    assert [e.index for e in rep.essays] == list(range(jobs))
    assert _calls(tmp_path) == list(range(jobs))


def test_a_negative_time_limit_is_refused_before_any_essay(tmp_path):
    with pytest.raises(ValueError, match="time_limit"):
        run_essays("stub", 2, CONFIG, _stub(tmp_path), essays=3, time_limit=-1)
    assert _calls(tmp_path) == []


def test_no_time_limit_runs_every_essay(tmp_path):
    rep = run_essays("stub", 2, CONFIG, _stub(tmp_path), essays=5, jobs=2)
    assert [e.index for e in rep.essays] == list(range(5))


def test_more_jobs_than_essays(tmp_path):
    rep = run_essays("stub", 2, CONFIG, _stub(tmp_path), essays=2, jobs=5)
    assert [e.index for e in rep.essays] == [0, 1]
    assert _calls(tmp_path) == [0, 1]


def test_one_job_runs_inline_on_the_callers_thread():
    seen: set[int] = set()

    def essay(i: int) -> EssayResult:
        seen.add(threading.get_ident())
        return EssayResult(index=i, clique=Clique(t=2, members=()), seconds=0.0)

    run_essays("stub", 2, CONFIG, essay, essays=3)
    assert seen == {threading.get_ident()}


@pytest.mark.parametrize("essays, jobs", [(0, 1), (-1, 1), (1, 0), (3, -2)])
def test_nonpositive_essays_or_jobs_raise(essays, jobs, tmp_path):
    with pytest.raises(ValueError):
        run_essays("stub", 2, CONFIG, _stub(tmp_path), essays=essays, jobs=jobs)
    assert _calls(tmp_path) == []


@pytest.mark.parametrize(
    "essays, jobs, refused",
    [(2.5, 1, "essays"), (True, 1, "essays"), (3, 1.5, "jobs"), (3, False, "jobs")],
)
def test_a_count_that_is_not_an_int_is_refused(essays, jobs, refused, tmp_path):
    with pytest.raises(ValueError, match=f"{refused} must be an int"):
        run_essays("stub", 2, CONFIG, _stub(tmp_path), essays=essays, jobs=jobs)
    assert _calls(tmp_path) == []


def test_numpy_ints_are_counts(tmp_path):
    rep = run_essays("stub", 2, CONFIG, _stub(tmp_path), essays=np.int64(2), jobs=np.int8(1))
    assert [e.index for e in rep.essays] == [0, 1]


def test_two_jobs_run_the_essays_in_other_processes(tmp_path):
    rep = run_essays("stub", 2, CONFIG, _stub(tmp_path, lambda i: 0.01), essays=4, jobs=2)
    assert [e.index for e in rep.essays] == list(range(4))
    assert os.getpid() not in _pids(tmp_path)


def test_without_fork_the_essays_run_inline(tmp_path, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    threads: set[int] = set()
    stub = _stub(tmp_path)

    def essay(i: int) -> EssayResult:
        threads.add(threading.get_ident())
        return stub(i)

    rep = run_essays("stub", 2, CONFIG, essay, essays=4, jobs=2)
    assert [e.index for e in rep.essays] == list(range(4))
    assert _pids(tmp_path) == {os.getpid()}
    assert threads == {threading.get_ident()}


class EssayFailed(HadcliqueError):
    """An error type that only the essays below raise."""


def _raise_at_3(marks, delay=lambda i: 0.0):
    stub = _stub(marks, delay)

    def essay(i: int) -> EssayResult:
        if i == 3:
            raise EssayFailed("essay 3 failed")
        return stub(i)

    return essay


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_essay_error_reaches_the_caller_with_its_type(jobs, tmp_path):
    with pytest.raises(EssayFailed, match="essay 3 failed") as info:
        run_essays("stub", 2, CONFIG, _raise_at_3(tmp_path), essays=8, jobs=jobs)
    if jobs > 1:
        assert 'raise EssayFailed("essay 3 failed")' in str(info.value.__cause__)  # the worker's traceback


def test_a_worker_that_dies_is_an_error(tmp_path):
    stub = _stub(tmp_path)

    def essay(i: int) -> EssayResult:
        if i == 2:
            os._exit(3)
        return stub(i)

    with pytest.raises(ChildProcessError, match="exited with code 3"):
        run_essays("stub", 2, CONFIG, essay, essays=6, jobs=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("run", ["all", "time-limited", "raising"])
def test_no_worker_outlives_the_call(run, tmp_path):
    if run == "all":
        run_essays("stub", 2, CONFIG, _stub(tmp_path), essays=6, jobs=2)
    elif run == "time-limited":
        run_essays("stub", 2, CONFIG, _stub(tmp_path, lambda i: 0.01), essays=10_000, jobs=2, time_limit=0.1)
        assert len(_calls(tmp_path)) < 10_000
    else:
        # essay 0 would sleep a minute: the worker running it is terminated
        begin = time.perf_counter()
        with pytest.raises(EssayFailed):
            run_essays("stub", 2, CONFIG, _raise_at_3(tmp_path, lambda i: 60.0 * (i == 0)), essays=8, jobs=2)
        assert time.perf_counter() - begin < 30
    assert multiprocessing.active_children() == []


def test_equal_members_from_workers_are_one_object(tmp_path):
    # pickling copies a member once per batch; every fast essay keeps its seed's members
    # a code above 256, since CPython shares the objects of smaller ints anyway
    seed = Clique(t=8, members=(0x0F0F0F0F,))

    def essay(i: int) -> EssayResult:
        time.sleep(0.01)
        return EssayResult(index=i, clique=seed, seconds=0.0)

    rep = run_essays("stub", 2, CONFIG, essay, essays=60, jobs=2)
    assert [e.clique for e in rep.essays] == [seed] * 60
    assert len({id(e.clique.members[0]) for e in rep.essays}) == 1


@pytest.mark.parametrize("make", [ExactSearchConfig, GaConfig, FastConfig])
@pytest.mark.parametrize("field, value", [("rng_seed", 0.5), ("rng_seed", True), ("t", 4.0), ("t", True)])
def test_a_t_or_rng_seed_that_is_not_an_int_builds_no_pool(monkeypatch, make, field, value):
    def built(t):
        raise AssertionError(f"vertex_pool({t}) built for a refused config")

    for module in (exact, ga, graph):
        monkeypatch.setattr(module, "vertex_pool", built)
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        make(**{"t": 4, field: value})


SEARCHES = {
    "exact": lambda t, seed: exact.run_exact(ExactSearchConfig(t=t, essays=2, rng_seed=seed)),
    "ga": lambda t, seed: ga.run_many(GaConfig(t=t, max_generations=3, rng_seed=seed), essays=2),
    "fast": lambda t, seed: fast.run_many(Clique(t=3, members=()), FastConfig(t=t, rng_seed=seed), essays=2),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_a_numpy_t_and_rng_seed_run_the_essays_of_the_equal_ints(search):
    # random.Random takes no numpy integer, so a config keeps them as plain ints
    a = SEARCHES[search](np.int64(3), np.int64(5))
    b = SEARCHES[search](3, 5)
    assert [e.clique for e in a.essays] == [e.clique for e in b.essays]
    assert type(dict(a.config)["rng_seed"]) is int
    assert a.config == b.config
