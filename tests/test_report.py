"""report.run_essays, the essay runner every search goes through, with stub essays."""

import threading
import time

import pytest

from hadclique import Clique
from hadclique.report import EssayResult, run_essays

CONFIG = (("essays", 0), ("rng_seed", 0))


def _stub(calls: list[int], delay=lambda i: 0.0):
    def essay(i: int) -> EssayResult:
        time.sleep(delay(i))
        calls.append(i)
        return EssayResult(index=i, clique=Clique(t=2, members=()), seconds=0.0)

    return essay


def test_results_keep_index_order_when_later_essays_finish_first():
    calls: list[int] = []
    rep = run_essays("stub", 2, CONFIG, _stub(calls, lambda i: 0.04 * (3 - i % 3)), essays=7, jobs=3)
    assert [e.index for e in rep.essays] == list(range(7))
    assert calls != sorted(calls)  # the threads did finish out of order
    assert (rep.algorithm, rep.t, rep.config) == ("stub", 2, CONFIG)


@pytest.mark.parametrize("jobs", [1, 3])
def test_a_spent_time_limit_runs_exactly_the_first_wave(jobs):
    calls: list[int] = []
    rep = run_essays("stub", 2, CONFIG, _stub(calls), essays=10, jobs=jobs, time_limit=0)
    assert [e.index for e in rep.essays] == list(range(jobs))
    assert sorted(calls) == list(range(jobs))


def test_a_negative_time_limit_is_refused_before_any_essay():
    calls: list[int] = []
    with pytest.raises(ValueError, match="time_limit"):
        run_essays("stub", 2, CONFIG, _stub(calls), essays=3, time_limit=-1)
    assert calls == []


def test_no_time_limit_runs_every_essay():
    calls: list[int] = []
    rep = run_essays("stub", 2, CONFIG, _stub(calls), essays=5, jobs=2)
    assert [e.index for e in rep.essays] == list(range(5))


def test_more_jobs_than_essays():
    calls: list[int] = []
    rep = run_essays("stub", 2, CONFIG, _stub(calls), essays=2, jobs=5)
    assert [e.index for e in rep.essays] == [0, 1]
    assert sorted(calls) == [0, 1]


def test_one_job_runs_inline_on_the_callers_thread():
    seen: set[int] = set()

    def essay(i: int) -> EssayResult:
        seen.add(threading.get_ident())
        return EssayResult(index=i, clique=Clique(t=2, members=()), seconds=0.0)

    run_essays("stub", 2, CONFIG, essay, essays=3)
    assert seen == {threading.get_ident()}


@pytest.mark.parametrize("essays, jobs", [(0, 1), (-1, 1), (1, 0), (3, -2)])
def test_nonpositive_essays_or_jobs_raise(essays, jobs):
    calls: list[int] = []
    with pytest.raises(ValueError):
        run_essays("stub", 2, CONFIG, _stub(calls), essays=essays, jobs=jobs)
    assert calls == []
