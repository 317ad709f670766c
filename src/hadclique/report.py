"""Result records for the clique searches.

A search produces one :class:`EssayResult` per independent attempt and a
:class:`SearchReport` wrapping them together with the configuration echo.
:func:`run_essays` runs the attempts of every search. Reports are pure
data; serialization lives in :mod:`hadclique.files`.
"""

from __future__ import annotations

import operator
import os
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Any, Callable

from .graph import Clique

__all__ = ["EssayResult", "SearchReport", "run_essays"]


def utc_stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True, slots=True)
class EssayResult:
    """One independent search attempt; a GA run (ga.run_ga) is one essay.

    generations is only populated by the genetic search: entry g is the best
    clique size present in the population after generation g, with entry 0
    recording the freshly initialized population. No search caps its
    candidates, so overflow is a class constant that perfbench's gate reads.
    """

    overflow = False

    index: int
    clique: Clique
    seconds: float
    generations: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return len(self.clique)

    @property
    def first_best_generation(self) -> int | None:
        """Earliest generation whose best already matches the final best."""
        return self.generations.index(self.generations[-1]) if self.generations else None


@dataclass(frozen=True, slots=True)
class SearchReport:
    algorithm: str
    t: int
    config: tuple[tuple[str, object], ...]
    essays: tuple[EssayResult, ...]
    started: str = field(default_factory=utc_stamp)
    finished: str = field(default_factory=utc_stamp)

    @property
    def _top(self) -> EssayResult | None:
        """The essay with the largest clique; the earliest wins ties."""
        return max(self.essays, key=lambda e: (e.size, -e.index), default=None)

    @property
    def best(self) -> Clique:
        """Largest clique found; empty when no essay ran."""
        top = self._top
        return Clique(t=self.t, members=()) if top is None else top.clique

    @property
    def best_essay(self) -> int | None:
        top = self._top
        return None if top is None else top.index

    @property
    def depth(self) -> int:
        """Rows of the partial Hadamard matrix the best clique yields."""
        return len(self.best) + 3

    @property
    def third_threshold(self) -> int:
        """floor(4t/3): the depth guaranteed constructible for every width."""
        return (4 * self.t) // 3

    @property
    def half_threshold(self) -> int:
        """2t: half of the full width 4t."""
        return 2 * self.t

    @property
    def exceeds_third(self) -> bool:
        return self.depth > self.third_threshold

    @property
    def exceeds_half(self) -> bool:
        return self.depth > self.half_threshold


# A worker sends its finished essays at most this often, so the parent,
# which shares the CPUs with the workers, wakes a few times a second.
_SEND_S = 0.1


def _may_claim(i: int, essays: int, at_once: int, deadline: float | None) -> bool:
    """Whether essay i starts: the first at_once always do, later ones until the deadline.

    The deadline is a perf_counter reading of the caller's; it holds in a
    forked worker because perf_counter reads the system's monotonic clock.
    """
    return i < essays and (i < at_once or deadline is None or time.perf_counter() <= deadline)


def _check_int(name: str, value: object, least: int | None = None) -> int:
    """value as a plain int, or ValueError naming name.

    value must be what operator.index accepts, bool excepted, and not below
    least when least is given. A float or bool count would otherwise run a
    rounded number of essays or chromosomes and echo the value as given. The
    plain int is what a config keeps of its t and rng_seed: codes are Python
    ints, and random.Random takes no numpy integer.
    """
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and n < least:
        bound = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {bound}, got {n}")
    return n


def _check_run(essays: int, jobs: int, time_limit: float | None) -> int:
    """The essays that run at once, min(jobs, essays).

    ValueError for essays or jobs not an int of at least 1, or a negative
    or NaN time_limit. A search calls it before building its tables, so a
    refused run builds nothing, and sizes its memory by what it returns.
    """
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time_limit must be nonnegative, got {time_limit}")
    return min(_check_int("essays", essays, 1), _check_int("jobs", jobs, 1))


def run_essays(
    algorithm: str,
    t: int,
    config: tuple[tuple[str, object], ...],
    essay: Callable[[int], EssayResult],
    essays: int,
    jobs: int = 1,
    time_limit: float | None = None,
) -> SearchReport:
    """Run essay(0) .. essay(essays - 1) and collect them in a report.

    _check_run gives the number of essays that run at once, min(jobs,
    essays). When it is 1 the essays run inline on the caller's thread.
    Otherwise that many worker processes are forked, once per call, which
    claim the next essay index from one shared counter. The workers inherit
    the essay, which is never pickled, and the read-only tables it uses,
    whose pages they share with the caller until written. Fork copies only
    the calling thread, so a caller that runs other threads should pass
    jobs = 1. Where fork is unavailable the essays run inline.
    time_limit, in seconds from the call, is checked before each essay
    starts: the first min(jobs, essays) essays always run, a started essay
    always finishes, and no later one starts once it has passed. The report
    holds essays 0 .. n - 1 in index order, so when each essay draws its
    randomness from its index the report does not depend on jobs. An
    exception raised by an essay reaches the caller with its type. Arguments
    that _check_run refuses raise ValueError.
    """
    at_once = _check_run(essays, jobs, time_limit)
    started = utc_stamp()
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    results = None
    if at_once > 1:
        import multiprocessing  # here only: a jobs = 1 caller may call once per essay

        if "fork" in multiprocessing.get_all_start_methods():
            results = _run_forked(multiprocessing.get_context("fork"), essay, essays, at_once, deadline)
    if results is None:
        results = []
        while _may_claim(len(results), essays, at_once, deadline):
            results.append(essay(len(results)))
    return SearchReport(
        algorithm=algorithm,
        t=t,
        config=config,
        essays=tuple(results),
        started=started,
    )


def _work(
    essay: Callable[[int], EssayResult],
    essays: int,
    at_once: int,
    deadline: float | None,
    counter: Any,
    conn: Any,
    parent: int,
) -> None:
    """One worker: claim indices and run their essays until none is left.

    It sends its results in batches (lists), then closes its end of the
    pipe; an exception is sent in place of the batch, as a tuple with the
    worker's traceback. The parent owns Ctrl-C, so the worker ignores SIGINT.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    batch: list[EssayResult] = []
    sent = time.perf_counter()
    try:
        while os.getppid() == parent:
            with counter.get_lock():
                i = counter.value
                if not _may_claim(i, essays, at_once, deadline):
                    break
                counter.value = i + 1
            batch.append(essay(i))
            if time.perf_counter() - sent >= _SEND_S:
                conn.send(batch)
                batch, sent = [], time.perf_counter()
        conn.send(batch)
    except Exception as exc:
        conn.send((exc, traceback.format_exc()))
    finally:
        conn.close()


def _run_forked(
    ctx: Any, essay: Callable[[int], EssayResult], essays: int, at_once: int, deadline: float | None
) -> list[EssayResult]:
    """Essays 0 .. n - 1 from at_once forked workers, in index order.

    The parent only reads the pipes. It always joins the workers, and
    terminates them first when it raises, on an essay's error or its own.
    Pickling drops the sharing of equal members between essays, such as a
    seed's codes that every fast essay keeps, so the parent maps each
    member code back to the first equal int it received, and a code that
    many essays hold is stored once.
    """
    from multiprocessing.connection import wait

    counter = ctx.Value("q", 0)
    parent = os.getpid()
    workers, readers = [], []
    results: list[EssayResult] = []
    shared: dict[int, int] = {}
    try:
        for _ in range(at_once):
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_work, args=(essay, essays, at_once, deadline, counter, writer, parent))
            worker.start()
            writer.close()
            workers.append(worker)
            readers.append(reader)
        while readers:
            for reader in wait(readers):
                try:
                    got = reader.recv()
                except EOFError:
                    readers.remove(reader)
                    reader.close()
                    continue
                if isinstance(got, tuple):
                    exc, trace = got
                    raise exc from ChildProcessError(f"raised in an essay worker:\n{trace}")
                for e in got:
                    members = tuple(shared.setdefault(v, v) for v in e.clique.members)
                    results.append(replace(e, clique=replace(e.clique, members=members)))
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for reader in readers:
            reader.close()
        for worker in workers:
            worker.join()
    for worker in workers:
        if worker.exitcode:
            raise ChildProcessError(f"essay worker {worker.pid} exited with code {worker.exitcode}")
    results.sort(key=lambda e: e.index)
    return results
