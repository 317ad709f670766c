"""Result records for the clique searches.

A search produces one :class:`EssayResult` per independent attempt and a
:class:`SearchReport` wrapping them together with the configuration echo.
:func:`run_essays` runs the attempts of every search. Reports are pure
data; serialization lives in :mod:`hadclique.files`.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Any, Callable

from .graph import Clique, VertexCode

__all__ = ["EssayResult", "SearchReport", "run_essays", "utc_stamp"]


def utc_stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True, slots=True)
class EssayResult:
    """One independent search attempt.

    generations is only populated by the genetic search: entry g is the best
    clique size present in the population after generation g, with entry 0
    recording the freshly initialized population.
    """

    index: int
    clique: Clique
    seconds: float
    overflow: bool = False  # never set; kept while perfbench's gate reads it
    generations: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return len(self.clique)

    @property
    def first_best_generation(self) -> int | None:
        """Earliest generation whose best already matches the final best."""
        if not self.generations:
            return None
        final = self.generations[-1]
        for g, s in enumerate(self.generations):
            if s == final:
                return g
        return None


@dataclass(frozen=True, slots=True)
class SearchReport:
    algorithm: str
    t: int
    config: tuple[tuple[str, object], ...]
    essays: tuple[EssayResult, ...]
    started: str = field(default_factory=utc_stamp)
    finished: str = field(default_factory=utc_stamp)

    @property
    def best(self) -> Clique:
        """Largest clique found; earliest essay wins ties."""
        if not self.essays:
            return Clique(t=self.t, members=())
        return max(self.essays, key=lambda e: (e.size, -e.index)).clique

    @property
    def best_essay(self) -> int | None:
        if not self.essays:
            return None
        return max(self.essays, key=lambda e: (e.size, -e.index)).index

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


def _may_claim(i: int, essays: int, jobs: int, deadline: float | None) -> bool:
    """Whether essay i starts: the first jobs always do, later ones until the deadline.

    The deadline is a perf_counter reading of the caller's; it holds in a
    forked worker because perf_counter reads the system's monotonic clock.
    """
    return i < essays and (i < jobs or deadline is None or time.perf_counter() <= deadline)


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

    jobs = 1 runs the essays inline on the caller's thread. jobs > 1 forks
    min(jobs, essays) worker processes, once per call, which claim the
    next essay index from one shared counter. The workers inherit the
    essay, which is never pickled, and the read-only tables it uses, whose
    pages they share with the caller until written. Fork copies only the
    calling thread, so a caller that runs other threads should pass
    jobs = 1. Where fork is unavailable the essays run inline.
    time_limit, in seconds from the call, is checked before each essay
    starts: essays 0 .. jobs - 1 always run, a started essay always
    finishes, and no later one starts once it has passed. The report holds
    essays 0 .. n - 1 in index order, so when each essay draws its
    randomness from its index the report does not depend on jobs. An
    exception raised by an essay reaches the caller with its type. A
    negative time_limit raises ValueError.
    """
    if time_limit is not None and time_limit < 0:
        raise ValueError(f"time_limit must be nonnegative, got {time_limit}")
    if essays < 1:
        raise ValueError(f"essays must be positive, got {essays}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    started = utc_stamp()
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    results = None
    if min(jobs, essays) > 1:
        import multiprocessing  # here only: a jobs = 1 caller may call once per essay

        if "fork" in multiprocessing.get_all_start_methods():
            results = _run_forked(multiprocessing.get_context("fork"), essay, essays, jobs, deadline)
    if results is None:
        results = []
        while _may_claim(len(results), essays, jobs, deadline):
            results.append(essay(len(results)))
    return SearchReport(
        algorithm=algorithm,
        t=t,
        config=config,
        essays=tuple(results),
        started=started,
        finished=utc_stamp(),
    )


def _work(
    essay: Callable[[int], EssayResult],
    essays: int,
    jobs: int,
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
                if not _may_claim(i, essays, jobs, deadline):
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
    ctx: Any, essay: Callable[[int], EssayResult], essays: int, jobs: int, deadline: float | None
) -> list[EssayResult]:
    """Essays 0 .. n - 1 from min(jobs, essays) forked workers, in index order.

    The parent only reads the pipes. It always joins the workers, and
    terminates them first when it raises, on an essay's error or its own.
    Pickling drops the sharing of equal members between essays, such as a
    seed's members that every fast essay keeps, so the parent maps each
    member back to the first equal one it received.
    """
    from multiprocessing.connection import wait

    counter = ctx.Value("q", 0)
    parent = os.getpid()
    workers, readers = [], []
    results: list[EssayResult] = []
    shared: dict[VertexCode, VertexCode] = {}
    try:
        for _ in range(min(jobs, essays)):
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_work, args=(essay, essays, jobs, deadline, counter, writer, parent))
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
