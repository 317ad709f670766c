"""Result records for the clique searches.

A search produces one :class:`EssayResult` per independent attempt and a
:class:`SearchReport` wrapping them together with the configuration echo.
:func:`run_essays` runs the attempts of every search. Reports are pure
data; serialization lives in :mod:`hadclique.files`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

from .graph import Clique

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

    Essays run in waves of jobs threads; jobs = 1 runs them inline on the
    caller's thread. time_limit, in seconds, is checked between waves: the
    first wave always runs, a started wave always finishes, and the rest
    are skipped once it has passed. Results keep index order, so when each
    essay draws its randomness from its index the report does not depend
    on jobs.
    """
    if essays < 1:
        raise ValueError(f"essays must be positive, got {essays}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    started = utc_stamp()
    clock = time.perf_counter()
    results: list[EssayResult] = []
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for at in range(0, essays, jobs):
            if results and time_limit is not None and time.perf_counter() - clock > time_limit:
                break
            results.extend(run(essay, range(at, min(at + jobs, essays))))
    return SearchReport(
        algorithm=algorithm,
        t=t,
        config=config,
        essays=tuple(results),
        started=started,
        finished=utc_stamp(),
    )
