"""Random greedy clique search with exact candidate filtering.

Each essay starts from a random vertex and holds the common neighborhood of
its clique as a graph.NeighborPool: the neighbors of the start vertex,
refined by each pick. A pick is a uniform rank in the pool, the same rank
into the same ascending set as in a materialized, sorted neighbor array, so
nothing of size degree(t, k) is ever built. The returned clique is maximal
by construction: the essay only stops when the pool is empty. It holds its
members as the int codes the pool returns, which is all a finished essay
keeps of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Sequence

from .errors import HadcliqueError
from .graph import (
    Clique,
    MaterializedPool,
    NeighborPool,
    VertexCode,
    decode,
    degree,
    pool_bytes,
    random_vertex,
    vertex_pool,
)
from .oracle import verify_clique
from .report import EssayResult, SearchReport, _check_int, _check_run, run_essays

__all__ = ["ExactSearchConfig", "run_exact", "extend_exact"]


@dataclass(frozen=True, slots=True)
class ExactSearchConfig:
    t: int
    essays: int = 10
    rng_seed: int = 0
    start_vertex: VertexCode | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _check_int("t", self.t))
        object.__setattr__(self, "rng_seed", _check_int("rng_seed", self.rng_seed))
        _check_int("essays", self.essays, 1)
        pool_bytes(self.t)
        if self.start_vertex is None:
            return
        if self.start_vertex.t != self.t:
            raise ValueError("start_vertex belongs to a different G_t")
        try:
            decode(self.start_vertex.code, self.t)
        except HadcliqueError as e:
            raise ValueError(f"start_vertex: {e}") from e


@lru_cache(maxsize=None)
def _start_classes(t: int) -> tuple[int, ...]:
    # restrict to classes that actually have neighbors; at odd t the
    # extreme classes k=0 and k=t are isolated and an essay started there
    # could never grow
    ks = tuple(k for k in range(t // 2 + 1) if degree(t, k) > 0)
    return ks or tuple(range(t // 2 + 1))


def _random_start(t: int, rng: Random) -> VertexCode:
    return random_vertex(t, rng, k=rng.choice(_start_classes(t)))


def adjacency(v: VertexCode) -> NeighborPool | MaterializedPool:
    """The pool-construction layer: every neighbor of v, as a pool.

    It holds the set graph.adjacency(v) materializes, in the same ascending
    order, from C(2t, t) right and C(2t, t) / 2 left halves.
    """
    return vertex_pool(v.t).refine(v.code)


def _filter_pool(
    pool: NeighborPool | MaterializedPool, *codes: int
) -> NeighborPool | MaterializedPool:
    """The intersection layer: the candidates also orthogonal to every code."""
    return pool.refine(*codes)


def _grow(pool: NeighborPool | MaterializedPool, members: Sequence[int], rng: Random) -> Clique:
    """A maximal clique of G_{pool.t}: the member codes, then the picks.

    pool must be the common neighborhood of members, which must be
    pairwise orthogonal. Each pick is a uniform rank in the pool, which is
    then refined by the pick, until the pool is empty. A pick is kept as
    the int code_at returns: every code in a pool is a vertex of G_t, so
    none is decoded.
    """
    codes = list(members)
    while pool.size:
        pick = pool.code_at(rng.randrange(pool.size))
        codes.append(pick)
        pool = _filter_pool(pool, pick)
    return Clique(t=pool.t, members=tuple(codes))


def _greedy_essay(cfg: ExactSearchConfig, index: int) -> EssayResult:
    rng = Random(cfg.rng_seed + index)
    begin = time.perf_counter()
    start = cfg.start_vertex or _random_start(cfg.t, rng)
    clique = _grow(adjacency(start), (start.code,), rng)
    return EssayResult(index=index, clique=clique, seconds=time.perf_counter() - begin)


def run_exact(cfg: ExactSearchConfig, jobs: int = 1, time_limit: float | None = None) -> SearchReport:
    """Run cfg.essays independent greedy essays through report.run_essays.

    Essay i draws all randomness from Random(rng_seed + i), so results are
    reproducible and independent of jobs. Every essay runs to a maximal
    clique: memory is set by the pool's halves, not by any degree, and
    graph.pool_bytes must admit the essays that run at once, the count
    report._check_run returns and run_essays forks on. vertex_pool(t) is
    built before run_essays forks, so its workers share it, and after the
    run's arguments are checked, so a refused run builds nothing. run_essays
    holds the worker and time_limit rules; a started essay is not
    interrupted.
    """
    config = (
        ("essays", cfg.essays),
        ("rng_seed", cfg.rng_seed),
        ("start_vertex", "-" if cfg.start_vertex is None else cfg.start_vertex.code),
    )
    pool_bytes(cfg.t, _check_run(cfg.essays, jobs, time_limit))
    vertex_pool(cfg.t)
    return run_essays(
        "exact", cfg.t, config, lambda i: _greedy_essay(cfg, i), cfg.essays, jobs, time_limit
    )


def extend_exact(c: Clique, rng: Random) -> Clique:
    """Greedily extend c to a maximal clique containing it.

    c's t is checked first: graph.vertex_pool raises ValueError for a t
    outside 1..MAX_T or past graph.pool_bytes before it allocates. Then the
    members are validated and an invalid clique is rejected as
    HadcliqueError; they are kept as given, and the new picks follow them.
    The pool is vertex_pool(t) refined by them all in one batched call, or
    an empty c's random start's neighbors. It is held as halves and never
    materialized.
    """
    pool = vertex_pool(c.t)
    rep = verify_clique(c)
    if not rep:
        raise HadcliqueError(rep.message)
    if c.members:
        return _grow(_filter_pool(pool, *c.members), c.members, rng)
    start = _random_start(c.t, rng)
    return _grow(adjacency(start), (start.code,), rng)
