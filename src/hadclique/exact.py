"""Random greedy clique search with exact candidate filtering.

Each essay starts from a random vertex and holds the common neighborhood of
its clique as a graph.NeighborPool: the neighbors of the start vertex,
refined by each pick. A pick is a uniform rank in the pool, the same rank
into the same ascending set as in a materialized, sorted neighbor array, so
nothing of size degree(t, k) is ever built. The returned clique is maximal
by construction: the essay only stops when the pool is empty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Sequence

from .errors import InvalidClique
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
from .report import EssayResult, SearchReport, run_essays

__all__ = ["ExactSearchConfig", "run_exact", "extend_exact"]


@dataclass(frozen=True, slots=True)
class ExactSearchConfig:
    t: int
    essays: int = 10
    rng_seed: int = 0
    start_vertex: VertexCode | None = None

    def __post_init__(self) -> None:
        pool_bytes(self.t)
        if self.essays < 1:
            raise ValueError(f"essays must be positive, got {self.essays}")
        if self.start_vertex is not None and self.start_vertex.t != self.t:
            raise ValueError("start_vertex belongs to a different G_t")


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


def _grow(anchor: VertexCode, members: Sequence[VertexCode], rng: Random) -> Clique:
    """A maximal clique: anchor, then members, then the picks.

    members must be pairwise orthogonal and orthogonal to anchor. With no
    members the pool is the neighbors of anchor; otherwise it is the whole
    vertex pool refined by anchor and members in one call, which batches
    them. Each pick is a uniform rank in the pool, which is then refined by
    the pick, until the pool is empty. Only the picks are decoded.
    """
    t = anchor.t
    if members:
        pool = _filter_pool(vertex_pool(t), anchor.code, *(v.code for v in members))
    else:
        pool = adjacency(anchor)
    picks = []
    while pool.size:
        pick = pool.code_at(rng.randrange(pool.size))
        picks.append(pick)
        pool = _filter_pool(pool, pick)
    return Clique(t=t, members=(anchor, *members, *(decode(code, t) for code in picks)))


def _greedy_essay(cfg: ExactSearchConfig, index: int) -> EssayResult:
    rng = Random(cfg.rng_seed + index)
    t = cfg.t
    begin = time.perf_counter()
    if cfg.start_vertex is not None:
        start = decode(cfg.start_vertex.code, t)
    else:
        start = _random_start(t, rng)
    clique = _grow(start, (), rng)
    return EssayResult(index=index, clique=clique, seconds=time.perf_counter() - begin)


def run_exact(cfg: ExactSearchConfig, jobs: int = 1, time_limit: float | None = None) -> SearchReport:
    """Run cfg.essays independent greedy essays through report.run_essays.

    Essay i draws all randomness from Random(rng_seed + i), so results are
    reproducible and independent of jobs. Every essay runs to a maximal
    clique: memory is set by the pool's halves, not by any degree, and
    graph.pool_bytes must admit jobs essays at once. vertex_pool(t) is
    built before run_essays forks, so its workers share it. run_essays
    holds the worker and time_limit rules; a started essay is not
    interrupted.
    """
    config = (
        ("essays", cfg.essays),
        ("rng_seed", cfg.rng_seed),
        ("start_vertex", "-" if cfg.start_vertex is None else cfg.start_vertex.code),
    )
    pool_bytes(cfg.t, jobs)
    vertex_pool(cfg.t)
    return run_essays(
        "exact", cfg.t, config, lambda i: _greedy_essay(cfg, i), cfg.essays, jobs, time_limit
    )


def extend_exact(c: Clique, rng: Random) -> Clique:
    """Greedily extend c to a maximal clique containing it.

    An empty c starts a fresh essay from a random vertex. The input members
    are validated first and an invalid clique is rejected; they are kept
    as given, and only the new picks are decoded. The pool is held as
    halves and never materialized; graph.vertex_pool raises PoolTooLarge
    for a t past graph.pool_bytes before it allocates.
    """
    rep = verify_clique(c)
    if not rep:
        raise InvalidClique(rep.message)
    if c.members:
        return _grow(c.members[0], c.members[1:], rng)
    return _grow(_random_start(c.t, rng), (), rng)
