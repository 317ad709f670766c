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
from random import Random
from typing import Sequence

from .errors import InvalidClique
from .graph import (
    Clique,
    NeighborPool,
    VertexCode,
    clique_from_codes,
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


def _random_start(t: int, rng: Random) -> VertexCode:
    # restrict to classes that actually have neighbors; at odd t the
    # extreme classes k=0 and k=t are isolated and an essay started there
    # could never grow
    ks = [k for k in range(t // 2 + 1) if degree(t, k) > 0]
    if not ks:
        ks = list(range(t // 2 + 1))
    return random_vertex(t, rng, k=rng.choice(ks))


def adjacency(v: VertexCode) -> NeighborPool:
    """The pool-construction layer: every neighbor of v, as a pool.

    It holds the set graph.adjacency(v) materializes, in the same ascending
    order, from the C(2t, t) halves of each side.
    """
    return vertex_pool(v.t).refine(v.code)


def _filter_pool(pool: NeighborPool, code: int) -> NeighborPool:
    """The intersection layer: the candidates also orthogonal to code."""
    return pool.refine(code)


def _grow(anchor: VertexCode, members: Sequence[int], rng: Random) -> list[int]:
    """The codes of a maximal clique: anchor, then members, then the picks.

    members must be pairwise orthogonal and orthogonal to anchor. The pool
    starts as the neighbors of anchor and is refined by each member; each
    pick is a uniform rank in the pool, which is then refined by the pick,
    until the pool is empty.
    """
    codes = [anchor.code, *members]
    pool = adjacency(anchor)
    for code in members:
        pool = _filter_pool(pool, code)
    while pool.size:
        pick = pool.code_at(rng.randrange(pool.size))
        codes.append(pick)
        pool = _filter_pool(pool, pick)
    return codes


def _greedy_essay(cfg: ExactSearchConfig, index: int) -> EssayResult:
    rng = Random(cfg.rng_seed + index)
    t = cfg.t
    begin = time.perf_counter()
    start = cfg.start_vertex if cfg.start_vertex is not None else _random_start(t, rng)
    clique = clique_from_codes(t, _grow(start, (), rng))
    return EssayResult(index=index, clique=clique, seconds=time.perf_counter() - begin)


def run_exact(cfg: ExactSearchConfig, jobs: int = 1, time_limit: float | None = None) -> SearchReport:
    """Run cfg.essays independent greedy essays through report.run_essays.

    Essay i draws all randomness from Random(rng_seed + i), so results are
    reproducible and independent of jobs. Every essay runs to a maximal
    clique: memory is set by the pool's halves, not by any degree, and cfg
    has passed graph.pool_bytes. run_essays holds the wave and time_limit
    rules; a started essay is not interrupted.
    """
    config = (
        ("essays", cfg.essays),
        ("rng_seed", cfg.rng_seed),
        ("start_vertex", "-" if cfg.start_vertex is None else cfg.start_vertex.code),
    )
    return run_essays(
        "exact", cfg.t, config, lambda i: _greedy_essay(cfg, i), cfg.essays, jobs, time_limit
    )


def extend_exact(c: Clique, rng: Random) -> Clique:
    """Greedily extend c to a maximal clique containing it.

    An empty c starts a fresh essay from a random vertex. The input members
    are validated first and an invalid clique is rejected. The pool is held
    as halves and never materialized; graph.vertex_pool raises PoolTooLarge
    for a t past graph.pool_bytes before it allocates.
    """
    rep = verify_clique(c)
    if not rep:
        raise InvalidClique(rep.message)
    t = c.t
    if c.members:
        anchor, members = c.members[0], c.codes[1:]
    else:
        anchor, members = _random_start(t, rng), []
    return clique_from_codes(t, _grow(anchor, members, rng))
