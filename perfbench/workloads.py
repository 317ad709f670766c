"""The benchmark's workloads: inputs made from the seed, the search call, the gate.

Each workload drives one search through its public library call:

* ``exact-t8``: ``run_exact`` at t = 8, one fresh random start per essay.
  The benchmark draws the starts itself, cycling through the degree classes
  in a seeded random order: class k = 0 has twice the degree of the others
  and an essay from it takes twice as long, so a uniform random class per
  essay made essays_per_s spread about 10% from seed to seed.
* ``ga-t7``: ``ga.run_many`` at t = 7 with the default ``GaConfig``.
* ``fast-paley-t4``: ``fast.run_many`` extending ``paley_seed(4)`` with
  ``jobs = min(2, cpu count)``.

Essay i of a run uses ``rng_seed + i`` (and, for exact-t8, the i-th start),
so the first essays of a run are the same whatever the time limit cuts off.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, replace
from random import Random
from typing import Iterator

import hadclique.exact as exact
import hadclique.fast as fast
import hadclique.ga as ga
import hadclique.graph as graph
import hadclique.oracle as oracle
import hadclique.seeds as seeds
from hadclique.errors import HadcliqueError
from hadclique.graph import Clique, VertexCode
from hadclique.report import EssayResult, SearchReport

ESSAY_CAP = 1_000_000  # far more essays than a run completes; the time limit ends it
WARM_SEED = 999_983  # warm-up essays use this rng seed, never a measured one


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    kind: str  # "exact", "ga" or "fast"
    t: int
    quality_essays: int  # mean_size and best_size are taken over essays 0 .. quality_essays - 1
    traced_essays: int  # a traced run times essays 0 .. traced_essays - 1, untraced then traced
    jobs: int = 1

    @property
    def size_bound(self) -> int:
        """4t - 3: the largest clique G_t can hold (a 4t x 4t Hadamard matrix)."""
        return 4 * self.t - 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-t8", "exact", 8, quality_essays=40, traced_essays=20),
        Workload("ga-t7", "ga", 7, quality_essays=30, traced_essays=20),
        Workload("fast-paley-t4", "fast", 4, quality_essays=10, traced_essays=6, jobs=min(2, os.cpu_count() or 1)),
    )
}


@dataclass(frozen=True, slots=True)
class Inputs:
    rng_seed: int
    seed: Clique | None = None  # the clique fast extends; its members must stay a prefix


def make_inputs(wl: Workload, seed: int) -> Inputs:
    rng_seed = 1_000_003 * seed + 1  # two seeds share an essay rng seed only past a million essays
    return Inputs(rng_seed, seeds.paley_seed(wl.t) if wl.kind == "fast" else None)


def _starts(t: int, rng_seed: int) -> Iterator[VertexCode]:
    """Fresh start vertices, one of each class with neighbours per block, in seeded order."""
    rng = Random(rng_seed)
    classes = [k for k in range(t // 2 + 1) if graph.degree(t, k) > 0]
    while True:
        rng.shuffle(classes)
        for k in classes:
            yield graph.random_vertex(t, rng, k=k)


def search(wl: Workload, inp: Inputs, first: int, count: int, time_limit: float | None) -> SearchReport:
    """Essays first .. first + count - 1, stopping early once time_limit has passed."""
    if wl.kind == "exact":
        clock = time.perf_counter()
        essays: list[EssayResult] = []
        for i, start in zip(range(first, first + count), itertools.islice(_starts(wl.t, inp.rng_seed), first, None)):
            if time_limit is not None and essays and time.perf_counter() - clock > time_limit:
                break
            cfg = exact.ExactSearchConfig(t=wl.t, essays=1, rng_seed=inp.rng_seed + i, start_vertex=start)
            essays.append(replace(exact.run_exact(cfg, jobs=wl.jobs).essays[0], index=i))
        return SearchReport(
            algorithm="exact", t=wl.t, config=(("rng_seed", inp.rng_seed), ("first", first)), essays=tuple(essays)
        )
    if wl.kind == "ga":
        cfg = ga.GaConfig(t=wl.t, rng_seed=inp.rng_seed + first)
        rep = ga.run_many(cfg, essays=count, jobs=wl.jobs, time_limit=time_limit)
    else:
        cfg = fast.FastConfig(t=wl.t, rng_seed=inp.rng_seed + first)
        rep = fast.run_many(inp.seed, cfg, essays=count, jobs=wl.jobs, time_limit=time_limit)
    return replace(rep, essays=tuple(replace(e, index=first + e.index) for e in rep.essays))


def warm_up(wl: Workload, inp: Inputs) -> None:
    """Touch every layer the workload uses once, at a fixed rng seed, so lazy state is built."""
    if wl.kind == "exact":
        # the same code at t = 4: a t = 8 essay faults in ~400 MB, which made
        # set-up swing with the host's memory speed and belongs to the essays
        exact.run_exact(exact.ExactSearchConfig(t=4, essays=1, rng_seed=WARM_SEED))
    elif wl.kind == "ga":
        ga.run_ga(ga.GaConfig(t=wl.t, max_generations=1, rng_seed=WARM_SEED))
    else:
        fast.buildgrapas(inp.seed, wl.t // 2, fast.FastConfig(t=wl.t), Random(WARM_SEED))


def gate(wl: Workload, inp: Inputs, essays: list[EssayResult]) -> dict[int, str]:
    """Check every essay independently of the search; returns failing essay index -> reason.

    Each clique is re-verified by the brute-force oracle, must fit under
    4t - 3, must not have overflowed, and for fast must keep the seed's
    members verbatim as its prefix. The best clique must also yield a
    partial Hadamard matrix under verify_ph.
    """
    problems: dict[int, str] = {}
    for e in essays:
        rep = oracle.verify_clique(e.clique)
        if not rep:
            problems[e.index] = rep.message
        elif e.overflow:
            problems[e.index] = "essay overflowed its candidate cap"
        elif e.size > wl.size_bound:
            problems[e.index] = f"size {e.size} exceeds 4t - 3 = {wl.size_bound}"
        elif inp.seed is not None and e.clique.codes[: len(inp.seed)] != inp.seed.codes:
            problems[e.index] = "the seed clique is not kept verbatim as a prefix"
    if essays:
        best = max(essays, key=lambda e: (e.size, -e.index))
        try:
            ph = oracle.verify_ph(oracle.clique_to_matrix(best.clique))
        except HadcliqueError as exc:
            problems.setdefault(best.index, f"best clique has no matrix: {exc}")
        else:
            if not ph:
                problems.setdefault(best.index, f"best clique's matrix: {ph.message}")
    return problems
