"""Steady-state genetic clique search.

Chromosomes are cliques and fitness is clique size. Each generation breeds
one child: two binary tournaments pick the parents, a fitness-biased
slot-wise crossover mixes their member lists, a randomized repair deletes
members until the remainder is pairwise orthogonal, mutation resamples
members, and a greedy extension pass makes the child maximal. The child
replaces the current worst chromosome unless an equal clique is already
present (as a member set, order ignored).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence

from .errors import BothEmpty, HadcliqueError
from .exact import extend_exact
from .graph import Clique, VertexCode, pool_bytes, random_vertex, vertex_pool
from .report import EssayResult, SearchReport, run_essays, utc_stamp

__all__ = ["GaConfig", "Chromosome", "crossover", "repair", "mutate", "run_ga", "run_many"]


@dataclass(frozen=True, slots=True)
class GaConfig:
    t: int
    population_size: int = 5
    max_generations: int = 20
    p_m: float = 0.1
    p_b: float = 0.8
    rng_seed: int = 0

    def __post_init__(self) -> None:
        pool_bytes(self.t)
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.t == 1:
            # G_1 is two isolated vertices, and every essay starts at the
            # class-0 one, so seeding finds one distinct clique however long it runs
            raise ValueError(
                f"seeding in G_1 reaches one distinct clique, too few for a population of "
                f"{self.population_size}"
            )
        if self.max_generations < 0:
            raise ValueError("max_generations must be nonnegative")
        if not 0.0 <= self.p_m <= 1.0:
            raise ValueError(f"p_m must lie in [0, 1], got {self.p_m}")
        if not 0.5 <= self.p_b <= 1.0:
            raise ValueError(f"p_b must lie in [0.5, 1], got {self.p_b}")


@dataclass(frozen=True, slots=True)
class Chromosome:
    clique: Clique

    @property
    def fitness(self) -> int:
        return len(self.clique)


def crossover(a: Chromosome, b: Chromosome, rng: Random) -> list[VertexCode]:
    """Slot-wise mix of the parents, biased toward the fitter one.

    Slot i comes from parent a with probability fit(a)/(fit(a)+fit(b));
    when the chosen parent has no member at i the other parent fills in,
    so the child has max(len(a), len(b)) members before repair.
    """
    fa, fb = a.fitness, b.fitness
    if fa + fb == 0:
        raise BothEmpty("crossover needs at least one nonempty parent")
    weight = fa / (fa + fb)
    out: list[VertexCode] = []
    for i in range(max(fa, fb)):
        first, second = (a, b) if rng.random() < weight else (b, a)
        src = first if i < first.fitness else second
        out.append(src.clique.members[i])
    return out


def repair(t: int, members: Sequence[VertexCode], rng: Random) -> Clique:
    """Delete members at random until the remainder is pairwise orthogonal.

    Duplicates are removed first. Then, while a conflict exists, a uniform
    member u is drawn: with probability 1/2 u itself is deleted, otherwise
    every member not orthogonal to u is deleted. Terminates with
    probability 1; an empty input yields the empty clique.
    """
    first: dict[int, VertexCode] = {}
    for v in members:
        first.setdefault(v.code, v)
    pool = list(first.values())
    # clash[c]: the codes in the pool not orthogonal to code c, kept current
    # as members leave, so a step need not scan every pair
    codes = list(first)
    clash: dict[int, set[int]] = {code: set() for code in codes}
    agree = 2 * t
    for i, a in enumerate(codes):
        for b in codes[i + 1 :]:
            if (a ^ b).bit_count() != agree:
                clash[a].add(b)
                clash[b].add(a)
    pairs = sum(map(len, clash.values())) // 2

    def drop(code: int) -> int:
        for other in clash[code]:
            clash[other].discard(code)
        return len(clash.pop(code))

    while pairs:
        u = pool[rng.randrange(len(pool))]
        if rng.random() < 0.5:
            pool.remove(u)
            pairs -= drop(u.code)
        else:
            gone = clash[u.code]
            pool = [w for w in pool if w.code not in gone]
            for code in list(gone):
                pairs -= drop(code)
    return Clique(t=t, members=tuple(pool))


def mutate(c: Clique, p_m: float, rng: Random) -> list[VertexCode]:
    """Resample each member with probability p_m as a fresh random vertex."""
    return [random_vertex(c.t, rng) if rng.random() < p_m else v for v in c.members]


def _tournament(pop: list[Chromosome], p_b: float, rng: Random) -> Chromosome:
    i, j = rng.sample(range(len(pop)), 2)
    hi, lo = (pop[i], pop[j]) if pop[i].fitness >= pop[j].fitness else (pop[j], pop[i])
    return hi if rng.random() < p_b else lo


def _initial_population(cfg: GaConfig, rng: Random) -> list[Chromosome]:
    pop: list[Chromosome] = []
    keys: set[frozenset[int]] = set()
    tries = 0
    limit = 50 * cfg.population_size + 100
    while len(pop) < cfg.population_size:
        tries += 1
        if tries > limit:
            raise HadcliqueError(
                f"could not seed {cfg.population_size} distinct cliques in G_{cfg.t} "
                f"after {limit} attempts"
            )
        c = extend_exact(Clique(t=cfg.t, members=()), rng)
        key = frozenset(c.codes)
        if key not in keys:
            keys.add(key)
            pop.append(Chromosome(c))
    return pop


def run_ga(
    cfg: GaConfig,
    essay_index: int = 0,
    observer: Callable[[int, tuple[Chromosome, ...]], None] | None = None,
) -> SearchReport:
    """One genetic run; the per-generation best-size trace lands in the essay.

    All randomness flows from Random(cfg.rng_seed + essay_index). The trace
    has max_generations + 1 entries, entry 0 being the initial population.
    The observer, if given, sees (generation, population) snapshots and must
    not mutate them; it exists for instrumentation and invariant checks.
    """
    started = utc_stamp()
    begin = time.perf_counter()
    rng = Random(cfg.rng_seed + essay_index)
    pop = _initial_population(cfg, rng)
    keys = [frozenset(ch.clique.codes) for ch in pop]
    trace = [max(ch.fitness for ch in pop)]
    if observer is not None:
        observer(0, tuple(pop))
    for gen in range(cfg.max_generations):
        pa = _tournament(pop, cfg.p_b, rng)
        pb = _tournament(pop, cfg.p_b, rng)
        child = repair(cfg.t, crossover(pa, pb, rng), rng)
        child = repair(cfg.t, mutate(child, cfg.p_m, rng), rng)
        child = extend_exact(child, rng)
        key = frozenset(child.codes)
        if key not in keys:
            worst = min(range(len(pop)), key=lambda i: pop[i].fitness)
            pop[worst] = Chromosome(child)
            keys[worst] = key
        trace.append(max(ch.fitness for ch in pop))
        if observer is not None:
            observer(gen + 1, tuple(pop))
    best = max(pop, key=lambda ch: ch.fitness).clique
    essay = EssayResult(
        index=essay_index,
        clique=best,
        seconds=time.perf_counter() - begin,
        generations=tuple(trace),
    )
    return SearchReport(
        algorithm="ga",
        t=cfg.t,
        config=_config_echo(cfg),
        essays=(essay,),
        started=started,
        finished=utc_stamp(),
    )


def _config_echo(cfg: GaConfig) -> tuple[tuple[str, object], ...]:
    return (
        ("population_size", cfg.population_size),
        ("max_generations", cfg.max_generations),
        ("p_m", cfg.p_m),
        ("p_b", cfg.p_b),
        ("rng_seed", cfg.rng_seed),
    )


def run_many(
    cfg: GaConfig, essays: int, jobs: int = 1, time_limit: float | None = None
) -> SearchReport:
    """Independent GA runs through report.run_essays, which holds the worker
    and time_limit rules. Run i uses rng_seed + i, so jobs never changes
    results. graph.pool_bytes must admit jobs runs at once, and
    vertex_pool(t) is built before run_essays forks, so its workers share it.
    """
    pool_bytes(cfg.t, jobs)
    vertex_pool(cfg.t)
    return run_essays(
        "ga",
        cfg.t,
        _config_echo(cfg) + (("essays", essays),),
        lambda i: run_ga(cfg, i).essays[0],
        essays,
        jobs,
        time_limit,
    )
