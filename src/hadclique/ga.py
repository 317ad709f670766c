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

from .errors import HadcliqueError
from .exact import extend_exact
from .graph import Clique, pool_bytes, random_vertex, vertex_pool
from .report import EssayResult, SearchReport, _check_int, _check_run, run_essays

__all__ = ["GaConfig", "crossover", "repair", "mutate", "run_ga", "run_many"]


@dataclass(frozen=True, slots=True)
class GaConfig:
    t: int
    population_size: int = 5
    max_generations: int = 20
    p_m: float = 0.1
    p_b: float = 0.8
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _check_int("t", self.t))
        object.__setattr__(self, "rng_seed", _check_int("rng_seed", self.rng_seed))
        _check_int("population_size", self.population_size, 2)
        _check_int("max_generations", self.max_generations, 0)
        pool_bytes(self.t)
        if self.t == 1:
            # G_1 is two isolated vertices, and every essay starts at the
            # class-0 one, so seeding finds one distinct clique however long it runs
            raise ValueError(
                f"seeding in G_1 reaches one distinct clique, too few for a population of "
                f"{self.population_size}"
            )
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


def crossover(a: Chromosome, b: Chromosome, rng: Random) -> list[int]:
    """Slot-wise mix of the parents' member codes, biased toward the fitter one.

    Slot i comes from parent a with probability fit(a)/(fit(a)+fit(b));
    when the chosen parent has no member at i the other parent fills in,
    so the child has max(len(a), len(b)) members before repair.
    """
    fa, fb = a.fitness, b.fitness
    if fa + fb == 0:
        raise ValueError("crossover needs at least one nonempty parent")
    weight = fa / (fa + fb)
    out: list[int] = []
    for i in range(max(fa, fb)):
        first, second = (a, b) if rng.random() < weight else (b, a)
        src = first if i < first.fitness else second
        out.append(src.clique.members[i])
    return out


def repair(t: int, members: Sequence[int], rng: Random) -> Clique:
    """Delete member codes at random until the remainder is pairwise orthogonal.

    Duplicates are removed first. Then, while a conflict exists, a uniform
    member u is drawn: with probability 1/2 u itself is deleted, otherwise
    every member not orthogonal to u is deleted. Terminates with
    probability 1; an empty input yields the empty clique.
    """
    pool = list(dict.fromkeys(members))
    # clash[c]: the codes in the pool not orthogonal to code c, kept current
    # as members leave, so a step need not scan every pair
    clash: dict[int, set[int]] = {code: set() for code in pool}
    agree = 2 * t
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
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
            pairs -= drop(u)
        else:
            gone = clash[u]
            pool = [w for w in pool if w not in gone]
            for code in list(gone):
                pairs -= drop(code)
    return Clique(t=t, members=tuple(pool))


def mutate(c: Clique, p_m: float, rng: Random) -> list[int]:
    """Resample each member code with probability p_m as a fresh random vertex's."""
    return [random_vertex(c.t, rng).code if rng.random() < p_m else v for v in c.members]


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
) -> EssayResult:
    """One genetic run as an essay: its best clique, and its per-generation
    best sizes in .generations.

    All randomness flows from Random(cfg.rng_seed + essay_index). The trace
    has max_generations + 1 entries, entry 0 being the initial population.
    The observer, if given, sees (generation, population) snapshots and must
    not mutate them; it exists for instrumentation and invariant checks.
    """
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
    return EssayResult(
        index=essay_index,
        clique=max(pop, key=lambda ch: ch.fitness).clique,
        seconds=time.perf_counter() - begin,
        generations=tuple(trace),
    )


def run_many(
    cfg: GaConfig, essays: int, jobs: int = 1, time_limit: float | None = None
) -> SearchReport:
    """Independent GA runs through report.run_essays, which holds the worker
    and time_limit rules. Run i is run_ga(cfg, i), so it uses rng_seed + i
    and jobs never changes results. graph.pool_bytes must admit the runs
    that go at once, the count report._check_run returns and run_essays
    forks on, and vertex_pool(t) is built before run_essays forks, so its
    workers share it, and after the run's arguments are checked, so a
    refused run builds nothing.
    """
    config = (
        ("population_size", cfg.population_size),
        ("max_generations", cfg.max_generations),
        ("p_m", cfg.p_m),
        ("p_b", cfg.p_b),
        ("rng_seed", cfg.rng_seed),
        ("essays", essays),
    )
    pool_bytes(cfg.t, _check_run(essays, jobs, time_limit))
    vertex_pool(cfg.t)
    return run_essays("ga", cfg.t, config, lambda i: run_ga(cfg, i), essays, jobs, time_limit)
