import tracemalloc
from random import Random
from typing import Sequence

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hadclique import (
    Clique,
    GaConfig,
    HadcliqueError,
    decode,
    extend_exact,
    run_ga,
    verify_clique,
)
from hadclique import exact, ga, graph
from hadclique.ga import Chromosome, crossover, mutate, repair, run_many
from hadclique.graph import (
    BASE_BYTES,
    clique_from_codes,
    orthogonal_codes,
    pool_bytes,
    random_vertex,
)


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(t=2, population_size=1)
    with pytest.raises(ValueError):
        GaConfig(t=2, p_m=1.5)
    with pytest.raises(ValueError):
        GaConfig(t=2, p_b=0.3)
    with pytest.raises(ValueError):
        GaConfig(t=2, max_generations=-1)


@pytest.mark.parametrize("population", [2, 5])
def test_config_rejects_g1_before_seeding(population, monkeypatch):
    # G_1 is two isolated vertices and every seeding essay starts at the
    # class-0 one, so seeding never reaches two distinct cliques
    seeded = {tuple(extend_exact(Clique(t=1, members=()), Random(s)).codes) for s in range(20)}
    assert seeded == {(6,)}
    with pytest.raises(ValueError, match="G_1"):
        GaConfig(t=1, population_size=population)
    cfg = GaConfig(t=2, population_size=population)
    # past the config, seeding that only ever repeats one clique gives up
    monkeypatch.setattr(ga, "extend_exact", lambda c, rng: clique_from_codes(2, [166, 101]))
    with pytest.raises(HadcliqueError, match="could not seed"):
        run_ga(cfg)


def test_crossover_needs_a_parent():
    empty = Chromosome(Clique(t=2, members=()))
    with pytest.raises(ValueError, match="crossover needs at least one nonempty parent"):
        crossover(empty, empty, Random(0))


def test_crossover_child_slots_come_from_parents():
    rng = Random(4)
    a = Chromosome(clique_from_codes(2, [166, 101, 106]))
    b = Chromosome(clique_from_codes(2, [89, 169]))
    for _ in range(20):
        child = crossover(a, b, rng)
        assert len(child) == 3
        parents = set(a.clique.codes) | set(b.clique.codes)
        assert all(v in parents for v in child)


def test_crossover_bias_favors_fitter_parent():
    rng = Random(0)
    a = Chromosome(clique_from_codes(2, [166, 101, 106, 169]))
    b = Chromosome(clique_from_codes(2, [89]))
    hits = 0
    n = 4000
    for _ in range(n):
        child = crossover(a, b, rng)
        hits += sum(1 for v in child if v in set(a.clique.codes))
    share = hits / (4 * n)
    assert 0.75 < share  # slot bias 4/5 plus fills from the longer parent


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_repair_always_yields_a_valid_clique(seed, t):
    rng = Random(seed)
    members = [random_vertex(t, rng).code for _ in range(rng.randrange(0, 9))]
    fixed = repair(t, members, rng)
    assert verify_clique(fixed), fixed.codes
    assert set(fixed.codes) <= set(members)


def test_repair_keeps_an_already_valid_clique():
    rng = Random(1)
    c = clique_from_codes(2, [166, 101, 106])
    assert repair(2, list(c.members), rng).codes == [166, 101, 106]


def test_repair_drops_duplicates_first():
    rng = Random(1)
    v = random_vertex(3, rng).code
    fixed = repair(3, [v, v, v], rng)
    assert fixed.codes == [v]


def _rescanning_repair(t: int, members: Sequence[int], rng: Random) -> Clique:
    """repair as it was first written: every pair rescanned after each deletion."""
    seen: set[int] = set()
    pool: list[int] = []
    for v in members:
        if v not in seen:
            seen.add(v)
            pool.append(v)

    def conflicted() -> bool:
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                if not orthogonal_codes(pool[i], pool[j], t):
                    return True
        return False

    while conflicted():
        u = pool[rng.randrange(len(pool))]
        if rng.random() < 0.5:
            pool.remove(u)
        else:
            pool = [w for w in pool if w == u or orthogonal_codes(u, w, t)]
    return Clique(t=t, members=tuple(pool))


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["random", "duplicates", "mutated"]),
)
@settings(max_examples=150, deadline=None)
def test_repair_replays_the_rescanning_loop(t, seed, kind):
    # the same clique, and the same draws in the same order, as the loop
    # that rescanned every pair: random members, members with repeats, and
    # a clique with members resampled as the GA's mutate does
    rng = Random(seed)
    if kind == "mutated":
        base = extend_exact(Clique(t=t, members=()), rng)
        members = mutate(base, rng.choice([0.1, 0.3, 0.6]), rng)
    else:
        members = [random_vertex(t, rng).code for _ in range(rng.randrange(0, 12))]
    if kind == "duplicates" and members:
        members += [rng.choice(members) for _ in range(rng.randrange(1, 6))]
        rng.shuffle(members)
    want_rng, got_rng = Random(seed + 1), Random(seed + 1)
    want = _rescanning_repair(t, members, want_rng)
    assert repair(t, members, got_rng) == want
    assert got_rng.getstate() == want_rng.getstate()


def test_mutate_rate_extremes():
    rng = Random(7)
    c = clique_from_codes(2, [166, 101, 106])
    assert mutate(c, 0.0, rng) == [166, 101, 106]
    mutated = mutate(c, 1.0, rng)
    assert len(mutated) == 3
    assert all(decode(w, 2).code == w for w in mutated)


def test_run_ga_trace_and_best():
    essay = run_ga(GaConfig(t=3, rng_seed=0))
    assert len(essay.generations) == 21
    trace = list(essay.generations)
    assert trace == sorted(trace)  # replace-worst never loses the best
    assert len(essay.clique) == max(trace)
    assert verify_clique(essay.clique)


def test_run_ga_population_invariants():
    # every population member stays a valid clique and member sets are unique
    snapshots = []
    run_ga(GaConfig(t=3, rng_seed=2), observer=lambda g, pop: snapshots.append((g, pop)))
    assert [g for g, _ in snapshots] == list(range(21))
    for _, pop in snapshots:
        keys = [frozenset(ch.clique.codes) for ch in pop]
        assert len(set(keys)) == len(keys)
        for ch in pop:
            assert verify_clique(ch.clique)


@pytest.mark.parametrize("t", range(3, 7))
def test_no_best_ends_in_the_completion_band(t):
    # every best is a maximal clique, and no maximal clique of G_t has
    # 4t - 10 .. 4t - 4 members (see tests/test_exact.py)
    rep = run_many(GaConfig(t=t), essays=4)
    band = range(4 * t - 10, 4 * t - 3)
    assert not [e.size for e in rep.essays if e.size in band]


def test_run_ga_deterministic():
    a = run_ga(GaConfig(t=3, rng_seed=5))
    b = run_ga(GaConfig(t=3, rng_seed=5))
    assert a.clique.codes == b.clique.codes
    assert a.generations == b.generations


def test_zero_generation_run():
    essay = run_ga(GaConfig(t=2, rng_seed=0, max_generations=0))
    assert len(essay.generations) == 1
    assert len(essay.clique) >= 1


def test_run_many_is_job_invariant():
    cfg = GaConfig(t=2, rng_seed=3, max_generations=5)
    serial = run_many(cfg, essays=4)
    threaded = run_many(cfg, essays=4, jobs=2)
    assert [e.clique.codes for e in serial.essays] == [
        e.clique.codes for e in threaded.essays
    ]
    assert serial.algorithm == "ga"
    assert dict(serial.config)["essays"] == 4


@pytest.mark.parametrize("essays, jobs, refused", [(0, 1, "essays"), (2, 0, "jobs")])
def test_refused_run_many_builds_no_pool(monkeypatch, essays, jobs, refused):
    def built(t):
        raise AssertionError(f"vertex_pool({t}) built for a refused run")

    monkeypatch.setattr(ga, "vertex_pool", built)
    monkeypatch.setattr(exact, "vertex_pool", built)
    monkeypatch.setattr(graph, "vertex_pool", built)
    with pytest.raises(ValueError, match=f"{refused} must be positive"):
        run_many(GaConfig(t=5), essays=essays, jobs=jobs)


@pytest.mark.parametrize(
    "knobs, essays, jobs, refused",
    [
        ({}, 1.5, 1, "essays"),
        ({}, True, 1, "essays"),
        ({}, 2, 1.5, "jobs"),
        ({"population_size": 2.5}, 1, 1, "population_size"),
        ({"max_generations": 1.5}, 1, 1, "max_generations"),
    ],
)
def test_a_count_that_is_not_an_int_builds_no_pool(monkeypatch, knobs, essays, jobs, refused):
    def built(t):
        raise AssertionError(f"vertex_pool({t}) built for a refused run")

    monkeypatch.setattr(ga, "vertex_pool", built)
    monkeypatch.setattr(exact, "vertex_pool", built)
    monkeypatch.setattr(graph, "vertex_pool", built)
    with pytest.raises(ValueError, match=f"{refused} must be an int"):
        run_many(GaConfig(t=4, **knobs), essays=essays, jobs=jobs)


def test_first_best_generation_recorded():
    essay = run_ga(GaConfig(t=2, rng_seed=0))
    trace = essay.generations
    assert trace[essay.first_best_generation] == max(trace)
    assert all(g < max(trace) for g in trace[: essay.first_best_generation])


def test_one_essay_at_t10_is_within_the_byte_estimate():
    # as for exact (tests/test_exact.py): tracemalloc sees the kernel's
    # arrays, not the interpreter, so they are held to the estimate less
    # BASE_BYTES
    tracemalloc.start()
    try:
        essay = run_ga(GaConfig(t=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verify_clique(essay.clique)
    assert peak < pool_bytes(10) - BASE_BYTES
