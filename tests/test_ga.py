from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hadclique import (
    BothEmpty,
    Chromosome,
    Clique,
    GaConfig,
    clique_from_codes,
    crossover,
    mutate,
    orthogonal_codes,
    random_vertex,
    repair,
    run_ga,
    verify_clique,
)
from hadclique.ga import run_many


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(t=2, population_size=1)
    with pytest.raises(ValueError):
        GaConfig(t=2, p_m=1.5)
    with pytest.raises(ValueError):
        GaConfig(t=2, p_b=0.3)
    with pytest.raises(ValueError):
        GaConfig(t=2, max_generations=-1)


def test_crossover_needs_a_parent():
    empty = Chromosome(Clique(t=2, members=()))
    with pytest.raises(BothEmpty):
        crossover(empty, empty, Random(0))


def test_crossover_child_slots_come_from_parents():
    rng = Random(4)
    a = Chromosome(clique_from_codes(2, [166, 101, 106]))
    b = Chromosome(clique_from_codes(2, [89, 169]))
    for _ in range(20):
        child = crossover(a, b, rng)
        assert len(child) == 3
        parents = set(a.clique.codes) | set(b.clique.codes)
        assert all(v.code in parents for v in child)


def test_crossover_bias_favors_fitter_parent():
    rng = Random(0)
    a = Chromosome(clique_from_codes(2, [166, 101, 106, 169]))
    b = Chromosome(clique_from_codes(2, [89]))
    hits = 0
    n = 4000
    for _ in range(n):
        child = crossover(a, b, rng)
        hits += sum(1 for v in child if v.code in set(a.clique.codes))
    share = hits / (4 * n)
    assert 0.75 < share  # slot bias 4/5 plus fills from the longer parent


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_repair_always_yields_a_valid_clique(seed, t):
    rng = Random(seed)
    members = [random_vertex(t, rng) for _ in range(rng.randrange(0, 9))]
    fixed = repair(t, members, rng)
    assert verify_clique(fixed), fixed.codes
    assert set(fixed.codes) <= {v.code for v in members}


def test_repair_keeps_an_already_valid_clique():
    rng = Random(1)
    c = clique_from_codes(2, [166, 101, 106])
    assert repair(2, list(c.members), rng).codes == [166, 101, 106]


def test_repair_drops_duplicates_first():
    rng = Random(1)
    v = random_vertex(3, rng)
    fixed = repair(3, [v, v, v], rng)
    assert fixed.codes == [v.code]


def test_mutate_rate_extremes():
    rng = Random(7)
    c = clique_from_codes(2, [166, 101, 106])
    assert [v.code for v in mutate(c, 0.0, rng)] == [166, 101, 106]
    mutated = mutate(c, 1.0, rng)
    assert len(mutated) == 3
    assert all(w.t == 2 for w in mutated)


def test_run_ga_trace_and_best():
    rep = run_ga(GaConfig(t=3, rng_seed=0))
    (essay,) = rep.essays
    assert len(essay.generations) == 21
    trace = list(essay.generations)
    assert trace == sorted(trace)  # replace-worst never loses the best
    assert len(rep.best) == max(trace)
    assert verify_clique(rep.best)


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
    assert a.best.codes == b.best.codes
    assert a.essays[0].generations == b.essays[0].generations


def test_zero_generation_run():
    rep = run_ga(GaConfig(t=2, rng_seed=0, max_generations=0))
    assert len(rep.essays[0].generations) == 1
    assert len(rep.best) >= 1


def test_run_many_is_job_invariant():
    cfg = GaConfig(t=2, rng_seed=3, max_generations=5)
    serial = run_many(cfg, essays=4)
    threaded = run_many(cfg, essays=4, jobs=2)
    assert [e.clique.codes for e in serial.essays] == [
        e.clique.codes for e in threaded.essays
    ]
    assert serial.algorithm == "ga"
    assert dict(serial.config)["essays"] == 4


def test_first_best_generation_recorded():
    rep = run_ga(GaConfig(t=2, rng_seed=0))
    essay = rep.essays[0]
    trace = essay.generations
    assert trace[essay.first_best_generation] == max(trace)
    assert all(g < max(trace) for g in trace[: essay.first_best_generation])
