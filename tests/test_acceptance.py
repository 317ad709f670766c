"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Every criterion exercises the package through its public interface and
checks against published values or structural guarantees. Stochastic
criteria pin their RNG seeds so the gate is reproducible.
"""

import math
import statistics
from random import Random

from hadclique import (
    Clique,
    ExactSearchConfig,
    FastConfig,
    GaConfig,
    adjacency,
    class_size,
    clique_to_matrix,
    count_orthogonal,
    decode,
    degree,
    distinct_orderings,
    edge_count,
    generator_set,
    paley_seed,
    run_exact,
    run_fast,
    run_ga,
    solve_distributions,
    verify_clique,
    verify_ph,
    vertex_count,
)
from hadclique.graph import clique_from_codes, random_vertex
from hadclique.oracle import brute_adjacency_codes, enumerate_vertices

from conftest import acceptance_lines
from published import CENSUS, EXTENSION_VERTICES, GA_CLIQUES, GREEDY_CLIQUES, ORTHOGONAL_COUNTS


def check(num, label, ok):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def test_criterion_01_census_exactness():
    ok = True
    for t, (per_k, degs, total, edges) in CENSUS.items():
        ok &= all(class_size(t, k) == n for k, n in enumerate(per_k))
        ok &= all(degree(t, k) == d for k, d in enumerate(degs))
        ok &= vertex_count(t) == total
        ok &= edge_count(t) == edges
    check(1, "census exact for t = 1..7", ok)


def test_criterion_02_adjacency_count_table():
    ok = True
    for t, rows in ORTHOGONAL_COUNTS.items():
        for s, per_k in rows.items():
            ok &= all(count_orthogonal(t, k, s) == n for k, n in enumerate(per_k))
    check(2, "per-class orthogonal counts exact for t = 3..10", ok)


def test_criterion_03_oracle_cross_validation():
    ok = True
    for t in (1, 2, 3, 4):
        for v in enumerate_vertices(t):
            got = set(adjacency(v).tolist())
            want = set(brute_adjacency_codes(v).tolist())
            ok &= got == want
    rng = Random(0)
    for _ in range(50):
        v = random_vertex(5, rng)
        got = set(adjacency(v).tolist())
        want = set(brute_adjacency_codes(v).tolist())
        ok &= got == want
    check(3, "generator adjacency equals brute force (t <= 4 full, t = 5 sampled)", ok)


def test_criterion_04_published_cliques_verify():
    ok = True
    for table in (GREEDY_CLIQUES, GA_CLIQUES, EXTENSION_VERTICES):
        for t, codes in table.items():
            if not codes:
                continue
            c = clique_from_codes(t, codes)
            ok &= bool(verify_clique(c))
            ok &= bool(verify_ph(clique_to_matrix(c)))
    check(4, "published cliques and extension sets verify", ok)


def test_criterion_05_worked_example_fidelity():
    ok = solve_distributions(5, 2, 0) == ()
    ok &= [tuple(d) for d in solve_distributions(5, 2, 1)] == [(2, 2, 2, 4)]
    ok &= [tuple(d) for d in solve_distributions(5, 2, 2)] == [(1, 1, 3, 5), (1, 3, 3, 3)]
    v = decode(684646, 5)
    want_products = {(2, 2, 2, 4): 54, (1, 1, 3, 5): 54, (1, 3, 3, 3): 648}
    for s in (1, 2):
        for d in solve_distributions(5, 2, s):
            gs = generator_set(v, distinct_orderings(d)[0], s)
            ok &= math.prod(len(p) for p in gs) == want_products[tuple(d)]
    check(5, "worked example: distributions and generator pool sizes", ok)


def test_criterion_06_exact_attainment():
    ok = True
    for t, want in [(2, 5), (3, 9), (4, 13)]:
        rep = run_exact(ExactSearchConfig(t=t, essays=10, rng_seed=0))
        ok &= all(e.size == want for e in rep.essays)
    rep5 = run_exact(ExactSearchConfig(t=5, essays=10, rng_seed=0))
    ok &= statistics.median(e.size for e in rep5.essays) >= 11
    check(6, "greedy search attains 5/9/13 at t = 2/3/4, median >= 11 at t = 5", ok)


def test_criterion_07_maximality():
    ok = True
    for t in (2, 3, 4):
        rep = run_exact(ExactSearchConfig(t=t, essays=10, rng_seed=1))
        for e in rep.essays:
            members = set(e.clique.codes)
            common = None
            for v in e.clique.members:
                nbrs = set(brute_adjacency_codes(decode(v, t)).tolist())
                common = nbrs if common is None else common & nbrs
                if not common:
                    break
            ok &= not (common - members if common else set())
    check(7, "every greedy output is oracle-maximal for t <= 4", ok)


def test_criterion_08_fast_heuristic_contracts():
    ok = True
    for t in (2, 3):
        out = run_fast(Clique(t=t, members=()), FastConfig(t=t, rng_seed=0))
        ok &= bool(verify_clique(out))
    seed = paley_seed(4)
    assert len(seed) == 5
    extended = 0
    for s in range(10):
        out = run_fast(seed, FastConfig(t=4, rng_seed=s))
        ok &= bool(verify_clique(out))
        ok &= set(seed.codes) <= set(out.codes)
        if len(out) > len(seed):
            extended += 1
    ok &= extended >= 1
    check(8, "constructive search verifies, keeps its seed, extends a size-5 seed", ok)


def test_criterion_09_ga_contracts():
    ok = True
    snapshots = []
    run_ga(GaConfig(t=4, rng_seed=0), observer=lambda g, pop: snapshots.append(pop))
    assert len(snapshots) == 21
    for pop in snapshots:
        keys = [frozenset(ch.clique.codes) for ch in pop]
        ok &= len(set(keys)) == len(keys)
        ok &= all(verify_clique(ch.clique) for ch in pop)
    bests = [max(ch.fitness for ch in pop) for pop in snapshots]
    ok &= bests == sorted(bests)
    best_over_runs = max(run_ga(GaConfig(t=4, rng_seed=s)).size for s in range(3))
    ok &= best_over_runs >= 11
    check(9, "genetic run keeps populations valid, distinct, monotone; best >= 11", ok)


def test_criterion_10_depth_milestone():
    ok = True
    for t in range(2, 7):
        rep = run_exact(ExactSearchConfig(t=t, essays=10, rng_seed=0))
        ok &= rep.exceeds_third
        ok &= rep.depth > (4 * t) // 3
    check(10, "some clique at every t in 2..6 beats a third of full depth", ok)
