import math
from functools import partial
from itertools import product
from random import Random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hadclique import (
    Clique,
    ExactSearchConfig,
    FastConfig,
    GaConfig,
    HadcliqueError,
    VertexCode,
    adjacency,
    class_size,
    coincidence_range,
    count_orthogonal,
    decode,
    degree,
    distinct_orderings,
    edge_count,
    extend_exact,
    generator_set,
    paley_seed,
    run_fast,
    solve_distributions,
    vertex_count,
)
from hadclique import fast, graph, oracle
from hadclique.graph import (
    clique_from_codes,
    complement,
    full_mask,
    join_quarters,
    orthogonal_codes,
    quarters_of,
    random_vertex,
    s_range,
    vertex_pool,
)

from published import CENSUS, ORTHOGONAL_COUNTS


# -- encoding ---------------------------------------------------------------


def test_decode_worked_example():
    v = decode(684646, 5)
    assert v.t == 5
    assert v.k == 2
    assert quarters_of(v.code, 5) == (0b10100, 0b11100, 0b10011, 0b00110)


def test_decode_rejects_bad_weights():
    with pytest.raises(HadcliqueError, match="code 1 has 1 one-bits, expected 2"):
        decode(0b0001, 1)  # one-bit total, need 2t = 2
    with pytest.raises(HadcliqueError, match=r"quarter one-bit counts \(0,0,1,1\) are not"):
        decode(0b0011, 1)  # quarter weights (0,0,1,1), not (k,t-k,t-k,k)
    with pytest.raises(HadcliqueError, match="code -1 does not fit in 8 bits"):
        decode(-1, 2)
    with pytest.raises(HadcliqueError, match="code 256 does not fit in 8 bits"):
        decode(1 << 8, 2)
    with pytest.raises(HadcliqueError, match="t must be positive"):
        decode(0, 0)


def test_join_quarters_inverts_quarters_of():
    assert join_quarters((0b10100, 0b11100, 0b10011, 0b00110), 5) == 684646


@st.composite
def vertex_codes(draw, max_t=6):
    t = draw(st.integers(min_value=1, max_value=max_t))
    k = draw(st.integers(min_value=0, max_value=t // 2))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32)))
    return random_vertex(t, rng, k=k)


@given(vertex_codes())
@settings(max_examples=100)
def test_encode_decode_roundtrip(v):
    assert decode(v.code, v.t) == v
    q = quarters_of(v.code, v.t)
    assert bin(q[0]).count("1") == v.k
    assert bin(q[3]).count("1") == v.k
    assert bin(q[1]).count("1") == v.t - v.k
    assert bin(q[2]).count("1") == v.t - v.k


@given(vertex_codes())
@settings(max_examples=50)
def test_complement_is_involution(v):
    w = complement(v)
    assert w.code == v.code ^ full_mask(v.t)
    assert complement(w) == v
    assert w.k == v.t - v.k


# -- orthogonality ----------------------------------------------------------


@given(vertex_codes(max_t=4), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50)
def test_orthogonality_matches_popcount_rule(v, seed):
    w = random_vertex(v.t, Random(seed))
    agree = bin((v.code ^ w.code) ^ full_mask(v.t)).count("1")
    assert orthogonal_codes(v.code, w.code, v.t) == (agree == 2 * v.t)
    assert orthogonal_codes(v.code, w.code, v.t) == orthogonal_codes(w.code, v.code, v.t)


def test_self_orthogonality_never_holds():
    v = decode(684646, 5)
    assert not orthogonal_codes(v.code, v.code, v.t)


# -- census -----------------------------------------------------------------


def test_class_sizes_and_totals():
    for t, (per_k, _, total, _) in CENSUS.items():
        for k, want in enumerate(per_k):
            assert class_size(t, k) == want
        assert vertex_count(t) == total
    # there is no G_0, so no census of one; the counts stay exact past MAX_T
    for count in (lambda: class_size(0, 0), lambda: vertex_count(0), lambda: degree(0, 0),
                  lambda: edge_count(0), lambda: count_orthogonal(0, 0, 0),
                  lambda: vertex_count(-1), lambda: edge_count(-1)):
        with pytest.raises(ValueError, match=r"t must be positive, got -?[01]"):
            count()
    assert vertex_count(17) == sum(math.comb(17, k) ** 4 for k in range(18))
    assert degree(17, 8) == degree(17, 9) > 2**53


def test_class_size_is_binomial_fourth_power():
    for t in range(1, 8):
        for k in range(t + 1):
            assert class_size(t, k) == math.comb(t, k) ** 4


def test_degrees_match_census():
    for t, (_, degs, _, _) in CENSUS.items():
        for k, want in enumerate(degs):
            assert degree(t, k) == want


def test_degrees_match_the_kernel():
    # binomial polynomials against meet-in-the-middle halves, past the
    # published tables (t <= 10)
    for t in range(1, 13):
        for k in range(t + 1):
            v = random_vertex(t, Random(t), k=k)
            assert degree(t, k) == vertex_pool(t).refine(v.code).size, (t, k)


def test_edge_counts():
    for t, (_, _, _, edges) in CENSUS.items():
        assert edge_count(t) == edges


def test_degree_symmetric_in_k():
    for t in range(2, 9):
        for k in range(t + 1):
            assert degree(t, k) == degree(t, t - k)
    with pytest.raises(ValueError, match=r"k=5 outside \[0, 4\]"):
        degree(4, 5)


@pytest.mark.parametrize("count, args, message", [
    (class_size, (3, 5), "k=5 outside [0, 3]"),
    (class_size, (3, -1), "k=-1 outside [0, 3]"),
    (count_orthogonal, (4, 5, 0), "k=5 outside [0, 4]"),
    (count_orthogonal, (4, 0, 5), "s=5 outside [0, 4]"),
    (degree, (3, 5), "k=5 outside [0, 3]"),
    (degree, (-1, 0), "t must be positive, got -1"),
    (solve_distributions, (0, 0, 0), "t must be positive, got 0"),
])
def test_census_refuses_every_class_outside_0_to_t(count, args, message):
    with pytest.raises(ValueError) as exc:
        count(*args)
    assert str(exc.value) == message


def test_count_orthogonal_matches_brute_force_for_every_class():
    # every k and s in 0..t, past the k, s <= t//2 the adjacency generator uses
    for t in range(2, 5):
        for v in {v.k: v for v in oracle.enumerate_vertices(t)}.values():
            classes = oracle.brute_adjacency_codes(v) >> np.uint64(3 * t)
            for s in range(t + 1):
                want = int((np.bitwise_count(classes) == s).sum())
                assert count_orthogonal(t, v.k, s) == want, (t, v.k, s)


# -- per-s adjacency counts --------------------------------------------------


def test_count_orthogonal_table():
    for t, rows in ORTHOGONAL_COUNTS.items():
        for s, per_k in rows.items():
            for k, want in enumerate(per_k):
                assert count_orthogonal(t, k, s) == want, (t, k, s)


def test_count_orthogonal_empty_classes():
    # below the s_range floor no s-vector can reach 2t shared bits
    assert count_orthogonal(5, 0, 0) == 0
    assert count_orthogonal(5, 0, 1) == 0
    assert count_orthogonal(7, 0, 3) == 0
    with pytest.raises(ValueError, match=r"k=3 outside \[0, 2\] for t=5"):
        s_range(5, 3)


def test_degree_is_sum_over_s():
    for t in range(2, 9):
        for k in range(t // 2 + 1):
            total = 0
            for s in s_range(t, k):
                n = count_orthogonal(t, k, s)
                total += n if 2 * s == t else 2 * n
            assert degree(t, k) == total


# -- coincidence ladders ----------------------------------------------------


def test_alpha_ladder_worked_example():
    assert list(coincidence_range(5, 2, 2)) == [1, 3, 5]


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=100)
def test_coincidence_range_bounds(t, a, b):
    if a > t or b > t:
        return
    ladder = list(coincidence_range(t, a, b))
    assert ladder, (t, a, b)
    assert ladder[0] == t - min(a + b, 2 * t - a - b)
    assert ladder[-1] == t - abs(a - b)
    assert all(y - x == 2 for x, y in zip(ladder, ladder[1:]))
    # swapping the weights or complementing both leaves the ladder alone
    assert ladder == list(coincidence_range(t, b, a))
    assert ladder == list(coincidence_range(t, t - a, t - b))


def test_ladder_same_for_all_four_quarters():
    # quarters carry weights (k, t-k, t-k, k) against (s, t-s, t-s, s)
    for t in range(1, 9):
        for k in range(t // 2 + 1):
            for s in s_range(t, k):
                first = coincidence_range(t, k, s)
                assert coincidence_range(t, t - k, t - s) == first


# -- distribution solving ----------------------------------------------------


def test_solve_distributions_worked_example():
    assert solve_distributions(5, 2, 0) == ()
    assert [tuple(d) for d in solve_distributions(5, 2, 1)] == [(2, 2, 2, 4)]
    assert [tuple(d) for d in solve_distributions(5, 2, 2)] == [
        (1, 1, 3, 5),
        (1, 3, 3, 3),
    ]


def brute_distributions(t, k, s):
    ladder = list(coincidence_range(t, k, s))
    seen = set()
    for combo in product(ladder, repeat=4):
        if sum(combo) == 2 * t:
            seen.add(tuple(sorted(combo)))
    return sorted(seen)


@given(st.integers(min_value=1, max_value=9))
@settings(max_examples=40)
def test_solve_distributions_matches_brute_force(t):
    for k in range(t // 2 + 1):
        for s in range(t + 1):
            got = [tuple(d) for d in solve_distributions(t, k, s)]
            assert got == brute_distributions(t, k, s), (t, k, s)
            for d in got:
                assert sum(d) == 2 * t
                assert list(d) == sorted(d)


def test_solvability_criterion():
    # solvable iff 4*alpha_min <= 2t <= 4*alpha_max
    for t in range(1, 10):
        for k in range(t // 2 + 1):
            for s in range(t + 1):
                ladder = coincidence_range(t, k, s)
                lo, hi = ladder[0], ladder[-1]
                solvable = 4 * lo <= 2 * t <= 4 * hi
                assert bool(solve_distributions(t, k, s)) == solvable


def test_distinct_orderings_counts():
    (d,) = solve_distributions(5, 2, 1)
    assert len(distinct_orderings(d)) == 4  # permutations of (2,2,2,4)
    d1, d2 = solve_distributions(5, 2, 2)
    assert len(distinct_orderings(d1)) == 12  # (1,1,3,5)
    assert len(distinct_orderings(d2)) == 4  # (1,3,3,3)


# -- generator sets ----------------------------------------------------------


def test_generator_pool_sizes_worked_example():
    # the three displayed generator matrices for v = 684646:
    #   s=1, (2,2,2,4) -> pools 3*3*3*2;  s=2, (1,1,3,5) -> 3*3*6*1;
    #   s=2, (1,3,3,3) -> 3*6*6*6
    v = decode(684646, 5)
    sizes = {}
    for s in (1, 2):
        for d in solve_distributions(5, 2, s):
            ordered = distinct_orderings(d)[0]
            gs = generator_set(v, ordered, s)
            sizes[tuple(d)] = tuple(sorted(len(p) for p in gs))
    assert sizes == {
        (2, 2, 2, 4): (2, 3, 3, 3),
        (1, 1, 3, 5): (1, 3, 3, 6),
        (1, 3, 3, 3): (3, 6, 6, 6),
    }


@given(vertex_codes(max_t=5))
@settings(max_examples=30, deadline=None)
def test_generator_sets_partition_the_adjacency_counts(v):
    t, k = v.t, v.k
    for s in s_range(t, k):
        total = 0
        for d in solve_distributions(t, k, s):
            for ordered in distinct_orderings(d):
                total += math.prod(map(len, generator_set(v, ordered, s)))
        assert total == count_orthogonal(t, k, s)


def test_generator_set_rejects_infeasible_quarters():
    v = decode(684646, 5)
    with pytest.raises(ValueError, match="need one coincidence count per quarter"):
        generator_set(v, (2, 2, 2), 1)  # one count short
    with pytest.raises(ValueError, match=r"quarter 3: 3 total coincidences outside \[2, 4\]"):
        generator_set(v, (2, 2, 3, 3), 1)  # 3 is off the ladder 2, 4


# -- sampling ---------------------------------------------------------------


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50)
def test_random_vertex_is_well_formed(t, seed):
    v = random_vertex(t, Random(seed))
    assert decode(v.code, t) == v
    assert 0 <= v.k <= t


def _weighted_random_vertex(t: int, rng: Random) -> VertexCode:
    """random_vertex as it was first written: the class weights rebuilt per call."""
    ks = list(range(t + 1))
    k = rng.choices(ks, weights=[class_size(t, kk) for kk in ks])[0]
    qs = [sum(1 << b for b in rng.sample(range(t), w)) for w in (k, t - k, t - k, k)]
    return VertexCode(t=t, code=join_quarters(qs, t), k=k)


@pytest.mark.parametrize("t", range(2, 10))
def test_random_vertex_draws_as_the_rebuilt_weights_did(t):
    # the cached cumulative weights make the same draw, so every vertex and
    # the generator's state afterwards are the same
    for seed in range(200):
        want_rng, got_rng = Random(seed), Random(seed)
        want = [_weighted_random_vertex(t, want_rng) for _ in range(5)]
        assert [random_vertex(t, got_rng) for _ in range(5)] == want, seed
        assert got_rng.getstate() == want_rng.getstate()


def test_adjacency_sizes_match_degree(monkeypatch):
    for t, k in [(2, 0), (2, 1), (4, 1), (4, 2), (6, 3)]:
        rng = Random(7)
        v = random_vertex(t, rng, k=k)
        assert len(adjacency(v)) == degree(t, k)
    # a code past 64 bits is refused before the mask or any pool is built
    monkeypatch.setattr(graph, "full_mask", None)
    v = VertexCode(t=17, code=((1 << 34) - 1) << 17, k=0)
    with pytest.raises(ValueError, match=r"t must be in 1\.\.16 \(4t <= 64 bits\), got 17"):
        adjacency(v)


_ONE_T_MESSAGE = "t must be in 1..{} (4t <= 64 bits), got {}"
_SEED_OF_T4 = "seed is a G_4 clique but the search is configured for t=5"


@pytest.mark.parametrize(
    ("refused", "message"),
    [
        *(
            pytest.param(call, _ONE_T_MESSAGE.format(graph.MAX_T, t), id=f"{name}-t{t}")
            for t in (0, graph.MAX_T + 1)
            for name, call in [
                ("ExactSearchConfig", partial(ExactSearchConfig, t=t)),
                ("GaConfig", partial(GaConfig, t=t)),
                ("FastConfig", partial(FastConfig, t=t)),
                ("pool_bytes", partial(graph.pool_bytes, t)),
                ("vertex_pool", partial(vertex_pool, t)),
                ("extend_exact", partial(extend_exact, Clique(t=t, members=()), Random(0))),
                ("adjacency", partial(adjacency, VertexCode(t=t, code=0, k=0))),
            ]
        ),
        pytest.param(lambda: run_fast(paley_seed(4), FastConfig(t=5)), _SEED_OF_T4, id="run_fast"),
        *(
            pytest.param(
                lambda jobs=jobs: fast.run_many(paley_seed(4), FastConfig(t=5), essays=2, jobs=jobs),
                _SEED_OF_T4,
                id=f"run_many-jobs{jobs}",
            )
            for jobs in (1, 2)
        ),
    ],
)
def test_every_refused_t_and_seed_is_one_value_error(refused, message):
    # the library owns these refusals, so a caller gets the type the CLI maps
    # to 64, and each rule one message wherever it is checked
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == message


def test_clique_from_codes_orders_and_types():
    c = clique_from_codes(2, [166, 101])
    assert c.t == 2
    assert c.codes == [166, 101]
    assert len(c) == 2
