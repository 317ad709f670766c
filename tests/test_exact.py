import time
import tracemalloc
from random import Random

import numpy as np
import pytest

from hadclique import (
    InvalidClique,
    Clique,
    ExactSearchConfig,
    adjacency,
    brute_adjacency_codes,
    clique_from_codes,
    decode,
    degree,
    extend_exact,
    paley_seed,
    random_vertex,
    run_exact,
    verify_clique,
)
from hadclique.exact import _random_start
from hadclique.graph import BASE_BYTES, pool_bytes


def test_config_validation():
    with pytest.raises(ValueError):
        ExactSearchConfig(t=0)
    with pytest.raises(ValueError):
        ExactSearchConfig(t=2, essays=0)
    with pytest.raises(ValueError):
        ExactSearchConfig(t=17)


def test_every_essay_hits_known_max_small_t():
    for t, want in [(2, 5), (3, 9), (4, 13)]:
        rep = run_exact(ExactSearchConfig(t=t, essays=10, rng_seed=0))
        assert [len(e.clique) for e in rep.essays] == [want] * 10
        for e in rep.essays:
            assert verify_clique(e.clique), (t, e.index)


def test_outputs_are_oracle_maximal():
    # no vertex of G_t extends any produced clique (t small enough to scan)
    for t in (2, 3):
        rep = run_exact(ExactSearchConfig(t=t, essays=4, rng_seed=1))
        for e in rep.essays:
            members = set(e.clique.codes)
            common = None
            for v in e.clique.members:
                nbrs = set(brute_adjacency_codes(v).tolist())
                common = nbrs if common is None else common & nbrs
            assert not (common - members)


@pytest.mark.parametrize("t", range(3, 8))
def test_no_essay_ends_in_the_completion_band(t):
    # an (n - 7) x n partial Hadamard matrix always completes (Verheiden,
    # J. Combin. Theory A, 1978), so no maximal clique of G_t has
    # 4t - 10 .. 4t - 4 members; this checks maximality without the oracle
    rep = run_exact(ExactSearchConfig(t=t, essays=200))
    band = range(4 * t - 10, 4 * t - 3)
    assert not [e.size for e in rep.essays if e.size in band]


def test_deterministic_under_seed_and_jobs():
    a = run_exact(ExactSearchConfig(t=3, essays=6, rng_seed=9))
    b = run_exact(ExactSearchConfig(t=3, essays=6, rng_seed=9))
    c = run_exact(ExactSearchConfig(t=3, essays=6, rng_seed=9), jobs=3)
    assert [e.clique.codes for e in a.essays] == [e.clique.codes for e in b.essays]
    assert [e.clique.codes for e in a.essays] == [e.clique.codes for e in c.essays]


def test_a_time_limited_forked_run_is_the_serial_prefix():
    rep = run_exact(ExactSearchConfig(t=6, essays=1_000_000, rng_seed=5), jobs=2, time_limit=0.2)
    n = len(rep.essays)
    assert 2 <= n < 1_000_000
    assert [e.index for e in rep.essays] == list(range(n))
    serial = run_exact(ExactSearchConfig(t=6, essays=n, rng_seed=5))
    assert [e.clique for e in rep.essays] == [e.clique for e in serial.essays]


def test_distinct_seeds_vary():
    a = run_exact(ExactSearchConfig(t=4, essays=1, rng_seed=0))
    b = run_exact(ExactSearchConfig(t=4, essays=1, rng_seed=1))
    assert a.essays[0].clique.codes != b.essays[0].clique.codes


def test_start_vertex_is_kept():
    v = decode(684646, 5)
    rep = run_exact(ExactSearchConfig(t=5, essays=2, rng_seed=0, start_vertex=v))
    for e in rep.essays:
        assert 684646 in e.clique.codes


def test_time_limit_still_produces_one_essay():
    rep = run_exact(ExactSearchConfig(t=3, essays=50, rng_seed=0), time_limit=0.0)
    assert len(rep.essays) >= 1


def test_report_shape():
    rep = run_exact(ExactSearchConfig(t=2, essays=3, rng_seed=5))
    assert rep.algorithm == "exact"
    assert rep.t == 2
    assert len(rep.best) == 5
    assert rep.depth == 8
    assert dict(rep.config)["rng_seed"] == 5


def test_extend_exact_grows_to_maximal():
    rng = Random(0)
    base = clique_from_codes(2, [166, 101])
    out = extend_exact(base, rng)
    assert set(base.codes) <= set(out.codes)
    assert len(out) == 5
    assert verify_clique(out)


def test_extend_exact_empty_input_starts_fresh():
    out = extend_exact(Clique(t=3, members=()), Random(1))
    assert len(out) == 9
    assert verify_clique(out)


def test_extend_exact_rejects_invalid_input():
    with pytest.raises(InvalidClique):
        extend_exact(clique_from_codes(2, [166, 89]), Random(0))


def test_extend_exact_grows_the_t10_paley_seed():
    seed = paley_seed(10)
    assert len(seed) == 13
    out = extend_exact(seed, Random(0))
    assert out.codes[: len(seed)] == seed.codes
    assert len(out) > len(seed)
    assert verify_clique(out)


def _recomputed_start(t: int, rng: Random):
    """_random_start as it was: the class list recomputed on every call."""
    ks = [k for k in range(t // 2 + 1) if degree(t, k) > 0]
    if not ks:
        ks = list(range(t // 2 + 1))
    return random_vertex(t, rng, k=rng.choice(ks))


@pytest.mark.parametrize("t", range(1, 17))
def test_random_start_draws_as_the_recomputed_class_list(t):
    for seed in (0, 1, 2, 99):
        got, want = Random(seed), Random(seed)
        for _ in range(3):
            assert _random_start(t, got) == _recomputed_start(t, want), seed
        assert got.random() == want.random()


def _replay_greedy(t: int, members: list[int], rng: Random) -> list[int]:
    """The greedy loop over a materialized pool: graph.adjacency, then popcount filters."""
    pool = adjacency(decode(members[0], t))
    for code in members[1:]:
        pool = pool[np.bitwise_count(pool ^ np.uint64(code)) == 2 * t]
    while pool.size:
        pick = int(pool[rng.randrange(pool.size)])
        members.append(pick)
        pool = pool[np.bitwise_count(pool ^ np.uint64(pick)) == 2 * t]
    return members


# t = 8 crosses the kernel's switch to a materialized tail within each essay
@pytest.mark.parametrize(
    "t, seeds, essays",
    [(t, (0, 7, 31), 4) for t in range(2, 8)] + [(8, (0,), 2)],
    ids=[str(t) for t in range(2, 9)],
)
def test_run_exact_replays_the_materialized_search(t, seeds, essays):
    for seed in seeds:
        want = []
        for i in range(essays):
            rng = Random(seed + i)
            want.append(_replay_greedy(t, [_random_start(t, rng).code], rng))
        for jobs in (1, 2):
            rep = run_exact(ExactSearchConfig(t=t, essays=essays, rng_seed=seed), jobs=jobs)
            assert [e.clique.codes for e in rep.essays] == want, (seed, jobs)


@pytest.mark.parametrize("t", range(2, 8))
def test_extend_exact_replays_the_materialized_search(t):
    for seed in range(3):
        base = run_exact(ExactSearchConfig(t=t, essays=1, rng_seed=100 + seed)).best
        for keep in (1, 2, len(base) // 2):
            prefix = base.codes[:keep]
            got = extend_exact(clique_from_codes(t, prefix), Random(seed))
            assert got.codes == _replay_greedy(t, list(prefix), Random(seed)), (seed, keep)


@pytest.mark.parametrize("t", [9, 10])
def test_one_essay_is_fast_and_within_the_byte_estimate(t):
    # a materialized t = 9 pool holds up to 154M codes: ~6 s and ~2.5 GB per
    # essay; tracemalloc sees the kernel's arrays, not the interpreter, so
    # they are held to the estimate less BASE_BYTES
    tracemalloc.start()
    try:
        begin = time.perf_counter()
        rep = run_exact(ExactSearchConfig(t=t, essays=1, rng_seed=0))
        seconds = time.perf_counter() - begin
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    essay = rep.essays[0]
    assert len(essay.clique) > 1
    assert verify_clique(essay.clique)
    assert peak < pool_bytes(t) - BASE_BYTES
    assert seconds < 2.0
