"""The common-neighborhood kernel (graph.NeighborPool) against materialized pools.

graph.adjacency builds a vertex's neighbors from generator sets and the
popcount filter intersects them; the brute-force oracle scans every vertex.
The kernel must hold the same set, count it exactly and rank it in the same
ascending order.
"""

import tracemalloc
from itertools import combinations
from random import Random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hadclique import (
    Clique,
    ExactSearchConfig,
    GaConfig,
    PoolTooLarge,
    RangeError,
    adjacency,
    brute_adjacency_codes,
    extend_exact,
    random_vertex,
    vertex_codes,
)
from hadclique import graph
from hadclique.graph import pool_bytes, vertex_pool, weight_masks

FULL_RANKS = 400  # pools up to this size are checked at every rank
SAMPLED_RANKS = 100


def _filter(pool: np.ndarray, code: int, t: int) -> np.ndarray:
    return pool[np.bitwise_count(pool ^ np.uint64(code)) == 2 * t]


def _check_same(kernel, pool: np.ndarray, rng: Random) -> None:
    assert kernel.size == pool.size
    codes = kernel.codes()
    assert codes.dtype == np.uint64
    assert np.array_equal(codes, pool)
    assert np.all(codes[1:] > codes[:-1])
    if pool.size <= FULL_RANKS:
        ranks = range(pool.size)
    else:
        ranks = [0, pool.size - 1] + [rng.randrange(pool.size) for _ in range(SAMPLED_RANKS)]
    for r in ranks:
        assert kernel.code_at(r) == int(pool[r]), r


@pytest.mark.parametrize("t", range(1, 8))
def test_pool_matches_materialized_adjacency(t):
    # a random clique from every class k, checked after each member is added
    rng = Random(t)
    for k in range(t + 1):
        v = random_vertex(t, rng, k=k)
        pool = adjacency(v)
        kernel = vertex_pool(t).refine(v.code)
        while True:
            _check_same(kernel, pool, rng)
            if not pool.size:
                break
            pick = int(pool[rng.randrange(pool.size)])
            pool = _filter(pool, pick, t)
            kernel = kernel.refine(pick)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_pool_matches_brute_force(t, seed, extra):
    rng = Random(seed)
    v = random_vertex(t, rng)
    common = brute_adjacency_codes(v)
    kernel = vertex_pool(t).refine(v.code)
    for _ in range(extra):
        if not common.size:
            break
        pick = int(common[rng.randrange(common.size)])
        common = _filter(common, pick, t)
        kernel = kernel.refine(pick)
    assert kernel.size == common.size
    assert np.array_equal(kernel.codes(), common)


@pytest.mark.parametrize("t", range(1, 6))
def test_vertex_pool_holds_every_vertex(t):
    whole = vertex_pool(t)
    assert whole.size == len(vertex_codes(t))
    assert np.array_equal(whole.codes(), vertex_codes(t))


def test_weight_masks_match_combinations():
    for n in range(17):
        for weight in range(n + 2):
            want = sorted(sum(1 << b for b in bits) for bits in combinations(range(n), weight))
            got = weight_masks(n, weight)
            assert got.dtype == np.uint64
            assert got.tolist() == want, (n, weight)


def test_shared_tables_are_read_only():
    whole = vertex_pool(3)
    for arr in (weight_masks(6, 3), whole.left, whole.left_group, whole.right, whole.right_group):
        assert not arr.flags.writeable
    assert vertex_pool(3) is whole


def test_code_at_rejects_out_of_range_ranks():
    kernel = vertex_pool(2).refine(166)
    with pytest.raises(IndexError):
        kernel.code_at(kernel.size)
    with pytest.raises(IndexError):
        kernel.code_at(-1)


def test_vertex_pool_needs_64_bit_codes():
    with pytest.raises(RangeError):
        vertex_pool(17)


def test_over_budget_t_is_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(graph, "_physical_bytes", lambda: 1 << 62)
    need = pool_bytes(13)
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need)
    assert pool_bytes(13) == need
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need - 1)
    refused = [
        lambda: vertex_pool(13),
        lambda: ExactSearchConfig(t=13),
        lambda: GaConfig(t=13),
        lambda: extend_exact(Clique(t=13, members=()), Random(0)),
    ]
    tracemalloc.start()
    try:
        for build in refused:
            with pytest.raises(PoolTooLarge, match="physical memory"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # vertex_pool(13) alone would hold 10.4M halves: 83 MB of words
    assert peak < 1 << 20
