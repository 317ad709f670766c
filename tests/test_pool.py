"""The common-neighborhood kernel (graph.NeighborPool) against materialized pools.

graph.adjacency builds a vertex's neighbors from generator sets and the
popcount filter intersects them; the brute-force oracle scans every vertex.
The kernel must hold the same set, count it exactly and rank it in the same
ascending order.
"""

import ctypes
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from itertools import combinations
from pathlib import Path
from random import Random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hadclique import (
    Clique,
    ExactSearchConfig,
    GaConfig,
    adjacency,
    extend_exact,
    run_exact,
    run_ga,
)
from hadclique import graph
from hadclique.graph import (
    MaterializedPool,
    NeighborPool,
    pool_bytes,
    random_vertex,
    vertex_pool,
    weight_masks,
)
from hadclique.oracle import brute_adjacency_codes, vertex_codes

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


def test_pool_follows_two_cliques_into_the_tail():
    # at t = 8 a refine turns the halves into a MaterializedPool part way
    # through a clique; both forms must hold the reference set at every step
    t = 8
    rng = Random(8)
    for k in (1, 4):
        v = random_vertex(t, rng, k=k)
        pool = adjacency(v)
        kernel = vertex_pool(t).refine(v.code)
        kinds = []
        while True:
            kinds.append(type(kernel))
            _check_same(kernel, pool, rng)
            if not pool.size:
                break
            pick = int(pool[rng.randrange(pool.size)])
            pool = _filter(pool, pick, t)
            kernel = kernel.refine(pick)
        assert kinds[0] is NeighborPool and kinds[-1] is MaterializedPool, kinds


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


@pytest.mark.parametrize("t", range(1, 9))
def test_pools_are_even_and_mirror_by_complement(t):
    # N(S) is closed under complement and no code is its own complement, so
    # a pool's size is even and rank size - 1 - r holds the complement of
    # rank r, in both pool classes, from the whole vertex set to the tail
    rng = Random(100 + t)
    mask = graph.full_mask(t)
    kinds = set()
    for _ in range(3):
        kernel = vertex_pool(t)
        while True:
            kinds.add(type(kernel))
            assert kernel.size % 2 == 0, kernel.size
            if not kernel.size:
                break
            ranks = [0, kernel.size // 2 - 1] + [rng.randrange(kernel.size) for _ in range(20)]
            for r in ranks:
                assert kernel.code_at(kernel.size - 1 - r) == kernel.code_at(r) ^ mask, r
            if isinstance(kernel, MaterializedPool):
                assert np.all(kernel.array < np.uint64(1 << (4 * t - 1)))
            kernel = kernel.refine(kernel.code_at(rng.randrange(kernel.size)))
    assert kinds == {NeighborPool, MaterializedPool}


@pytest.mark.parametrize("t", range(1, 9))
def test_vertex_pool_left_is_the_lower_halves(t):
    whole = vertex_pool(t)
    want = [w for w in range(1 << (2 * t - 1)) if w.bit_count() == t]
    assert whole.left.dtype == np.uint32
    assert whole.left.tolist() == want
    assert whole.right.tolist() == weight_masks(2 * t, t).tolist()
    assert not whole.left.flags.writeable
    with pytest.raises(ValueError):
        whole.left[0] = 0


def test_weight_masks_match_combinations():
    for n in range(17):
        for weight in range(n + 2):
            want = sorted(sum(1 << b for b in bits) for bits in combinations(range(n), weight))
            got = weight_masks(n, weight)
            assert got.dtype == np.uint64
            assert got.tolist() == want, (n, weight)


def test_shared_tables_are_read_only():
    whole = vertex_pool(3)
    tables = (whole.left, whole.left_id, whole.right, whole.right_id, whole.right_count)
    for arr in (weight_masks(6, 3), weight_masks(6, 3, np.uint32), *tables):
        assert not arr.flags.writeable
    assert vertex_pool(3) is whole


def test_code_at_rejects_out_of_range_ranks():
    kernel = vertex_pool(2).refine(166)
    with pytest.raises(IndexError):
        kernel.code_at(kernel.size)
    with pytest.raises(IndexError):
        kernel.code_at(-1)


def test_vertex_pool_needs_64_bit_codes():
    with pytest.raises(ValueError, match=r"t must be in 1\.\.16 \(4t <= 64 bits\), got 17"):
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
            with pytest.raises(ValueError, match="physical memory"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # vertex_pool(13) alone would hold 10.4M halves: 83 MB of words
    assert peak < 1 << 20


def _chain(pool, codes):
    for code in codes:
        pool = pool.refine(code)
    return pool


@pytest.mark.parametrize("t", range(1, 9))
def test_multi_code_refine_equals_single_refines(t):
    # refine(*codes) batches the codes, so it must hold the set a chain of
    # single refines holds: from the whole vertex pool, and from pools a
    # few codes in, whichever class those are; at t <= 5 also the set the
    # brute-force oracle leaves
    rng = Random(200 + t)
    crossed = 0
    for seed in range(4):
        codes = run_exact(ExactSearchConfig(t=t, essays=1, rng_seed=seed)).best.codes
        rng.shuffle(codes)
        for k in sorted({0, 1, 2, len(codes) // 2}):
            start = _chain(vertex_pool(t), codes[:k])
            want = _chain(start, codes[k:])
            got = start.refine(*codes[k:])
            if isinstance(start, NeighborPool) and isinstance(want, MaterializedPool):
                crossed += 1
            assert got.size == want.size
            assert np.array_equal(got.codes(), want.codes())
            ranks = [rng.randrange(want.size) for _ in range(SAMPLED_RANKS)] if want.size else []
            assert [got.code_at(r) for r in ranks] == [want.code_at(r) for r in ranks]
            if t <= 5:
                brute = vertex_codes(t)
                for code in codes:
                    brute = _filter(brute, code, t)
                assert np.array_equal(got.codes(), brute)
    assert crossed or t == 1
    assert vertex_pool(t).refine() is vertex_pool(t)


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_multi_code_refine_matches_brute_force(t, seed, n):
    # codes drawn from the pool as it shrinks, so every batch is a clique
    rng = Random(seed)
    brute = vertex_codes(t)
    codes = []
    while brute.size and len(codes) < n:
        codes.append(int(brute[rng.randrange(brute.size)]))
        brute = _filter(brute, codes[-1], t)
    kernel = vertex_pool(t).refine(*codes)
    assert kernel.size == brute.size
    assert np.array_equal(kernel.codes(), brute)


def _traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("t", [7, 8])
def test_a_batch_holds_no_bin_array_larger_than_the_halves(t):
    # a batch counts its halves into groups * (t + 1)^c bins: two int64
    # counts and one bool per bin.  Capped at the halves held, that adds at
    # most 17 B per half over the single refines' peak; one code more than
    # the cap allows would add up to (t + 1) times that
    rng = Random(t)
    for seed in range(3):
        codes = run_exact(ExactSearchConfig(t=t, essays=1, rng_seed=seed)).best.codes
        rng.shuffle(codes)
        for k in (0, 2):
            start = _chain(vertex_pool(t), codes[:k])
            assert isinstance(start, NeighborPool)
            halves = start.left.size + start.right.size
            # warm any lazy state first
            _chain(start, codes[k:])
            start.refine(*codes[k:])
            chain = _traced_peak(lambda: _chain(start, codes[k:]))
            batch = _traced_peak(lambda: start.refine(*codes[k:]))
            assert batch <= chain + 17 * halves, (seed, k, chain, batch, halves)


def test_a_materializing_refine_frees_the_raw_ids_before_it_joins(monkeypatch):
    # refine hands its keyed ids to _regroup in a list that _regroup
    # empties, so they die when a compacting pass rebinds them.  With the
    # caller holding them, they lived through the join, and one exact
    # essay's traced peak at t = 9 rose from 28.6 to 32.5 B per half
    keyed, join = graph._keyed, graph._join
    raw, alive = [], []

    def spy_keyed(*args):
        ids = keyed(*args)
        raw.append(weakref.ref(ids))
        return ids

    def spy_join(*args):
        alive.append([ref() is not None for ref in raw[-2:]])
        return join(*args)

    monkeypatch.setattr(graph, "_keyed", spy_keyed)
    monkeypatch.setattr(graph, "_join", spy_join)
    run_exact(ExactSearchConfig(t=8, essays=6))
    assert alive and not any(map(any, alive)), alive


def _glibc_mallopt() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# run in a fresh interpreter: a test process may already have raised glibc's
# adaptive thresholds by freeing some large block, which hides the churn
_FAULTS_PER_ESSAY = """
import resource
from hadclique import ExactSearchConfig, run_exact
run_exact(ExactSearchConfig(t=8, essays=20, rng_seed=999))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_exact(ExactSearchConfig(t=8, essays=100, rng_seed=1))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


@pytest.mark.skipif(not _glibc_mallopt(), reason="needs glibc's mallopt")
def test_exact_essays_do_not_refault_freed_memory():
    # each refine frees its temporaries; with glibc's default thresholds
    # free() returned the heap top to the OS and the next refine faulted it
    # in again, 60-95 minor faults per essay at t = 8
    src = str(Path(graph.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_ESSAY], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert float(out.stdout) < 10, out.stdout


class _Libc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def _no_libc(name):
    raise OSError("no libc")


@pytest.mark.parametrize("libc", ["missing", "no mallopt", "mallopt"])
def test_vertex_pool_builds_whatever_libc_offers(monkeypatch, libc):
    wants = [vertex_pool(4), vertex_pool(5)]
    fake = _Libc()
    lookups = {"missing": _no_libc, "no mallopt": lambda name: object(), "mallopt": lambda name: fake}
    monkeypatch.setattr(ctypes, "CDLL", lookups[libc])
    # the thresholds are set once per process; forget that they were, before
    # and after, so that the next real pool sets them again
    graph._keep_freed_memory.cache_clear()
    try:
        pools = [vertex_pool.__wrapped__(4), vertex_pool.__wrapped__(5)]
    finally:
        graph._keep_freed_memory.cache_clear()
    for got, want in zip(pools, wants):
        assert got.size == want.size
        assert np.array_equal(got.codes(), want.codes())
    # glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, at 32 and 64 MiB, once
    assert fake.calls == ([(-3, 32 << 20), (-1, 64 << 20)] if libc == "mallopt" else [])


def _dead(pool: NeighborPool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per half, whether its bin lacks a partner on the other side; and whether each bin is empty."""
    lbin, rbin = pool.left_id, pool.right_id
    lefts = np.bincount(lbin, minlength=pool.right_count.size)
    both = np.logical_and(lefts, pool.right_count)
    return ~both[lbin], ~both[rbin], ~np.logical_or(lefts, pool.right_count)


OPEN_CHECK_CODES = 1 << 18  # codes() only below this: a t = 9 pool starts at 154 M codes
OPEN_FULL_RANKS = 1 << 13  # at t <= 7, pools up to this size are checked at every rank


@pytest.mark.parametrize("t", range(4, 10))
def test_open_pools_equal_closed_ones(t):
    # a refine whose bins leave room for another digit stays open: it keeps
    # its parent's halves, dead ones included, with raw bins as ids.  Along
    # chains of single refines from each start class, each pool must hold
    # what the whole vertex pool refined by the same codes in one batch
    # holds (and at t <= 5 the brute-force common neighbourhood), and a pool
    # holding a dead half must share its parent's halves
    rng = Random(300 + t)
    whole = vertex_pool(t)
    tables = (whole.left, whole.left_id, whole.right, whole.right_id, whole.right_count)
    before = [arr.copy() for arr in tables]
    opened = dead_both = 0
    for k in [*range(t // 2 + 1)] * 2:
        pool, codes = whole, [random_vertex(t, rng, k=k).code]
        while True:
            parent, pool = pool, pool.refine(codes[-1])
            batch = whole.refine(*codes)
            assert pool.size == batch.size
            want = batch.codes() if pool.size <= OPEN_CHECK_CODES else None
            if want is not None:
                assert np.array_equal(pool.codes(), want)
            if t <= 5:
                brute = vertex_codes(t)
                for code in codes:
                    brute = _filter(brute, code, t)
                assert np.array_equal(want, brute)
            if t <= 7 and pool.size <= OPEN_FULL_RANKS:
                assert [pool.code_at(r) for r in range(pool.size)] == want.tolist()
            elif pool.size:
                ranks = [0, pool.size // 2 - 1, pool.size // 2, pool.size - 1]
                ranks += [rng.randrange(pool.size) for _ in range(SAMPLED_RANKS)]
                assert [pool.code_at(r) for r in ranks] == [batch.code_at(r) for r in ranks]
            if isinstance(pool, NeighborPool):
                dead_left, dead_right, empty = _dead(pool)
                halves = pool.left.size + pool.right.size
                if dead_left.any() or dead_right.any() or empty.any():
                    # open: the bins still take another digit within the halves held
                    assert pool.right_count.size * (t + 1) <= halves
                    assert pool.left is parent.left and pool.right is parent.right
                    opened += 1
                    dead_both += bool(dead_left.any() and dead_right.any())
            if not pool.size:
                break
            codes.append(pool.code_at(rng.randrange(pool.size)))
    # t = 4 has too few bins for an open pool with dead halves on both sides
    assert opened and (dead_both or t == 4), (opened, dead_both)
    for arr, copy in zip(tables, before):
        assert not arr.flags.writeable
        assert np.array_equal(arr, copy)


@pytest.mark.parametrize("t", [5, 8, 9])
def test_open_pools_leave_room_and_keep_the_switch_point(t, monkeypatch):
    # the next refine of a pool counts its halves into right_count.size *
    # (t + 1) bins; a pool stays open only while that is within the halves
    # it holds, so an open pool's bins stay within its halves.  A compacted
    # pool keeps every group with a half on each side, which can be fewer
    # than t + 1 halves per group, so it holds only the weaker bound.  Dead
    # halves do not move the switch to a materialized pool: it comes once
    # the stored codes number no more than the live halves
    refined = []
    spied = graph._regroup

    def spy(*args):
        refined.append(spied(*args))
        return refined[-1]

    monkeypatch.setattr(graph, "_regroup", spy)
    run_exact(ExactSearchConfig(t=t, essays=6))
    run_ga(GaConfig(t=t, max_generations=4))
    for pool in refined:
        if isinstance(pool, MaterializedPool):
            # a live half is one that some stored code holds
            half = np.uint64(2 * t)
            live = np.unique(pool.array >> half).size
            live += np.unique(pool.array & np.uint64((1 << 2 * t) - 1)).size
            assert pool.array.size <= live
    pools = [pool for pool in refined if isinstance(pool, NeighborPool)]
    opened = 0
    for pool in pools:
        dead_left, dead_right, empty = _dead(pool)
        halves = pool.left.size + pool.right.size
        assert pool.size // 2 > halves - dead_left.sum() - dead_right.sum()
        if dead_left.any() or dead_right.any() or empty.any():
            assert pool.right_count.size * (t + 1) <= halves
            opened += 1
        else:
            assert pool.right_count.size * 2 <= halves
    assert 0 < opened < len(pools), (opened, len(pools))


@pytest.mark.parametrize("t", range(2, 9))
def test_regroup_joins_on_a_key_that_is_no_refine(t):
    # _regroup bins any per-half key, not only a refine's popcounts.  Keyed
    # by quarter-1 weight on the left and quarter-4 weight on the right, the
    # halves of vertex_pool(t) regroup into vertex_pool(t) itself, left open
    # on the same word arrays: only the one right half whose quarter 4 is all
    # ones lacks a partner, as no stored left has quarter 1 all ones
    whole = vertex_pool(t)
    left_id = np.bitwise_count(whole.left >> np.uint32(t)).astype(np.intp)
    right_id = np.bitwise_count(whole.right & np.uint32((1 << t) - 1)).astype(np.intp)
    pool = graph._regroup(t, whole.left, whole.right, [left_id, right_id], t + 1)
    assert isinstance(pool, NeighborPool)
    assert pool.left is whole.left and pool.right is whole.right
    for got, want in ((pool.left_id, whole.left_id), (pool.right_id, whole.right_id),
                      (pool.right_count, whole.right_count)):
        assert np.array_equal(got, want)
    assert pool.size == whole.size


# open pools with dead lefts hold 0.27-3.1 M codes at t = 7..9 and 112 M at
# t = 10, so codes() is compared up to this size only
DEAD_LEFT_CHECK_CODES = 1 << 22


@pytest.mark.parametrize("t", range(1, 11))
def test_ids_index_their_group_counts(t):
    # a half's id is its group number: right_count[g] counts the right
    # halves with id g, in open pools too, so codes() of an open pool joins
    # on right_count as it stands, dead lefts and all.  Each chain refines
    # by batches of one to four codes, drawn along single refines
    rng = Random(400 + t)
    whole = vertex_pool(t)
    pools = dead_lefts = 0

    def check(pool, clique):
        nonlocal pools, dead_lefts
        if not isinstance(pool, NeighborPool):
            return
        pools += 1
        counts = pool.right_count
        assert pool.left_id.max(initial=0) < counts.size
        assert pool.right_id.max(initial=0) < counts.size
        assert np.array_equal(counts, np.bincount(pool.right_id, minlength=counts.size))
        if counts.take(pool.left_id).all() or pool.size > DEAD_LEFT_CHECK_CODES:
            return
        dead_lefts += 1
        assert np.array_equal(pool.codes(), whole.refine(*clique).codes())

    check(whole, [])
    for _ in range(6):
        pool, clique = whole, []
        while pool.size:
            probe, c, batch = pool, rng.choice((1, 2, 3, 4)), []
            while probe.size and len(batch) < c:
                batch.append(probe.code_at(rng.randrange(probe.size)))
                probe = probe.refine(batch[-1])
                check(probe, clique + batch)
            clique += batch
            pool = pool.refine(*batch)
            check(pool, clique)
    assert pools
    # t <= 4 has too few bins to leave a pool open, t = 10 only larger pools
    assert dead_lefts or not 5 <= t <= 9, dead_lefts
