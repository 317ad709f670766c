"""Vertex encoding and adjacency machinery for the Hadamard graph G_t.

A candidate row of an m x 4t partial Hadamard matrix whose first three rows
are the canonical ones (all +; +^{2t} -^{2t}; (+^t -^t)^2) can be written in
additive notation (+1 -> 0, -1 -> 1) as a 4t-bit word with exactly 2t ones
that splits into four length-t quarters carrying k, t-k, t-k, k ones for
some k in [0, t].  Such words are the vertices of G_t; two vertices are
adjacent (the rows are orthogonal) exactly when they agree in 2t positions,
i.e. their XOR has 2t one-bits.  Cliques of size m in G_t are (m+3) x 4t
partial Hadamard matrices.

Words are stored as plain integers with position 1 of the row as the most
significant of the 4t bits (leading zeros retained), so quarter 1 occupies
the top t bits.

Adjacency is never stored: it is *generated*.  For a k-vertex v (k <= t/2)
and each admissible s, the s-vector neighbors of v are classified by their
per-quarter total-coincidence counts alpha = t-k-s+2i, i being the number
of shared 1s (quarters 1 and 4) or shared 0s (quarters 2 and 3).  The
unordered 4-tuples of alphas summing to 2t form a small diophantine
solution set; each ordered assignment of a tuple to quarters yields four
independent pools of quarter patterns whose juxtapositions are exactly the
neighbors in that class.  Neighbors with more than t/2 ones per end-quarter
are complements of generated ones.  This module implements that machinery
plus exact counting (degrees, edge totals) from the same binomial products.

The searches do not materialize neighbor sets at all.  A code splits into a
left half (quarters 1-2) and a right half (quarters 3-4), each a 2t-bit word
of weight t held as a uint32, and since u's halves also weigh t, a candidate
is orthogonal to member u exactly when popcount(L & ~u_hi) equals
popcount(R & u_lo).  NeighborPool keeps the surviving halves of each side
with a group id that pairs them (Horowitz-Sahni split and join), so the
common neighborhood of a clique is counted, ranked and enumerated from
at most C(2t, t) halves per side.  A half's id is its group number, which
indexes the per-group count of right halves, and a refine appends one key
digit per code to it: group g and key j give bin g * (t + 1) + j.  The
keys are all a refine computes; _regroup, the kernel's one join, turns
binned halves into a pool.  If the bins would still take another digit
within the halves held, and at most a quarter of them lack a partner, the
pool stays open: it shares the halves it was given, dead ones included,
and its ids are the raw bins.  Otherwise it compacts: it drops the dead
halves and numbers the bins left with a partner 0, 1, 2, ...  Once a pool
stores no more codes than live halves it continues as a MaterializedPool,
its ascending stored codes filtered by one popcount per code.

Every pool stores only half of its codes.  Negating a row keeps it
orthogonal to every other row (the XOR of ~w and u is the complement of
w ^ u, of weight 4t - 2t), so every common neighborhood is closed under
complement, and no code is its own complement.  A pool keeps the codes
whose top bit is 0, which takes only the left halves below 2^(2t-1): the
first C(2t, t) / 2 of them.  Those codes sort first, and the codes with
top bit 1 are their complements in reverse order, so with h codes stored,
rank r >= h of the full pool is stored rank 2h - 1 - r XOR full_mask(t).
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations_with_replacement, permutations
from random import Random
from typing import Sequence

import numpy as np

from .errors import HadcliqueError

__all__ = [
    "MAX_T",
    "VertexCode",
    "Clique",
    "decode",
    "clique_from_codes",
    "orthogonal_codes",
    "quarters_of",
    "join_quarters",
    "vertex_count",
    "class_size",
    "coincidence_range",
    "solve_distributions",
    "distinct_orderings",
    "generator_set",
    "count_orthogonal",
    "degree",
    "edge_count",
    "adjacency",
    "weight_masks",
    "NeighborPool",
    "MaterializedPool",
    "pool_bytes",
    "vertex_pool",
    "random_vertex",
]


@dataclass(frozen=True, slots=True)
class VertexCode:
    """One vertex of G_t: integer code plus its quarter class k.

    A single vertex's type, as decode and random_vertex return it; a
    Clique holds its members as bare codes.
    """

    t: int
    code: int
    k: int


@dataclass(frozen=True, slots=True)
class Clique:
    """An ordered list of pairwise-orthogonal vertices of one G_t.

    Members are held as plain int codes: a member's class k is the weight
    of its top quarter (see decode), so no label is stored, and a search
    that keeps every finished essay's clique keeps one int per member.
    """

    t: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    @property
    def codes(self) -> list[int]:
        return list(self.members)


# --- codes -----------------------------------------------------------------

# Codes are uint64 words, so 4t <= 64.
MAX_T = 16


def full_mask(t: int) -> int:
    return (1 << (4 * t)) - 1


def quarters_of(code: int, t: int) -> tuple[int, int, int, int]:
    """Split a 4t-bit code into quarters, most significant quarter first."""
    m = (1 << t) - 1
    return (code >> (3 * t)) & m, (code >> (2 * t)) & m, (code >> t) & m, code & m


def join_quarters(qs: Sequence[int], t: int) -> int:
    return (qs[0] << (3 * t)) | (qs[1] << (2 * t)) | (qs[2] << t) | qs[3]


def decode(code: int, t: int) -> VertexCode:
    """Validate a code as a vertex of G_t, reporting its class k.

    Raises HadcliqueError when t < 1, when the code does not fit in 4t
    bits, when it does not carry exactly 2t ones, or when the quarter
    counts are not (k, t-k, t-k, k) for any k.  All k in [0, t] are
    accepted; the k <= t//2 restriction applies only to adjacency
    generation, complements covering the upper classes.
    """
    if t < 1:
        raise HadcliqueError(f"t must be positive, got {t}")
    if not 0 <= code < (1 << (4 * t)):
        raise HadcliqueError(f"code {code} does not fit in {4 * t} bits")
    if code.bit_count() != 2 * t:
        raise HadcliqueError(f"code {code} has {code.bit_count()} one-bits, expected {2 * t}")
    c1, c2, c3, c4 = (q.bit_count() for q in quarters_of(code, t))
    if c1 != c4 or c2 != c3 or c1 + c2 != t:
        raise HadcliqueError(
            f"quarter one-bit counts ({c1},{c2},{c3},{c4}) are not (k,t-k,t-k,k)"
        )
    return VertexCode(t=t, code=code, k=c1)


def clique_from_codes(t: int, codes: Sequence[int]) -> Clique:
    """Validate each code as a vertex of G_t and keep it as a plain int.

    Orthogonality is not checked.
    """
    return Clique(t=t, members=tuple(decode(operator.index(c), t).code for c in codes))


def orthogonal_codes(a: int, b: int, t: int) -> bool:
    """Orthogonality test on raw codes: the XOR has exactly 2t one-bits."""
    return (a ^ b).bit_count() == 2 * t


def complement(v: VertexCode) -> VertexCode:
    """Bitwise negation within 4t bits; maps a k-vertex to a (t-k)-vertex.

    Orthogonality to any w is preserved: the XOR flips all 4t bits, so its
    weight goes from 2t to 4t - 2t = 2t.
    """
    return VertexCode(t=v.t, code=v.code ^ full_mask(v.t), k=v.t - v.k)


# --- census ----------------------------------------------------------------


def class_size(t: int, k: int) -> int:
    """Number of k-vertices: independent quarter choices, C(t,k)^4."""
    return math.comb(t, k) ** 4


def vertex_count(t: int) -> int:
    return sum(class_size(t, k) for k in range(t + 1))


def s_range(t: int, k: int) -> range:
    """Classes s with at least one s-vector orthogonal to a k-vertex.

    Empty classes need 2s + 2k - t >= 0 shared one-positions, so
    s >= ceil(t/2) - k; the generation-side cap s <= t//2 bounds above.
    May be empty (t odd, k = 0).
    """
    if not 0 <= k <= t // 2:
        raise ValueError(f"k={k} outside [0, {t // 2}] for t={t}")
    return range(max(0, (t + 1) // 2 - k), t // 2 + 1)


def coincidence_range(t: int, a: int, b: int) -> range:
    """Possible counts of equal positions between t-bit words of weights a, b.

    The count is t minus the Hamming distance; the distance has the parity
    of a - b and runs from |a - b| to min(a + b, 2t - a - b), so the result
    steps by 2. With a = k and b = s it is the per-quarter ladder between a
    k-vertex and an s-vector: quarters weigh (k, t-k, t-k, k) against
    (s, t-s, t-s, s), and all four quarters admit the same ladder.
    """
    lo = t - min(a + b, 2 * t - a - b)
    hi = t - abs(a - b)
    return range(lo, hi + 1, 2)


# --- diophantine distributions ---------------------------------------------


def solve_distributions(t: int, k: int, s: int) -> tuple[tuple[int, int, int, int], ...]:
    """All unordered 4-tuples of ladder values summing to 2t, ascending.

    Solutions exist iff 4*alpha_0 <= 2t <= 4*alpha_n.  Each ascending
    triple (a, b, c) of ladder values is completed by d = 2t - a - b - c
    when c <= d and d is on the ladder.  The first value runs from alpha_0,
    not the published bound alpha_1, which misses (2, 2, 2, 4) at t = 5,
    k = 2, s = 1.
    """
    ladder = coincidence_range(t, k, s)
    return tuple(
        (a, b, c, d)
        for a, b, c in combinations_with_replacement(ladder, 3)
        if c <= (d := 2 * t - a - b - c) and d in ladder
    )


def distinct_orderings(alphas: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
    """Distinct quarter assignments of an unordered tuple, sorted."""
    return tuple(sorted(set(permutations(alphas))))


# --- generator pools ---------------------------------------------------------


def _pool(ref_quarter: int, t: int, weight: int, on_ones: int, in_ones: bool) -> tuple[int, ...]:
    """Quarter patterns of a given one-bit weight with a fixed overlap, ascending.

    For quarters 1 and 4 (in_ones=True) the pattern's ones must meet the
    reference quarter's ones in exactly on_ones positions.  For quarters 2
    and 3 the same count applies to the pattern's zeros against the
    reference's zeros.
    """
    masks = weight_masks(t, weight)
    ref = np.uint64(ref_quarter)
    overlap = masks & ref if in_ones else ~masks & ~ref & np.uint64((1 << t) - 1)
    return tuple(masks[np.bitwise_count(overlap) == on_ones].tolist())


def generator_set(
    v: VertexCode, ordered_alphas: Sequence[int], s: int
) -> tuple[tuple[int, ...], ...]:
    """The four pools of quarter patterns realizing one ordered coincidence tuple.

    ``ordered_alphas`` assigns a total-coincidence count to each quarter of
    an s-vector against v.  The unordered tuple alone does not pin down s
    (one multiset can solve the system for two different s), so s is an
    explicit argument.  Pool q holds every t-bit pattern of the s-vector's
    quarter-q weight meeting the demanded count; sizes are
    C(k, i) * C(t-k, s-i) with i = (alpha - t + k + s) / 2.  Juxtaposing one
    pattern from each pool (quarter 1 the most significant t bits) yields a
    vector orthogonal to v, distinct choices distinct vectors, so the class
    holds the product of the pool sizes.
    """
    t, k = v.t, v.k
    if len(ordered_alphas) != 4:
        raise ValueError("need one coincidence count per quarter")
    ladder = coincidence_range(t, k, s)
    pools = []
    for q, (alpha, ref, weight) in enumerate(
        zip(ordered_alphas, quarters_of(v.code, t), (s, t - s, t - s, s))
    ):
        if alpha not in ladder:
            raise ValueError(
                f"quarter {q + 1}: {alpha} total coincidences outside {list(ladder)}"
            )
        pools.append(_pool(ref, t, weight, (alpha - t + k + s) // 2, in_ones=q in (0, 3)))
    return tuple(pools)


# --- exact counting ----------------------------------------------------------


def count_orthogonal(t: int, k: int, s: int) -> int:
    """Number of s-vectors orthogonal to a fixed k-vertex (k, s <= t//2).

    Sums the product of per-quarter binomials C(k, i_q) * C(t-k, s-i_q)
    over ordered (i_1, .., i_4) with sum 2s+2k-t; computed as one
    coefficient of the fourth power of the single-quarter generating
    polynomial, over Python ints (the counts pass 2^53 at t = 16).  Zero
    when 2s+2k-t < 0.
    """
    lo, hi = max(0, s + k - t), min(k, s)
    if hi < lo:
        return 0
    f = [math.comb(k, i) * math.comb(t - k, s - i) for i in range(lo, hi + 1)]
    power = reduce(np.convolve, [np.array(f, dtype=object)] * 4)
    idx = 2 * s + 2 * k - t - 4 * lo
    return power[idx] if 0 <= idx < len(power) else 0


def degree(t: int, k: int) -> int:
    """Total neighbors of a k-vertex over the full vertex set.

    Complementation gives N(k, s) = N(k, t-s) and degree(k) = degree(t-k),
    so every class is counted as its image with k, s <= t//2.
    """
    if not 0 <= k <= t:
        raise ValueError(f"k={k} outside [0, {t}]")
    kp = min(k, t - k)
    return sum(count_orthogonal(t, kp, min(s, t - s)) for s in range(t + 1))


def edge_count(t: int) -> int:
    return sum(class_size(t, k) * degree(t, k) for k in range(t + 1)) // 2


# --- adjacency enumeration ---------------------------------------------------


def _combine_pools(pools: Sequence[Sequence[int]], t: int) -> np.ndarray:
    q1, q2, q3, q4 = (np.asarray(p, dtype=np.uint64) for p in pools)
    codes = (
        (q1[:, None, None, None] << np.uint64(3 * t))
        | (q2[None, :, None, None] << np.uint64(2 * t))
        | (q3[None, None, :, None] << np.uint64(t))
        | q4[None, None, None, :]
    )
    return codes.ravel()


def adjacency(v: VertexCode) -> np.ndarray:
    """Materialize every neighbor of v as an ascending uint64 code array.

    Generated class by class from the pools; classes with s < t/2 also
    contribute the complements of their vectors.  The pieces are pairwise
    disjoint, so the length equals degree(t, k) with no deduplication.
    Requires 4t <= 64.
    """
    t = v.t
    if t > MAX_T:
        raise ValueError(f"adjacency materialization needs 4t <= 64 bits, got t={t}")
    base = complement(v) if v.k > t // 2 else v  # same neighbor set
    mask = np.uint64(full_mask(t))
    chunks = []
    for s in s_range(t, base.k):
        for alphas in solve_distributions(t, base.k, s):
            for ordered in distinct_orderings(alphas):
                block = _combine_pools(generator_set(base, ordered, s), t)
                chunks.append(block)
                if 2 * s < t:
                    chunks.append(block ^ mask)
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    out = np.concatenate(chunks)
    out.sort()
    return out


# --- common-neighborhood kernel ----------------------------------------------


@lru_cache(maxsize=None)
def weight_masks(n: int, weight: int, dtype: type = np.uint64) -> np.ndarray:
    """Every n-bit mask with the given number of one-bits, ascending, as dtype; read-only."""
    # rows[w] holds the ascending m-bit masks of weight w, for each w that
    # the bits still to come can lift to weight.  Adding bit m puts the masks
    # with it, all at least 1 << m, after those without it.
    empty = np.empty(0, dtype=dtype)
    rows = {0: np.zeros(1, dtype=dtype)}
    for m in range(n):
        top = dtype(1 << m)
        rows = {
            w: np.concatenate((rows.get(w, empty), rows.get(w - 1, empty) | top))
            for w in range(max(0, weight - (n - 1 - m)), weight + 1)
        }
    masks = rows.get(weight, empty)
    masks.flags.writeable = False
    return masks


def _join(half: int, left: np.ndarray, left_id: np.ndarray, right: np.ndarray,
          right_id: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The codes left[i] << half | right[j] with left_id[i] == right_id[j], ascending.

    left must be ascending, and counts[g] must be the number of right ids
    equal to g, so a left whose group has no right half joins nothing.
    """
    # sorting (id, half) keys lays the right halves out id by id, each run
    # ascending, so the run of id g starts at the number of smaller ids
    keys = np.sort((right_id.astype(np.uint64) << np.uint64(32)) | right)
    per_left = counts.take(left_id)
    first = (np.cumsum(counts) - counts).take(left_id)
    ends = np.cumsum(per_left)
    # position j of left half i's run reads keys[first[i] + j]
    idx = np.repeat(first - ends + per_left, per_left) + np.arange(ends[-1] if ends.size else 0)
    partners = keys[idx] & np.uint64(0xFFFFFFFF)
    return (np.repeat(left.astype(np.uint64), per_left) << np.uint64(half)) | partners


def _keyed(halves: np.ndarray, ids: np.ndarray, masks: Sequence[int], width: int) -> np.ndarray:
    """ids with one digit appended per mask: the weight of halves & mask, below width."""
    for mask in masks:
        ids = ids * width
        ids += np.bitwise_count(halves & mask)
    return ids


def _regroup(t: int, left: np.ndarray, right: np.ndarray, ids: list[np.ndarray],
             bins: int) -> NeighborPool | MaterializedPool:
    """The pool of codes left[i] << 2t | right[j] with left_id[i] == right_id[j].

    The kernel's one join: ids is [left_id, right_id], bins below ``bins``,
    and left must be ascending.  ids is emptied on entry, so a compacting
    pass frees ids the caller holds no other reference to before it joins.
    If the bins would take one more key digit within the halves given, and
    at least three quarters of the halves have a partner, the pool stays
    open on these very arrays, with the bin counts as groups.  Otherwise the halves without a partner are dropped and the bins left
    are numbered 0, 1, 2, ... in bin order.  Once the pool stores no more
    codes than the live halves it is materialized.
    """
    right_id, left_id = ids.pop(), ids.pop()
    nl = np.bincount(left_id, minlength=bins)
    nr = np.bincount(right_id, minlength=bins)
    stored = int(nl @ nr)
    both = np.logical_and(nl, nr)
    halves = left.size + right.size
    if bins * (t + 1) <= halves:
        live = int((nl + nr) @ both)
        if stored > live and 4 * live >= 3 * halves:
            return NeighborPool(t=t, left=left, left_id=left_id, right=right,
                                right_id=right_id, right_count=nr, size=2 * stored)
    # kept indexes the halves with a partner, one side at a time, then the
    # bins with a half on each side: each index is freed as the next is read
    kept = both.take(left_id).nonzero()[0]
    left, left_id = left.take(kept), left_id.take(kept)
    kept = both.take(right_id).nonzero()[0]
    right, right_id = right.take(kept), right_id.take(kept)
    kept = both.nonzero()[0]
    # nl is spent: reuse it as the bin -> new id table, read at kept bins only
    nl[kept] = np.arange(kept.size)
    left_id, right_id, counts = nl.take(left_id), nl.take(right_id), nr.take(kept)
    if stored <= left.size + right.size:
        return MaterializedPool(t=t, array=_join(2 * t, left, left_id, right, right_id, counts))
    return NeighborPool(t=t, left=left, left_id=left_id, right=right, right_id=right_id,
                        right_count=counts, size=2 * stored)


def _mirror(r: int, size: int, t: int) -> tuple[int, int]:
    """The stored rank behind rank r of a pool of size codes, and the mask to XOR it with."""
    if not 0 <= r < size:
        raise IndexError(f"rank {r} outside a pool of {size}")
    return (r, 0) if 2 * r < size else (size - 1 - r, full_mask(t))


def _unfold(stored: np.ndarray, t: int) -> np.ndarray:
    """The full ascending pool from its ascending top-bit-0 codes."""
    return np.concatenate((stored, stored[::-1] ^ np.uint64(full_mask(t))))


@dataclass(frozen=True, slots=True, eq=False)
class MaterializedPool:
    """A small pool held as its ascending uint64 codes whose top bit is 0.

    NeighborPool.refine returns one once the refined pool holds no more
    stored codes than halves; from there a refine is one popcount filter
    over the stored codes, and a rank indexes them directly, mirrored
    (r -> size - 1 - r, complemented) in the upper half.
    """

    t: int
    array: np.ndarray

    @property
    def size(self) -> int:
        return 2 * self.array.size

    def refine(self, *codes: int) -> MaterializedPool:
        """The sub-pool of codes also orthogonal to every one of ``codes``."""
        array = self.array
        for code in codes:
            array = array[np.bitwise_count(array ^ code) == 2 * self.t]
        return MaterializedPool(t=self.t, array=array)

    def code_at(self, r: int) -> int:
        """The rank-r code of the pool in ascending order."""
        r, flip = _mirror(r, self.size, self.t)
        return int(self.array[r]) ^ flip

    def codes(self) -> np.ndarray:
        """The whole pool as a new ascending uint64 code array."""
        return _unfold(self.array, self.t)


@dataclass(frozen=True, slots=True, eq=False)
class NeighborPool:
    """The vertices of G_t adjacent to every member of a clique, as halves.

    A code is ``left << 2t | right``.  ``left`` and ``right`` hold the
    surviving halves of each side as ascending uint32 words; a left and a
    right half form a pool vertex exactly when their group ids are equal,
    so the pool is the disjoint union over groups of left x right.
    Ascending left-then-right order is ascending code order, which makes
    ranks agree with a sorted materialized pool.  A half's id is its group
    number g, and ``right_count[g]`` is the number of right halves in group g.

    A pool left open by a refine holds its parent's halves and takes the
    refine's raw bins as groups, so some groups are empty and some halves
    are dead, their group having no half on the other side.  Appending
    digits never gives a dead half a partner, and none is ever read: a dead
    left has no right halves to count, and a dead right's id matches no
    live left.  ``right_count.size * (t + 1)`` is then within the halves
    held.  A compacted pool holds live halves only, and every group has a
    half on each side.

    Only left halves below 2^(2t-1) are held, so the halves hold the codes
    whose top bit is 0; ``size`` counts the whole pool, twice the codes
    held, and a rank in the upper half is the complement of its mirror
    rank size - 1 - r in the lower half.
    """

    t: int
    left: np.ndarray
    left_id: np.ndarray
    right: np.ndarray
    right_id: np.ndarray
    right_count: np.ndarray
    size: int

    def refine(self, *codes: int) -> NeighborPool | MaterializedPool:
        """The sub-pool of vertices also orthogonal to every one of ``codes``.

        Each half weighs t, and so does each of u's halves, so a vertex
        agrees with u in 2 * (t - popcount(L & ~u_hi) + popcount(R & u_lo))
        positions: it is orthogonal exactly when popcount(L & ~u_hi) equals
        popcount(R & u_lo).  The codes are taken in batches: each code of a
        batch appends its key, 0..t, to each half's bin id as one mixed-radix
        digit, and a batch grows while its groups * (t + 1)^c bins number no
        more than the halves held.  _regroup, the one join, then makes the
        batch's pool.  A batch whose bins would take one more digit, and
        whose halves are at least three quarters live, leaves the pool open
        on the raw bins, which the next refine extends: keying a dead half
        costs a later refine about what dropping it costs now.  Otherwise
        the bins of both sides are numbered jointly 0, 1, 2, ... in (group,
        key, key, ...) order, and halves left without a partner are
        dropped: the same pool as one refine per code.  Once the refined
        pool holds no more stored codes than live halves it continues
        materialized.
        The complement of a stored code is orthogonal to u exactly when the
        code is, so the refined halves still hold half the pool.
        """
        pool: NeighborPool | MaterializedPool = self
        half, width = 2 * self.t, self.t + 1
        mask = (1 << half) - 1
        while codes and isinstance(pool, NeighborPool):
            halves = pool.left.size + pool.right.size
            c, bins = 1, pool.right_count.size * width
            while c < len(codes) and bins * width <= halves:
                c, bins = c + 1, bins * width
            batch, codes = codes[:c], codes[c:]
            # _regroup empties the list, so the keyed ids die with its pass
            ids = [_keyed(pool.left, pool.left_id, [~(u >> half) & mask for u in batch], width),
                   _keyed(pool.right, pool.right_id, [u & mask for u in batch], width)]
            pool = _regroup(self.t, pool.left, pool.right, ids, bins)
        return pool.refine(*codes) if codes else pool

    def code_at(self, r: int) -> int:
        """The rank-r code of the pool in ascending order."""
        r, flip = _mirror(r, self.size, self.t)
        ends = self.right_count.take(self.left_id).cumsum()
        i = int(ends.searchsorted(r, "right"))
        g = int(self.left_id[i])
        j = r - int(ends[i]) + int(self.right_count[g])
        right = self.right[(self.right_id == g).nonzero()[0][j]]
        return ((int(self.left[i]) << (2 * self.t)) | int(right)) ^ flip

    def codes(self) -> np.ndarray:
        """Materialize the pool as an ascending uint64 code array."""
        stored = _join(2 * self.t, self.left, self.left_id, self.right, self.right_id,
                       self.right_count)
        return _unfold(stored, self.t)


# Peak bytes of a search per half and side, split between the vertex_pool(t)
# tables every essay shares and the arrays one essay allocates.  The tables
# take 9 B (a uint32 word and an intp id for each of the 1.5 * C(2t, t)
# halves stored); forked workers share their pages.  The arrays one essay
# allocates peak at 25-32 B for exact and 32-37 B for ga (traced under
# tracemalloc with vertex_pool(t) built first, t = 9..12, pools left open
# on their parent's halves included); peak RSS less BASE_BYTES measured at
# most 49 B, tables included, for one ga essay at t = 12, with the
# allocator thresholds vertex_pool sets.  16 + 96 = 112 B for one essay
# leaves room for seeds not measured, and on 8 GB it refuses t = 14
# (9.0 GB estimated), which has not been run.  BASE_BYTES is the
# interpreter, numpy and the hadclique CLI (35 MB), counted once: a forked
# worker shares the parent's pages until it writes them.
SHARED_HALF_BYTES = 16
ESSAY_HALF_BYTES = 96
BASE_BYTES = 40 << 20


def _physical_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def pool_bytes(t: int, jobs: int = 1) -> int:
    """Estimated peak bytes of jobs essays at once on vertex_pool(t), if the machine holds it.

    The estimate is BASE_BYTES plus, for each of 2 * C(2t, t) halves (the
    left side holds only half of them), SHARED_HALF_BYTES for the tables
    the essays share and ESSAY_HALF_BYTES for each essay's own peak.
    Raises ValueError when t is outside 1..MAX_T or the estimate exceeds
    the machine's physical memory, before anything is allocated.
    """
    if not 1 <= t <= MAX_T:
        raise ValueError(f"t must be in 1..{MAX_T} (4t <= 64 bits), got {t}")
    need = BASE_BYTES + 2 * math.comb(2 * t, t) * (SHARED_HALF_BYTES + jobs * ESSAY_HALF_BYTES)
    have = _physical_bytes()
    if need > have:
        raise ValueError(
            f"t={t} needs about {need >> 20} MB for the neighbor pool and {jobs} essay(s) at once, "
            f"more than the {have >> 20} MB of physical memory"
        )
    return need


# glibc's malloc starts with 128 KiB mmap and trim thresholds and raises
# them (to a freed mmapped chunk's size, and twice that) only up to 32 and
# 64 MiB on 64-bit.  A refine's temporaries at t = 8 are all below 128 KiB,
# so the thresholds stay put, and free() returns the heap top after most
# refines for the next refine to fault in again.  Setting either threshold
# ends the adaptive rule, so both are set, to the highest values it reaches.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@lru_cache(maxsize=None)
def _keep_freed_memory() -> None:
    """Once per process, let glibc keep up to 64 MiB of freed heap mapped."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no libc to load, or one without mallopt
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@lru_cache(maxsize=None)
def vertex_pool(t: int) -> NeighborPool:
    """Every vertex of G_t as a pool; refine it by each member of a clique.

    The right side starts as the C(2t, t) words of weight t, one shared
    uint32 table, and the left side as its first C(2t, t) / 2 words, those
    below 2^(2t-1), so the pool holds the vertices whose top bit is 0.  A
    left half's group is the weight of its top t bits (quarter 1), a right
    half's the weight of its low t bits (quarter 4): equal groups give
    quarter weights (k, t-k, t-k, k).  Shared by every caller, so its
    arrays are read-only.  pool_bytes(t) is checked first.

    The first pool a process builds also sets glibc's mmap and trim
    thresholds (32 and 64 MiB, where glibc's own adaptive rule tops out),
    so the temporaries each refine frees stay mapped for the next refine
    instead of being returned to the OS and faulted in again.  Where libc
    has no mallopt the allocator keeps its defaults.
    """
    pool_bytes(t)
    _keep_freed_memory()
    halves = weight_masks(2 * t, t, np.uint32)
    left = halves[: halves.size // 2]
    left_id = np.bitwise_count(left >> np.uint32(t)).astype(np.intp)
    right_id = np.bitwise_count(halves & np.uint32((1 << t) - 1)).astype(np.intp)
    right_count = np.bincount(right_id, minlength=t + 1)
    for arr in (left_id, right_id, right_count):
        arr.flags.writeable = False
    return NeighborPool(
        t=t,
        left=left,
        left_id=left_id,
        right=halves,
        right_id=right_id,
        right_count=right_count,
        size=vertex_count(t),
    )


@lru_cache(maxsize=None)
def _class_cum_weights(t: int) -> tuple[int, ...]:
    return tuple(accumulate(class_size(t, k) for k in range(t + 1)))


def random_vertex(t: int, rng: Random, k: int | None = None) -> VertexCode:
    """Uniform random vertex of G_t, optionally within one k class."""
    if k is None:
        k = rng.choices(range(t + 1), cum_weights=_class_cum_weights(t))[0]
    qs = []
    for weight in (k, t - k, t - k, k):
        qs.append(sum(1 << b for b in rng.sample(range(t), weight)))
    return VertexCode(t=t, code=join_quarters(qs, t), k=k)
