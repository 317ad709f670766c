"""Quarter-by-quarter constructive clique growth.

Instead of materializing neighbor sets, this search builds one candidate
vector at a time, quarter by quarter in random order. For every clique
member a per-quarter coincidence target is sampled from the values that
still admit a completion of the remaining quarters to the orthogonality
total 2t. Among the masks of the quarter's weight that keep every member
completable, one closest to those targets is committed. When no such mask
exists the previously built quarter is dropped and re-targeted. The
members stay fixed while one vector is built, so each quarter's
mask-by-member coincidences are computed once per construction, and so
are the masks valid under each tuple of per-member playable values; a
pick only scores those masks against its targets. Each member's committed
coincidence is kept as a running total as quarters are committed and
dropped. Candidate vectors are drawn from the two heaviest balanced
classes, k = floor(t/2) and floor(t/2) - 1, which carry almost all of the
graph. Growth stops once the clique holds 4t - 3 members: a clique of
order m gives an (m + 3) x 4t partial Hadamard matrix, so no vertex can
join a clique of that size.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate
from random import Random

import numpy as np

from .errors import HadcliqueError
from .graph import (
    Clique,
    _check_t,
    coincidence_range,
    join_quarters,
    orthogonal_codes,
    quarters_of,
    weight_masks,
)
from .oracle import verify_clique
from .report import EssayResult, SearchReport, _check_int, run_essays

__all__ = ["FastConfig", "buildgrapas", "run_fast", "run_many"]


# construction attempts per new vertex; an attempt also allows t quarter
# backtracks, and a class is left after t failed constructions in a row
ATTEMPTS_PER_VECTOR = 10


@dataclass(frozen=True, slots=True)
class FastConfig:
    """The constructive search's graph and randomness."""

    t: int
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _check_int("t", self.t))
        object.__setattr__(self, "rng_seed", _check_int("rng_seed", self.rng_seed))
        # graph.MAX_T (4t <= 64) also bounds the per-quarter search, which
        # tests the C(16, 8) = 12870 masks of a quarter against <= 61 members
        # at t = 16 (_valid_rows) and scores the valid ones (_inner_search),
        # and lets a quarter mask and a row index fit uint16 and a
        # coincidence int8
        _check_t(self.t)


@lru_cache(maxsize=None)
def completions(ladder: range, r: int, need: int) -> int:
    """Ordered r-tuples over the ladder summing to need."""
    if r == 0:
        return int(need == 0)
    return sum(completions(ladder, r - 1, need - v) for v in ladder if v <= need)


def feasible_targets(
    ladder: range, committed: int, remaining_after: int, total: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ladder values still playable now, with their completion counts.

    A value c is playable when the remaining_after quarters can make up
    total - committed - c from the same ladder.
    """
    values: list[int] = []
    weights: list[int] = []
    for c in ladder:
        n = completions(ladder, remaining_after, total - committed - c)
        if n > 0:
            values.append(c)
            weights.append(n)
    return tuple(values), tuple(weights)


# (values, cumulative weights, float total, last index, allowed-value bitmask)
_Draw = tuple[tuple[int, ...], tuple[int, ...], float, int, int]


@lru_cache(maxsize=None)
def _target_table(ladder: range, total: int) -> tuple[tuple[_Draw | None, ...], ...]:
    """feasible_targets ready to draw, as table[remaining_after][committed].

    remaining_after runs over 0..3 and committed over 0..total, the most a
    member that can still be completed holds. An entry is None when no value
    is playable. Otherwise it is (values, cum, cum[-1] + 0.0, len(values) - 1,
    bits): the values, their completion counts accumulated, the float total
    and last index that random.choices(values, cum_weights=cum) works out, and
    the values as one bitmask, bit c set when c is allowed.
    """
    rows = []
    for remaining_after in range(4):
        row: list[_Draw | None] = []
        for committed in range(total + 1):
            values, weights = feasible_targets(ladder, committed, remaining_after, total)
            cum = tuple(accumulate(weights))
            bits = sum(1 << c for c in values)
            row.append((values, cum, cum[-1] + 0.0, len(values) - 1, bits) if values else None)
        rows.append(tuple(row))
    return tuple(rows)


def _coincidences(t: int, masks: np.ndarray, member_quarters: list[int]) -> np.ndarray:
    """(masks x members) int8 matrix of t - popcount(mask ^ u), one column per member quarter u."""
    members = np.array(member_quarters, dtype=masks.dtype)
    return (t - np.bitwise_count(masks[:, None] ^ members[None, :])).astype(np.int8)


def _valid_rows(coinc: np.ndarray, allowed: tuple[int, ...]) -> np.ndarray:
    """Ascending uint16 rows of coinc whose every member's coincidence is allowed.

    coinc holds the coincidences of every mask of a quarter's weight with
    each member's quarter (see _coincidences); allowed holds one bitmask per
    member, bit c set when the member's remaining quarters can still reach
    the orthogonality total 2t after a coincidence of c here. A quarter has
    at most C(16, 8) = 12870 masks, so every row fits uint16.
    """
    # bitmasks have t + 1 <= 17 bits; int32 shifts keep the temporary a
    # quarter of an int64 one at t = 16
    ok = np.right_shift(np.array(allowed, dtype=np.int32), coinc)
    ok &= 1
    return np.logical_and.reduce(ok, axis=1).nonzero()[0].astype(np.uint16)


def _inner_search(
    coinc: np.ndarray, rows: np.ndarray, targets: list[int], rng: Random
) -> int | None:
    """Pick a mask for the current quarter; returns its row of coinc.

    rows are the valid rows of coinc in ascending order (see _valid_rows).
    Among them, the rows with the least total miss against the sampled
    targets tie, and one is drawn uniformly. A lone valid row needs no
    scoring, but its draw still calls rng.randrange(1), which consumes
    random bits, so the rng state follows the same sequence. Returns None
    exactly when no row is valid.
    """
    if rows.size == 0:
        return None
    if rows.size > 1:
        miss = coinc.take(rows, axis=0)
        miss -= np.array(targets, dtype=np.int8)
        miss = np.add.reduce(np.abs(miss), axis=1)
        rows = rows[miss == np.minimum.reduce(miss)]
    return int(rows[rng.randrange(rows.size)])


def buildgrapas(c: Clique, k: int, cfg: FastConfig, rng: Random) -> int | None:
    """Try to construct the code of one new class-k vertex orthogonal to all of c.

    The candidate uses s = k ones in its outer quarters. Quarters are built
    in random order; each member's coincidence target for the current
    quarter is sampled from its still-completable ladder values weighted by
    ordered-completion counts, and the inner search takes a target-closest
    mask among those that leave every member completable to the total 2t
    (which on the last quarter forces exact closure, hence orthogonality).
    When no such mask exists the previous quarter is deleted and rebuilt,
    at most t times per attempt, with ATTEMPTS_PER_VECTOR attempts overall.
    Returns None when every attempt fails; a returned code is always a
    class-k vertex orthogonal to every member.

    Each member's class, which sets its ladder, is the weight of its top
    quarter, read from the quarters the call splits anyway, so no member
    is decoded. The members do not change during a call, so each quarter's
    (masks x members) coincidences are computed once, on first use, and
    serve every attempt and backtrack. Which masks are valid depends only
    on the quarter and the per-member allowed bitmasks, not on the targets,
    so a dict local to the call keeps the valid rows of each (quarter,
    allowed tuple) met, and each pick scores only those rows against its
    targets. Each member's committed coincidence is a running total: a
    committed quarter adds its row, a dropped one takes it away. A target
    is drawn as random.choices(values, cum_weights=cum) draws it, with one
    random() call and the same bisect, so the rng state follows the same
    sequence.
    """
    t = cfg.t
    if not 0 <= k <= t // 2:
        return None
    s = k
    quarters = [quarters_of(code, t) for code in c.members]
    ladders = [coincidence_range(t, qs[0].bit_count(), s) for qs in quarters]
    for ladder in ladders:
        if not (4 * ladder.start <= 2 * t <= 4 * ladder[-1]):
            return None
    # draw tables by position: position pos leaves 3 - pos quarters after it
    tables = [_target_table(ladder, 2 * t) for ladder in ladders]
    by_pos = [[table[3 - pos] for table in tables] for pos in range(4)]
    # t <= 16, so every quarter mask fits uint16
    masks = [weight_masks(t, w, np.uint16) for w in (s, t - s, t - s, s)]
    coinc: list[np.ndarray | None] = [None] * 4
    valid: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    random = rng.random

    for _ in range(ATTEMPTS_PER_VECTOR):
        order = [0, 1, 2, 3]
        rng.shuffle(order)
        built = [0, 0, 0, 0]
        picked: list[list[int]] = [[], [], [], []]  # per position, the mask's coincidences
        committed = [0] * len(c)
        backtracks = 0
        pos = 0
        while 0 <= pos < 4:
            q = order[pos]
            draws = [table[com] for table, com in zip(by_pos[pos], committed)]
            pick = None
            if all(draws):
                targets = [
                    values[bisect_right(cum, random() * total, 0, hi)]
                    for values, cum, total, hi, _ in draws
                ]
                if coinc[q] is None:
                    coinc[q] = _coincidences(t, masks[q], [qs[q] for qs in quarters])
                key = (q, tuple([d[4] for d in draws]))
                rows = valid.get(key)
                if rows is None:
                    rows = valid[key] = _valid_rows(coinc[q], key[1])
                pick = _inner_search(coinc[q], rows, targets, rng)
            if pick is None:
                if pos == 0 or backtracks >= t:
                    pos = -1  # attempt failed
                else:
                    backtracks += 1
                    pos -= 1
                    committed = [a - b for a, b in zip(committed, picked[pos])]
                continue
            built[q] = int(masks[q][pick])
            picked[pos] = coinc[q][pick].tolist()
            committed = [a + b for a, b in zip(committed, picked[pos])]
            pos += 1
        if pos == 4:
            code = join_quarters(built, t)
            if not all(orthogonal_codes(code, m, t) for m in c.members):
                raise HadcliqueError(f"constructed code {code} is not orthogonal to every member")
            return code
    return None


def run_fast(seed: Clique, cfg: FastConfig) -> Clique:
    """Grow seed by repeated vector construction; the seed is kept verbatim.

    The two candidate classes are tried heaviest first; within a class,
    construction repeats until t consecutive failures, or until the clique
    holds 4t - 3 members, the most any clique of G_t can hold.
    A seed of another t raises ValueError, a refused setting, and a seed
    that fails verification HadcliqueError.
    """
    if seed.t != cfg.t:
        raise ValueError(f"seed is a G_{seed.t} clique but the search is configured for t={cfg.t}")
    verify_clique(seed).check()
    rng = Random(cfg.rng_seed)
    t = cfg.t
    members = list(seed.members)
    for k in [x for x in (t // 2, t // 2 - 1) if x >= 0]:
        stall = 0
        while stall < t and len(members) < 4 * t - 3:
            code = buildgrapas(Clique(t=t, members=tuple(members)), k, cfg, rng)
            if code is None:
                stall += 1
            else:
                members.append(code)
                stall = 0
    return Clique(t=t, members=tuple(members))


def run_many(
    seed: Clique, cfg: FastConfig, essays: int, jobs: int = 1, time_limit: float | None = None
) -> SearchReport:
    """Independent run_fast calls through report.run_essays, which holds the
    worker and time_limit rules. Run i uses rng_seed + i, so jobs never
    changes results.
    """

    def one(i: int) -> EssayResult:
        begin = time.perf_counter()
        c = run_fast(seed, replace(cfg, rng_seed=cfg.rng_seed + i))
        return EssayResult(index=i, clique=c, seconds=time.perf_counter() - begin)

    config = (
        ("rng_seed", cfg.rng_seed),
        ("essays", essays),
        ("attempts_per_vector", ATTEMPTS_PER_VECTOR),
        ("quarter_backtracks", cfg.t),
        ("stall_limit", cfg.t),
        ("seed_size", len(seed)),
    )
    return run_essays("fast", cfg.t, config, one, essays, jobs, time_limit)
