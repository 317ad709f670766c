"""Quarter-by-quarter constructive clique growth.

Instead of materializing neighbor sets, this search builds one candidate
vector at a time, quarter by quarter in random order. For every clique
member a per-quarter coincidence target is sampled from the values that
still admit a completion of the remaining quarters to the orthogonality
total 2t. Every mask of the quarter's weight is scored at once, and one
closest to those targets is committed among the masks that keep every
member completable. When no such mask exists the previously built quarter
is dropped and re-targeted. Candidate vectors are drawn from the two
heaviest balanced classes, k = floor(t/2) and floor(t/2) - 1, which carry
almost all of the graph. Growth stops once the clique holds 4t - 3 members:
a clique of order m gives an (m + 3) x 4t partial Hadamard matrix, so no
vertex can join a clique of that size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate
from random import Random

import numpy as np

from .errors import HadcliqueError, InvalidSeed
from .graph import (
    MAX_T,
    Clique,
    VertexCode,
    clique_from_codes,
    coincidence_range,
    decode,
    join_quarters,
    orthogonal_codes,
    quarters_of,
    weight_masks,
)
from .oracle import verify_clique
from .report import EssayResult, SearchReport, run_essays

__all__ = [
    "FastConfig",
    "completions",
    "feasible_targets",
    "buildgrapas",
    "run_fast",
    "run_many",
]


@dataclass(frozen=True, slots=True)
class FastConfig:
    """Knobs for the constructive search; None picks the t-scaled default."""

    t: int
    rng_seed: int = 0
    attempts_per_vector: int = 10
    quarter_backtracks: int | None = None
    stall_limit: int | None = None

    def __post_init__(self) -> None:
        # graph.MAX_T (4t <= 64) also bounds _inner_search, which scores all
        # C(16, 8) = 12870 masks of a quarter against <= 61 members at t = 16
        if not 1 <= self.t <= MAX_T:
            raise ValueError(f"t must be in 1..{MAX_T}, got {self.t}")
        if self.attempts_per_vector < 1:
            raise ValueError("attempts_per_vector must be positive")
        for name in ("quarter_backtracks", "stall_limit"):
            val = getattr(self, name)
            if val is not None and val < 1:
                raise ValueError(f"{name} must be positive when given")

    @property
    def backtracks(self) -> int:
        return self.quarter_backtracks if self.quarter_backtracks is not None else self.t

    @property
    def stalls(self) -> int:
        return self.stall_limit if self.stall_limit is not None else self.t


@lru_cache(maxsize=None)
def _completions(lo: int, hi: int, r: int, need: int) -> int:
    if r == 0:
        return 1 if need == 0 else 0
    total = 0
    for v in range(lo, hi + 1, 2):
        if v <= need:
            total += _completions(lo, hi, r - 1, need - v)
    return total


def completions(ladder: range, r: int, need: int) -> int:
    """Ordered r-tuples over the ladder summing to need."""
    if len(ladder) == 0:
        return 1 if r == 0 and need == 0 else 0
    return _completions(ladder.start, ladder[-1], r, need)


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


@lru_cache(maxsize=None)
def _target_table(
    ladder: range, committed: int, remaining_after: int, total: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """feasible_targets with its weights accumulated, for rng.choices(cum_weights=).

    random.choices accumulates plain weights into this same list and then
    makes the same single random() call and bisect, so a draw from the table
    is the draw from feasible_targets, and leaves the same rng state.
    """
    values, weights = feasible_targets(ladder, committed, remaining_after, total)
    return values, tuple(accumulate(weights))


@lru_cache(maxsize=None)
def _allowed_bits(values: tuple[int, ...]) -> int:
    """Coincidence values as one bitmask: bit c is set when c is allowed."""
    return sum(1 << c for c in values)


def _inner_search(
    t: int,
    weight: int,
    member_quarters: list[int],
    targets: list[int],
    feasible: list[tuple[int, ...]],
    rng: Random,
) -> int | None:
    """Pick a t-bit mask of the given weight for the current quarter.

    Coincidence of the mask with member quarter u is t - popcount(mask ^ u).
    Every mask of the weight is scored at once. A mask is valid when each
    member's coincidence lies in its feasible values, the ones after which
    the member's remaining quarters can still reach the orthogonality
    total 2t. Among the valid masks with the least total miss against the
    sampled targets, one is drawn uniformly. Returns None exactly when no
    mask is valid.
    """
    masks = weight_masks(t, weight)
    members = np.array(member_quarters, dtype=np.uint64)
    coinc = t - np.bitwise_count(masks[:, None] ^ members[None, :]).astype(np.int64)
    bits = np.array([_allowed_bits(values) for values in feasible], dtype=np.int64)
    (valid,) = np.nonzero(((bits >> coinc) & 1).all(axis=1))
    if valid.size == 0:
        return None
    miss = np.abs(coinc[valid] - np.array(targets, dtype=np.int64)).sum(axis=1)
    best = valid[miss == miss.min()]
    return int(masks[best[rng.randrange(best.size)]])


def buildgrapas(c: Clique, k: int, cfg: FastConfig, rng: Random) -> VertexCode | None:
    """Try to construct one new class-k vertex orthogonal to all of c.

    The candidate uses s = k ones in its outer quarters. Quarters are built
    in random order; each member's coincidence target for the current
    quarter is sampled from its still-completable ladder values weighted by
    ordered-completion counts, and the inner search takes a target-closest
    mask among those that leave every member completable to the total 2t
    (which on the last quarter forces exact closure, hence orthogonality).
    When no such mask exists the previous quarter is deleted and rebuilt,
    at most cfg.backtracks times per attempt, with cfg.attempts_per_vector
    attempts overall. Returns None when every attempt fails; a returned
    vertex is always orthogonal to every member.
    """
    t = cfg.t
    if not 0 <= k <= t // 2:
        return None
    s = k
    cand_weights = (s, t - s, t - s, s)
    codes = [v.code for v in c.members]
    quarters = [quarters_of(code, t) for code in codes]
    ladders = [coincidence_range(t, v.k, s) for v in c.members]
    for ladder in ladders:
        if not (4 * ladder.start <= 2 * t <= 4 * ladder[-1]):
            return None

    for _ in range(cfg.attempts_per_vector):
        order = [0, 1, 2, 3]
        rng.shuffle(order)
        built: dict[int, int] = {}
        backtracks = 0
        pos = 0
        while 0 <= pos < 4:
            q = order[pos]
            committed = [
                sum(t - (built[b] ^ qs[b]).bit_count() for b in built) for qs in quarters
            ]
            playable = [
                _target_table(ladder, com, 3 - pos, 2 * t)
                for ladder, com in zip(ladders, committed)
            ]
            mask = None
            if all(values for values, _ in playable):
                targets = [rng.choices(values, cum_weights=cum)[0] for values, cum in playable]
                mask = _inner_search(
                    t,
                    cand_weights[q],
                    [qs[q] for qs in quarters],
                    targets,
                    [values for values, _ in playable],
                    rng,
                )
            if mask is None:
                if pos == 0 or backtracks >= cfg.backtracks:
                    pos = -1  # attempt failed
                else:
                    backtracks += 1
                    pos -= 1
                    del built[order[pos]]
                continue
            built[q] = mask
            pos += 1
        if pos == 4:
            code = join_quarters((built[0], built[1], built[2], built[3]), t)
            if not all(orthogonal_codes(code, m, t) for m in codes):
                raise HadcliqueError(f"constructed code {code} is not orthogonal to every member")
            return decode(code, t)
    return None


def run_fast(seed: Clique, cfg: FastConfig) -> Clique:
    """Grow seed by repeated vector construction; the seed is kept verbatim.

    The two candidate classes are tried heaviest first; within a class,
    construction repeats until cfg.stalls consecutive failures, or until
    the clique holds 4t - 3 members, the most any clique of G_t can hold.
    The seed must be a valid clique of the configured t.
    """
    if seed.t != cfg.t:
        raise InvalidSeed(f"seed is a G_{seed.t} clique but the search is configured for t={cfg.t}")
    rep = verify_clique(seed)
    if not rep:
        raise InvalidSeed(rep.message)
    rng = Random(cfg.rng_seed)
    t = cfg.t
    members = list(seed.members)
    for k in [x for x in (t // 2, t // 2 - 1) if x >= 0]:
        stall = 0
        while stall < cfg.stalls and len(members) < 4 * t - 3:
            v = buildgrapas(Clique(t=t, members=tuple(members)), k, cfg, rng)
            if v is None:
                stall += 1
            else:
                members.append(v)
                stall = 0
    return clique_from_codes(t, [v.code for v in members])


def run_many(
    seed: Clique, cfg: FastConfig, essays: int, jobs: int = 1, time_limit: float | None = None
) -> SearchReport:
    """Independent run_fast calls through report.run_essays, which holds the wave
    and time_limit rules. Run i uses rng_seed + i, so jobs never changes
    results.
    """

    def one(i: int) -> EssayResult:
        begin = time.perf_counter()
        c = run_fast(seed, replace(cfg, rng_seed=cfg.rng_seed + i))
        return EssayResult(index=i, clique=c, seconds=time.perf_counter() - begin)

    config = (
        ("rng_seed", cfg.rng_seed),
        ("essays", essays),
        ("attempts_per_vector", cfg.attempts_per_vector),
        ("quarter_backtracks", cfg.backtracks),
        ("stall_limit", cfg.stalls),
        ("seed_size", len(seed)),
    )
    return run_essays("fast", cfg.t, config, one, essays, jobs, time_limit)
