import tracemalloc
from bisect import bisect_right
from itertools import product
from random import Random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hadclique import (
    Clique,
    FastConfig,
    HadcliqueError,
    NoDecomposition,
    coincidence_range,
    decode,
    paley_seed,
    run_fast,
    verify_clique,
)
from hadclique.fast import (
    _coincidences,
    _inner_search,
    _target_table,
    _valid_rows,
    buildgrapas,
    completions,
    feasible_targets,
    run_many,
)
from hadclique import fast
from hadclique.graph import (
    MAX_T,
    clique_from_codes,
    join_quarters,
    orthogonal_codes,
    quarters_of,
    weight_masks,
)
from hadclique.oracle import brute_adjacency_codes


def test_config_defaults_scale_with_t():
    # the report echoes the fixed attempts and the t-scaled backtrack and
    # stall limits
    config = dict(run_many(Clique(t=2, members=()), FastConfig(t=2), essays=1).config)
    assert config["attempts_per_vector"] == fast.ATTEMPTS_PER_VECTOR == 10
    assert config["quarter_backtracks"] == config["stall_limit"] == 2


def test_config_validation():
    with pytest.raises(ValueError):
        FastConfig(t=0)
    with pytest.raises(ValueError):
        FastConfig(t=MAX_T + 1)


def brute_completions(ladder, r, need):
    return sum(1 for combo in product(list(ladder), repeat=r) if sum(combo) == need)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=80)
def test_completions_matches_brute_force(t, a, b, r):
    if a > t or b > t:
        return
    ladder = coincidence_range(t, a, b)
    for need in range(0, 4 * t + 1):
        assert completions(ladder, r, need) == brute_completions(ladder, r, need)


def test_feasible_targets_worked_case():
    # t=5, k=s=2: ladder 1,3,5; after committing nothing, three quarters
    # remain after this one and the playable values must admit 2t=10 total
    ladder = coincidence_range(5, 2, 2)
    values, weights = feasible_targets(ladder, committed=0, remaining_after=3, total=10)
    assert values == (1, 3, 5)
    assert all(w > 0 for w in weights)
    # committed 9 of 10 with one quarter left: only the rung 1 closes
    values, weights = feasible_targets(ladder, committed=9, remaining_after=0, total=10)
    assert values == (1,)
    assert weights == (1,)


def test_feasible_targets_can_be_empty():
    ladder = coincidence_range(5, 2, 2)
    values, weights = feasible_targets(ladder, committed=10, remaining_after=0, total=10)
    assert values == ()
    assert weights == ()


@given(st.data())
@settings(max_examples=150)
def test_inner_search_matches_brute_force(data):
    # every t-bit mask of the weight is checked by the completion rule itself:
    # None exactly when no mask keeps every member completable, otherwise a
    # valid mask with the least total miss against the targets
    t = data.draw(st.integers(min_value=1, max_value=4))
    weight = data.draw(st.integers(min_value=0, max_value=t))
    remaining_after = data.draw(st.integers(min_value=0, max_value=3))
    quarters, ladders, committed, feasible, targets = [], [], [], [], []
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        u = data.draw(st.integers(min_value=0, max_value=2**t - 1))
        ladder = coincidence_range(t, u.bit_count(), weight)
        com = data.draw(st.integers(min_value=0, max_value=3 * t))
        quarters.append(u)
        ladders.append(ladder)
        committed.append(com)
        feasible.append(feasible_targets(ladder, com, remaining_after, 2 * t)[0])
        targets.append(data.draw(st.integers(min_value=0, max_value=t)))

    def coincidences(m):
        return [t - (m ^ u).bit_count() for u in quarters]

    def miss(m):
        return sum(abs(c - tgt) for c, tgt in zip(coincidences(m), targets))

    valid = [
        m
        for m in range(2**t)
        if m.bit_count() == weight
        and all(
            completions(lad, remaining_after, 2 * t - com - c) > 0
            for lad, com, c in zip(ladders, committed, coincidences(m))
        )
    ]
    masks = weight_masks(t, weight, np.uint16)
    allowed = tuple(sum(1 << c for c in values) for values in feasible)
    coinc = _coincidences(t, masks, quarters)
    row = _inner_search(
        coinc, _valid_rows(coinc, allowed), targets, Random(data.draw(st.integers(0, 99)))
    )
    got = None if row is None else int(masks[row])
    if not valid:
        assert got is None
    else:
        assert got in valid
        assert miss(got) == min(miss(m) for m in valid)


@given(st.data())
@settings(max_examples=150)
def test_valid_rows_matches_a_brute_force_filter(data):
    # any small coincidence matrix and any allowed bitmasks: the rows whose
    # every entry has its member's bit set, ascending, as uint16
    t = data.draw(st.integers(min_value=1, max_value=MAX_T))
    n_rows = data.draw(st.integers(min_value=0, max_value=12))
    n_members = data.draw(st.integers(min_value=0, max_value=6))
    matrix = data.draw(
        st.lists(
            st.lists(st.integers(0, t), min_size=n_members, max_size=n_members),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    allowed = tuple(
        data.draw(st.lists(st.integers(0, 2 ** (t + 1) - 1), min_size=n_members, max_size=n_members))
    )
    coinc = np.array(matrix, dtype=np.int8).reshape(n_rows, n_members)
    rows = _valid_rows(coinc, allowed)
    assert rows.dtype == np.uint16
    assert rows.tolist() == [
        r for r, line in enumerate(matrix) if all(bits >> c & 1 for bits, c in zip(allowed, line))
    ]


def test_inner_search_draws_uniformly_among_the_closest():
    # no members: all C(4,2) = 6 masks tie, and each is drawn
    coinc = _coincidences(4, weight_masks(4, 2, np.uint16), [])
    rows = _valid_rows(coinc, ())
    picks = [_inner_search(coinc, rows, [], Random(i)) for i in range(600)]
    assert sorted(set(picks)) == list(range(6))
    assert all(60 <= picks.count(row) <= 140 for row in range(6))


def test_buildgrapas_on_empty_clique_always_succeeds():
    cfg = FastConfig(t=5, rng_seed=0)
    rng = Random(0)
    for _ in range(5):
        v = buildgrapas(Clique(t=5, members=()), 2, cfg, rng)
        assert v is not None
        assert decode(v, 5).k == 2


def test_buildgrapas_grows_a_clique_at_the_largest_t():
    cfg = FastConfig(t=MAX_T, rng_seed=0)
    rng = Random(0)
    members: list = []
    for _ in range(4):
        v = buildgrapas(Clique(t=MAX_T, members=tuple(members)), MAX_T // 2, cfg, rng)
        assert v is not None
        members.append(v)
    assert verify_clique(Clique(t=MAX_T, members=tuple(members)))


def test_buildgrapas_output_is_a_neighbor():
    # single member: the constructed class-2 vertex must land inside the
    # member's brute-force adjacency every time
    cfg = FastConfig(t=5, rng_seed=0)
    rng = Random(1)
    anchor = decode(684646, 5)
    nbrs = set(brute_adjacency_codes(anchor).tolist())
    c = Clique(t=5, members=(anchor.code,))
    wins = 0
    for _ in range(100):
        v = buildgrapas(c, 2, cfg, rng)
        if v is not None:
            assert v in nbrs
            wins += 1
    assert wins == 100


def test_buildgrapas_respects_infeasible_class():
    # k outside the generated range can never be built
    cfg = FastConfig(t=5, rng_seed=0)
    assert buildgrapas(Clique(t=5, members=()), 4, cfg, Random(0)) is None


def test_buildgrapas_fails_on_maximal_clique(monkeypatch):
    # a maximum clique of G_3 admits no further vertex at all
    monkeypatch.setattr("hadclique.fast.ATTEMPTS_PER_VECTOR", 3)
    c = clique_from_codes(3, [2396, 730, 881, 940, 1386, 2482, 1433, 2281, 1268])
    cfg = FastConfig(t=3, rng_seed=0)
    for k in (0, 1):
        assert buildgrapas(c, k, cfg, Random(0)) is None


def test_buildgrapas_raises_on_a_non_orthogonal_construction(monkeypatch):
    # the final guard must survive python -O, so it cannot be an assert
    monkeypatch.setattr("hadclique.fast.orthogonal_codes", lambda a, b, t: False)
    c = Clique(t=5, members=(684646,))
    with pytest.raises(HadcliqueError):
        buildgrapas(c, 2, FastConfig(t=5, rng_seed=0), Random(0))


def test_run_fast_requires_matching_seed():
    with pytest.raises(ValueError, match="seed is a G_2 clique but the search is configured for t=3"):
        run_fast(clique_from_codes(2, [166]), FastConfig(t=3))
    with pytest.raises(HadcliqueError, match=r"members 0 and 1 \(codes 166, 89\) are not orthogonal"):
        run_fast(clique_from_codes(2, [166, 89]), FastConfig(t=2))


def test_run_fast_contains_seed_and_verifies():
    seed = clique_from_codes(5, [684646])
    out = run_fast(seed, FastConfig(t=5, rng_seed=0))
    assert set(seed.codes) <= set(out.codes)
    assert verify_clique(out), out.codes
    assert len(out) > 1


def test_run_fast_from_empty_reaches_known_max_small_t():
    assert len(run_fast(Clique(t=2, members=()), FastConfig(t=2, rng_seed=0))) == 5
    assert len(run_fast(Clique(t=3, members=()), FastConfig(t=3, rng_seed=0))) == 9


def test_run_fast_deterministic():
    seed = Clique(t=4, members=())
    a = run_fast(seed, FastConfig(t=4, rng_seed=11))
    b = run_fast(seed, FastConfig(t=4, rng_seed=11))
    assert a.codes == b.codes


def test_run_many_shapes_and_determinism(monkeypatch):
    monkeypatch.setattr("hadclique.fast.ATTEMPTS_PER_VECTOR", 2)
    seed = Clique(t=3, members=())
    cfg = FastConfig(t=3, rng_seed=0)
    serial = run_many(seed, cfg, essays=3)
    threaded = run_many(seed, cfg, essays=3, jobs=3)
    assert [e.clique.codes for e in serial.essays] == [
        e.clique.codes for e in threaded.essays
    ]
    assert serial.algorithm == "fast"
    assert dict(serial.config)["seed_size"] == 0
    for e in serial.essays:
        assert verify_clique(e.clique)


def test_outputs_stay_orthogonal_to_seed():
    seed = clique_from_codes(4, [21930])
    out = run_fast(seed, FastConfig(t=4, rng_seed=3))
    for code in out.codes:
        if code != 21930:
            assert orthogonal_codes(code, 21930, 4)


# The constructive search as it was before it stopped at 4t - 3, tabled its
# target draws and kept its state across the quarter loop: uncached
# feasible_targets, rng.choices over plain weights, committed coincidences
# summed afresh over the built quarters, each quarter scored afresh with a
# (members x t+1) bool matrix of allowed coincidences, and a class loop that
# ends only on t failures. run_fast must return the same cliques.


def _reference_inner_search(t, weight, member_quarters, targets, feasible, rng):
    masks = weight_masks(t, weight)
    members = np.array(member_quarters, dtype=np.uint64)
    coinc = t - np.bitwise_count(masks[:, None] ^ members[None, :]).astype(np.int64)
    allowed = np.zeros((len(feasible), t + 1), dtype=bool)
    for j, values in enumerate(feasible):
        allowed[j, list(values)] = True
    (valid,) = np.nonzero(allowed[np.arange(len(feasible)), coinc].all(axis=1))
    if valid.size == 0:
        return None
    miss = np.abs(coinc[valid] - np.array(targets, dtype=np.int64)).sum(axis=1)
    best = valid[miss == miss.min()]
    return int(masks[best[rng.randrange(best.size)]])


def _reference_buildgrapas(codes, k, cfg, rng):
    t = cfg.t
    if not 0 <= k <= t // 2:
        return None
    cand_weights = (k, t - k, t - k, k)
    quarters = [quarters_of(code, t) for code in codes]
    ladders = [coincidence_range(t, decode(code, t).k, k) for code in codes]
    if not all(4 * lad.start <= 2 * t <= 4 * lad[-1] for lad in ladders):
        return None
    for _ in range(fast.ATTEMPTS_PER_VECTOR):
        order = [0, 1, 2, 3]
        rng.shuffle(order)
        built = {}
        backtracks = 0
        pos = 0
        while 0 <= pos < 4:
            q = order[pos]
            committed = [sum(t - (built[b] ^ qs[b]).bit_count() for b in built) for qs in quarters]
            playable = [
                feasible_targets(lad, com, 3 - pos, 2 * t) for lad, com in zip(ladders, committed)
            ]
            mask = None
            if all(values for values, _ in playable):
                targets = [rng.choices(values, weights)[0] for values, weights in playable]
                mask = _reference_inner_search(
                    t, cand_weights[q], [qs[q] for qs in quarters], targets,
                    [values for values, _ in playable], rng,
                )
            if mask is None:
                if pos == 0 or backtracks >= t:
                    pos = -1
                else:
                    backtracks += 1
                    pos -= 1
                    del built[order[pos]]
                continue
            built[q] = mask
            pos += 1
        if pos == 4:
            return join_quarters((built[0], built[1], built[2], built[3]), t)
    return None


def _reference_run_fast(seed, cfg):
    rng = Random(cfg.rng_seed)
    t = cfg.t
    codes = list(seed.codes)
    for k in [x for x in (t // 2, t // 2 - 1) if x >= 0]:
        stall = 0
        while stall < t:
            code = _reference_buildgrapas(codes, k, cfg, rng)
            if code is None:
                stall += 1
            else:
                codes.append(code)
                stall = 0
    return codes


# default knobs up to t = 4, where every start but the empty t = 4 one reaches
# 4t - 3; fewer attempts from t = 5 keep the slower reference loop near a second
# (t = 8, from the empty clique and from paley_seed(8): about 1.3 s)
@pytest.mark.parametrize(
    "t, attempts", [(2, 10), (3, 10), (4, 10), (5, 3), (6, 3), (7, 3), (8, 3)]
)
def test_run_fast_replays_the_unbounded_untabled_search(monkeypatch, t, attempts):
    # the same cliques, and one inner search per pick: as many calls as the
    # reference makes before its clique reaches 4t - 3, where run_fast stops
    # (each reference call gets one quarter per member, so its length tells)
    calls, reference_calls = [], []
    reference = _reference_inner_search

    def counting(*args):
        calls.append(args)
        return _inner_search(*args)

    def counting_reference(t, weight, member_quarters, *rest):
        if len(member_quarters) < 4 * t - 3:
            reference_calls.append(member_quarters)
        return reference(t, weight, member_quarters, *rest)

    monkeypatch.setattr("hadclique.fast._inner_search", counting)
    monkeypatch.setattr("hadclique.fast.ATTEMPTS_PER_VECTOR", attempts)
    monkeypatch.setitem(globals(), "_reference_inner_search", counting_reference)
    starts = [Clique(t=t, members=())]
    try:
        starts.append(paley_seed(t))
    except NoDecomposition:
        pass
    for seed in starts:
        for rng_seed in range(3):
            cfg = FastConfig(t=t, rng_seed=rng_seed)
            calls.clear()
            reference_calls.clear()
            assert list(run_fast(seed, cfg).codes) == _reference_run_fast(seed, cfg)
            assert len(calls) == len(reference_calls) > 0


@pytest.mark.parametrize(
    "t, codes",
    [
        (3, [2396, 730, 881, 940, 1386, 2482, 1433, 2281, 1268]),
        (4, [4080, 50115, 49980, 13107, 13260, 38294, 39577, 27286, 26009, 43429, 42666,
             42581, 22181]),
    ],
)
def test_run_fast_constructs_nothing_at_the_bound(monkeypatch, t, codes):
    # a clique of 4t - 3 members gives a 4t x 4t Hadamard matrix: no vertex
    # can join it, so not one construction is tried
    seed = clique_from_codes(t, codes)
    assert len(seed) == 4 * t - 3
    calls = []

    def counting(*args):
        calls.append(args)
        return buildgrapas(*args)

    monkeypatch.setattr("hadclique.fast.buildgrapas", counting)
    out = run_fast(seed, FastConfig(t=t, rng_seed=0))
    assert calls == []
    assert out.codes == seed.codes


@given(
    st.integers(min_value=1, max_value=MAX_T),
    st.data(),
)
@settings(max_examples=200)
def test_tabled_draw_is_the_weighted_draw(t, data):
    # buildgrapas draws values[bisect_right(cum, random() * total, 0, hi)] from
    # a table entry: the line random.choices(values, cum_weights=cum) runs
    a = data.draw(st.integers(min_value=0, max_value=t // 2))
    s = data.draw(st.integers(min_value=0, max_value=t // 2))
    ladder = coincidence_range(t, a, s)
    remaining_after = data.draw(st.integers(min_value=0, max_value=3))
    committed = data.draw(st.integers(min_value=0, max_value=2 * t))
    values, weights = feasible_targets(ladder, committed, remaining_after, 2 * t)
    entry = _target_table(ladder, 2 * t)[remaining_after][committed]
    if not values:
        assert entry is None
        return
    tabled, cum, total, hi, bits = entry
    assert tabled == values
    assert isinstance(cum, tuple)
    assert bits == sum(1 << c for c in values)
    state = Random(data.draw(st.integers(min_value=0, max_value=2**32))).getstate()
    plain, inline = Random(), Random()
    plain.setstate(state)
    inline.setstate(state)
    for _ in range(3):
        drawn = tabled[bisect_right(cum, inline.random() * total, 0, hi)]
        assert drawn == plain.choices(values, weights)[0]
    assert inline.getstate() == plain.getstate()


def test_one_construction_at_the_largest_t_stays_within_the_old_peak():
    # the per-call coincidence cache holds four (12870 masks x 25 members)
    # matrices here: as int8 the call peaks near 3.5 MB, as int64 above 10 MB,
    # where the search that scored each quarter afresh peaked at 7.9 MB
    seed = paley_seed(MAX_T)
    tracemalloc.start()
    try:
        buildgrapas(seed, MAX_T // 2, FastConfig(t=MAX_T), Random(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7_900_000
