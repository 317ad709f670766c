from itertools import product
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hadclique import (
    Clique,
    FastConfig,
    HadcliqueError,
    InvalidSeed,
    buildgrapas,
    brute_adjacency_codes,
    clique_from_codes,
    coincidence_range,
    completions,
    decode,
    feasible_targets,
    orthogonal_codes,
    run_fast,
    verify_clique,
)
from hadclique.fast import MAX_T, _inner_search, run_many


def test_config_defaults_scale_with_t():
    cfg = FastConfig(t=5)
    assert cfg.backtracks == 5
    assert cfg.stalls == 5
    tuned = FastConfig(t=5, stall_limit=2)
    assert tuned.stalls == 2


def test_config_validation():
    with pytest.raises(ValueError):
        FastConfig(t=0)
    with pytest.raises(ValueError):
        FastConfig(t=3, attempts_per_vector=0)
    with pytest.raises(ValueError):
        FastConfig(t=3, stall_limit=0)
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
    got = _inner_search(t, weight, quarters, targets, feasible, Random(data.draw(st.integers(0, 99))))
    if not valid:
        assert got is None
    else:
        assert got in valid
        assert miss(got) == min(miss(m) for m in valid)


def test_inner_search_draws_uniformly_among_the_closest():
    # no members: all C(4,2) = 6 masks tie, and each is drawn
    picks = [_inner_search(4, 2, [], [], [], Random(i)) for i in range(600)]
    masks = [m for m in range(16) if m.bit_count() == 2]
    assert sorted(set(picks)) == masks
    assert all(60 <= picks.count(m) <= 140 for m in masks)


def test_buildgrapas_on_empty_clique_always_succeeds():
    cfg = FastConfig(t=5, rng_seed=0)
    rng = Random(0)
    for _ in range(5):
        v = buildgrapas(Clique(t=5, members=()), 2, cfg, rng)
        assert v is not None
        assert decode(v.code, 5).k == 2


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
    c = Clique(t=5, members=(anchor,))
    wins = 0
    for _ in range(100):
        v = buildgrapas(c, 2, cfg, rng)
        if v is not None:
            assert v.code in nbrs
            wins += 1
    assert wins == 100


def test_buildgrapas_respects_infeasible_class():
    # k outside the generated range can never be built
    cfg = FastConfig(t=5, rng_seed=0)
    assert buildgrapas(Clique(t=5, members=()), 4, cfg, Random(0)) is None


def test_buildgrapas_fails_on_maximal_clique():
    # a maximum clique of G_3 admits no further vertex at all
    c = clique_from_codes(3, [2396, 730, 881, 940, 1386, 2482, 1433, 2281, 1268])
    cfg = FastConfig(t=3, rng_seed=0, attempts_per_vector=3)
    for k in (0, 1):
        assert buildgrapas(c, k, cfg, Random(0)) is None


def test_buildgrapas_raises_on_a_non_orthogonal_construction(monkeypatch):
    # the final guard must survive python -O, so it cannot be an assert
    monkeypatch.setattr("hadclique.fast.orthogonal_codes", lambda a, b, t: False)
    c = Clique(t=5, members=(decode(684646, 5),))
    with pytest.raises(HadcliqueError):
        buildgrapas(c, 2, FastConfig(t=5, rng_seed=0), Random(0))


def test_run_fast_requires_matching_seed():
    with pytest.raises(InvalidSeed):
        run_fast(clique_from_codes(2, [166]), FastConfig(t=3))
    with pytest.raises(InvalidSeed):
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


def test_run_many_shapes_and_determinism():
    seed = Clique(t=3, members=())
    cfg = FastConfig(t=3, rng_seed=0, stall_limit=1, attempts_per_vector=2)
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
    out = run_fast(seed, FastConfig(t=4, rng_seed=3, stall_limit=2))
    for code in out.codes:
        if code != 21930:
            assert orthogonal_codes(code, 21930, 4)
