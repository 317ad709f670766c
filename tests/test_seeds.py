from random import Random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hadclique import (
    HadcliqueError,
    NoDecomposition,
    clique_to_matrix,
    format_sign_matrix,
    ingest_sign_matrix,
    matrix_to_clique,
    normalize,
    paley_seed,
    verify_clique,
    verify_ph,
)
from hadclique.graph import clique_from_codes

from published import GREEDY_CLIQUES


def scramble(arr, rng):
    """Column permutation + column negations: a PH stays a PH under both."""
    out = arr.copy()
    perm = rng.sample(range(out.shape[1]), out.shape[1])
    out = out[:, perm]
    for j in range(out.shape[1]):
        if rng.random() < 0.5:
            out[:, j] *= -1
    return out


def test_normalize_fixes_canonical_rows():
    rng = Random(0)
    base = clique_to_matrix(clique_from_codes(2, GREEDY_CLIQUES[2]))
    for _ in range(20):
        M = scramble(base, rng)
        norm = normalize(M)
        arr = norm
        t = arr.shape[1] // 4
        assert (arr[0] == 1).all()
        assert (arr[1, : 2 * t] == 1).all() and (arr[1, 2 * t :] == -1).all()
        assert (arr[2, :t] == 1).all() and (arr[2, t : 2 * t] == -1).all()
        assert (arr[2, 2 * t : 3 * t] == 1).all() and (arr[2, 3 * t :] == -1).all()
        assert verify_ph(norm)


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from([2, 3, 4]))
@settings(max_examples=30, deadline=None)
def test_normalize_then_decode_roundtrips_published(seed, t):
    rng = Random(seed)
    base = clique_to_matrix(clique_from_codes(t, GREEDY_CLIQUES[t]))
    M = scramble(base, rng)
    c = matrix_to_clique(normalize(M))
    assert len(c) == len(GREEDY_CLIQUES[t])
    assert verify_clique(c), c.codes


def test_normalize_never_writes_the_callers_array():
    rng = Random(1)
    base = clique_to_matrix(clique_from_codes(3, GREEDY_CLIQUES[3]))
    for arr in [base] + [scramble(base, rng) for _ in range(10)]:
        before = arr.copy()
        norm = normalize(arr)
        assert np.array_equal(arr, before)
        assert not np.shares_memory(norm, arr)
        # each scramble needs negations and swaps, so the copy was written
        assert arr is base or not np.array_equal(norm, arr)


def test_normalize_rejects_non_ph():
    bad = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, 1, -1]])
    with pytest.raises(HadcliqueError, match="rows 0 and 1 have inner product 2"):
        normalize(bad)


def test_normalize_rejects_bad_entries_and_shape():
    with pytest.raises(HadcliqueError, match="need >= 3 rows and 4t columns, got 1 x 4"):
        normalize(np.array([[1, 0, 1, 1]]))
    with pytest.raises(HadcliqueError, match="need >= 3 rows and 4t columns, got 2 x 3"):
        normalize(np.array([[1, 1, 1], [1, 1, -1]]))
    with pytest.raises(HadcliqueError, match="need >= 3 rows and 4t columns, got 0 x 0"):
        normalize(np.empty((0, 0)))


def test_normalize_rejects_a_zero_entry():
    with pytest.raises(HadcliqueError, match="entries must be"):
        normalize(np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 0, -1]]))


def test_normalized_matrix_refuses_a_short_or_noncanonical_matrix():
    with pytest.raises(HadcliqueError, match="needs >= 3 rows"):
        matrix_to_clique(np.array([[1, 1, 1, 1], [1, 1, -1, -1]]))
    with pytest.raises(HadcliqueError, match="not the canonical triple"):
        matrix_to_clique(np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1]]))


def test_matrix_to_clique_inverts_clique_to_matrix():
    for t, codes in GREEDY_CLIQUES.items():
        if t > 6:
            continue
        c = clique_from_codes(t, codes)
        back = matrix_to_clique(clique_to_matrix(c))
        assert back.codes == codes


def test_matrix_to_clique_names_the_row_that_does_not_decode():
    # (-1, +1, ..., +1) reads as a code with one one-bit, not 2t = 4
    canonical = clique_to_matrix(clique_from_codes(2, []))
    with pytest.raises(HadcliqueError, match="^row 3 does not decode: code 128 has 1 one-bits, expected 4$") as err:
        matrix_to_clique(np.array([*canonical, (-1,) + (1,) * 7]))
    assert "has 1 one-bits" in str(err.value.__cause__)


def test_ingest_parses_aliases_and_comments():
    text = "# header\n+ + - -\n1 0 1 0\n\n+\t+\t-\t-\n"
    M = ingest_sign_matrix(text)
    assert np.array_equal(M, np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, 1, -1, -1]]))


def test_ingest_of_no_rows_is_an_empty_matrix():
    M = ingest_sign_matrix("# only a comment\n")
    assert M.shape == (0, 0) and M.dtype == np.int64
    rep = verify_ph(M)
    assert rep and "vacuous" in rep.message
    assert format_sign_matrix(M) == ""


def test_ingest_reports_position():
    with pytest.raises(HadcliqueError, match="^line 2, column 5: unexpected 'x'$"):
        ingest_sign_matrix("+ + - -\n+ + x -\n")


def test_ingest_rejects_ragged_rows():
    with pytest.raises(HadcliqueError, match="line 2 has 2 entries, expected 4"):
        ingest_sign_matrix("+ + - -\n+ +\n")


def test_format_ingest_roundtrip():
    M = clique_to_matrix(clique_from_codes(3, GREEDY_CLIQUES[3]))
    text = format_sign_matrix(M)
    assert text.endswith("\n")
    assert np.array_equal(ingest_sign_matrix(text), M)


def test_paley_seed_sizes():
    # 2 min(p) - 1 rows survive truncation, minus 3 canonical = clique size
    sizes = [5, 5, 9, 9, 13, 9, 13, 13, 21, 21, 25, 21, 25]
    for t, want in zip(range(4, 17), sizes):
        c = paley_seed(t)
        assert c.t == t
        assert len(c) == want, t
        assert verify_clique(c), t


def test_paley_seed_small_t_impossible():
    for t in (1, 2, 3):
        with pytest.raises(NoDecomposition):
            paley_seed(t)


def test_paley_seed_matrix_verifies():
    for t in (4, 5, 6, 7):
        M = clique_to_matrix(paley_seed(t))
        assert verify_ph(M)
        assert M.shape[1] == 4 * t


def test_paley_seed_deterministic():
    assert paley_seed(6).codes == paley_seed(6).codes
