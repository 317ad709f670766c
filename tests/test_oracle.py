from random import Random

import numpy as np
import pytest

from hadclique import (
    Clique,
    InvalidClique,
    TooLarge,
    SignMatrix,
    adjacency,
    brute_adjacency_codes,
    class_size,
    clique_from_codes,
    clique_to_matrix,
    decode,
    degree,
    enumerate_vertices,
    random_vertex,
    verify_clique,
    verify_ph,
    vertex_codes,
    vertex_count,
)

from published import CENSUS, FAST_CLIQUES, GA_CLIQUES, GREEDY_CLIQUES


def test_enumeration_matches_census():
    for t in range(1, 5):
        vs = enumerate_vertices(t)
        assert len(vs) == CENSUS[t][2]
        by_k = {}
        for v in vs:
            by_k[v.k] = by_k.get(v.k, 0) + 1
        assert by_k == {k: n for k, n in enumerate(CENSUS[t][0]) if n}


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        vertex_codes(7)


def test_brute_adjacency_agrees_with_generators_small_t():
    # exhaustively at t <= 3; the acceptance gate extends this to t = 4, 5
    for t in (1, 2, 3):
        for v in enumerate_vertices(t):
            got = np.sort(adjacency(v))
            want = np.sort(brute_adjacency_codes(v))
            assert got.tolist() == want.tolist(), (t, v.code)


def test_brute_adjacency_size_is_degree():
    rng = Random(3)
    for t, k in [(4, 0), (4, 2), (5, 1)]:
        v = random_vertex(t, rng, k=k)
        assert len(brute_adjacency_codes(v)) == degree(t, k)


def test_verify_clique_accepts_published():
    for table in (GREEDY_CLIQUES, GA_CLIQUES, FAST_CLIQUES):
        for t, codes in table.items():
            rep = verify_clique(clique_from_codes(t, codes))
            assert rep, (t, rep.message)


def test_verify_clique_rejects_t_below_one():
    # decode checks t only when there are codes to decode, so an empty
    # clique must be rejected on its t alone
    for t in (0, -5):
        rep = verify_clique(Clique(t=t, members=()))
        assert not rep
        assert "t must be positive" in rep.message


def test_verify_clique_flags_duplicates():
    rep = verify_clique(clique_from_codes(2, [166, 166]))
    assert not rep
    assert "duplicate" in rep.message


def test_verify_clique_flags_nonorthogonal_pair():
    # 89 comes from a different published clique and is not a neighbor of 166
    rep = verify_clique(clique_from_codes(2, [166, 101, 106, 169, 60, 89]))
    assert not rep
    assert "orthogonal" in rep.message


def test_verify_clique_reports_first_bad_pair():
    rep = verify_clique(clique_from_codes(2, [166, 101, 89]))
    assert not rep
    assert "166" in rep.message and "89" in rep.message


def test_clique_to_matrix_canonical_rows():
    c = clique_from_codes(2, GREEDY_CLIQUES[2])
    M = clique_to_matrix(c)
    assert M.m == len(c) + 3
    assert M.n == 8
    assert list(M.rows[0]) == [1] * 8
    assert list(M.rows[1]) == [1, 1, 1, 1, -1, -1, -1, -1]
    assert list(M.rows[2]) == [1, 1, -1, -1, 1, 1, -1, -1]
    assert verify_ph(M)


def test_clique_to_matrix_sign_convention():
    # bit 1 maps to -1, most significant bit is column 0
    v = decode(684646, 5)
    M = clique_to_matrix(clique_from_codes(5, [684646]))
    row = M.rows[3]
    bits = [1 if e < 0 else 0 for e in row]
    assert int("".join(map(str, bits)), 2) == 684646
    assert verify_ph(M)


def test_clique_to_matrix_rejects_invalid():
    with pytest.raises(InvalidClique):
        clique_to_matrix(clique_from_codes(2, [166, 166]))


def test_verify_ph_rejects_bad_entries():
    M = SignMatrix(rows=((1, 0), (1, 1)))
    rep = verify_ph(M)
    assert not rep


def test_verify_ph_order_constraint():
    # 3 columns is not 1, 2, or a multiple of 4
    M = SignMatrix(rows=((1, 1, 1),))
    assert not verify_ph(M)
    assert verify_ph(SignMatrix(rows=((1,),)))
    assert verify_ph(SignMatrix(rows=((1, 1), (1, -1))))


def test_verify_ph_depth_constraint():
    M = SignMatrix(rows=((1, 1), (1, -1), (1, 1)))
    rep = verify_ph(M)
    assert not rep


def test_verify_ph_names_offending_rows():
    M = SignMatrix(rows=((1, 1, 1, 1), (1, 1, -1, -1), (1, 1, 1, -1)))
    rep = verify_ph(M)
    assert not rep
    assert "2" in rep.message


def test_sign_matrix_array_roundtrip():
    arr = np.array([[1, -1], [1, 1]])
    M = SignMatrix.from_array(arr)
    assert (M.to_array() == arr).all()


def test_census_alignment_between_modules():
    for t in range(1, 7):
        assert vertex_count(t) == sum(class_size(t, k) for k in range(t + 1))
