"""Cliques hold their members as plain int codes, whichever layer made them."""

import tracemalloc
from random import Random

import numpy as np
import pytest

from hadclique import (
    Clique,
    ExactSearchConfig,
    FastConfig,
    GaConfig,
    clique_to_matrix,
    extend_exact,
    matrix_to_clique,
    paley_seed,
    run_exact,
    verify_clique,
)
from hadclique import fast, ga
from hadclique.files import format_clique_text, read_clique
from hadclique.graph import clique_from_codes


def _made_cliques(tmp_path):
    yield "run_exact", run_exact(ExactSearchConfig(t=5, essays=4, rng_seed=0)).essays
    yield "ga.run_many", ga.run_many(GaConfig(t=4, max_generations=3), essays=2).essays
    for jobs in (1, 2):
        rep = fast.run_many(paley_seed(4), FastConfig(t=4), essays=4, jobs=jobs)
        yield f"fast.run_many jobs={jobs}", rep.essays
    grown = [extend_exact(paley_seed(6), Random(0)), extend_exact(Clique(t=5, members=()), Random(1))]
    yield "extend_exact", grown
    yield "paley_seed", [paley_seed(t) for t in (4, 5, 9)]
    path = tmp_path / "paley9.clq"
    path.write_text(format_clique_text(paley_seed(9)))
    yield "read_clique", [read_clique(path)]
    yield "matrix_to_clique", [matrix_to_clique(clique_to_matrix(paley_seed(t))) for t in (4, 9)]
    yield "clique_from_codes", [clique_from_codes(9, np.array(paley_seed(9).codes, dtype=np.uint64))]


def test_every_member_is_a_plain_int(tmp_path):
    for producer, made in _made_cliques(tmp_path):
        cliques = [getattr(c, "clique", c) for c in made]
        assert cliques and any(len(c) for c in cliques), producer
        for c in cliques:
            assert isinstance(c, Clique), producer
            # type(), not isinstance(): a bool or numpy.uint64 is no plain code
            assert all(type(code) is int for code in c.members), (producer, c.members)
            assert c.codes == list(c.members), producer
            assert verify_clique(c), producer


# 4080 is a vertex of G_4, but not as a numpy integer
@pytest.mark.parametrize("bad", [True, 3.0, "60", np.uint64(4080)], ids=repr)
def test_verify_clique_rejects_a_member_that_is_no_int_code(bad):
    rep = verify_clique(Clique(t=4, members=(bad, *paley_seed(4).members[1:])))
    assert not rep
    assert "is not an int code" in rep.message


def test_retained_exact_essays_hold_under_1000_bytes_each():
    # the benchmark and every search keep each finished essay's clique until
    # the report is written; 14 members as plain ints take ~810 B with the
    # essay's record, and as t/code/k vertex records took ~1,570 B
    run_exact(ExactSearchConfig(t=8, essays=1, rng_seed=1))  # build the pool and caches untraced
    tracemalloc.start()
    try:
        rep = run_exact(ExactSearchConfig(t=8, essays=200, rng_seed=0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rep.essays) == 200
    assert sum(e.size for e in rep.essays) / 200 > 12
    assert held / 200 <= 1000, held / 200
