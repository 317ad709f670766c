import json
import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hadclique import (
    Clique,
    clique_to_matrix,
    format_sign_matrix,
    ingest_sign_matrix,
    verify_clique,
    verify_ph,
)
from hadclique import exact, fast, ga, graph, seeds
from hadclique.files import format_clique_text, parse_clique_text, read_clique, read_report
from hadclique.cli import EX_EMPTY, EX_OK, EX_USAGE, EX_VERIFY, _is_sign_matrix, main
from hadclique.graph import clique_from_codes

from published import GREEDY_CLIQUES

TO_ONES_ZEROS = str.maketrans("+-", "10")

# a subset of a published clique, members in drawn order, or an empty
# clique at any t; "1", "10", "100" and the like are also 0/1 sign rows
published_cliques = st.one_of(
    st.sampled_from(sorted(GREEDY_CLIQUES)).flatmap(
        lambda t: st.lists(st.sampled_from(GREEDY_CLIQUES[t]), unique=True).map(
            lambda codes: clique_from_codes(t, codes)
        )
    ),
    st.sampled_from([1, 10, 11, 100, 101]).map(lambda t: Clique(t=t, members=())),
)
comments = st.sampled_from(["", "# greedy run - t=2\n", "\n# 0 1 + -\n\n"])


@pytest.fixture(autouse=True)
def isolate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HADCLIQUE_SEED", raising=False)


def test_stats_matches_census(capsys):
    assert main(["stats", "--t", "4"]) == EX_OK
    out = capsys.readouterr().out
    assert "total vertices: 1810" in out
    assert "total edges:    587088" in out
    assert "1296" in out  # k=2 class and the extreme degrees


def test_stats_t7_big_ints(capsys):
    assert main(["stats", "--t", "7"]) == EX_OK
    out = capsys.readouterr().out
    assert "3395016" in out
    assert "1629606720000" in out


def test_stats_range_guard(capsys):
    assert main(["stats", "--t", "17"]) == EX_USAGE
    assert main(["stats", "--t", "16"]) == EX_OK
    assert main(["stats", "--t", "0"]) == EX_USAGE


def _usage_error(argv, capsys):
    """main(argv)'s one stderr line, after asserting that it exits 64."""
    assert main(argv) == EX_USAGE
    err = capsys.readouterr().err
    assert err.startswith("hadclique: usage error: ") and err.count("\n") == 1, err
    return err


def test_usage_errors_exit_64(capsys):
    _usage_error(["search", "ga", "--t", "0"], capsys)
    _usage_error(["search", "nonesuch", "--t", "2"], capsys)
    _usage_error(["nonesuch"], capsys)
    _usage_error(["search", "ga", "--t", "2", "--pb", "0.1"], capsys)
    _usage_error(["search", "fast", "--t", "17"], capsys)
    _usage_error(["search", "exact", "--t", "17"], capsys)
    _usage_error(["search", "ga", "--t", "17"], capsys)
    _usage_error(["search", "exact", "--t", "3", "--jobs", "0"], capsys)
    _usage_error(["search", "exact", "--t", "3", "--jobs", "-2"], capsys)
    assert "the following arguments are required: --t" in _usage_error(["search", "exact"], capsys)
    with open("seed.clq", "w") as fh:
        fh.write("3\n")
    for algorithm in ("exact", "ga"):
        out = f"{algorithm}.report"
        argv = ["search", algorithm, "--t", "3", "--seed-file", "seed.clq", "--out", out]
        _usage_error(argv, capsys)
        assert not os.path.exists(out)
    with open("big.clq", "w") as fh:
        fh.write("17\n")
    err = _usage_error(["extend", "big.clq", "--algorithm", "fast"], capsys)
    assert "t must be in 1..16 (4t <= 64 bits), got 17" in err
    err = _usage_error(["extend", "big.clq", "--algorithm", "exact"], capsys)
    assert "t must be in 1..16 (4t <= 64 bits), got 17" in err


@pytest.mark.parametrize("algorithm", ["exact", "fast"])
@pytest.mark.parametrize("flag", ["--population=9", "--generations=3", "--pm=0.5", "--pb=0.5"])
def test_ga_flags_are_refused_outside_search_ga(algorithm, flag, capsys):
    out = f"{algorithm}.report"
    err = _usage_error(["search", algorithm, "--t", "3", flag, "--out", out], capsys)
    assert f"--population, --generations, --pm and --pb set only search ga, not {algorithm}" in err
    assert not os.path.exists(out)


def test_a_library_value_error_is_a_usage_error(monkeypatch, capsys):
    # one handler in main maps a ValueError to 64, whichever subcommand raised it
    def refuse(t):
        raise ValueError("x")

    monkeypatch.setattr(seeds, "paley_seed", refuse)
    assert main(["paley", "--t", "4"]) == EX_USAGE
    assert capsys.readouterr().err == "hadclique: usage error: x\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bad.clq"],
        ["extend", "bad.clq", "--out", "out.clq"],
        ["normalize", "bad.clq", "--out", "out.clq"],
        ["search", "fast", "--t", "3", "--seed-file", "bad.clq", "--out", "out.clq"],
    ],
)
def test_a_file_that_is_not_utf8_exits_1(argv, capsys):
    # UnicodeDecodeError is a ValueError, but the file, not a setting, is at fault
    with open("bad.clq", "wb") as fh:
        fh.write(b"\xff\xfe3 1 2\n")
    assert main(argv) == EX_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("hadclique: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "usage error" not in err
    assert not os.path.exists("out.clq")


@pytest.mark.parametrize("algorithm", ["exact", "ga", "fast"])
def test_negative_time_limit_is_a_usage_error(algorithm, tmp_path, capsys):
    out = tmp_path / "r.report"
    for limit in ("-1", "nan"):  # no perf_counter reading is <= nan
        argv = ["search", algorithm, "--t", "3", "--time-limit", limit, "--out", str(out)]
        assert main(argv) == EX_USAGE
        assert "time_limit must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


def test_ga_at_t_one_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "r.report"
    assert main(["search", "ga", "--t", "1", "--out", str(out)]) == EX_USAGE
    assert main(["search", "ga", "--t", "1", "--population", "2", "--out", str(out)]) == EX_USAGE
    assert main(["bench", "ga", "--t", "1", "--reps", "1"]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.err.count("usage error: seeding in G_1") == 3
    assert "median" not in captured.out
    assert not out.exists()


def test_bad_code_in_a_clique_file_is_not_a_usage_error(capsys):
    # a code that does not fit in 4t bits is a bad input (exit 1), where a bad t is refused (64)
    with open("bad.clq", "w") as fh:
        fh.write("2\n256\n")
    assert main(["extend", "bad.clq"]) == EX_VERIFY
    assert main(["search", "fast", "--t", "2", "--seed-file", "bad.clq"]) == EX_VERIFY
    assert "does not fit in 8 bits" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["normalize", "in.txt", "--out", "out.txt"], "++++\n++\n", "line 2 has 2 entries, expected 4"),
        (["normalize", "in.txt", "--out", "out.txt"], "++++\n++x-\n", "line 2, column 3: unexpected 'x'"),
        (["normalize", "in.txt", "--out", "out.txt"], "++++\n++--\n", "need >= 3 rows and 4t columns, got 2 x 4"),
        (["normalize", "in.txt", "--out", "out.txt"], "++++\n+++-\n+-+-\n",
         "rows 0 and 1 have inner product 2, expected 0"),
        (["verify", "in.txt"], "1\n3\n", "quarter one-bit counts (0,0,1,1) are not (k,t-k,t-k,k)"),
        (["verify", "in.txt"], "2\n7\n", "code 7 has 3 one-bits, expected 4"),
        (["extend", "in.txt", "--out", "out.txt"], "2\n166 89\n",
         "members 0 and 1 (codes 166, 89) are not orthogonal"),
        (["extend", "in.txt", "--algorithm", "fast", "--out", "out.txt"], "2\n166 89\n",
         "members 0 and 1 (codes 166, 89) are not orthogonal"),
    ],
)
def test_data_that_fails_a_check_exits_1_with_one_line(argv, text, message, capsys):
    # a HadcliqueError from the library names the fault, position included,
    # on one stderr line, and nothing is written
    with open("in.txt", "w") as fh:
        fh.write(text)
    assert main(argv) == EX_VERIFY
    captured = capsys.readouterr()
    assert captured.err == f"hadclique: {message}\n"
    assert captured.out == ""
    assert not os.path.exists("out.txt")


def test_search_exact_writes_report(tmp_path, capsys):
    out = tmp_path / "run.report"
    code = main(
        ["search", "exact", "--t", "2", "--essays", "10", "--rng-seed", "7",
         "--out", str(out)]
    )
    assert code == EX_OK
    data = read_report(out)
    assert data["algorithm"] == "exact"
    assert data["best.size"] == "5"
    printed = capsys.readouterr().out
    assert "best: size 5" in printed


def test_search_default_report_name(capsys):
    assert main(["search", "exact", "--t", "2", "--essays", "1"]) == EX_OK
    assert os.path.exists("hadclique-exact-t2-seed0.report")


def test_env_seed_overrides_flag(tmp_path, monkeypatch, capsys):
    out1 = tmp_path / "a.report"
    out2 = tmp_path / "b.report"
    monkeypatch.setenv("HADCLIQUE_SEED", "5")
    main(["search", "exact", "--t", "3", "--essays", "2", "--rng-seed", "0",
          "--out", str(out1)])
    monkeypatch.delenv("HADCLIQUE_SEED")
    main(["search", "exact", "--t", "3", "--essays", "2", "--rng-seed", "5",
          "--out", str(out2)])
    a = {k: v for k, v in read_report(out1).items()}
    b = {k: v for k, v in read_report(out2).items()}
    assert a["best.members"] == b["best.members"]
    assert a["config.rng_seed"] == "5"


def test_env_seed_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("HADCLIQUE_SEED", "pi")
    assert main(["search", "exact", "--t", "2"]) == EX_USAGE


def test_search_ga_and_fast_smoke(tmp_path, capsys):
    out = tmp_path / "ga.report"
    assert main(
        ["search", "ga", "--t", "2", "--essays", "1", "--generations", "2",
         "--out", str(out)]
    ) == EX_OK
    assert read_report(out)["algorithm"] == "ga"
    out2 = tmp_path / "fast.report"
    assert main(
        ["search", "fast", "--t", "2", "--essays", "1", "--out", str(out2)]
    ) == EX_OK
    assert read_report(out2)["algorithm"] == "fast"


@pytest.mark.parametrize(
    "algorithm, t, essays", [("exact", 5, 5), ("ga", 4, 3), ("fast", 4, 3)]
)
def test_report_body_does_not_depend_on_jobs(algorithm, t, essays, tmp_path, capsys):
    bodies = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.report"
        assert main(
            ["search", algorithm, "--t", str(t), "--essays", str(essays), "--rng-seed", "3",
             "--jobs", str(jobs), "--out", str(out)]
        ) == EX_OK
        lines = out.read_text().splitlines(keepends=True)
        bodies.append("".join(line for line in lines if not line.startswith("#")))
    assert bodies[0] == bodies[1]
    assert f"essays: {essays}\n" in bodies[0]


@pytest.mark.parametrize("algorithm", ["exact", "ga"])
def test_search_refuses_jobs_whose_essays_do_not_fit(algorithm, tmp_path, monkeypatch):
    # each job adds one essay's peak over the tables the workers share
    monkeypatch.setattr(graph, "_physical_bytes", lambda: 1 << 62)
    one, two, three = (graph.pool_bytes(5, jobs) for jobs in (1, 2, 3))
    assert 0 < two - one == three - two < one
    monkeypatch.setattr(graph, "_physical_bytes", lambda: two - 1)
    argv = ["search", algorithm, "--t", "5", "--essays", "2"]
    out = tmp_path / "refused.report"
    assert main([*argv, "--jobs", "2", "--out", str(out)]) == EX_USAGE
    assert not out.exists()
    assert main([*argv, "--jobs", "1", "--out", str(out)]) == EX_OK
    # one essay runs alone whatever --jobs is, so one peak is counted
    argv = ["search", algorithm, "--t", "5", "--essays", "1", "--jobs", "2"]
    assert main([*argv, "--out", str(out)]) == EX_OK


def test_search_fast_with_seed_file(tmp_path, capsys):
    seed = tmp_path / "seed.clq"
    seed.write_text("4\n21930\n")
    out = tmp_path / "fast.report"
    code = main(
        ["search", "fast", "--t", "4", "--essays", "1", "--seed-file",
         str(seed), "--out", str(out)]
    )
    assert code == EX_OK
    data = read_report(out)
    assert "21930" in data["best.members"].split()


def test_seed_file_of_another_t_is_a_usage_error(tmp_path, capsys):
    seed = tmp_path / "paley4.clq"
    assert main(["paley", "--t", "4", "--out", str(seed)]) == EX_OK
    out = tmp_path / "fast.report"
    assert main(["search", "fast", "--t", "5", "--seed-file", str(seed), "--out", str(out)]) == EX_USAGE
    assert "seed is a G_4 clique but the search is configured for t=5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_seed_file_failing_verification_exits_1(jobs, tmp_path, capsys):
    seed = tmp_path / "twice.clq"
    seed.write_text("4\n21930 21930\n")  # one vertex twice: it decodes, but is no clique
    out = tmp_path / "fast.report"
    argv = ["search", "fast", "--t", "4", "--essays", "2", "--jobs", jobs, "--seed-file", str(seed)]
    assert main([*argv, "--out", str(out)]) == EX_VERIFY
    assert "duplicates" in capsys.readouterr().err
    assert not out.exists()


def test_verify_clique_file(tmp_path, capsys):
    good = tmp_path / "good.clq"
    good.write_text("2\n166 101 106 169 60\n")
    assert main(["verify", str(good)]) == EX_OK
    bad = tmp_path / "bad.clq"
    bad.write_text("2\n166 166\n")
    assert main(["verify", str(bad)]) == EX_VERIFY
    bad.write_text("2\n166 101 89\n")
    assert main(["verify", str(bad)]) == EX_VERIFY


def test_verify_clique_file_with_sign_characters_in_a_comment(tmp_path, capsys):
    good = tmp_path / "good.clq"
    good.write_text("# greedy run - t=2\n2\n166 101 106 169 60\n")
    assert main(["verify", str(good)]) == EX_OK
    assert "clique of size 5" in capsys.readouterr().out
    good.write_text("10\n")
    assert main(["verify", str(good)]) == EX_OK
    assert "clique of size 0 in G_10" in capsys.readouterr().out


def test_verify_fails_and_extend_refuses_a_clique_below_t_one(tmp_path, capsys):
    # neither file holds a code, so no member's decode sees the bad t
    p = tmp_path / "bad_t.clq"
    for text in ("0\n", "-5\n"):
        p.write_text(text)
        assert main(["verify", str(p)]) == EX_VERIFY
        assert "t must be positive" in capsys.readouterr().out
        for algorithm in ("exact", "fast"):
            assert main(["extend", str(p), "--algorithm", algorithm]) == EX_USAGE
            assert "usage error" in capsys.readouterr().err


def test_verify_sniffs_matrix_content(tmp_path, capsys):
    m = tmp_path / "mat.txt"
    m.write_text("+ + + +\n+ + - -\n+ - + -\n+ - - +\n")
    assert main(["verify", str(m)]) == EX_OK
    m.write_text("+ + + +\n+ + - -\n+ - + -\n+ - - -\n")
    assert main(["verify", str(m)]) == EX_VERIFY


def test_verify_ones_zeros_sign_matrix(tmp_path, capsys):
    m = tmp_path / "mat.txt"
    text = format_sign_matrix(clique_to_matrix(clique_from_codes(2, GREEDY_CLIQUES[2])))
    m.write_text(text.translate(TO_ONES_ZEROS))
    assert main(["verify", str(m)]) == EX_OK
    assert "8 x 8 partial Hadamard matrix" in capsys.readouterr().out
    m.write_text("1111\n1100\n1010\n1000\n")
    assert main(["verify", str(m)]) == EX_VERIFY


@given(published_cliques, comments)
@settings(max_examples=60)
def test_clique_text_roundtrip_sniffs_as_clique(c, comment):
    text = comment + format_clique_text(c)
    assert not _is_sign_matrix(text)
    assert parse_clique_text(text) == c


@given(published_cliques, comments, st.booleans())
@settings(max_examples=60)
def test_sign_matrix_text_roundtrip_sniffs_as_matrix(c, comment, ones_zeros):
    M = clique_to_matrix(c)
    text = format_sign_matrix(M)
    if ones_zeros:
        text = text.translate(TO_ONES_ZEROS)
    text = comment + text
    assert _is_sign_matrix(text)
    back = ingest_sign_matrix(text)
    assert np.array_equal(back, M)
    assert verify_ph(back)


def test_verify_missing_file(capsys):
    assert main(["verify", "no-such-file.clq"]) == EX_VERIFY


def test_normalize_restores_canonical_rows(tmp_path, capsys):
    arr = clique_to_matrix(clique_from_codes(2, GREEDY_CLIQUES[2]))
    arr = arr[:, [3, 0, 6, 2, 7, 4, 1, 5]]
    arr[:, 2] *= -1
    arr[:, 5] *= -1
    m = tmp_path / "mat.txt"
    m.write_text(format_sign_matrix(arr))
    out = tmp_path / "norm.txt"
    assert main(["normalize", str(m), "--out", str(out)]) == EX_OK
    text = out.read_text()
    assert text.splitlines()[0] == "++++++++"
    assert main(["verify", str(out)]) == EX_OK


def test_paley_to_file_and_verify(tmp_path, capsys):
    out = tmp_path / "paley.clq"
    assert main(["paley", "--t", "4", "--out", str(out)]) == EX_OK
    c = read_clique(out)
    assert len(c) == 5
    assert verify_clique(c)
    assert main(["verify", str(out)]) == EX_OK


def test_paley_impossible_exits_2(capsys):
    assert main(["paley", "--t", "2"]) == EX_EMPTY
    assert "no seed" in capsys.readouterr().err


def test_paley_t0_is_a_usage_error(capsys):
    assert main(["paley", "--t", "0"]) == EX_USAGE
    assert "paley needs --t >= 1" in capsys.readouterr().err


def test_extend_grows_clique(tmp_path, capsys):
    p = tmp_path / "seed.clq"
    p.write_text("2\n166 101\n")
    out = tmp_path / "grown.clq"
    assert main(["extend", str(p), "--out", str(out)]) == EX_OK
    grown = read_clique(out)
    assert set([166, 101]) <= set(grown.codes)
    assert len(grown) == 5


def test_extend_maximal_warns(tmp_path, capsys):
    p = tmp_path / "max.clq"
    p.write_text("3\n" + " ".join(map(str, GREEDY_CLIQUES[3])) + "\n")
    assert main(["extend", str(p)]) == EX_OK
    assert "no extension found" in capsys.readouterr().err


def test_bench_census(capsys):
    assert main(["bench", "census"]) == EX_OK
    assert "all equalities hold" in capsys.readouterr().out


def test_bench_census_refuses_t(capsys):
    # the census always covers t = 1..7, so a single --t is a usage error
    assert main(["bench", "census", "--t", "3"]) == EX_USAGE
    captured = capsys.readouterr()
    assert "census:" not in captured.out
    assert "--t" in captured.err


def test_bench_exact_single_t(capsys):
    assert main(["bench", "exact", "--reps", "1", "--t", "2"]) == EX_OK
    out = capsys.readouterr().out
    assert "median" in out
    assert "2003-era" not in out  # the reference times go to --json only


def test_bench_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "exact", "--t", "3", "--reps", "1", "--json", str(out)]) == EX_OK
    doc = json.loads(out.read_text())
    assert doc["suite"] == "exact"
    assert set(doc["machine"]) >= {"cpus", "ram_gb", "python", "numpy", "git"}
    (row,) = doc["results"]
    assert row["t"] == 3 and row["reps"] == 1 and row["bound"] == 9
    assert len(row["seconds"]) == 1 and row["median_s"] == row["seconds"][0]
    assert row["sizes"] == [9]
    assert row["reference_s"] == 0.039
    assert isinstance(row["minor_faults"], int) and row["minor_faults"] >= 0
    assert main(["bench", "fast", "--t", "1", "--reps", "1", "--json", str(out)]) == EX_OK
    assert json.loads(out.read_text())["results"][0]["reference_s"] is None
    assert main(["bench", "census", "--json", str(out)]) == EX_USAGE


def _one_run_size(suite, t, rng_seed):
    if suite == "exact":
        return len(exact.run_exact(exact.ExactSearchConfig(t=t, essays=1, rng_seed=rng_seed)).best)
    if suite == "ga":
        return ga.run_ga(ga.GaConfig(t=t, rng_seed=rng_seed)).size
    return len(fast.run_fast(Clique(t=t, members=()), fast.FastConfig(t=t, rng_seed=rng_seed)))


@pytest.mark.parametrize("suite, t, reps", [("exact", 5, 5), ("fast", 5, 5), ("ga", 3, 2)])
def test_bench_reps_are_the_runners_essays(suite, t, reps, tmp_path, capsys):
    # rep r is essay r of one run, which draws from Random(r): the same
    # clique as a separate run with rng_seed = r
    out = tmp_path / "bench.json"
    assert main(["bench", suite, "--t", str(t), "--reps", str(reps), "--json", str(out)]) == EX_OK
    (row,) = json.loads(out.read_text())["results"]
    want = [_one_run_size(suite, t, r) for r in range(reps)]
    assert row["sizes"] == want
    assert len(row["seconds"]) == reps
    if suite != "ga":
        assert len(set(want)) > 1  # sizes differ by seed, so a wrong mapping shows


@pytest.mark.parametrize(
    "argv",
    [
        ["fast", "--t", "17"],  # past graph.MAX_T
        ["fast", "--t", "0"],  # a zero t, not the default t list
        ["ga", "--t", "20"],  # refused by graph.pool_bytes, as search refuses it
        ["exact", "--t", "3", "--reps", "-2"],  # not one rep
    ],
)
def test_bench_rejects_bad_arguments_as_usage_errors(argv, capsys):
    assert main(["bench", *argv]) == EX_USAGE
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert "median" not in captured.out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EX_OK
