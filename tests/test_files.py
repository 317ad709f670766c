import importlib
import re
from pathlib import Path
from types import ModuleType

import pytest

import hadclique
from hadclique import (
    Clique,
    ExactSearchConfig,
    HadcliqueError,
    run_exact,
    verify_clique,
    write_report,
)
from hadclique.files import format_clique_text, parse_clique_text, read_clique, read_report
from hadclique.graph import clique_from_codes

from published import GREEDY_CLIQUES

README = Path(__file__).resolve().parents[1] / "README.md"


def _report_text(rep, tmp_path):
    p = tmp_path / "run.report"
    write_report(p, rep)
    return p.read_text()


def test_published_rows_paste_in_directly():
    c = parse_clique_text("2\n166, 101, 106, 169, 60".replace(",", " "))
    assert c.t == 2
    assert c.codes == GREEDY_CLIQUES[2]


def test_parse_handles_comments_and_layout():
    text = "# best run\n3\n2396 730 881\n  940\t1386 # trailing note\n"
    c = parse_clique_text(text)
    assert c.t == 3
    assert c.codes == [2396, 730, 881, 940, 1386]


def test_parse_error_carries_line_number():
    with pytest.raises(HadcliqueError) as err:
        parse_clique_text("2\n166 x 101\n")
    assert "line 2" in str(err.value)


def test_parse_rejects_empty_file():
    with pytest.raises(HadcliqueError):
        parse_clique_text("# nothing here\n")


def test_clique_file_roundtrip(tmp_path):
    for t, codes in GREEDY_CLIQUES.items():
        c = clique_from_codes(t, codes)
        p = tmp_path / f"t{t}.clq"
        p.write_text(format_clique_text(c))
        back = read_clique(p)
        assert back.t == t
        assert back.codes == codes


def test_empty_clique_roundtrip(tmp_path):
    p = tmp_path / "empty.clq"
    p.write_text(format_clique_text(Clique(t=4, members=())))
    assert read_clique(p).codes == []


def test_format_clique_text_shape():
    text = format_clique_text(clique_from_codes(2, [166, 101]))
    assert text == "2\n166 101\n"


def test_report_roundtrip_and_reverification(tmp_path):
    rep = run_exact(ExactSearchConfig(t=3, essays=4, rng_seed=2))
    p = tmp_path / "run.report"
    write_report(p, rep)
    data = read_report(p)
    assert data["algorithm"] == "exact"
    assert int(data["t"]) == 3
    assert int(data["essays"]) == 4
    best = clique_from_codes(int(data["t"]), [int(x) for x in data["best.members"].split()])
    assert verify_clique(best)
    assert best.codes == rep.best.codes


def test_report_bodies_identical_modulo_comments(tmp_path):
    a = _report_text(run_exact(ExactSearchConfig(t=2, essays=3, rng_seed=4)), tmp_path)
    b = _report_text(run_exact(ExactSearchConfig(t=2, essays=3, rng_seed=4)), tmp_path)
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("#")]
    assert strip(a) == strip(b)


def test_report_key_order_is_stable(tmp_path):
    text = _report_text(run_exact(ExactSearchConfig(t=2, essays=2, rng_seed=0)), tmp_path)
    keys = [ln.split(":")[0] for ln in text.splitlines() if not ln.startswith("#")]
    assert keys[:2] == ["algorithm", "t"]
    assert keys[-5:] == [
        "depth.rows",
        "depth.threshold_third",
        "depth.threshold_half",
        "depth.exceeds_third",
        "depth.exceeds_half",
    ]
    assert keys == sorted(keys, key=keys.index)  # no duplicates shuffled


def test_report_refuses_invalid_best(tmp_path):
    rep = run_exact(ExactSearchConfig(t=2, essays=1, rng_seed=0))
    broken = type(rep)(
        algorithm=rep.algorithm,
        t=rep.t,
        config=rep.config,
        essays=(
            type(rep.essays[0])(
                index=0,
                clique=clique_from_codes(2, [166, 89]),
                seconds=0.0,
            ),
        ),
        started=rep.started,
        finished=rep.finished,
    )
    with pytest.raises(HadcliqueError):
        write_report(tmp_path / "broken.report", broken)
    assert not (tmp_path / "broken.report").exists()


def test_report_timestamps_live_in_comments(tmp_path):
    rep = run_exact(ExactSearchConfig(t=2, essays=1, rng_seed=0))
    text = _report_text(rep, tmp_path)
    for marker in ("started", "finished", "seconds"):
        lines = [ln for ln in text.splitlines() if marker in ln]
        assert lines and all(ln.startswith("#") for ln in lines)


def test_read_report_rejects_junk(tmp_path):
    p = tmp_path / "bad.report"
    p.write_text("algorithm exact\n")
    with pytest.raises(HadcliqueError):
        read_report(p)


def test_read_report_reads_a_bare_key_as_empty(tmp_path):
    p = tmp_path / "bare.report"
    p.write_text("algorithm: exact\nbest.members:\n")
    assert read_report(p) == {"algorithm": "exact", "best.members": ""}


def _resolve(path):
    obj, name = hadclique, "hadclique"
    for part in path.split("."):
        name += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(name)
    return obj


def test_readme_shows_the_package_root_and_nothing_stale():
    # the root is the documented API: every hc.<name> and hadclique.<name>
    # the README names resolves, and every public name of the root that is
    # not a submodule is shown there
    shown = set()
    for path in re.findall(r"\b(?:hc|hadclique)\.([A-Za-z_][\w.]*\w)", README.read_text("utf-8")):
        _resolve(path)
        shown.add(path.split(".")[0])
    public = {name for name, value in vars(hadclique).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public - shown == set()
