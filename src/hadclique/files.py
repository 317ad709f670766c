"""Clique files and search-report files.

Clique files mirror the published tables: the first value is t, everything
after is a decimal vertex code, whitespace/newlines free-form, '#' starts
a comment. Reports are key/value text with a fixed key order, written by
write_report and read back by read_report; wall times and timestamps live
in comment lines so two runs with the same seed produce byte-identical
non-comment bodies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import HadcliqueError
from .graph import Clique, clique_from_codes, decode
from .oracle import verify_clique
from .report import SearchReport

__all__ = ["parse_clique_text", "format_clique_text", "read_clique", "write_report", "read_report"]


def parse_clique_text(text: str) -> Clique:
    """First token is t, the rest are member codes; '#' comments allowed."""
    tokens: list[int] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise HadcliqueError(f"clique file line {ln}: {tok!r} is not an integer") from None
    if not tokens:
        raise HadcliqueError("clique file contains no values; expected t then member codes")
    t, codes = tokens[0], tokens[1:]
    return clique_from_codes(t, codes)


def format_clique_text(c: Clique) -> str:
    lines = [str(c.t)]
    if c.members:
        lines.append(" ".join(str(code) for code in c.codes))
    return "\n".join(lines) + "\n"


def read_clique(path: str | Path) -> Clique:
    return parse_clique_text(Path(path).read_text())


def _report_lines(rep: SearchReport) -> Iterator[str]:
    """The report's lines, without newlines; write_report checks rep.best."""
    yield "# hadclique search report"
    yield f"# started: {rep.started}"
    yield f"# finished: {rep.finished}"
    yield f"algorithm: {rep.algorithm}"
    yield f"t: {rep.t}"
    for key, val in rep.config:
        yield f"config.{key}: {val}"
    yield f"essays: {len(rep.essays)}"
    for e in rep.essays:
        yield f"essay.{e.index}.size: {e.size}"
        yield f"essay.{e.index}.members: {' '.join(str(c) for c in e.clique.codes)}"
        if e.generations:
            yield f"essay.{e.index}.generations: {' '.join(str(s) for s in e.generations)}"
            yield f"essay.{e.index}.first_best_generation: {e.first_best_generation}"
        yield f"# essay.{e.index}.seconds: {e.seconds:.3f}"
    yield f"best.essay: {rep.best_essay}"
    yield f"best.size: {len(rep.best)}"
    yield f"best.members: {' '.join(str(c) for c in rep.best.codes)}"
    yield f"best.k: {' '.join(str(decode(code, rep.t).k) for code in rep.best.members)}"
    yield f"depth.rows: {rep.depth}"
    yield f"depth.threshold_third: {rep.third_threshold}"
    yield f"depth.threshold_half: {rep.half_threshold}"
    yield f"depth.exceeds_third: {'yes' if rep.exceeds_third else 'no'}"
    yield f"depth.exceeds_half: {'yes' if rep.exceeds_half else 'no'}"


def write_report(path: str | Path, rep: SearchReport) -> None:
    """Write rep to path line by line, never holding the whole text.

    A best clique that does not verify is refused before path is opened.
    """
    rep_ok = verify_clique(rep.best)
    if not rep_ok:
        raise HadcliqueError(f"refusing to serialize report with invalid best clique: {rep_ok.message}")
    with Path(path).open("w") as fh:
        fh.writelines(f"{line.rstrip()}\n" for line in _report_lines(rep))


def read_report(path: str | Path) -> dict[str, str]:
    """Key/value map of a report file; comment lines are skipped."""
    data: dict[str, str] = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        key, sep, val = line.partition(": ")
        if not sep:
            if line.endswith(":"):
                key, val = line[:-1], ""
            else:
                raise HadcliqueError(f"report line {ln}: expected 'key: value'")
        data[key] = val
    return data

