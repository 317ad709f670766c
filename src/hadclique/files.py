"""Clique files and search-report files.

Clique files mirror the published tables: the first value is t, everything
after is a decimal vertex code, whitespace/newlines free-form, '#' starts
a comment. Reports are key/value text with a fixed key order; wall times
and timestamps live in comment lines so two runs with the same seed
produce byte-identical non-comment bodies.
"""

from __future__ import annotations

from pathlib import Path

from .errors import HadcliqueError
from .graph import Clique, clique_from_codes
from .oracle import verify_clique
from .report import SearchReport

__all__ = [
    "parse_clique_text",
    "format_clique_text",
    "read_clique",
    "write_clique",
    "format_report",
    "write_report",
    "read_report",
    "report_best_clique",
]


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


def write_clique(path: str | Path, c: Clique) -> None:
    Path(path).write_text(format_clique_text(c))


def format_report(rep: SearchReport) -> str:
    """Stable key/value rendering; timing-dependent data goes to comments."""
    rep_ok = verify_clique(rep.best)
    if not rep_ok:
        raise HadcliqueError(f"refusing to serialize report with invalid best clique: {rep_ok.message}")
    out: list[str] = []
    out.append("# hadclique search report")
    out.append(f"# started: {rep.started}")
    out.append(f"# finished: {rep.finished}")
    out.append(f"algorithm: {rep.algorithm}")
    out.append(f"t: {rep.t}")
    for key, val in rep.config:
        out.append(f"config.{key}: {val}")
    out.append(f"essays: {len(rep.essays)}")
    for e in rep.essays:
        out.append(f"essay.{e.index}.size: {e.size}")
        out.append(f"essay.{e.index}.members: {' '.join(str(c) for c in e.clique.codes)}")
        if e.generations:
            out.append(f"essay.{e.index}.generations: {' '.join(str(s) for s in e.generations)}")
            out.append(f"essay.{e.index}.first_best_generation: {e.first_best_generation}")
        out.append(f"# essay.{e.index}.seconds: {e.seconds:.3f}")
    out.append(f"best.essay: {rep.best_essay}")
    out.append(f"best.size: {len(rep.best)}")
    out.append(f"best.members: {' '.join(str(c) for c in rep.best.codes)}")
    out.append(f"best.k: {' '.join(str(v.k) for v in rep.best.members)}")
    out.append(f"depth.rows: {rep.depth}")
    out.append(f"depth.threshold_third: {rep.third_threshold}")
    out.append(f"depth.threshold_half: {rep.half_threshold}")
    out.append(f"depth.exceeds_third: {'yes' if rep.exceeds_third else 'no'}")
    out.append(f"depth.exceeds_half: {'yes' if rep.exceeds_half else 'no'}")
    return "\n".join(line.rstrip() for line in out) + "\n"


def write_report(path: str | Path, rep: SearchReport) -> None:
    Path(path).write_text(format_report(rep))


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


def report_best_clique(data: dict[str, str]) -> Clique:
    """Reconstruct the best clique recorded in a loaded report."""
    try:
        t = int(data["t"])
        codes = [int(x) for x in data["best.members"].split()] if data.get("best.members") else []
    except (KeyError, ValueError) as exc:
        raise HadcliqueError(f"report lacks a readable best clique: {exc}") from exc
    return clique_from_codes(t, codes)
