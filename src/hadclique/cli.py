"""Command-line front end.

Subcommands: stats, search, verify, normalize, paley, extend, bench.
Exit codes: 0 success, 1 verification failure or a file that cannot be
read (missing, a directory, or not UTF-8), 2 search produced nothing, 64
usage error: a setting refused anywhere, by the parser, a subcommand or the
library, as ValueError. The environment variable HADCLIQUE_SEED, when set,
overrides --rng-seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from random import Random
from typing import Any, Callable

import numpy as np

from . import exact, fast, ga, graph, seeds
from .errors import HadcliqueError, NoDecomposition
from .files import format_clique_text, parse_clique_text, read_clique, write_report
from .graph import Clique
from .oracle import verify_clique, verify_ph
from .report import SearchReport
from .seeds import format_sign_matrix, ingest_sign_matrix, normalize

EX_OK = 0
EX_VERIFY = 1
EX_EMPTY = 2
EX_USAGE = 64

# published census totals, used by the bench census suite as a cross-check
KNOWN_CENSUS = {
    1: (2, 0),
    2: (18, 80),
    3: (164, 5184),
    4: (1810, 587088),
    5: (21252, 73440000),
    6: (263844, 10521080000),
    7: (3395016, 1629606720000),
}

# per-run wall times reported by the original implementation (2003-era
# hardware); written as reference_s in bench JSON rows for context, never asserted
REFERENCE_SECONDS = {
    "exact": {2: 0.0232, 3: 0.039, 4: 0.368, 5: 0.369, 6: 4.128, 7: 12.19,
              8: 99.0, 9: 826.0, 10: 17406.0},
    "ga": {2: 0.171, 3: 0.359, 4: 1.872, 5: 3.931, 6: 19.36, 7: 250.0,
           8: 1477.0, 9: 14436.0},
    "fast": {2: 1.4, 3: 0.565, 4: 19.603, 5: 27.369, 6: 51.38, 7: 83.0,
             8: 131.0, 9: 182.0},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hadclique", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stats", help="vertex/degree/edge census of G_t")
    sp.add_argument("--t", type=int, required=True)

    sp = sub.add_parser("search", help="run a clique search and write a report")
    sp.add_argument("algorithm", choices=("exact", "ga", "fast"))
    sp.add_argument("--t", type=int)
    sp.add_argument("--essays", type=int, default=10)
    sp.add_argument("--rng-seed", type=int, default=0)
    sp.add_argument("--time-limit", type=float, default=None,
                    help="seconds; no essay past the first --jobs starts after it")
    sp.add_argument("--population", type=int, default=5, help="ga population size")
    sp.add_argument("--generations", type=int, default=20, help="ga generations")
    sp.add_argument("--pm", type=float, default=0.1, help="ga mutation probability")
    sp.add_argument("--pb", type=float, default=0.8, help="ga tournament bias")
    sp.add_argument("--seed-file", type=Path, default=None,
                    help="clique file used as the fast search's seed")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", type=Path, default=None, help="report path")

    sp = sub.add_parser("verify", help="verify a clique or sign-matrix file")
    sp.add_argument("path", type=Path)

    sp = sub.add_parser("normalize", help="normalize a sign-matrix file")
    sp.add_argument("path", type=Path)
    sp.add_argument("--out", type=Path, default=None)

    sp = sub.add_parser("paley", help="emit a Paley seed clique for G_t")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--out", type=Path, default=None)

    sp = sub.add_parser("extend", help="extend a clique file")
    sp.add_argument("path", type=Path)
    sp.add_argument("--algorithm", choices=("exact", "fast"), default="exact")
    sp.add_argument("--rng-seed", type=int, default=0)
    sp.add_argument("--out", type=Path, default=None)

    sp = sub.add_parser("bench", help="timing suites")
    sp.add_argument("suite", choices=("census", "exact", "ga", "fast"))
    sp.add_argument("--reps", type=int, default=3)
    sp.add_argument("--t", type=int, default=None, help="bench a single t")
    sp.add_argument("--json", type=Path, default=None,
                    help="also write the machine, git SHA and per-t results, with the "
                         "2003-era reference seconds, as JSON")

    return p


def _effective_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("HADCLIQUE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"HADCLIQUE_SEED must be an integer, got {env!r}") from None
    return args.rng_seed


def cmd_stats(args: argparse.Namespace) -> int:
    t = args.t
    if not 1 <= t <= graph.MAX_T:
        raise ValueError(f"stats needs 1 <= t <= {graph.MAX_T}, got {t}")
    print(f"G_{t}: width 4t = {4 * t}")
    print(f"{'k':>3} {'vertices':>12} {'degree':>14}")
    for k in range(t + 1):
        print(f"{k:>3} {graph.class_size(t, k):>12} {graph.degree(t, k):>14}")
    print(f"total vertices: {graph.vertex_count(t)}")
    print(f"total edges:    {graph.edge_count(t)}")
    return EX_OK


def _human_report(rep: SearchReport) -> None:
    cfg = "  ".join(f"{k}={v}" for k, v in rep.config)
    print(f"algorithm {rep.algorithm}  t={rep.t}  {cfg}")
    print(f"{'essay':>5} {'size':>5} {'seconds':>8}")
    for e in rep.essays:
        print(f"{e.index:>5} {e.size:>5} {e.seconds:>8.3f}")
    best = rep.best
    print(f"best: size {len(best)} (essay {rep.best_essay})")
    print(f"matrix depth {rep.depth} of width {4 * rep.t}; "
          f"floor(4t/3) = {rep.third_threshold} ({'exceeded' if rep.exceeds_third else 'not exceeded'}), "
          f"2t = {rep.half_threshold} ({'exceeded' if rep.exceeds_half else 'not exceeded'})")
    print("members:", " ".join(str(c) for c in best.codes))


def _search(
    algorithm: str, t: int, essays: int, rng_seed: int, seed: Clique | None = None, **ga_knobs: Any
) -> Callable[..., SearchReport]:
    """The search, built now, as a call that takes jobs and time_limit.

    A setting refused when it is built or run raises ValueError. seed (fast's
    start, empty by default) and ga_knobs (GaConfig fields) only apply to
    their own search.
    """
    if algorithm == "exact":
        cfg = exact.ExactSearchConfig(t=t, essays=essays, rng_seed=rng_seed)
        return partial(exact.run_exact, cfg)
    if algorithm == "ga":
        return partial(ga.run_many, ga.GaConfig(t=t, rng_seed=rng_seed, **ga_knobs), essays)
    base = Clique(t=t, members=()) if seed is None else seed
    return partial(fast.run_many, base, fast.FastConfig(t=t, rng_seed=rng_seed), essays)


def cmd_search(args: argparse.Namespace) -> int:
    if args.t is None:
        raise ValueError("search needs --t")
    if args.seed_file and args.algorithm != "fast":
        raise ValueError(f"--seed-file seeds only search fast, not {args.algorithm}")
    seed = _effective_seed(args)
    base = read_clique(args.seed_file) if args.seed_file else Clique(t=args.t, members=())
    if base.t != args.t:
        raise ValueError(f"--seed-file holds a G_{base.t} clique but --t is {args.t}")
    search = _search(args.algorithm, args.t, args.essays, seed, seed=base,
                     population_size=args.population, max_generations=args.generations,
                     p_m=args.pm, p_b=args.pb)
    rep = search(jobs=args.jobs, time_limit=args.time_limit)
    _human_report(rep)
    out = args.out or Path(f"hadclique-{args.algorithm}-t{args.t}-seed{seed}.report")
    write_report(out, rep)
    print(f"report written: {out}")
    return EX_OK if len(rep.best) > 0 else EX_EMPTY


def _is_sign_matrix(text: str) -> bool:
    """True when text is laid out as a sign matrix rather than a clique file.

    Blank lines and lines starting with '#' are dropped; every other line,
    with spaces and tabs removed, must be over '+-01', and all must have
    the same length. A lone line of 0/1 digits reads either way; it is
    taken as a clique file holding only t, such as "10" for the empty
    clique of G_10, so a one-row sign matrix must be written in '+'/'-'.
    """
    rows = [
        line.replace(" ", "").replace("\t", "")
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(rows) == 1 and set(rows[0]) <= set("01"):
        return False
    return bool(rows) and all(set(r) <= set("+-01") and len(r) == len(rows[0]) for r in rows)


def cmd_verify(args: argparse.Namespace) -> int:
    text = args.path.read_text()
    if _is_sign_matrix(text):
        rep = verify_ph(ingest_sign_matrix(text))
    else:
        rep = verify_clique(parse_clique_text(text))
    print(rep.message)
    return EX_OK if rep.ok else EX_VERIFY


def _emit(text: str, out: Path | None, what: str) -> None:
    """Write text to out and say so, or print it to stdout when out is None."""
    if out:
        out.write_text(text)
        print(f"{what} written: {out}")
    else:
        sys.stdout.write(text)


def cmd_normalize(args: argparse.Namespace) -> int:
    nm = normalize(ingest_sign_matrix(args.path.read_text()))
    _emit(format_sign_matrix(nm), args.out, "normalized matrix")
    return EX_OK


def cmd_paley(args: argparse.Namespace) -> int:
    if args.t < 1:
        raise ValueError("paley needs --t >= 1")
    try:
        c = seeds.paley_seed(args.t)
    except NoDecomposition as exc:
        print(f"no seed: {exc}", file=sys.stderr)
        return EX_EMPTY
    _emit(format_clique_text(c), args.out, f"seed clique of size {len(c)}")
    return EX_OK


def cmd_extend(args: argparse.Namespace) -> int:
    c = read_clique(args.path)
    seed = _effective_seed(args)
    if args.algorithm == "exact":
        graph.pool_bytes(c.t)
        grown = exact.extend_exact(c, Random(seed))
    else:
        grown = fast.run_fast(c, fast.FastConfig(t=c.t, rng_seed=seed))
    if len(grown) == len(c):
        print("warning: no extension found", file=sys.stderr)
    else:
        print(f"extended {len(c)} -> {len(grown)}")
    _emit(format_clique_text(grown), args.out, "clique")
    return EX_OK


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _machine() -> dict[str, object]:
    return {
        "cpus": os.cpu_count(),
        "ram_gb": round(graph._physical_bytes() / 1e9, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": _git_sha(),
    }


def cmd_bench(args: argparse.Namespace) -> int:
    import resource  # Unix only; the other subcommands do not need it

    if args.reps < 1:
        raise ValueError(f"bench needs --reps >= 1, got {args.reps}")
    if args.suite == "census":
        if args.json or args.t is not None:
            raise ValueError("--t and --json apply to the exact, ga and fast suites")
        print("census suite: per-k counts, degrees, totals for t = 1..7")
        ok = True
        for t, (nv, ne) in KNOWN_CENSUS.items():
            begin = time.perf_counter()
            good = graph.vertex_count(t) == nv and graph.edge_count(t) == ne
            secs = time.perf_counter() - begin
            ok &= good
            print(f"t={t}  vertices {nv}  edges {ne}  {'ok' if good else 'MISMATCH'}  ({secs:.3f}s)")
        print("census:", "all equalities hold" if ok else "MISMATCH DETECTED")
        return EX_OK if ok else EX_VERIFY
    default_ts = {"exact": [2, 3, 4, 5], "ga": [2, 3, 4, 5], "fast": [3, 4, 5]}[args.suite]
    ts = [args.t] if args.t is not None else default_ts
    # rep r is essay r of one run, so it draws from Random(r); every t's
    # search is built before any run, so a t the suite cannot run is a
    # usage error, as it is for search
    runs = [_search(args.suite, t, args.reps, 0) for t in ts]
    print(f"{args.suite} suite, {args.reps} reps")
    rows = []
    for t, run in zip(ts, runs):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        essays = run().essays
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        secs = [e.seconds for e in essays]
        med = statistics.median(secs)
        print(f"t={t:>2}  median {med:>8.3f}s over {args.reps} reps")
        rows.append({
            "t": t,
            "reps": args.reps,
            "seconds": secs,
            "median_s": med,
            "sizes": [e.size for e in essays],
            "bound": 4 * t - 3,
            "reference_s": REFERENCE_SECONDS[args.suite].get(t),
            # ru_maxrss is in KiB on Linux; the process peak so far, so it
            # belongs to this t only when the suite runs one t
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # pages first touched (or touched again after the allocator
            # returned them) during this t's reps, set-up included
            "minor_faults": faults,
        })
    if args.json:
        doc = {"suite": args.suite, "machine": _machine(), "results": rows}
        args.json.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"bench results written: {args.json}")
    return EX_OK


def main(argv: list[str] | None = None) -> int:
    """Parse argv, run its subcommand and return the exit code.

    One handler maps every error to its documented code: a ValueError,
    raised by the parser, a subcommand or the library for a setting it
    refuses, is a usage error (64); a HadcliqueError, a value that fails a
    check, and a file that cannot be read (missing, a directory, or not
    UTF-8) or written, is 1. cmd_paley turns NoDecomposition into 2.
    --help returns 0.
    """
    handlers = {
        "stats": cmd_stats,
        "search": cmd_search,
        "verify": cmd_verify,
        "normalize": cmd_normalize,
        "paley": cmd_paley,
        "extend": cmd_extend,
        "bench": cmd_bench,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except UnicodeDecodeError as exc:  # a ValueError, but from a file that cannot be read
        print(f"hadclique: cannot read input: {exc}", file=sys.stderr)
        return EX_VERIFY
    except ValueError as exc:
        print(f"hadclique: usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (HadcliqueError, OSError) as exc:
        print(f"hadclique: {exc}", file=sys.stderr)
        return EX_VERIFY


if __name__ == "__main__":
    sys.exit(main())
