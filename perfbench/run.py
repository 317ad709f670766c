"""hadclique benchmark: one workload per call, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-t8 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
times a fixed set of essays untraced, then the same essays with every
layer's calls wrapped (see layers.py), checks that both passes found the same
cliques, and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Any essay
that fails the correctness gate makes the command exit with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    attempted: int
    problems: dict[int, str]  # failing essay index -> reason
    notes: dict[str, str] = field(default_factory=dict)  # name -> context printed beside it
    absent: list[tuple[str, str]] = field(default_factory=list)  # traced names missing at this commit


def _source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hadclique").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_line() -> str:
    import numpy

    ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9
    return (
        f"machine: cpus={os.cpu_count()} ram_gb={ram_gb:.1f} python={platform.python_version()} "
        f"numpy={numpy.__version__} git={_git_sha()} src_sha256={_source_fingerprint()}"
    )


def _tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters from launch until set-up is done."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        begin = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - begin)
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
    return statistics.median(samples)


def measure(wl, seed: int, seconds: float) -> Outcome:
    """The untraced run: essays until `seconds` have passed, then the gate."""
    import hadclique.files as files
    import workloads

    inp = workloads.make_inputs(wl, seed)
    workloads.warm_up(wl, inp)
    begin = time.perf_counter()
    report = workloads.search(wl, inp, 0, workloads.ESSAY_CAP, seconds)
    files.write_report(OUT / f"{wl.name}-seed{seed}.report", report)
    wall = time.perf_counter() - begin
    timed = list(report.essays)
    essays = timed[:]
    if len(essays) < wl.quality_essays:  # untimed: quality always covers the same essays
        essays += workloads.search(wl, inp, len(essays), wl.quality_essays - len(essays), None).essays
    problems = workloads.gate(wl, inp, essays)
    sizes = [e.size for e in essays[: wl.quality_essays]]
    essay_s = [e.seconds for e in timed]
    metrics = {
        "essays_per_s": (len(timed) / wall, "1/s"),
        "essay_s_p50": (statistics.median(essay_s), "s"),
        "mean_size": (statistics.mean(sizes), "members"),
        "best_size": (max(sizes), "members"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    notes = {
        "essays_per_s": f"{len(timed)} essays in {wall:.2f} s, jobs={wl.jobs}",
        "mean_size": f"over essays 0..{wl.quality_essays - 1}",
        "best_size": f"bound 4t-3 = {wl.size_bound}",
    }
    tail = _tail_percentile(essay_s)
    notes["essay_s_p50"] = f"over {len(essay_s)} essays" + (f", p{tail[0]} {tail[1]:.4f} s" if tail else "")
    return Outcome(metrics, len(essays), problems, notes)


def trace(wl, seed: int) -> Outcome:
    """The traced run: the fixed traced essays untraced, then traced, compared."""
    import hadclique.files as files
    import layers
    import workloads
    from tracer import Tracer

    inp = workloads.make_inputs(wl, seed)
    workloads.warm_up(wl, inp)
    begin = time.perf_counter()
    plain = workloads.search(wl, inp, 0, wl.traced_essays, None)
    files.write_report(OUT / f"{wl.name}-seed{seed}-untraced.report", plain)
    plain_wall = time.perf_counter() - begin

    tracer = Tracer()
    ga_counts = layers.install(tracer)
    try:
        inp = workloads.make_inputs(wl, seed)
        begin = time.perf_counter()
        traced = workloads.search(wl, inp, 0, wl.traced_essays, None)
        files.write_report(OUT / f"{wl.name}-seed{seed}-traced.report", traced)
        traced_wall = time.perf_counter() - begin
        problems = workloads.gate(wl, inp, list(traced.essays))
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"{wl.name}-seed{seed}-spans.jsonl")

    for a, b in zip(plain.essays, traced.essays, strict=True):
        if a.clique.codes != b.clique.codes:
            problems.setdefault(b.index, "tracing changed the clique this essay found")
    metrics = layers.metrics(tracer, ga_counts)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    notes = {"trace.overhead_frac": f"{traced_wall:.3f} s traced over {plain_wall:.3f} s untraced"}
    return Outcome(metrics, len(traced.essays), problems, notes, tracer.absent)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hadclique" / "__init__.py").is_file():
        print(f"perfbench: no hadclique sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.warm_up(wl, workloads.make_inputs(wl, args.seed))
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    print(machine_line())
    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        out = trace(wl, args.seed)
    else:
        setup_s = setup_seconds(wl.name, args.seed)
        out = measure(wl, args.seed, args.seconds)
        out.metrics = {"setup_s": (setup_s, "s"), **out.metrics}
        out.notes["setup_s"] = f"median of {SETUP_SAMPLES} fresh interpreters"
    for name, (value, unit) in out.metrics.items():
        note = f"  ({out.notes[name]})" if name in out.notes else ""
        print(f"{wl.name} {name}: {value:.6g} {unit}{note}")
    for name, dotted in out.absent:
        print(f"{wl.name} {name}: absent ({dotted} is not defined at this commit)")
    failed = len(out.problems)
    print(f"{wl.name} error_frac: {failed / out.attempted:.6g}  ({failed} of {out.attempted} essays failed)")
    for index, reason in sorted(out.problems.items()):
        print(f"{wl.name} essay {index} FAILED: {reason}")
    print(
        json.dumps(
            {
                "correct": not out.problems,
                "attempted": out.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()},
            }
        )
    )
    return 1 if out.problems else 0


if __name__ == "__main__":
    sys.exit(main())
