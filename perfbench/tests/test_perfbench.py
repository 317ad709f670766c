"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import hadclique.exact  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

W = workloads.WORKLOADS
TINY = [
    replace(W["exact-t8"], t=4, quality_essays=5, traced_essays=3),
    replace(W["ga-t7"], t=4, quality_essays=3, traced_essays=2),
    replace(W["fast-paley-t4"], quality_essays=2, traced_essays=2),
]
END_TO_END = {"essays_per_s", "essay_s_p50", "mean_size", "best_size", "peak_rss_mb"}


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.kind)
def test_tiny_workload_measures_and_passes_gate(wl):
    out = run.measure(wl, seed=3, seconds=0.2)
    assert out.problems == {}
    assert set(out.metrics) == END_TO_END
    assert out.attempted >= wl.quality_essays
    assert 1 <= out.metrics["best_size"][0] <= wl.size_bound


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.kind)
def test_traced_run_finds_the_same_cliques(wl):
    # trace() re-runs the essays with every layer wrapped and reports any clique that differs
    out = run.trace(wl, seed=5)
    assert out.problems == {}
    assert out.absent == []
    assert out.attempted == wl.traced_essays
    assert "trace.overhead_frac" in out.metrics


def test_seed_changes_the_inputs():
    wl = TINY[0]
    a, b = workloads.make_inputs(wl, 1), workloads.make_inputs(wl, 2)
    assert a.rng_seed != b.rng_seed
    starts = lambda inp: [v.code for v in itertools.islice(workloads._starts(wl.t, inp.rng_seed), 12)]  # noqa: E731
    assert starts(a) != starts(b)
    assert starts(a) == starts(workloads.make_inputs(wl, 1))


def test_gate_rejects_a_broken_clique():
    wl = TINY[0]
    inp = workloads.make_inputs(wl, 1)
    essays = list(workloads.search(wl, inp, 0, 2, None).essays)
    bad = essays[0].clique
    broken = replace(bad, members=bad.members + bad.members[:1])  # a duplicate member
    essays[0] = replace(essays[0], clique=broken)
    assert set(workloads.gate(wl, inp, essays)) == {essays[0].index}


def test_missing_name_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(hadclique.exact, "_filter_pool")
    tracer = Tracer()
    ga_counts = layers.install(tracer)
    tracer.uninstall()
    assert ("exact.filter_pool", "hadclique.exact._filter_pool") in tracer.absent
    names = layers.metrics(tracer, ga_counts)
    assert not any(n.startswith("exact.filter_pool.") for n in names)
    assert "graph.adjacency.calls" in names


def test_self_time_excludes_children(monkeypatch):
    mod = types.ModuleType("perfbench_fake")
    exec("import time\ndef inner():\n    time.sleep(0.02)\ndef outer():\n    inner()\n    inner()\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    tracer = Tracer()
    tracer.wrap("perfbench_fake.inner", "inner")
    tracer.wrap("perfbench_fake.outer", "outer")
    mod.outer()
    tracer.uninstall()
    got = tracer.layers()
    assert got["inner"]["calls"] == 2 and got["outer"]["calls"] == 1
    assert got["outer"]["total_s"] >= 0.04
    assert got["outer"]["self_s"] < 0.01
    assert {s.root for s in tracer.spans} == {s.id for s in tracer.spans if s.parent is None}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "exact-t8", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
