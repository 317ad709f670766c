"""Which hadclique names the traced run wraps, and the per-layer metrics.

Each entry names the attribute a caller module looks up (so the wrapper sees
exactly the calls that caller makes) and the layer it belongs to. Metrics
are named ``<module>.<function>.<quantity>``; BENCHMARK.json lists them.
"""

from __future__ import annotations

from pathlib import Path

from tracer import Tracer


def _adjacency(args, kwargs, result) -> dict:
    return {"anchor": args[0].code, "codes": int(result.size)}


def _filter_pool(args, kwargs, result) -> dict:
    return {"codes_in": int(args[0].size), "codes_out": int(result.size)}


def _found(args, kwargs, result) -> dict:
    return {"found": result is not None}


def _report_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _ga_counts(sink: list[dict]):
    """A run_ga caller that adds an observer counting GA events.

    Consecutive snapshots with equal member sets mean the child was a
    duplicate of a chromosome already present and was rejected.
    """

    def call(original, *args, **kwargs):
        counts = {"generations": 0, "replacements": 0, "duplicate_rejections": 0}
        last: list = []

        def observe(gen, pop) -> None:
            keys = [frozenset(ch.clique.codes) for ch in pop]
            if gen > 0:
                counts["generations"] += 1
                counts["replacements" if keys != last else "duplicate_rejections"] += 1
            last[:] = keys

        result = original(*args, observer=observe, **kwargs)
        sink.append(counts)
        return result

    return call


def install(tracer: Tracer) -> list[dict]:
    """Wrap every traced name; returns the list the GA counters land in."""
    ga_counts: list[dict] = []
    wraps = [
        # essay-level spans: no metric, they are the roots grouping each essay's calls
        ("hadclique.exact._greedy_essay", "exact.essay", None),
        ("hadclique.fast.run_fast", "fast.run_fast", None),
        ("hadclique.exact.adjacency", "graph.adjacency", _adjacency),
        ("hadclique.exact._filter_pool", "exact.filter_pool", _filter_pool),
        ("hadclique.ga.extend_exact", "exact.extend_exact", None),
        ("hadclique.fast.buildgrapas", "fast.buildgrapas", _found),
        ("hadclique.fast._inner_search", "fast.inner_search", _found),
        ("hadclique.ga.repair", "ga.repair", None),
        ("hadclique.ga.crossover", "ga.crossover", None),
        ("hadclique.ga.mutate", "ga.mutate", None),
        ("hadclique.exact.verify_clique", "oracle.verify_clique", None),
        ("hadclique.fast.verify_clique", "oracle.verify_clique", None),
        ("hadclique.files.verify_clique", "oracle.verify_clique", None),
        ("hadclique.oracle.verify_ph", "oracle.verify_ph", None),
        ("hadclique.seeds.paley_seed", "seeds.paley_seed", None),
        ("hadclique.files.write_report", "files.write_report", _report_bytes),
    ]
    for dotted, name, record in wraps:
        tracer.wrap(dotted, name, record)
    tracer.wrap("hadclique.ga.run_ga", "ga.run_ga", call=_ga_counts(ga_counts))
    return ga_counts


def _frac(num: float, den: float) -> float:
    # a layer the workload never calls has no base; read it as 0 next to calls = 0
    return num / den if den else 0.0


def metrics(tracer: Tracer, ga_counts: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    A layer none of whose names exist at this commit is left out.
    """
    layers = tracer.layers()
    have = tracer.installed
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": []}

    def get(name: str) -> dict:
        return layers.get(name, empty)

    out: dict[str, tuple[float, str]] = {}
    if "graph.adjacency" in have:
        adj = get("graph.adjacency")
        calls = adj["calls"]
        codes = sum(i["codes"] for i in adj["info"])
        anchors = {i["anchor"] for i in adj["info"]}
        out["graph.adjacency.calls"] = (calls, "count")
        out["graph.adjacency.self_s"] = (adj["self_s"], "s")
        out["graph.adjacency.codes"] = (_frac(codes, calls), "codes/call")
        out["graph.adjacency.mb"] = (_frac(8 * codes, calls) / 1e6, "MB/call")
        out["graph.adjacency.repeat_frac"] = (_frac(calls - len(anchors), calls), "ratio")
    if "exact.filter_pool" in have:
        fp = get("exact.filter_pool")
        codes_in = sum(i["codes_in"] for i in fp["info"])
        codes_out = sum(i["codes_out"] for i in fp["info"])
        out["exact.filter_pool.calls"] = (fp["calls"], "count")
        out["exact.filter_pool.self_s"] = (fp["self_s"], "s")
        out["exact.filter_pool.codes_in"] = (_frac(codes_in, fp["calls"]), "codes/call")
        out["exact.filter_pool.keep_frac"] = (_frac(codes_out, codes_in), "ratio")
    for name, ratio, want in (("fast.buildgrapas", "ok_frac", True), ("fast.inner_search", "none_frac", False)):
        if name in have:
            layer = get(name)
            hits = sum(1 for i in layer["info"] if i["found"] == want)
            out[f"{name}.{ratio}"] = (_frac(hits, layer["calls"]), "ratio")
    if "ga.run_ga" in have:
        for key in ("generations", "replacements", "duplicate_rejections"):
            out[f"ga.{key}"] = (sum(c[key] for c in ga_counts), "count")
    for name in ("exact.extend_exact", "fast.buildgrapas", "fast.inner_search", "oracle.verify_clique"):
        if name in have:
            out[f"{name}.calls"] = (get(name)["calls"], "count")
    for name in (
        "exact.extend_exact", "fast.buildgrapas", "fast.inner_search",
        "ga.repair", "ga.crossover", "ga.mutate", "oracle.verify_clique", "oracle.verify_ph",
    ):
        if name in have:
            out[f"{name}.self_s"] = (get(name)["self_s"], "s")
    if "seeds.paley_seed" in have:
        out["seeds.paley_seed.s"] = (get("seeds.paley_seed")["total_s"], "s")
    if "files.write_report" in have:
        wr = get("files.write_report")
        out["files.write_report.s"] = (wr["total_s"], "s")
        out["files.report_bytes"] = (sum(i["bytes"] for i in wr["info"]), "bytes")
    return dict(sorted(out.items()))
