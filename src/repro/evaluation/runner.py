"""The experiment runner: regenerates every table and figure (§6).

Usage (also installed as the ``sama-bench`` console script)::

    python -m repro.evaluation.runner table1
    python -m repro.evaluation.runner fig6a fig6b
    python -m repro.evaluation.runner fig7a fig7b fig7c
    python -m repro.evaluation.runner fig8 fig9 rr
    python -m repro.evaluation.runner all

Every experiment prints the same rows/series the paper reports, at the
scaled-down dataset sizes of :mod:`repro.datasets.registry` (pass
``--scale`` to multiply them).  Seeds are fixed: output is reproducible
run-over-run.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from ..baselines import BoundedMatcher, DogmaMatcher, SapperMatcher
from ..datasets import all_datasets, dataset, lubm_queries
from ..engine.sama import EngineConfig, SamaEngine
from ..index.builder import build_index
from .ground_truth import RelevanceOracle, answer_data_nodes
from .matches import baseline_match_count, sama_match_count
from .metrics import (average_interpolated, interpolated_precision,
                      precision_recall_curve, reciprocal_rank)
from .reporting import (format_bytes, format_seconds, format_table,
                        log_bar_chart, xy_series)
from .scalability import (quadratic_fit, sweep_data_size, sweep_query_nodes,
                          sweep_variable_count)
from .timing import time_baseline, time_cold, time_warm

_BASELINE_CLASSES = (SapperMatcher, BoundedMatcher, DogmaMatcher)


def run_table1(scale: float = 1.0, seed: int = 0,
               max_paths: int = 60_000) -> str:
    """Table 1: indexing statistics for all eight datasets.

    Densely cyclic datasets (PBlog, UOBM) and citation-heavy ones
    (DBLP) have more simple paths than any budget; their rows carry a
    ``trunc`` marker, mirroring the feasibility bound implied by the
    paper's own hours-long builds.
    """
    from ..paths.extraction import ExtractionLimits

    limits = ExtractionLimits(max_length=24, max_paths=max_paths,
                              on_limit="truncate")
    rows = []
    for spec in all_datasets():
        triples = max(100, int(spec.default_triples * scale))
        graph = spec.build(triples, seed=seed)
        _index, stats = build_index(graph, tempfile.mkdtemp(prefix="t1-"),
                                    limits=limits)
        rows.append([spec.name.upper(), f"(paper {spec.paper_triples})",
                     stats.triple_count, stats.hv_count, stats.he_count,
                     format_seconds(stats.build_seconds),
                     format_bytes(stats.size_bytes),
                     "yes" if stats.truncated else "no"])
    return format_table(
        ["DG", "paper size", "#Triples", "|HV|", "|HE|", "t", "Space",
         "trunc"],
        rows, title="Table 1: HyperGraphDB indexing (scaled datasets)")


def _lubm_engine(scale: float, seed: int,
                 read_latency: float = 0.0) -> SamaEngine:
    spec = dataset("lubm")
    graph = spec.build(max(500, int(spec.default_triples * scale)), seed=seed)
    directory = tempfile.mkdtemp(prefix="lubm-index-")
    index, stats = build_index(graph, directory)
    if read_latency:
        index.close()
        from ..index.pathindex import PathIndex
        index = PathIndex.open(directory, read_latency=read_latency)
    engine = SamaEngine(index, config=EngineConfig())
    engine.index_stats = stats
    engine._graph = graph  # used by baselines below
    return engine


#: Simulated disk costs for the Fig. 6 comparison (§6.1 premise: the
#: graph "can only be stored on disk").  Baselines pay per adjacency
#: access on a disk-resident graph; Sama pays per index page read.
GRAPH_ACCESS_LATENCY = 1e-5      # 10 µs per adjacency list
INDEX_PAGE_LATENCY = 1e-4        # 100 µs per 4 KiB index page


def run_fig6(cold: bool, scale: float = 1.0, seed: int = 0, runs: int = 3,
             k: int = 10) -> str:
    """Fig. 6: average response time, Q1-Q12, Sama vs the 3 baselines.

    Both sides run against simulated disk residency: the baselines
    traverse an access-accounted graph (every adjacency read pays
    ``GRAPH_ACCESS_LATENCY``), Sama reads its index through a buffer
    pool whose physical page reads pay ``INDEX_PAGE_LATENCY``.  The
    cold condition clears Sama's buffer pool and the baselines'
    memoised reachability before every run.
    """
    from ..rdf.latency import AccessAccountedGraph

    engine = _lubm_engine(scale, seed, read_latency=INDEX_PAGE_LATENCY)
    view = AccessAccountedGraph(engine._graph,
                                access_latency=GRAPH_ACCESS_LATENCY)
    with view.offline():
        baselines = [cls(view) for cls in _BASELINE_CLASSES]

    def reset_baselines() -> None:
        for baseline in baselines:
            if hasattr(baseline, "clear_cache"):
                baseline.clear_cache()

    from .timing import time_callable
    labels = []
    series: dict[str, list[float]] = {"sama": []}
    for baseline in baselines:
        series[baseline.name] = []
    for spec in lubm_queries():
        labels.append(spec.qid)
        query = spec.graph
        if cold:
            sample = time_cold(engine, query, k=k, runs=runs)
        else:
            sample = time_warm(engine, query, k=k, runs=runs)
        series["sama"].append(sample.mean_ms)
        for baseline in baselines:
            before = reset_baselines if cold else None
            if not cold:
                baseline.search(query, limit=k)  # prime caches
            sample = time_callable(
                lambda b=baseline: b.search(query, limit=k),
                runs=runs, before_each=before)
            series[baseline.name].append(sample.mean_ms)
    condition = "cold-cache" if cold else "warm-cache"
    return log_bar_chart(labels, series,
                         title=f"Fig. 6{'a' if cold else 'b'}: average "
                               f"response time on LUBM ({condition}, "
                               f"simulated disk residency)")


def run_fig7a(scale: float = 1.0, seed: int = 0) -> str:
    sizes = [max(300, int(s * scale)) for s in
             (2_000, 4_000, 6_000, 8_000, 10_000, 12_000)]
    points = sweep_data_size(sizes=sizes, seed=seed)
    fit = quadratic_fit(points)
    return xy_series(points, "I (#extracted paths)", "msec",
                     title="Fig. 7a: Sama scalability vs I",
                     fit_equation=fit.equation())


def run_fig7b(scale: float = 1.0, seed: int = 0) -> str:
    points = sweep_query_nodes(triples=max(500, int(8_000 * scale)),
                               seed=seed)
    fit = quadratic_fit(points)
    return xy_series(points, "#nodes in Q", "msec",
                     title="Fig. 7b: Sama scalability vs |Q| nodes",
                     fit_equation=fit.equation())


def run_fig7c(scale: float = 1.0, seed: int = 0) -> str:
    points = sweep_variable_count(triples=max(500, int(8_000 * scale)),
                                  seed=seed)
    fit = quadratic_fit(points)
    return xy_series(points, "#variables in Q", "msec",
                     title="Fig. 7c: Sama scalability vs variables",
                     fit_equation=fit.equation())


def run_fig8(scale: float = 1.0, seed: int = 0) -> str:
    """Fig. 8: number of matches per query per system (unbounded k)."""
    engine = _lubm_engine(scale, seed)
    graph = engine._graph
    baselines = [cls(graph) for cls in _BASELINE_CLASSES]
    labels = []
    series: dict[str, list[float]] = {"sama": []}
    for baseline in baselines:
        series[baseline.name] = []
    for spec in lubm_queries():
        labels.append(spec.qid)
        series["sama"].append(
            float(sama_match_count(engine, spec.graph, spec.qid).count))
        for baseline in baselines:
            series[baseline.name].append(float(
                baseline_match_count(baseline, spec.graph, spec.qid).count))
    return log_bar_chart(labels, series, unit="# of matches",
                         title="Fig. 8: matches found on LUBM (no k imposed)")


def _query_bands() -> dict[str, list]:
    """The |Q| bands of Fig. 9 (|Q| counted in query paths)."""
    bands = {"|Q| in [1,4]": [], "|Q| in [5,10]": [], "|Q| in [11,17]": []}
    from ..engine.preprocess import prepare_query
    for spec in lubm_queries():
        count = len(prepare_query(spec.graph).paths)
        if count <= 4:
            bands["|Q| in [1,4]"].append(spec)
        elif count <= 10:
            bands["|Q| in [5,10]"].append(spec)
        else:
            bands["|Q| in [11,17]"].append(spec)
    return bands


def run_fig9(scale: float = 1.0, seed: int = 0, k: int = 50) -> str:
    """Fig. 9: interpolated precision/recall on LUBM.

    Sama is split by query-path band like the paper; the baselines get
    one curve each over all 12 queries.
    """
    engine = _lubm_engine(scale, seed)
    graph = engine._graph
    oracle = RelevanceOracle(graph)
    baselines = [cls(graph) for cls in _BASELINE_CLASSES]

    def sama_curve(specs) -> list:
        curves = []
        for spec in specs:
            truth = oracle.ground_truth(spec.graph, key=spec.qid)
            if truth.is_empty:
                continue
            answers = engine.query(spec.graph, k=k)
            flags = [oracle.judge_sama_answer(truth, a) for a in answers]
            curves.append(interpolated_precision(
                precision_recall_curve(flags, len(truth))))
        return average_interpolated(curves)

    def baseline_curve(matcher) -> list:
        curves = []
        for spec in lubm_queries():
            truth = oracle.ground_truth(spec.graph, key=spec.qid)
            if truth.is_empty:
                continue
            matches = matcher.search(spec.graph, limit=k)
            flags = [oracle.judge_match(truth, m) for m in matches]
            curves.append(interpolated_precision(
                precision_recall_curve(flags, len(truth))))
        return average_interpolated(curves)

    bands = _query_bands()
    headers = ["recall"] + [f"sama {band}" for band in bands] \
        + [m.name for m in baselines]
    band_curves = [sama_curve(specs) for specs in bands.values()]
    baseline_curves = [baseline_curve(m) for m in baselines]
    rows = []
    for position in range(11):
        row = [band_curves[0][position].recall]
        for curve in band_curves + baseline_curves:
            row.append(curve[position].precision)
        rows.append(row)
    return format_table(headers, rows,
                        title="Fig. 9: interpolated precision/recall on LUBM")


def run_rr(scale: float = 1.0, seed: int = 0, k: int = 10) -> str:
    """§6.3: reciprocal rank of Sama on the 12 queries (paper: all 1)."""
    engine = _lubm_engine(scale, seed)
    oracle = RelevanceOracle(engine._graph)
    rows = []
    for spec in lubm_queries():
        truth = oracle.ground_truth(spec.graph, key=spec.qid)
        answers = engine.query(spec.graph, k=k)
        flags = [oracle.judge_sama_answer(truth, a) for a in answers]
        value = reciprocal_rank(flags) if not truth.is_empty else float("nan")
        rows.append([spec.qid, len(truth), value])
    return format_table(["query", "#relevant", "RR"], rows,
                        title="Reciprocal rank of Sama on LUBM (§6.3)")


def run_extensions(scale: float = 1.0, seed: int = 0) -> str:
    """Ablation of the §7 extensions: index size, update cost."""
    import time

    from ..index.incremental import IncrementalIndex
    from ..index.labels import LABELS_FILE

    spec = dataset("lubm")
    triples = max(500, int(spec.default_triples * scale / 4))
    graph = spec.build(triples, seed=seed)
    extra = list(dataset("lubm").build(200, seed=seed + 99).triples())
    with tempfile.TemporaryDirectory(prefix="sama-xp-") as scratch:
        built, stats = build_index(graph, os.path.join(scratch, "built"))
        built.close()
        labels_bytes = os.path.getsize(
            os.path.join(scratch, "built", LABELS_FILE))
        log_bytes = stats.size_bytes - labels_bytes
        incremental = IncrementalIndex(graph.copy(),
                                       os.path.join(scratch, "live"))
        started = time.perf_counter()
        for triple in extra[:50]:
            incremental.add_triple(*triple)
        per_update_ms = (time.perf_counter() - started) / 50 * 1000
        incremental.close()
        started = time.perf_counter()
        rebuilt_graph = graph.copy()
        for triple in extra[:50]:
            rebuilt_graph.add_triple(*triple)
        build_index(rebuilt_graph, os.path.join(scratch, "rebuilt"))[0].close()
        rebuild_ms = (time.perf_counter() - started) * 1000
    rows = [
        ["index bytes", format_bytes(stats.size_bytes)],
        ["paths", stats.path_count],
        ["paths.log bytes per record",
         f"{log_bytes / max(1, stats.path_count):.1f} B"],
        ["labels.dict bytes", format_bytes(labels_bytes)],
        ["incremental update (per triple)", f"{per_update_ms:.2f} ms"],
        ["full rebuild (50 triples)", f"{rebuild_ms:.1f} ms"],
        ["paths invalidated", incremental.stats.paths_invalidated],
        ["full-rebuild fallbacks", incremental.stats.full_rebuilds],
    ]
    return format_table(["metric", "value"], rows,
                        title="§7 extensions: index size and updates")


def run_weights_ablation(scale: float = 1.0, seed: int = 0,
                         k: int = 10) -> str:
    """Ablation: the scoring weights' effect on effectiveness.

    Compares the paper's configuration (a=1, b=0.5, c=2, d=1, e=1)
    against uniform weights, structure-only (label mismatches free)
    and labels-only (insertions free, conformity off) on the LUBM
    workload, reporting mean reciprocal rank and mean top-1 coverage.
    """
    from ..scoring import ScoringWeights

    engine = _lubm_engine(scale, seed)
    oracle = RelevanceOracle(engine._graph)
    configurations = [
        ("paper", ScoringWeights.paper()),
        ("uniform", ScoringWeights.uniform()),
        ("structure-only", ScoringWeights.structure_only()),
        ("labels-only", ScoringWeights.labels_only()),
    ]
    specs = lubm_queries()[:6]
    rows = []
    for name, weights in configurations:
        engine.config.weights = weights
        rr_values = []
        coverage = []
        for spec in specs:
            truth = oracle.ground_truth(spec.graph, key=spec.qid)
            if truth.is_empty:
                continue
            answers = engine.query(spec.graph, k=k)
            flags = [oracle.judge_sama_answer(truth, a) for a in answers]
            rr_values.append(reciprocal_rank(flags))
            coverage.append(answers[0].matched_count / len(answers[0].entries)
                            if answers else 0.0)
        rows.append([name,
                     sum(rr_values) / len(rr_values) if rr_values else 0.0,
                     sum(coverage) / len(coverage) if coverage else 0.0])
    engine.config.weights = ScoringWeights.paper()
    return format_table(["weights", "mean RR", "mean top-1 coverage"], rows,
                        title="Ablation: scoring weight configurations "
                              "(LUBM Q1-Q6)")


_EXPERIMENTS = {
    "table1": lambda args: run_table1(args.scale, args.seed),
    "fig6a": lambda args: run_fig6(True, args.scale, args.seed),
    "fig6b": lambda args: run_fig6(False, args.scale, args.seed),
    "fig7a": lambda args: run_fig7a(args.scale, args.seed),
    "fig7b": lambda args: run_fig7b(args.scale, args.seed),
    "fig7c": lambda args: run_fig7c(args.scale, args.seed),
    "fig8": lambda args: run_fig8(args.scale, args.seed),
    "fig9": lambda args: run_fig9(args.scale, args.seed),
    "rr": lambda args: run_rr(args.scale, args.seed),
    "extensions": lambda args: run_extensions(args.scale, args.seed),
    "weights": lambda args: run_weights_ablation(args.scale, args.seed),
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sama-bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="+",
                        choices=sorted(_EXPERIMENTS) + ["all"],
                        help="which experiments to run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier (default 1.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")
    parser.add_argument("--output", default=None, metavar="DIR",
                        help="also write each report to DIR/<name>.txt")
    args = parser.parse_args(argv)
    names = list(_EXPERIMENTS) if "all" in args.experiments \
        else args.experiments
    for name in names:
        report = _EXPERIMENTS[name](args)
        print(report)
        print()
        if args.output:
            os.makedirs(args.output, exist_ok=True)
            path = os.path.join(args.output, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
