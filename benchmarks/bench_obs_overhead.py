"""Observability overhead: instrumented vs ``SAMA_OBS=off``.

Runs the Fig. 6 LUBM workload through one engine twice per round —
once with the metrics registry + stage spans live, once with
observability configured off (the same state ``SAMA_OBS=off`` yields
at process start) — interleaving the arms so machine drift hits both
equally.  The per-arm cost is the *minimum* sweep time (robust to
scheduler noise); the overhead ratio must stay under 3% in full runs
(<5% smoke gate in CI) and the rankings of the two arms must be
bit-identical, proving instrumentation cannot change answers.

``--smoke`` additionally stands up the HTTP serving stack and asserts
``GET /metrics`` parses as Prometheus text exposition with the
expected families present.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke  # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.datasets import dataset, lubm_queries  # noqa: E402
from repro.engine import SamaEngine  # noqa: E402
from repro.serving import (ServingConfig, ServingEngine,  # noqa: E402
                           serve_async)

#: Same workload subset as ``bench_fig6_response_time.py``.
QUERY_IDS = ["Q1", "Q2", "Q3", "Q5", "Q7"]

JSON_PATH = REPO_ROOT / "BENCH_obs.json"
TXT_PATH = REPO_ROOT / "results" / "obs_overhead.txt"

#: Full-run target from the issue; smoke gets headroom for CI noise.
FULL_TARGET = 1.03
SMOKE_TARGET = 1.05

#: Prometheus families the smoke gate requires on ``/metrics``.
REQUIRED_SAMPLES = (
    "sama_serving_requests_total",
    "sama_serving_served_total",
    'sama_stage_seconds_count{stage="cluster"}',
    'sama_stage_seconds_count{stage="search"}',
    "sama_request_seconds_count",
    "sama_record_decodes_total",
)


def _ranking(answers) -> list:
    return [(round(a.score, 9), round(a.quality, 9),
             round(a.conformity, 9)) for a in answers]


def _sweep(engine: SamaEngine, queries, k: int) -> "tuple[float, dict]":
    """One pass over the workload: (seconds, {qid: ranking})."""
    rankings = {}
    started = time.perf_counter()
    for spec in queries:
        rankings[spec.qid] = _ranking(engine.query(spec.graph, k=k))
    return time.perf_counter() - started, rankings


def run_bench(triples: int, rounds: int, k: int, seed: int = 0) -> dict:
    graph = dataset("lubm").build(triples, seed=seed)
    queries = [spec for spec in lubm_queries() if spec.qid in QUERY_IDS]

    sweep_times = {"on": [], "off": []}
    rankings = {"on": None, "off": None}
    previous = obs.configure(enabled=True)
    try:
        with tempfile.TemporaryDirectory(prefix="sama-obs-") as directory:
            engine = SamaEngine.from_graph(graph, directory=directory)
            # One untimed pass faults the index in so neither arm pays
            # the cold-cache cost of going first.
            _sweep(engine, queries, k)
            for _ in range(rounds):
                for mode in ("on", "off"):
                    obs.configure(enabled=(mode == "on"))
                    seconds, ranking = _sweep(engine, queries, k)
                    sweep_times[mode].append(seconds)
                    if rankings[mode] is None:
                        rankings[mode] = ranking
                    elif rankings[mode] != ranking:
                        raise SystemExit(
                            f"FATAL: {mode} arm rankings unstable across "
                            f"rounds — benchmark cannot gate identity")
            engine.close()
    finally:
        obs.configure(enabled=previous[0], registry=previous[1])

    identical = rankings["on"] == rankings["off"]
    if not identical:
        raise SystemExit(
            "FATAL: instrumented rankings diverge from SAMA_OBS=off — "
            "observability must never change answers")
    best_on = min(sweep_times["on"])
    best_off = min(sweep_times["off"])
    return {
        "meta": {
            "triples": triples,
            "rounds": rounds,
            "k": k,
            "queries": QUERY_IDS,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "instrumented_seconds": round(best_on, 4),
        "dark_seconds": round(best_off, 4),
        "overhead_ratio": round(best_on / best_off, 4),
        "sweeps": {mode: [round(s, 4) for s in times]
                   for mode, times in sweep_times.items()},
        "rankings_identical": identical,
    }


def check_metrics_endpoint(triples: int, k: int, seed: int = 0) -> list:
    """Serve a small index, hit /metrics, validate the exposition."""
    failures = []
    graph = dataset("lubm").build(triples, seed=seed)
    queries = [spec for spec in lubm_queries() if spec.qid in QUERY_IDS]
    previous = obs.configure(enabled=True)
    try:
        with tempfile.TemporaryDirectory(prefix="sama-obs-http-") as directory:
            engine = SamaEngine.from_graph(graph, directory=directory)
            serving = ServingEngine(engine, ServingConfig(workers=2,
                                                          default_k=k))
            server = serve_async(serving, port=0).serve_background()
            try:
                for spec in queries[:2]:
                    payload = json.dumps({"query": spec.sparql,
                                          "k": k}).encode()
                    with urllib.request.urlopen(server.url + "/query",
                                                data=payload) as response:
                        if response.status != 200:
                            failures.append(
                                f"POST /query -> {response.status}")
                with urllib.request.urlopen(server.url + "/metrics") as response:
                    content_type = response.headers.get("Content-Type", "")
                    text = response.read().decode("utf-8")
                if not content_type.startswith("text/plain"):
                    failures.append(f"bad content type: {content_type}")
                try:
                    samples = obs.parse_prometheus(text)
                except ValueError as exc:
                    failures.append(f"/metrics does not parse: {exc}")
                    samples = {}
                for name in REQUIRED_SAMPLES:
                    if name not in samples:
                        failures.append(f"/metrics missing {name}")
            finally:
                server.shutdown(close_engine=True)
    finally:
        obs.configure(enabled=previous[0], registry=previous[1])
    return failures


def render_report(report: dict) -> str:
    meta = report["meta"]
    lines = []
    lines.append("Observability overhead: instrumented vs SAMA_OBS=off")
    lines.append(f"LUBM {meta['triples']} triples, queries "
                 f"{', '.join(meta['queries'])}, k={meta['k']}, "
                 f"{meta['rounds']} interleaved rounds per arm, "
                 f"Python {meta['python']}")
    lines.append("")
    lines.append(f"{'arm':<14} {'best sweep s':>13}")
    lines.append(f"{'instrumented':<14} "
                 f"{report['instrumented_seconds']:>13.4f}")
    lines.append(f"{'SAMA_OBS=off':<14} {report['dark_seconds']:>13.4f}")
    lines.append("")
    overhead = (report["overhead_ratio"] - 1.0) * 100.0
    lines.append(f"overhead: {overhead:+.2f}% "
                 f"(ratio {report['overhead_ratio']:.4f}, target <3%)")
    lines.append("Rankings bit-identical across arms: "
                 f"{report['rankings_identical']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--triples", type=int, default=3000)
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved sweeps per arm")
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload + ratio/exposition gate "
                             "for CI")
    parser.add_argument("--no-write", action="store_true",
                        help="do not update the committed result files")
    args = parser.parse_args(argv)

    if args.smoke:
        # Smoke sweeps are short (~0.2 s), so min-of-sweeps needs more
        # rounds than the full run for scheduler noise to converge.
        args.triples = min(args.triples, 1000)
        args.rounds = max(args.rounds, 9)

    report = run_bench(args.triples, args.rounds, args.k, seed=args.seed)
    print(render_report(report))

    if args.smoke:
        failures = []
        if report["overhead_ratio"] > SMOKE_TARGET:
            failures.append(
                f"overhead ratio {report['overhead_ratio']:.4f} exceeds "
                f"the {SMOKE_TARGET} smoke gate")
        if not report["rankings_identical"]:
            failures.append("rankings diverged between arms")
        failures.extend(check_metrics_endpoint(args.triples, args.k,
                                               seed=args.seed))
        for line in (failures or ["all checks passed"]):
            print(f"smoke: {line}")
        print(f"smoke: {'FAIL' if failures else 'PASS'}")
        return 1 if failures else 0

    if report["overhead_ratio"] > FULL_TARGET:
        print(f"WARNING: overhead ratio {report['overhead_ratio']:.4f} "
              f"exceeds the {FULL_TARGET} target")
    if not args.no_write:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
        TXT_PATH.parent.mkdir(exist_ok=True)
        TXT_PATH.write_text(render_report(report) + "\n")
        print(f"\nwrote {JSON_PATH} and {TXT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
