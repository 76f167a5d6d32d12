"""Observability overhead: instrumented vs ``SAMA_OBS=off``.

Runs the Fig. 6 LUBM workload through one engine twice per round —
once with the metrics registry + stage spans live, once with
observability configured off (the same state ``SAMA_OBS=off`` yields
at process start).  A sweep repeats the query set until it lasts at
least ``MIN_SWEEP_S``, so one scheduler hiccup is a small share of it;
each round runs the two arms back to back (alternating which goes
first) and yields one on/off ratio, and the overhead ratio is the
*median* of those pair ratios — drift between rounds cancels inside
each pair, and one slow sweep moves one ratio, not the estimate.  It
must stay under 3% in full runs (<5% smoke gate in CI) and the
rankings of the two arms must be bit-identical, proving
instrumentation cannot change answers.

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
import math
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

#: Full-run target; smoke gets headroom for CI noise.
FULL_TARGET = 1.03
SMOKE_TARGET = 1.05

#: Shortest sweep: the query set repeats within a sweep until it
#: lasts this long.
MIN_SWEEP_S = 0.5

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


def _sweep(engine: SamaEngine, queries, k: int,
           passes: int = 1) -> "tuple[float, dict]":
    """``passes`` passes over the workload: (seconds, {qid: ranking}),
    the rankings of the last pass."""
    rankings = {}
    started = time.perf_counter()
    for _ in range(passes):
        for spec in queries:
            rankings[spec.qid] = _ranking(engine.query(spec.graph, k=k))
    return time.perf_counter() - started, rankings


def _median(values) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


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
            # the cold-cache cost of going first; a second one sizes
            # the sweeps.
            _sweep(engine, queries, k)
            one_pass, _ranking_once = _sweep(engine, queries, k)
            passes = max(1, math.ceil(MIN_SWEEP_S / one_pass))
            for round_no in range(rounds):
                arms = ("on", "off") if round_no % 2 == 0 else ("off", "on")
                for mode in arms:
                    obs.configure(enabled=(mode == "on"))
                    seconds, ranking = _sweep(engine, queries, k, passes)
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
    pair_ratios = [on / off for on, off in zip(sweep_times["on"],
                                               sweep_times["off"])]
    return {
        "meta": {
            "triples": triples,
            "rounds": rounds,
            "passes_per_sweep": passes,
            "k": k,
            "queries": QUERY_IDS,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "instrumented_seconds": round(_median(sweep_times["on"]), 4),
        "dark_seconds": round(_median(sweep_times["off"]), 4),
        "overhead_ratio": round(_median(pair_ratios), 4),
        "pair_ratios": [round(ratio, 4) for ratio in pair_ratios],
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
                 f"{meta['rounds']} on/off pairs of "
                 f"{meta['passes_per_sweep']}-pass sweeps, "
                 f"Python {meta['python']}, {meta['cpu_count']} CPUs")
    lines.append("")
    lines.append(f"{'arm':<14} {'median sweep s':>15}")
    lines.append(f"{'instrumented':<14} "
                 f"{report['instrumented_seconds']:>15.4f}")
    lines.append(f"{'SAMA_OBS=off':<14} {report['dark_seconds']:>15.4f}")
    lines.append("")
    overhead = (report["overhead_ratio"] - 1.0) * 100.0
    lines.append(f"overhead: {overhead:+.2f}% (median pair ratio "
                 f"{report['overhead_ratio']:.4f}, target <3%)")
    lines.append("pair ratios: " + " ".join(
        f"{ratio:.3f}" for ratio in report["pair_ratios"]))
    lines.append("Rankings bit-identical across arms: "
                 f"{report['rankings_identical']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--triples", type=int, default=3000)
    parser.add_argument("--rounds", type=int, default=5,
                        help="on/off sweep pairs")
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload + ratio/exposition gate "
                             "for CI")
    parser.add_argument("--no-write", action="store_true",
                        help="do not update the committed result files")
    args = parser.parse_args(argv)

    if args.smoke:
        # A smaller corpus; more pairs for the median to settle.
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
