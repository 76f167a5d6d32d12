"""Sharding A/B benchmark: scatter-gather vs the single-shard engine.

Times the Fig. 6 LUBM workload end-to-end (cold cache every round)
over the *same* graph stored four ways: one plain ``PathIndex``
(``unsharded``) and a ``ShardedIndex`` at 1, 2 and 4 shards — plus,
on the 4-shard layout, a ``serial`` arm (workers=1) and a ``procs``
arm (``worker_mode="procs"``, one scoring process per shard; DESIGN.md
§11 has the in-memory numbers of that mode).  All
arms must produce bit-identical rankings and scores — the run aborts
otherwise; the ranking guarantee is the point of the deterministic
``(λ, gid)`` merge in ``repro.engine.clustering``.

The condition models a disk/network-backed deployment, like the Fig. 6
harness: indexes are paged at 1 KiB and every physical page read pays
``READ_LATENCY`` (see ``INDEX_PAGE_LATENCY`` in
``repro.evaluation.runner`` for the same technique).  The sharded
engine's win is *overlap*: scatter-gather decodes each shard from its
own worker thread, so page-read stalls that serialise on the unsharded
engine run concurrently — pure-Python alignment time is GIL-bound and
does not speed up, which is why the gate is end-to-end wall clock, not
CPU.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharding.py            # full run
    PYTHONPATH=src python benchmarks/bench_sharding.py --smoke    # CI gate

Results land in ``BENCH_sharding.json`` (committed, machine-readable)
and ``results/sharding.txt``.  ``--smoke`` runs a reduced workload and
fails (exit 1) when rankings diverge, when the measured 4-shard
speedup falls more than ``--tolerance`` below the committed one, or
when the committed full-run 4-shard speedup is below the 1.3x floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets import dataset, lubm_queries  # noqa: E402
from repro.engine import EngineConfig, SamaEngine  # noqa: E402

#: Same workload subset as ``bench_fig6_response_time.py``.
QUERY_IDS = ["Q1", "Q2", "Q3", "Q5", "Q7"]
SHARD_COUNTS = (1, 2, 4)
#: Arm -> (index layout, execution mode).  The first four arms (and
#: their JSON keys) predate the execution-mode split and keep their
#: historical names so committed speedups stay comparable; the two
#: extra arms re-run the 4-shard layout serial and with process
#: workers.
ARMS = {
    "unsharded": ("unsharded", "threads"),
    "shards1": ("shards1", "threads"),
    "shards2": ("shards2", "threads"),
    "shards4": ("shards4", "threads"),
    "shards4-serial": ("shards4", "serial"),
    "shards4-procs": ("shards4", "procs"),
}
MODES = tuple(ARMS)

#: Simulated physical read cost per 1 KiB page (a disk/remote page
#: store; cf. ``INDEX_PAGE_LATENCY`` in ``repro.evaluation.runner``).
READ_LATENCY = 0.001
PAGE_SIZE = 1024
WORKERS = 4

#: The committed full run must clear this end-to-end speedup at 4
#: shards (the ISSUE's acceptance floor).
SPEEDUP_FLOOR = 1.3

JSON_PATH = REPO_ROOT / "BENCH_sharding.json"
TXT_PATH = REPO_ROOT / "results" / "sharding.txt"


def _engine_config(execution: str):
    """EngineConfig for one arm's execution mode."""
    if execution == "serial":
        return EngineConfig(workers=1, worker_mode="threads")
    return EngineConfig(workers=WORKERS, worker_mode=execution)


def _build_indexes(graph, directory: str) -> dict[str, str]:
    """Build all four index layouts; returns layout -> directory."""
    from repro.index.builder import build_index
    from repro.index.sharded import build_sharded_index
    from repro.index.thesaurus import default_thesaurus

    thesaurus = default_thesaurus()
    layout = {}
    plain_dir = os.path.join(directory, "unsharded")
    index, _ = build_index(graph, plain_dir, thesaurus=thesaurus,
                           page_size=PAGE_SIZE)
    index.close()
    layout["unsharded"] = plain_dir
    for shards in SHARD_COUNTS:
        shard_path = os.path.join(directory, f"shards{shards}")
        index, _ = build_sharded_index(graph, shard_path, shards,
                                       thesaurus=thesaurus,
                                       page_size=PAGE_SIZE)
        index.close()
        layout[f"shards{shards}"] = shard_path
    return layout


def run_bench(triples: int, rounds: int, k: int, seed: int = 0) -> dict:
    graph = dataset("lubm").build(triples, seed=seed)
    queries = [spec for spec in lubm_queries() if spec.qid in QUERY_IDS]

    per_query: dict[str, dict] = {}
    totals = dict.fromkeys(MODES, 0.0)
    with tempfile.TemporaryDirectory(prefix="sama-sharding-") as directory:
        layout = _build_indexes(graph, directory)
        engines = {}
        for mode, (layout_key, execution) in ARMS.items():
            engine = SamaEngine.open(layout[layout_key],
                                     config=_engine_config(execution),
                                     read_latency=READ_LATENCY)
            engine.warm_workers()
            engines[mode] = engine
        try:
            for spec in queries:
                per_query[spec.qid] = {}
                rankings = {}
                for mode, engine in engines.items():
                    samples = []
                    for _ in range(rounds):
                        engine.cold_cache()
                        started = time.perf_counter()
                        result = engine.query(spec.graph, k=k)
                        samples.append(time.perf_counter() - started)
                    rankings[mode] = [(round(answer.score, 9), str(answer))
                                      for answer in result]
                    best = min(samples)
                    per_query[spec.qid][mode] = round(best * 1000, 3)
                    totals[mode] += best
                for mode in MODES[1:]:
                    if rankings[mode] != rankings["unsharded"]:
                        raise SystemExit(
                            f"FATAL: {mode} ranking diverges from the "
                            f"unsharded engine on {spec.qid} — the "
                            f"scatter-gather merge is not "
                            f"order-preserving")
        finally:
            for engine in engines.values():
                engine.close()

    summary = {}
    base_ms = totals["unsharded"] * 1000
    for mode in MODES:
        mode_ms = totals[mode] * 1000
        summary[mode] = {
            "total_ms": round(mode_ms, 3),
            "speedup": round(base_ms / mode_ms, 3) if mode_ms else None,
        }
    return {
        "meta": {
            "triples": triples,
            "rounds": rounds,
            "k": k,
            "queries": QUERY_IDS,
            "workers": WORKERS,
            "page_size": PAGE_SIZE,
            "read_latency_s": READ_LATENCY,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "modes": summary,
        "per_query": per_query,
        "rankings_identical": True,
    }


def render_report(report: dict) -> str:
    lines = []
    meta = report["meta"]
    lines.append("Sharding A/B benchmark (scatter-gather vs single shard, "
                 "end-to-end cold-cache wall clock)")
    lines.append(f"LUBM {meta['triples']} triples, queries "
                 f"{', '.join(meta['queries'])}, k={meta['k']}, best of "
                 f"{meta['rounds']} rounds, {meta['workers']} workers, "
                 f"{meta['page_size']} B pages at "
                 f"{meta['read_latency_s'] * 1000:g} ms/read, "
                 f"Python {meta['python']}")
    lines.append("")
    lines.append(f"{'mode':<15} {'total ms':>10} {'speedup':>9}")
    for mode in MODES:
        row = report["modes"][mode]
        lines.append(f"{mode:<15} {row['total_ms']:>10.1f} "
                     f"{row['speedup']:>8.2f}x")
    lines.append("")
    lines.append(f"{'query':<8}" + "".join(f" {mode:>14}" for mode in MODES))
    for qid, modes in report["per_query"].items():
        lines.append(f"{qid:<8}" + "".join(
            f" {modes[mode]:>14.1f}" for mode in MODES))
    lines.append("")
    lines.append("Rankings and scores identical across all shard counts: "
                 f"{report['rankings_identical']}")
    return "\n".join(lines)


def smoke_check(current: dict, committed_path: Path,
                tolerance: float) -> int:
    """Gate the measured 4-shard speedup against the committed run.

    Ratios, not wall-clock, are compared, so the gate is
    machine-independent; the committed (full-size) run must itself
    clear the :data:`SPEEDUP_FLOOR`.
    """
    if not committed_path.exists():
        print(f"smoke: no committed baseline at {committed_path}; "
              "nothing to gate against")
        return 0
    committed = json.loads(committed_path.read_text())
    failures = []
    want = committed["modes"]["shards4"]["speedup"]
    if want < SPEEDUP_FLOOR:
        print(f"smoke: committed full-run 4-shard speedup {want:.2f}x is "
              f"below the {SPEEDUP_FLOOR:.1f}x floor")
        failures.append("committed-floor")
    # Gate the arms both runs have; an arm added to MODES since the
    # committed full-size run has no baseline and is named, not failed.
    skipped = [mode for mode in MODES[1:] if mode not in committed["modes"]]
    if skipped:
        print(f"smoke: no committed baseline for {', '.join(skipped)}; "
              "not gated")
    for mode in MODES[1:]:
        if mode in skipped:
            continue
        want = committed["modes"][mode]["speedup"]
        got = current["modes"][mode]["speedup"]
        floor = want * (1.0 - tolerance)
        status = "ok" if got >= floor else "REGRESSED"
        print(f"smoke: {mode:<14} committed {want:.2f}x, measured "
              f"{got:.2f}x, floor {floor:.2f}x  [{status}]")
        if got < floor:
            failures.append(mode)
    if failures:
        print(f"smoke: FAIL — {', '.join(failures)}")
        return 1
    print("smoke: PASS — rankings identical at every shard count, "
          "speedups within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triples", type=int, default=None,
                        help="LUBM scale (default 3000; 2000 under --smoke "
                             "— below ~1500 triples clusters are too small "
                             "for scatter-gather to engage, so a smaller "
                             "smoke would not exercise the fast path)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="cold rounds per query/mode, best-of "
                             "(default 3; 1 under --smoke)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run; gate the speedup ratios against "
                             "the committed BENCH_sharding.json instead of "
                             "rewriting it")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative speedup regression in smoke "
                             "mode (default 0.30)")
    args = parser.parse_args(argv)

    triples = args.triples or (2000 if args.smoke else 3000)
    rounds = args.rounds or (1 if args.smoke else 3)

    report = run_bench(triples, rounds, args.k)
    print(render_report(report))

    if args.smoke:
        return smoke_check(report, JSON_PATH, args.tolerance)

    measured = report["modes"]["shards4"]["speedup"]
    if measured < SPEEDUP_FLOOR:
        print(f"\nFAIL: 4-shard end-to-end speedup {measured:.2f}x is "
              f"below the {SPEEDUP_FLOOR:.1f}x floor")
        return 1
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    TXT_PATH.parent.mkdir(exist_ok=True)
    TXT_PATH.write_text(render_report(report) + "\n")
    print(f"\nwrote {JSON_PATH} and {TXT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
