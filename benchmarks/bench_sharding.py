"""Sharding benchmark: every shard layout against the single-shard engine.

Times the Fig. 6 LUBM workload end-to-end (cold cache every round)
over the *same* graph stored four ways: one plain ``PathIndex``
(``unsharded``) and a ``ShardedIndex`` at 1, 2 and 4 shards scored
in-process — plus, on the 4-shard layout, a ``procs`` arm
(``worker_mode="procs"``, one scoring process per shard; DESIGN.md §11
has the in-memory numbers of that mode).  All arms must produce
bit-identical rankings and scores on all twelve LUBM templates — the
run aborts otherwise; the ranking guarantee is the point of the
deterministic ``(λ, gid)`` merge in ``repro.engine.clustering`` and of
lookups that pick one match tier for the whole index.  Only the five
Fig. 6 templates are timed.

The indexes are RAM-resident (no simulated read latency): what
sharding buys is fault isolation and, in procs mode, scoring outside
the coordinator's GIL — not overlapped page reads, so the timings are
a record, not a gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharding.py            # full run
    PYTHONPATH=src python benchmarks/bench_sharding.py --smoke    # CI gate

Results land in ``BENCH_sharding.json`` (committed, machine-readable)
and ``results/sharding.txt``.  ``--smoke`` runs a reduced workload,
writes nothing, and fails (exit 1) when rankings diverge.
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

#: The timed subset, the same as ``bench_fig6_response_time.py``'s;
#: rankings are compared on every template of ``lubm_queries()``.
QUERY_IDS = ["Q1", "Q2", "Q3", "Q5", "Q7"]
SHARD_COUNTS = (1, 2, 4)
#: Arm -> (index layout, ``worker_mode``).
ARMS = {
    "unsharded": ("unsharded", None),
    "shards1": ("shards1", None),
    "shards2": ("shards2", None),
    "shards4": ("shards4", None),
    "shards4-procs": ("shards4", "procs"),
}
MODES = tuple(ARMS)

JSON_PATH = REPO_ROOT / "BENCH_sharding.json"
TXT_PATH = REPO_ROOT / "results" / "sharding.txt"


def _build_indexes(graph, directory: str) -> dict[str, str]:
    """Build all four index layouts; returns layout -> directory."""
    from repro.index.builder import build_index
    from repro.index.sharded import build_sharded_index
    from repro.index.thesaurus import default_thesaurus

    thesaurus = default_thesaurus()
    layout = {}
    plain_dir = os.path.join(directory, "unsharded")
    index, _ = build_index(graph, plain_dir, thesaurus=thesaurus)
    index.close()
    layout["unsharded"] = plain_dir
    for shards in SHARD_COUNTS:
        shard_path = os.path.join(directory, f"shards{shards}")
        index, _ = build_sharded_index(graph, shard_path, shards,
                                       thesaurus=thesaurus)
        index.close()
        layout[f"shards{shards}"] = shard_path
    return layout


def run_bench(triples: int, rounds: int, k: int, seed: int = 0) -> dict:
    graph = dataset("lubm").build(triples, seed=seed)
    queries = lubm_queries()

    per_query: dict[str, dict] = {}
    totals = dict.fromkeys(MODES, 0.0)
    with tempfile.TemporaryDirectory(prefix="sama-sharding-") as directory:
        layout = _build_indexes(graph, directory)
        engines = {}
        for mode, (layout_key, worker_mode) in ARMS.items():
            engine = SamaEngine.open(
                layout[layout_key],
                config=EngineConfig(worker_mode=worker_mode))
            engine.warm_workers()
            engines[mode] = engine
        try:
            for spec in queries:
                timed = spec.qid in QUERY_IDS
                if timed:
                    per_query[spec.qid] = {}
                rankings = {}
                for mode, engine in engines.items():
                    samples = []
                    for _ in range(rounds if timed else 1):
                        engine.cold_cache()
                        started = time.perf_counter()
                        result = engine.query(spec.graph, k=k)
                        samples.append(time.perf_counter() - started)
                    rankings[mode] = [(round(answer.score, 9), str(answer))
                                      for answer in result]
                    if timed:
                        best = min(samples)
                        per_query[spec.qid][mode] = round(best * 1000, 3)
                        totals[mode] += best
                for mode in MODES[1:]:
                    if rankings[mode] != rankings["unsharded"]:
                        raise SystemExit(
                            f"FATAL: {mode} ranking diverges from the "
                            f"unsharded engine on {spec.qid} — the "
                            f"sharded lookup or merge depends on the layout")
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
            "identity_queries": [spec.qid for spec in queries],
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
    lines.append("Sharding benchmark (in-process and procs vs single "
                 "shard, end-to-end cold-cache wall clock)")
    lines.append(f"LUBM {meta['triples']} triples, queries "
                 f"{', '.join(meta['queries'])}, k={meta['k']}, best of "
                 f"{meta['rounds']} rounds, RAM-resident, "
                 f"Python {meta['python']}, {meta['cpu_count']} CPUs")
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
    lines.append(f"Rankings and scores identical across all shard counts "
                 f"on {', '.join(meta['identity_queries'])}: "
                 f"{report['rankings_identical']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triples", type=int, default=None,
                        help="LUBM scale (default 3000; 2000 under --smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="cold rounds per query/mode, best-of "
                             "(default 3; 1 under --smoke)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run that only checks rankings; "
                             "BENCH_sharding.json is not rewritten")
    args = parser.parse_args(argv)

    triples = args.triples or (2000 if args.smoke else 3000)
    rounds = args.rounds or (1 if args.smoke else 3)

    report = run_bench(triples, rounds, args.k)
    print(render_report(report))
    if args.smoke:
        print("smoke: PASS — rankings identical on every template at "
              "every shard count and in procs mode")
        return 0
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    TXT_PATH.parent.mkdir(exist_ok=True)
    TXT_PATH.write_text(render_report(report) + "\n")
    print(f"\nwrote {JSON_PATH} and {TXT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
