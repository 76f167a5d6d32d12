"""Chaos benchmark: availability and degradation under shard loss.

Runs the Fig. 6 LUBM workload (cold cache every round) against one
4-shard index while a seeded :class:`FaultPlan` hard-fails a growing
number of shards — once scoring in-process (``deadN``) and once with
``worker_mode="procs"`` (``procs-deadN``) — and measures what the
resilience layer actually buys:

- **availability** — the fraction of queries that return at all
  (complete or degraded) instead of raising.  With fault isolation a
  dead shard's candidates are dropped and the surviving shards' k-way
  merge still answers, so availability should stay at 1.0 while up to
  half the shards are down;
- **degraded fraction** — how many of those answers carry a
  ``SHARD_FAILED`` degradation reason (honesty: losing a shard must be
  *visible*, not silent);
- **breaker effect** — wall-clock per query before and after the dead
  shard's circuit breaker opens.  The first queries pay the storage
  retries that trip the breaker; once open, clustering skips the shard
  and the failure costs nothing per query.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py            # full run
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke    # CI gate

Results land in ``BENCH_chaos.json`` (committed, machine-readable)
and ``results/chaos.txt``.  ``--smoke`` runs a reduced workload and
fails (exit 1) when availability under shard loss drops below
``AVAILABILITY_FLOOR``, when a no-fault run reports any degradation,
or when a faulted run hides the loss (no ``SHARD_FAILED`` reasons).
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
from repro.resilience import FaultPlan, install, uninstall  # noqa: E402
from repro.resilience.budget import DegradationCause  # noqa: E402

#: Same workload subset as ``bench_sharding.py`` / Fig. 6.
QUERY_IDS = ["Q1", "Q2", "Q3", "Q5", "Q7"]
SHARDS = 4
#: Conditions: how many of the 4 shards the plan hard-fails.
DEAD_COUNTS = (0, 1, 2)
#: Condition-name prefix -> ``worker_mode``.
MODES = {"": None, "procs-": "procs"}
SEED = 7

#: Queries must keep answering while a minority of shards is down.
AVAILABILITY_FLOOR = 0.99

JSON_PATH = REPO_ROOT / "BENCH_chaos.json"
TXT_PATH = REPO_ROOT / "results" / "chaos.txt"


def _shard_failed(result) -> bool:
    return any(reason.cause is DegradationCause.SHARD_FAILED
               for reason in result.reasons)


def run_bench(triples: int, rounds: int, k: int, seed: int = 0) -> dict:
    graph = dataset("lubm").build(triples, seed=seed)
    queries = [spec for spec in lubm_queries() if spec.qid in QUERY_IDS]

    conditions: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="sama-chaos-") as directory:
        from repro.index.sharded import build_sharded_index

        index_dir = os.path.join(directory, f"shards{SHARDS}")
        index, _ = build_sharded_index(graph, index_dir, SHARDS)
        index.close()

        for (prefix, worker_mode), dead in ((mode, dead)
                                            for mode in MODES.items()
                                            for dead in DEAD_COUNTS):
            name = f"{prefix}dead{dead}"
            engine = SamaEngine.open(
                index_dir, config=EngineConfig(worker_mode=worker_mode))
            engine.warm_workers()
            plan = FaultPlan(fail_shards=tuple(range(dead)), seed=SEED)
            install(engine, plan)
            attempts = answered = degraded = errors = 0
            latencies: list[float] = []
            try:
                for _ in range(rounds):
                    for spec in queries:
                        engine.cold_cache()
                        attempts += 1
                        started = time.perf_counter()
                        try:
                            result = engine.query(spec.graph, k=k)
                        except Exception:  # unavailability, whatever the type
                            errors += 1
                            continue
                        latencies.append(time.perf_counter() - started)
                        answered += 1
                        if _shard_failed(result):
                            degraded += 1
                trips = sum(row["trips"]
                            for row in engine.index.health.snapshot())
            finally:
                uninstall(engine)
                engine.close()
            latencies.sort()
            conditions[name] = {
                "worker_mode": worker_mode,
                "dead_shards": dead,
                "attempts": attempts,
                "answered": answered,
                "errors": errors,
                "availability": round(answered / attempts, 4),
                "degraded": degraded,
                "degraded_fraction": round(degraded / attempts, 4),
                "breaker_trips": trips,
                "first_query_ms": round(latencies[0] * 1000, 3)
                if latencies else None,
                "median_ms": round(
                    latencies[len(latencies) // 2] * 1000, 3)
                if latencies else None,
            }

    return {
        "meta": {
            "triples": triples,
            "rounds": rounds,
            "k": k,
            "queries": QUERY_IDS,
            "shards": SHARDS,
            "fault_seed": SEED,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "conditions": conditions,
    }


def render_report(report: dict) -> str:
    lines = []
    meta = report["meta"]
    lines.append("Chaos benchmark (availability and degradation under "
                 "hard shard loss)")
    lines.append(f"LUBM {meta['triples']} triples, {meta['shards']} shards, "
                 f"queries {', '.join(meta['queries'])}, k={meta['k']}, "
                 f"{meta['rounds']} cold rounds, seed {meta['fault_seed']}, "
                 f"Python {meta['python']}")
    lines.append("")
    lines.append(f"{'condition':<12} {'avail':>7} {'degraded':>9} "
                 f"{'errors':>7} {'trips':>6} {'median ms':>10}")
    for name, row in report["conditions"].items():
        median = row["median_ms"]
        lines.append(
            f"{name:<12} {row['availability']:>7.4f} "
            f"{row['degraded']:>4}/{row['attempts']:<4} "
            f"{row['errors']:>7} {row['breaker_trips']:>6} "
            f"{median if median is not None else float('nan'):>10.1f}")
    lines.append("")
    lines.append("availability = answered / attempted; a dead minority of "
                 "shards must cost candidates (degraded answers), never "
                 "whole queries (errors).")
    return "\n".join(lines)


def smoke_check(report: dict) -> int:
    """Absolute gates — no committed baseline needed, the floors are
    machine-independent correctness claims, not wall-clock."""
    failures = []
    for name, row in report["conditions"].items():
        if row["dead_shards"] == 0:
            if row["availability"] < 1.0 or row["degraded"]:
                print(f"smoke: fault-free run not clean: {name} {row}")
                failures.append(name)
            continue
        status = "ok"
        if row["availability"] < AVAILABILITY_FLOOR:
            status = "BELOW FLOOR"
            failures.append(f"{name}-availability")
        if row["degraded"] == 0:
            status = "SILENT LOSS"
            failures.append(f"{name}-silent")
        print(f"smoke: {name:<12} availability "
              f"{row['availability']:.4f} (floor "
              f"{AVAILABILITY_FLOOR:.2f}), degraded "
              f"{row['degraded']}/{row['attempts']}  [{status}]")
    if failures:
        print(f"smoke: FAIL — {', '.join(failures)}")
        return 1
    print("smoke: PASS — shard loss degrades answers, never availability")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triples", type=int, default=None,
                        help="LUBM scale (default 3000; 2000 under --smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="cold rounds over the workload "
                             "(default 3; 2 under --smoke)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run; gate availability floors instead "
                             "of rewriting BENCH_chaos.json")
    args = parser.parse_args(argv)

    triples = args.triples or (2000 if args.smoke else 3000)
    rounds = args.rounds or (2 if args.smoke else 3)

    report = run_bench(triples, rounds, args.k)
    print(render_report(report))
    print()

    if args.smoke:
        return smoke_check(report)

    code = smoke_check(report)
    if code:
        return code
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    TXT_PATH.parent.mkdir(exist_ok=True)
    TXT_PATH.write_text(render_report(report) + "\n")
    print(f"\nwrote {JSON_PATH} and {TXT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
