"""Quotient-compressed scoring benchmark: one alignment per class.

Runs the Fig. 9 LUBM workload against sharded indexes carrying
persisted equality-pattern quotients (``sama index quotient``) and
measures the two claims the subsystem makes:

* **quotients are free of risk** — rankings and scores are
  bit-identical to the unquotiented engine at every shard count, scored
  in-process and in procs-mode worker processes, and with the two-stage
  sketch filter off or in safe mode.  The run aborts on the
  first divergence.
* **classes actually compress** — LUBM's schema-regular paths collapse
  into a small set of equality patterns, so the stored-paths-per-class
  ratio must clear :data:`COMPRESSION_FLOOR` (the ISSUE's acceptance
  criterion: at least 2x on LUBM 3000; the measured ratio is orders of
  magnitude higher).  Representative-vs-member work is recorded from
  the engine's own ``sama_quotient_reps_total`` /
  ``sama_quotient_members_total`` counters, so the numbers are exactly
  what serving telemetry reports.

Wall-clock per arm is recorded for context; only identity and
compression are gated (speed is measured by ``benchmarks/e2e``).

Usage::

    PYTHONPATH=src python benchmarks/bench_quotient.py            # full run
    PYTHONPATH=src python benchmarks/bench_quotient.py --smoke    # CI gate

Results land in ``BENCH_quotient.json`` (committed, machine-readable)
and ``results/quotient.txt``.  The full run refuses to write artifacts
when any arm diverges or compression falls below
:data:`COMPRESSION_FLOOR`; ``--smoke`` runs a reduced workload and
fails on divergence, on a ratio below the same absolute floor, or when
the committed full run stops clearing its own floor.
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
from repro.obs import get_registry  # noqa: E402

#: Same workload subset as ``bench_twostage.py``.
QUERY_IDS = ["Q1", "Q2", "Q3", "Q5", "Q7"]
#: The acceptance matrix: {1, 4} shards x {in-process, procs} x
#: {off, safe} two-stage modes, every arm bit-identical (the in-process
#: arm with the sketch filter off is ``-quotient-serial``).
SHARD_COUNTS = (1, 4)
WORKER_MODES = ("procs",)
TWO_STAGE_MODES = ("off", "safe")


#: Stored paths per equivalence class the committed full run (LUBM
#: 3000) and every smoke run must clear.
COMPRESSION_FLOOR = 2.0

JSON_PATH = REPO_ROOT / "BENCH_quotient.json"
TXT_PATH = REPO_ROOT / "results" / "quotient.txt"

COUNTER_REPS = "sama_quotient_reps_total"
COUNTER_MEMBERS = "sama_quotient_members_total"


def _config(quotient: str, worker_mode: "str | None" = None,
            two_stage: str = "off") -> EngineConfig:
    return EngineConfig(quotient=quotient, worker_mode=worker_mode,
                        two_stage=two_stage)


def _ranking(engine, spec, k: int) -> list:
    return [(round(answer.score, 9), str(answer))
            for answer in engine.query(spec.graph, k=k)]


def _timed_rankings(engine, queries, k: int, rounds: int):
    """Best-of-``rounds`` cold-cache total plus the final rankings.

    One untimed pass first: the loaded quotients, memoised match sets
    and columnar caches are steady-state serving structures, not
    per-query work.
    """
    for spec in queries:
        engine.query(spec.graph, k=k)
    samples = []
    rankings = {}
    for _ in range(rounds):
        engine.cold_cache()
        started = time.perf_counter()
        for spec in queries:
            rankings[spec.qid] = _ranking(engine, spec, k)
        samples.append(time.perf_counter() - started)
    return min(samples), rankings


def _counter(snapshot: dict, name: str) -> float:
    return float(snapshot.get(name, 0))


def run_bench(triples: int, rounds: int, k: int, seed: int = 0) -> dict:
    from repro.index import build_index
    from repro.index.thesaurus import default_thesaurus
    from repro.quotient import QuotientIndex, build_quotients
    from repro.sketch import build_sketches

    graph = dataset("lubm").build(triples, seed=seed)
    queries = [spec for spec in lubm_queries() if spec.qid in QUERY_IDS]
    thesaurus = default_thesaurus()

    reference: dict[str, list] = {}
    arms: dict[str, float] = {}
    compression: dict[str, dict] = {}
    sharing: dict = {}
    with tempfile.TemporaryDirectory(prefix="sama-quotient-") as directory:
        for shards in SHARD_COUNTS:
            shard_path = os.path.join(directory, f"shards{shards}")
            index, _ = build_index(graph, shard_path, shards=shards,
                                   thesaurus=thesaurus)
            build_sketches(index)
            build_quotients(index)
            quotients = QuotientIndex.for_index(index)
            if quotients is None:
                raise SystemExit(
                    f"FATAL: shards{shards} has no loadable quotients")
            compression[f"shards{shards}"] = {
                "paths": quotients.path_count,
                "classes": quotients.class_count,
                "ratio": round(quotients.compression_ratio, 2),
            }
            index.close()

            # Unquotiented exhaustive reference for this shard count.
            engine = SamaEngine.open(shard_path,
                                     config=_config("off"))
            total, rankings = _timed_rankings(engine, queries, k, rounds)
            engine.close()
            arms[f"shards{shards}-unquotiented"] = total
            for qid, ranking in rankings.items():
                if qid not in reference:
                    reference[qid] = ranking
                elif ranking != reference[qid]:
                    raise SystemExit(
                        f"FATAL: unquotiented shards{shards} ranking "
                        f"diverges on {qid} — sharding changed the answer")

            # The quotiented serial arm (and the rep/member counters).
            engine = SamaEngine.open(shard_path, config=_config("auto"))
            try:
                if engine.quotient_resolver() is None:
                    raise SystemExit(
                        f"FATAL: shards{shards} engine loaded no quotients")
                before = get_registry().snapshot()
                total, rankings = _timed_rankings(engine, queries, k,
                                                  rounds)
                after = get_registry().snapshot()
            finally:
                engine.close()
            arms[f"shards{shards}-quotient-serial"] = total
            for qid, ranking in rankings.items():
                if ranking != reference[qid]:
                    raise SystemExit(
                        f"FATAL: shards{shards}-quotient-serial diverges "
                        f"on {qid} — quotients changed the answer")
            reps = (_counter(after, COUNTER_REPS)
                    - _counter(before, COUNTER_REPS))
            members = (_counter(after, COUNTER_MEMBERS)
                       - _counter(before, COUNTER_MEMBERS))
            sharing[f"shards{shards}"] = {
                "reps": int(reps),
                "members": int(members),
                "share_rate": round(members / max(1.0, reps + members), 4),
            }

            # Procs arms, sketch filter off and in safe mode.
            for worker_mode in WORKER_MODES:
                for two_stage in TWO_STAGE_MODES:
                    arm = (f"shards{shards}-quotient-{worker_mode}"
                           f"-sketch_{two_stage}")
                    engine = SamaEngine.open(shard_path, config=_config(
                        "auto", worker_mode=worker_mode,
                        two_stage=two_stage))
                    if worker_mode == "procs":
                        engine.warm_workers()
                    try:
                        total, rankings = _timed_rankings(
                            engine, queries, k, rounds)
                    finally:
                        engine.close()
                    arms[arm] = total
                    for qid, ranking in rankings.items():
                        if ranking != reference[qid]:
                            raise SystemExit(
                                f"FATAL: {arm} ranking diverges on {qid} "
                                f"— quotients changed the answer")

    for arm, total in arms.items():
        arms[arm] = round(total, 4)
    ratios = [row["ratio"] for row in compression.values()]
    return {
        "meta": {
            "triples": triples,
            "rounds": rounds,
            "k": k,
            "queries": QUERY_IDS,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "identical": True,
        "compression": dict(compression,
                            min_ratio=round(min(ratios), 2)),
        "sharing": sharing,
        "total_s": arms,
    }


def render_report(report: dict) -> str:
    meta = report["meta"]
    lines = []
    lines.append("Quotient-compressed scoring benchmark (one alignment "
                 "per equivalence class)")
    lines.append(f"LUBM {meta['triples']} triples, queries "
                 f"{', '.join(meta['queries'])}, k={meta['k']}, best of "
                 f"{meta['rounds']} rounds, Python {meta['python']}, "
                 f"{meta['cpu_count']} CPUs")
    lines.append("")
    lines.append(f"{'arm':<38} {'total s':>9}")
    for arm, total in report["total_s"].items():
        lines.append(f"{arm:<38} {total:>9.3f}")
    lines.append("")
    for name, row in report["compression"].items():
        if name == "min_ratio":
            continue
        lines.append(f"{name}: {row['paths']} paths -> {row['classes']} "
                     f"classes ({row['ratio']:.1f}x compression)")
    for name, row in report["sharing"].items():
        lines.append(f"{name}: {row['reps']} representatives aligned, "
                     f"{row['members']} members copied "
                     f"({100 * row['share_rate']:.1f}% shared)")
    lines.append("")
    lines.append("Quotiented rankings bit-identical to the unquotiented "
                 "engine at every shard count, worker mode and sketch "
                 f"mode: {report['identical']}")
    return "\n".join(lines)


def smoke_check(current: dict, committed_path: Path) -> int:
    """Gate identity and compression.

    Identity already gated hard inside :func:`run_bench` (the run
    aborts on the first divergent arm); here the compression ratio is
    checked against the absolute floor — ratios, not wall-clock, so
    the gate is machine-independent — and the committed full run must
    itself still clear the same floor.
    """
    failures = []
    ratio = current["compression"]["min_ratio"]
    status = "ok" if ratio >= COMPRESSION_FLOOR else "BELOW FLOOR"
    print(f"smoke: min compression {ratio:.2f}x, floor "
          f"{COMPRESSION_FLOOR:.1f}x  [{status}]")
    if ratio < COMPRESSION_FLOOR:
        failures.append("compression")
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        want = committed["compression"]["min_ratio"]
        if want < COMPRESSION_FLOOR:
            print(f"smoke: committed full run ({want:.2f}x) is below the "
                  f"{COMPRESSION_FLOOR:.1f}x floor")
            failures.append("committed-floor")
        if not committed.get("identical", False):
            print("smoke: committed full run did not record identity")
            failures.append("committed-identity")
    else:
        print(f"smoke: no committed baseline at {committed_path}; "
              "gating on the absolute floor only")
    if failures:
        print(f"smoke: FAIL — {', '.join(failures)}")
        return 1
    print("smoke: PASS — every arm bit-identical, compression above "
          "the floor")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triples", type=int, default=None,
                        help="LUBM scale (default 3000; 1000 under "
                             "--smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="cold rounds per arm, best-of "
                             "(default 2; 1 under --smoke)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run; gate identity and compression "
                             "against the committed BENCH_quotient.json "
                             "instead of rewriting it")
    args = parser.parse_args(argv)

    triples = args.triples or (1000 if args.smoke else 3000)
    rounds = args.rounds or (1 if args.smoke else 2)

    report = run_bench(triples, rounds, args.k)
    print(render_report(report))

    if args.smoke:
        return smoke_check(report, JSON_PATH)

    ratio = report["compression"]["min_ratio"]
    if ratio < COMPRESSION_FLOOR:
        print(f"\nFAIL: compression {ratio:.2f}x is below the "
              f"{COMPRESSION_FLOOR:.1f}x floor")
        return 1
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    TXT_PATH.parent.mkdir(exist_ok=True)
    TXT_PATH.write_text(render_report(report) + "\n")
    print(f"\nwrote {JSON_PATH} and {TXT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
