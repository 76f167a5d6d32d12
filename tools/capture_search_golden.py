"""Capture the search trajectory golden of ``tests/test_search_golden.py``.

    PYTHONPATH=src python tools/capture_search_golden.py   # rewrites the JSON

For the 12 LUBM templates over a LUBM 1500 (seed 1) index — single
shard and a 2-shard reshard, ``quotient="auto"`` and ``"off"`` — record
the ranking, the search effort counters and the head of every cluster.
The committed JSON was captured at commit ``d6c0648``, before the
per-epoch path columns touched ``src/``; the test replays :func:`capture`
and requires equality, so rankings *and* the search trajectory stay
pinned.  Rankings and counters agree across all four variants (the
bit-identity contract) and cluster heads across quotient modes (gids
differ between layouts), so :func:`fold` stores each once.
"""

from __future__ import annotations

import json
import os
import tempfile

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "data",
                      "search_golden.json")


def capture(workdir: str) -> dict:
    from repro.datasets import dataset, lubm_queries
    from repro.engine import EngineConfig, SamaEngine
    from repro.index import build_index
    from repro.index.sharded import reshard
    from repro.quotient import build_quotients

    single = os.path.join(workdir, "single")
    double = os.path.join(workdir, "double")
    index, _stats = build_index(dataset("lubm").build(1500, seed=1), single)
    build_quotients(index)
    index.close()
    resharded = reshard(single, 2, output=double)
    build_quotients(resharded)
    resharded.close()
    golden = {}
    for layout, directory in (("shards1", single), ("shards2", double)):
        for quotient in ("auto", "off"):
            engine = SamaEngine.open(directory,
                                     EngineConfig(quotient=quotient))
            try:
                for spec in lubm_queries():
                    prepared = engine.prepare(spec.sparql)
                    clusters = engine.clusters(prepared)
                    answers = engine.query(spec.sparql, k=10)
                    result = engine.last_result
                    golden[f"{layout}/{quotient}/{spec.qid}"] = {
                        "ranking": [[round(answer.score, 9), str(answer)]
                                    for answer in answers],
                        "expansions": result.expansions,
                        "generated": result.generated,
                        "forced_emissions": result.forced_emissions,
                        "clusters": [
                            [len(cluster),
                             [[entry.score, entry.offset]
                              for entry in cluster.entries[:5]]]
                            for cluster in clusters],
                    }
            finally:
                engine.close()
    return golden


def expected(golden: dict, variant: str) -> dict:
    """What ``capture()[variant]`` must equal, read from a folded golden."""
    layout, _quotient, qid = variant.split("/")
    return {**golden[qid], "clusters": golden[qid]["clusters"][layout]}


def fold(captured: dict) -> dict:
    """One record per template; raises if the variants disagree."""
    golden: dict = {}
    for variant, record in sorted(captured.items()):
        layout, _quotient, qid = variant.split("/")
        folded = golden.setdefault(qid, {**record, "clusters": {}})
        folded["clusters"].setdefault(layout, record["clusters"])
        if expected(golden, variant) != record:
            raise SystemExit(f"{variant} disagrees with its sibling variants")
    return golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="sama-golden-") as scratch:
        captured = capture(scratch)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fold(captured), handle, separators=(",", ":"),
                  sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(captured)} trajectories to {os.path.normpath(GOLDEN)}")
