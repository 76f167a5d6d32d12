"""Ablation benchmarks for the §7 extensions: compression and updates.

Quantifies (a) dictionary compression — index bytes and build time of
the label-interned index, against its labels spelled out once per
record — and (b) incremental maintenance — per-triple update cost vs
rebuilding the index from scratch.  Run::

    pytest benchmarks/bench_extensions.py --benchmark-only -s
"""

import io
import os

import pytest

from repro.datasets import dataset
from repro.evaluation.reporting import format_bytes, format_table
from repro.index import build_index
from repro.index.incremental import IncrementalIndex
from repro.index.labels import LABELS_FILE
from repro.storage.serializer import write_term

_SIZES: dict[str, int] = {}


def test_bench_index_build(benchmark, lubm_graph, tmp_path):
    counter = [0]

    def build():
        counter[0] += 1
        directory = str(tmp_path / f"index{counter[0]}")
        index, stats = build_index(lubm_graph, directory)
        stream = io.BytesIO()
        for path in index.all_paths():
            for term in path.nodes + path.edges:
                write_term(stream, term)
        index.close()
        _SIZES["labels.dict"] = os.path.getsize(
            os.path.join(directory, LABELS_FILE))
        _SIZES["spelled"] = len(stream.getvalue())
        return stats

    stats = benchmark.pedantic(build, rounds=2, iterations=1)
    _SIZES["index"] = stats.size_bytes
    _SIZES["paths"] = stats.path_count


def test_compression_report(benchmark):
    """Render the report (kept alive under --benchmark-only)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert "index" in _SIZES
    ratio = _SIZES["index"] / _SIZES["spelled"]
    record = (_SIZES["index"] - _SIZES["labels.dict"]) / _SIZES["paths"]
    print()
    print(format_table(
        ["what", "bytes", "rendered"],
        [["labels spelled per record", _SIZES["spelled"],
          format_bytes(_SIZES["spelled"])],
         ["index (paths.log + labels.dict)", _SIZES["index"],
          format_bytes(_SIZES["index"])],
         ["labels.dict", _SIZES["labels.dict"],
          format_bytes(_SIZES["labels.dict"])],
         ["paths.log per record", round(record, 1), f"{record:.1f} B"],
         ["ratio", round(ratio, 3), f"{ratio:.1%}"]],
        title="Dictionary compression (LUBM index)"))
    # The whole point: at least 3x smaller.
    assert ratio < 1 / 3


@pytest.fixture(scope="module")
def update_batch():
    """Fresh triples to insert: a new department's worth of LUBM data."""
    extra = dataset("lubm").build(300, seed=99)
    return list(extra.triples())


def test_bench_incremental_updates(benchmark, tmp_path, update_batch):
    base = dataset("lubm").build(1500, seed=0)
    index = IncrementalIndex(base.copy(), str(tmp_path / "inc"))
    batch = iter(update_batch)

    def insert_one():
        triple = next(batch)
        index.add_triple(*triple)

    benchmark.pedantic(insert_one, rounds=50, iterations=1)
    assert index.stats.triples_added >= 50
    print(f"\nincremental stats: {index.stats}")


def test_bench_full_rebuild_for_contrast(benchmark, tmp_path, update_batch):
    base = dataset("lubm").build(1500, seed=0)
    graph = base.copy()
    for triple in update_batch[:50]:
        graph.add_triple(*triple)
    counter = [0]

    def rebuild():
        counter[0] += 1
        index, stats = build_index(graph,
                                   str(tmp_path / f"rb{counter[0]}"))
        index.close()
        return stats

    benchmark.pedantic(rebuild, rounds=2, iterations=1)
