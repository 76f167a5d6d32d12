"""Ablation benchmarks on the storage substrate.

Quantifies the design choices DESIGN.md calls out: the buffer pool's
cold/warm gap (what makes Fig. 6a vs 6b differ) and the cost of the
path record codec (label ids in the index's ``labels.dict``).  Run::

    pytest benchmarks/bench_storage.py --benchmark-only -s
"""

import pytest

from repro.index.labels import LabelInterner
from repro.paths.model import Path
from repro.rdf.terms import URI
from repro.storage.pagestore import PageStore
from repro.storage.recordfile import RecordFile


def _path(length: int) -> Path:
    return Path([URI(f"http://x/node{i}") for i in range(length)],
                [URI(f"http://x/edge{i}") for i in range(length - 1)],
                node_ids=list(range(length)))


@pytest.fixture(scope="module")
def populated_log(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-storage")
    store = PageStore(directory / "log.db", page_size=4096)
    log = RecordFile(store)
    blob = LabelInterner().encode_path(_path(6))
    offsets = [log.append(blob) for _ in range(2000)]
    log.seal()
    return log, offsets


def test_bench_cold_reads(benchmark, populated_log):
    log, offsets = populated_log

    def cold():
        log.pool.clear()
        for offset in offsets[:500]:
            log.read(offset)

    benchmark(cold)


def test_bench_warm_reads(benchmark, populated_log):
    log, offsets = populated_log
    for offset in offsets[:500]:
        log.read(offset)

    def warm():
        for offset in offsets[:500]:
            log.read(offset)

    benchmark(warm)
    assert log.pool.stats.hit_ratio > 0.5


def test_bench_encode_path(benchmark):
    interner = LabelInterner()
    path = _path(8)
    interner.encode_path(path)  # labels known, as for most build writes
    benchmark(interner.encode_path, path)


def test_bench_decode_path(benchmark):
    interner = LabelInterner()
    path = _path(8)
    blob = interner.encode_path(path)
    assert interner.decode_path(blob) == path
    benchmark(interner.decode_path, blob)
