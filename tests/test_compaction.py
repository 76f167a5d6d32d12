"""Offline compaction (``sama index compact``) and atomic metadata writes."""

import json
import os

import pytest

from repro.cli import main
from repro.engine import SamaEngine
from repro.index.incremental import (IncrementalIndex, MANIFEST_FILE,
                                     compact_directory)
from repro.index.labels import LabelInterner
from repro.rdf.graph import DataGraph
from repro.resilience import IndexCorruptError, ReproError
from repro.storage.atomic import atomic_write_bytes, atomic_write_json
from repro.storage.pagestore import PageStore
from repro.storage.recordfile import RecordFile


def uri(name):
    return f"http://x/{name}"


@pytest.fixture
def dirty_index(tmp_path):
    """An on-disk incremental index carrying tombstoned bytes."""
    graph = DataGraph.from_triples([
        (uri("a"), uri("p"), uri("b")),
        (uri("b"), uri("p"), uri("c")),
        (uri("c"), uri("p"), uri("d")),
    ])
    directory = str(tmp_path / "inc")
    index = IncrementalIndex(graph, directory)
    index.remove_triple(uri("c"), uri("p"), uri("d"))
    assert index.stats.dead_bytes > 0
    paths_before = sorted(str(p) for p in index.all_paths())
    index.save_manifest()
    index.close()
    return directory, paths_before


def _decode_alive(directory):
    """Every alive record of ``directory``'s log, decoded through the
    ``labels.dict`` beside it and nothing else."""
    manifest = json.load(open(os.path.join(directory, MANIFEST_FILE)))
    interner = LabelInterner.load(os.path.join(directory, "labels.dict"))
    store = PageStore(os.path.join(directory, "paths.log"),
                      page_size=manifest["page_size"])
    try:
        records = RecordFile(store)
        return [interner.decode_path(records.read(offset))
                for offset, _root in manifest["alive"]]
    finally:
        store.close()


class TestInternedLog:
    """The live index writes the one record format: a saved directory
    decodes from its own files, before and after compaction."""

    def test_alive_records_decode_to_live_paths(self, dirty_index):
        directory, paths_before = dirty_index
        assert sorted(str(p) for p in _decode_alive(directory)) == \
            paths_before

    def test_updates_after_save_are_decodable(self, tmp_path):
        graph = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
        ])
        directory = str(tmp_path / "inc")
        index = IncrementalIndex(graph, directory)
        index.save_manifest()
        # New labels after the first save must reach labels.dict too.
        index.add_triple(uri("c"), uri("q"), '"fresh literal"')
        index.remove_triple(uri("a"), uri("p"), uri("b"))
        index.save_manifest()
        live = [index.path_at(o) for o in index.all_offsets()]
        decoded = _decode_alive(directory)
        assert decoded == live
        assert [list(p.label_ids) for p in decoded] == \
            [list(p.label_ids) for p in live]
        index.close()

    def test_compacted_records_decode(self, dirty_index, tmp_path):
        directory, paths_before = dirty_index
        out = str(tmp_path / "out")
        compact_directory(directory, output=out)
        compact_directory(directory)
        for compacted in (out, directory):
            assert sorted(str(p) for p in _decode_alive(compacted)) == \
                paths_before

    def test_version_1_manifest_is_refused(self, dirty_index):
        directory, _ = dirty_index
        manifest_path = os.path.join(directory, MANIFEST_FILE)
        manifest = json.load(open(manifest_path))
        manifest["version"] = 1
        atomic_write_json(manifest_path, manifest)
        with pytest.raises(IndexCorruptError, match="unsupported"):
            compact_directory(directory)

    def test_missing_label_dictionary_is_refused(self, dirty_index):
        directory, _ = dirty_index
        os.unlink(os.path.join(directory, "labels.dict"))
        with pytest.raises(IndexCorruptError, match="labels.dict"):
            compact_directory(directory)


class TestCompactDirectory:
    def test_reclaims_dead_bytes_and_keeps_content(self, dirty_index):
        directory, paths_before = dirty_index
        old_size = os.path.getsize(os.path.join(directory, "paths.log"))

        report = compact_directory(directory)
        assert report.dead_bytes > 0
        # The log never grows; shrinkage is page-granular, so a tiny
        # index may stay at one page even after reclaiming records.
        assert report.new_log_bytes <= report.old_log_bytes
        assert report.old_log_bytes == old_size
        assert report.live_paths == len(paths_before)

        manifest = json.load(open(os.path.join(directory, MANIFEST_FILE)))
        assert manifest["dead_bytes"] == 0
        assert len(manifest["alive"]) == report.live_paths

    def test_compacted_index_reopens_with_same_paths(self, dirty_index):
        directory, paths_before = dirty_index
        compact_directory(directory)
        # A second compaction finds nothing to reclaim.
        again = compact_directory(directory)
        assert again.dead_bytes == 0
        assert again.live_paths == len(paths_before)

    def test_compaction_bumps_epoch(self, dirty_index):
        directory, _ = dirty_index
        before = json.load(open(os.path.join(directory, MANIFEST_FILE)))
        compact_directory(directory)
        after = json.load(open(os.path.join(directory, MANIFEST_FILE)))
        assert after["epoch"] > before["epoch"]

    def test_missing_manifest_is_a_typed_error(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        with pytest.raises(ReproError):
            compact_directory(str(tmp_path / "empty"))


class TestManifestsWithEpochVectors:
    """Indexes once kept a per-shard epoch vector beside the scalar
    epoch; directories written that way open and compact unchanged,
    and the vector is ignored."""

    def test_sharded_manifest_with_epochs_opens(self, tmp_path, govtrack,
                                                q1):
        from repro.index import build_sharded_index, reshard
        from repro.index.sharded import ShardedIndex

        directory = str(tmp_path / "gov2")
        build_sharded_index(govtrack, directory, 2)[0].close()
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["epochs"] = [3, 1]
        atomic_write_json(manifest_path, manifest)
        reference = SamaEngine.from_graph(govtrack)
        try:
            want = [(a.score, str(a)) for a in reference.query(q1, k=5)]
        finally:
            reference.close()

        with ShardedIndex.open(directory) as index:
            assert index.epoch == 0 and index.shard_count == 2
        resharded = reshard(directory, 3)
        resharded.close()
        assert "epochs" not in json.load(open(manifest_path))
        engine = SamaEngine.open(directory)
        try:
            assert engine.index.epoch == 0
            assert [(a.score, str(a)) for a in engine.query(q1, k=5)] == want
        finally:
            engine.close()

    def test_incremental_manifest_with_epochs_compacts(self, dirty_index):
        directory, paths_before = dirty_index
        manifest_path = os.path.join(directory, MANIFEST_FILE)
        manifest = json.load(open(manifest_path))
        manifest.update(epoch=3, epochs=[2, 1], shards=2)
        atomic_write_json(manifest_path, manifest)
        report = compact_directory(directory)
        assert report.live_paths == len(paths_before)
        after = json.load(open(manifest_path))
        assert after["epoch"] == 4
        assert "epochs" not in after and "shards" not in after
        assert sorted(str(p) for p in _decode_alive(directory)) == \
            paths_before


class TestCompactCli:
    def test_cli_reports_reclaimed_bytes(self, dirty_index, capsys):
        directory, paths_before = dirty_index
        assert main(["index", "compact", directory]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out
        assert f"{len(paths_before)} live paths" in out

    def test_cli_on_missing_manifest_exits_nonzero(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty")
        assert main(["index", "compact", str(tmp_path / "empty")]) != 0
        assert "error" in capsys.readouterr().err.lower()


class TestAtomicWrites:
    def test_replaces_content_without_leftovers(self, tmp_path):
        target = tmp_path / "labels.dict"
        target.write_bytes(b"old")
        atomic_write_bytes(str(target), b"new contents")
        assert target.read_bytes() == b"new contents"
        assert os.listdir(tmp_path) == ["labels.dict"]

    def test_failure_leaves_original_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "maps.json"
        target.write_text('{"ok": true}')

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_json(str(target), {"ok": False})
        monkeypatch.setattr(os, "replace", real_replace)

        assert json.loads(target.read_text()) == {"ok": True}
        assert os.listdir(tmp_path) == ["maps.json"], "temp file cleaned up"

    def test_index_build_uses_atomic_paths(self, tmp_path, govtrack):
        """labels.dict + maps.json land with no stray temp files."""
        directory = tmp_path / "idx"
        engine = SamaEngine.from_graph(govtrack, directory=str(directory))
        engine.close()
        leftovers = [name for name in os.listdir(directory)
                     if name.endswith(".tmp")]
        assert leftovers == []
