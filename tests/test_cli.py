"""Tests for the ``sama`` command-line interface."""

import pytest

from repro.cli import main
from repro.rdf import ntriples


@pytest.fixture
def data_file(tmp_path, govtrack):
    path = tmp_path / "gov.nt"
    ntriples.write_file(govtrack.triples(), path)
    return str(path)


@pytest.fixture
def built_index(tmp_path, data_file):
    directory = str(tmp_path / "idx")
    assert main(["index", data_file, directory]) == 0
    return directory


QUERY = ('PREFIX gov: <http://example.org/govtrack/> '
         'SELECT ?v WHERE { ?v gov:gender "Male" . }')


class TestGenerate:
    def test_generate_writes_ntriples(self, tmp_path, capsys):
        out = str(tmp_path / "lubm.nt")
        assert main(["generate", "lubm", out, "--triples", "300"]) == 0
        triples = list(ntriples.parse_file(out))
        assert 200 <= len(triples) <= 300
        assert "wrote" in capsys.readouterr().out

    def test_generate_seeded_deterministic(self, tmp_path):
        a = str(tmp_path / "a.nt")
        b = str(tmp_path / "b.nt")
        main(["generate", "kegg", a, "--triples", "200", "--seed", "5"])
        main(["generate", "kegg", b, "--triples", "200", "--seed", "5"])
        assert open(a).read() == open(b).read()

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", str(tmp_path / "x.nt")])


class TestIndex:
    def test_index_reports_stats(self, data_file, tmp_path, capsys):
        assert main(["index", data_file, str(tmp_path / "i")]) == 0
        out = capsys.readouterr().out
        assert "indexed 14 paths" in out
        assert "|HV| = 17" in out

    def test_index_turtle_input(self, tmp_path, capsys):
        ttl = tmp_path / "data.ttl"
        ttl.write_text('@prefix ex: <http://x/> .\n'
                       'ex:a ex:p ex:b .\nex:b ex:q "leaf" .\n')
        assert main(["index", str(ttl), str(tmp_path / "i")]) == 0
        assert "indexed" in capsys.readouterr().out


class TestReshard:
    def test_reshard_rebuilds_the_quotient_it_found(self, built_index,
                                                    tmp_path, capsys):
        """Resharding renumbers every offset, so the source's
        ``quotient.bin`` cannot be copied — and must not be lost."""
        from repro.engine import SamaEngine
        from repro.index.sharded import ShardedIndex, shard_dir
        from repro.quotient import load_shard_quotient

        dest = str(tmp_path / "idx4")
        assert main(["index", "quotient", built_index]) == 0
        assert main(["index", "sketch", built_index]) == 0
        capsys.readouterr()
        assert main(["index", "reshard", built_index, "--shards", "4",
                     "--output", dest]) == 0
        out = capsys.readouterr().out
        assert "quotient: 14 paths in" in out
        assert f"rerun 'sama index sketch {dest}'" in out
        with ShardedIndex.open(dest) as index:
            for shard_no in range(index.shard_count):
                assert load_shard_quotient(shard_dir(dest, shard_no),
                                           index.epoch) is not None
        engine = SamaEngine.open(dest)
        try:
            assert engine.quotient_resolver() is not None
        finally:
            engine.close()

    def test_reshard_without_sidecars_adds_none(self, data_file, tmp_path,
                                                capsys):
        source, dest = str(tmp_path / "bare"), str(tmp_path / "bare2")
        assert main(["index", "build", data_file, source]) == 0
        capsys.readouterr()
        assert main(["index", "reshard", source, "--shards", "2",
                     "--output", dest]) == 0
        out = capsys.readouterr().out
        assert "quotient" not in out and "sketch" not in out
        assert not list(tmp_path.glob("bare2/shard-*/quotient.bin"))


class TestServeFlags:
    def test_frontend_has_one_value_and_it_is_the_default(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["serve", "d"]).frontend == "asyncio"
        assert parser.parse_args(
            ["serve", "d", "--frontend", "asyncio"]).frontend == "asyncio"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "d", "--frontend", "threads"])

    def test_no_second_server_is_importable(self):
        with pytest.raises(ImportError):
            from repro.serving import serve  # noqa: F401

    @pytest.mark.parametrize("command", ["query", "profile", "serve"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_a_usage_error(self, command, k, capsys):
        """A top-0 query used to answer nothing and exit as if the
        index had no match; now it is refused like any bad flag."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args([command, "d", "-k", k])
        assert raised.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestQuery:
    def test_inline_query(self, built_index, capsys):
        assert main(["query", built_index, "-e", QUERY]) == 0
        out = capsys.readouterr().out
        assert "#1 score=" in out
        assert "?v =" in out

    def test_query_file(self, built_index, tmp_path, capsys):
        query_file = tmp_path / "q.sparql"
        query_file.write_text(QUERY)
        assert main(["query", built_index, str(query_file), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("score=") == 2

    def test_no_query_is_an_error(self, built_index, capsys):
        assert main(["query", built_index]) == 2

    def test_no_answers_exit_code(self, built_index, capsys):
        rc = main(["query", built_index, "-e",
                   'SELECT ?v WHERE { ?v <http://nowhere/p> "ghost" . }'])
        assert rc == 1
        assert "no answers" in capsys.readouterr().out

    def test_explain_renders_forest(self, built_index, capsys):
        assert main(["query", built_index, "--explain", "-e", QUERY]) == 0

    def test_verbose_shows_alignments(self, built_index, capsys):
        assert main(["query", built_index, "-v", "-e", QUERY]) == 0
        assert "->" in capsys.readouterr().out


class TestInspect:
    def test_inspect_metadata(self, built_index, capsys):
        assert main(["inspect", built_index]) == 0
        out = capsys.readouterr().out
        assert "paths: 14" in out
        assert "dataset" in out

    def test_inspect_prints_every_byte_on_disk(self, data_file, tmp_path,
                                               capsys):
        """Each shard's bytes and the directory's, every file counted —
        the same figure ``index build`` reports."""
        import os

        from repro.evaluation.reporting import format_bytes

        def on_disk(directory):
            return format_bytes(sum(
                os.path.getsize(os.path.join(root, name))
                for root, _dirs, names in os.walk(directory)
                for name in names))

        directory = str(tmp_path / "s2")
        assert main(["index", "build", data_file, directory,
                     "--shards", "2"]) == 0
        built = capsys.readouterr().out
        assert main(["inspect", directory]) == 0
        out = capsys.readouterr().out
        for shard_no in range(2):
            shard = os.path.join(directory, f"shard-{shard_no:02d}")
            assert f"{on_disk(shard)} on disk" in out
        assert f"on disk: {on_disk(directory)}" in out
        assert f"({on_disk(directory)} on disk)" in built

    def test_inspect_sample(self, built_index, capsys):
        assert main(["inspect", built_index, "--sample", "3"]) == 0
        out = capsys.readouterr().out
        assert "sample paths:" in out
