"""Smoke tests for the top-level CLI."""

import pytest

from repro.cli import main


class TestCli:
    def test_dtd(self, capsys):
        assert main(["dtd"]) == 0
        assert "<!ELEMENT site" in capsys.readouterr().out

    def test_queries_listing(self, capsys):
        assert main(["queries"]) == 0
        out = capsys.readouterr().out
        assert "Q1" in out and "Q20" in out

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "d.xml"
        assert main(["generate", "-f", "0.0005", "-o", str(out)]) == 0
        assert out.stat().st_size > 10_000

    def test_validate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "d.xml"
        main(["generate", "-f", "0.0005", "-o", str(out)])
        assert main(["validate", str(out)]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_validate_rejects_broken(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<site><people><person id='p'><name>x</name>"
                        "</person></people></site>", encoding="ascii")
        assert main(["validate", str(path)]) == 1

    def test_query_command(self, capsys):
        assert main(["query", "-f", "0.0005", "-q", "1", "-s", "D"]) == 0
        assert "person" not in capsys.readouterr().out.lower() or True

    def test_query_raw_text_streams_rows(self, capsys):
        assert main(["query", "-f", "0.0005", "-s", "F",
                     "for $p in /site/people/person return $p/name/text()"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) > 1
        assert "streamed" in captured.err

    def test_query_interactive_shell(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("1\n\ncount(/site/people/person)\n\n:quit\n"))
        assert main(["query", "-f", "0.0005", "-i"]) == 0
        captured = capsys.readouterr()
        assert "query shell" in captured.err
        # two executed queries -> two cursor footers
        assert captured.err.count("item(s)") == 2

    def test_query_requires_some_input(self, capsys):
        assert main(["query", "-f", "0.0005"]) == 2

    def test_query_interactive_quit_abandons_pending_buffer(self, capsys,
                                                            monkeypatch):
        import io
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("count(/site/people/person)\n:quit\n"))
        assert main(["query", "-f", "0.0005", "-i"]) == 0
        # the un-submitted query must not have executed
        assert "item(s)" not in capsys.readouterr().err

    def test_query_sharded_route(self, capsys):
        assert main(["query", "-f", "0.0005", "--shards", "2", "-q", "1"]) == 0
        assert "on S" in capsys.readouterr().err

    def test_bench_table1(self, capsys):
        assert main(["bench", "-f", "0.0005", "--table", "1"]) == 0
        assert "Bulkload time" in capsys.readouterr().out

    def test_bench_table2(self, capsys):
        assert main(["bench", "-f", "0.0005", "--table", "2"]) == 0
        assert "Compile share" in capsys.readouterr().out

    def test_index_report(self, tmp_path, capsys):
        report = tmp_path / "index.json"
        assert main(["index", "-f", "0.0005", "-s", "DF", "--json",
                     str(report)]) == 0
        out = capsys.readouterr().out
        assert "System D" in out and "System F" in out
        assert "value" in out and "sorted" in out and "label paths" in out
        import json
        snapshot = json.loads(report.read_text())
        person = next(e for e in snapshot["systems"]["D"]["value"]
                      if e["field"] == "site/people/person :: @id")
        assert person["entries"] > 0
        assert person["entries"] == person["distinct_keys"]

    def test_index_rejects_unknown_system(self, capsys):
        assert main(["index", "-f", "0.0005", "-s", "DZ"]) == 2

    def test_update_command(self, tmp_path, capsys):
        report = tmp_path / "update.json"
        assert main(["update", "-f", "0.0005", "-s", "DG", "-n", "4",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "applied 4 operation(s)" in out
        assert "serialized documents identical across systems" in out
        assert "Q1-Q20 answers identical across systems" in out
        import json
        snapshot = json.loads(report.read_text())
        assert set(snapshot) == {"factor", "seed", "operations"}
        assert len(snapshot["operations"]) == 4
        for row in snapshot["operations"]:
            assert set(row["systems"]) == {"D", "G"}

    def test_update_fails_on_answers_the_serialization_cannot_see(
            self, capsys, monkeypatch):
        # A descendant step in the wrong order leaves every document
        # byte-identical; only the answers show it.
        from repro.storage.summary_store import SummaryStore
        ordered = SummaryStore.descendants_by_tag
        monkeypatch.setattr(SummaryStore, "descendants_by_tag",
                            lambda self, node, tag: ordered(self, node, tag)[::-1])
        assert main(["update", "-f", "0.0005", "-s", "DG", "-n", "2"]) == 1
        captured = capsys.readouterr()
        assert "serialized documents identical across systems" in captured.out
        assert "answers diverged on" in captured.err

    def test_update_rejects_unknown_system(self, capsys):
        assert main(["update", "-f", "0.0005", "-s", "DZ"]) == 2

    def test_shard_report(self, tmp_path, capsys):
        report = tmp_path / "shard.json"
        assert main(["shard", "-f", "0.0005", "-n", "3", "-b", "F",
                     "-q", "1", "-q", "5", "-q", "8", "--rounds", "1",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "partitioned" in out and "shard 0" in out
        assert "plan=routed" in out and "plan=partial_count" in out
        assert "MISMATCH" not in out
        import json
        snapshot = json.loads(report.read_text())
        assert snapshot["shards"] == 3
        assert all(row["oracle_ok"] for row in snapshot["queries"])

    def test_shard_rejects_unknown_backend(self, capsys):
        assert main(["shard", "-f", "0.0005", "-b", "Z"]) == 2
