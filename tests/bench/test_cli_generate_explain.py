"""CLI tests for the generate and explain subcommands."""

import json

import pytest

from repro.cli import main
from repro.graph import save_graph
from repro.workloads.paper_graphs import figure3_example
from repro.workloads.store import load_workload


class TestGenerate:
    def test_writes_workload(self, tmp_path, capsys):
        out = tmp_path / "wl"
        code = main(
            [
                "generate", "--dataset", "yeast", "--scale", "tiny",
                "--count", "2", "--query-sizes", "5", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        data, sets = load_workload(out)
        assert set(sets) == {"q5S", "q5N"}
        assert all(len(qs) == 2 for qs in sets.values())
        assert all(q.num_vertices == 5 for qs in sets.values() for q in qs)
        assert "workload written" in capsys.readouterr().out

    def test_generated_queries_embed(self, tmp_path):
        from repro.core import CFLMatch

        out = tmp_path / "wl"
        main(
            [
                "generate", "--dataset", "hprd", "--scale", "tiny",
                "--count", "1", "--query-sizes", "4", "--out", str(out),
            ]
        )
        data, sets = load_workload(out)
        matcher = CFLMatch(data)
        for queries in sets.values():
            for query in queries:
                assert matcher.count(query, limit=1) >= 1


class TestExplain:
    @pytest.fixture
    def files(self, tmp_path):
        ex = figure3_example()
        dpath, qpath = tmp_path / "d.graph", tmp_path / "q.graph"
        save_graph(ex.data, dpath)
        save_graph(ex.query, qpath)
        return str(dpath), str(qpath)

    def test_explain_renders_plan(self, files, capsys):
        data, query = files
        assert main(["explain", "--data", data, "--query", query]) == 0
        out = capsys.readouterr().out
        assert "CFL-Match plan" in out
        assert "matching order:" in out
        assert "estimated embeddings" in out

    def test_json_execute(self, files, capsys):
        data, query = files
        code = main(
            ["explain", "--data", data, "--query", query, "--execute", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert {"estimated_embeddings", "matching_order", "root", "stages"} <= set(
            payload
        )
        for row in payload["stages"]:
            assert {"stage", "vertices", "estimated_breadth", "actual_expansions"} <= set(row)

    def test_text_breadth_table(self, files, capsys):
        data, query = files
        code = main(["explain", "--data", data, "--query", query, "--execute"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated" in out and "actual" in out
