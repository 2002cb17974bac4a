"""Command-line interface: subcommands, formats, exit codes."""

import json
import subprocess
import sys

import pytest

import gslogic.cli
from gslogic import parse_edge_list


def run_cli(*args, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "gslogic.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
    )


def test_gen_path_to_stdout():
    res = run_cli("gen", "path", "5")
    assert res.returncode == 0
    assert res.stdout.startswith("5 4\n")
    g = parse_edge_list(res.stdout)
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_gen_grid_zero_is_usage_error():
    res = run_cli("gen", "grid", "0")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error:")
    assert res.stderr.count("\n") == 1


def test_gen_unknown_kind_rejected_by_argparse():
    res = run_cli("gen", "moebius", "3")
    assert res.returncode == 2


def test_gen_json_output():
    res = run_cli("gen", "path", "3", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["n"] == 3 and payload["m"] == 2
    assert payload["edges"] == [[0, 1], [1, 2]]


def test_gen_to_file_round_trips(tmp_path):
    out = tmp_path / "g.edges"
    res = run_cli("gen", "grid", "3", "-o", str(out))
    assert res.returncode == 0 and res.stdout == ""
    res2 = run_cli("rankwidth", str(out), "--format", "json")
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["width"] == 2


def test_gen_output_accepted_via_stdin():
    gen = run_cli("gen", "cycle", "5")
    res = run_cli("cutrank", "-", "--side", "0,1", stdin=gen.stdout)
    assert res.returncode == 0
    assert "cut-rank" in res.stdout


def test_rankwidth_exact_json():
    res = run_cli("rankwidth", "path:6", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["width"] == 1
    assert payload["method"] == "exact"
    decomp = payload["decomposition"]
    assert set(decomp) == {"n", "edges", "leaf_labels"}
    assert decomp["n"] == 6
    assert len(decomp["edges"]) == 2 * 6 - 3


def test_rankwidth_text_mentions_width():
    res = run_cli("rankwidth", "path:6")
    assert res.returncode == 0
    assert "width: 1" in res.stdout


def test_rankwidth_refuses_large_graph():
    res = run_cli("rankwidth", "grid:5")
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_rankwidth_cap_flag():
    res = run_cli("rankwidth", "path:6", "--exact-cap", "5")
    assert res.returncode == 3
    res2 = run_cli("rankwidth", "path:5", "--exact-cap", "5", "--format", "json")
    assert res2.returncode == 0


def test_rankwidth_greedy_on_long_path():
    res = run_cli("rankwidth", "--greedy", "path:50", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["width"] == 1 and payload["method"] == "greedy"


def test_rankwidth_exact_and_greedy_conflict():
    res = run_cli("rankwidth", "path:4", "--exact", "--greedy")
    assert res.returncode == 2


def test_rankwidth_tiny_graph_has_null_decomposition():
    res = run_cli("rankwidth", "path:1", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["width"] == 0 and payload["decomposition"] is None


def test_cutrank_values():
    res = run_cli("cutrank", "grid:3", "--side", "0,1,2", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["cut_rank"] == 3
    assert payload["side"] == [0, 1, 2]
    res2 = run_cli("cutrank", "grid:3", "--side", "", "--format", "json")
    assert json.loads(res2.stdout)["cut_rank"] == 0


def test_cutrank_bad_side():
    assert run_cli("cutrank", "grid:3", "--side", "0,x").returncode == 2
    assert run_cli("cutrank", "grid:3", "--side", "0,99").returncode == 2


def test_check_named_single_graph():
    res = run_cli("check", "--named", "two_colorable", "cycle:3",
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdicts"] == [False]
    assert payload["holds"] is False
    assert payload["witness_index"] == 0


def test_check_formula_on_edgeless_graph(tmp_path):
    f = tmp_path / "empty.edges"
    f.write_text("3 0\n")
    res = run_cli("check", "exists x. exists y. edge(x, y)", str(f),
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdicts"] == [False]


def test_check_family_verdicts():
    res = run_cli("check", "--named", "two_colorable",
                  "path:2", "path:3", "path:4", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["verdicts"] == [True, True, True]
    assert payload["holds"] is True
    assert payload["witness_index"] is None
    res2 = run_cli("check", "--named", "two_colorable",
                   "path:3", "cycle:5", "path:4")
    assert res2.returncode == 0
    assert "family: false (first failure at index 1)" in res2.stdout


def test_check_usage_errors():
    assert run_cli("check", "x = x").returncode == 2  # formula but no graph
    res = run_cli("check", "--named", "nope", "path:3")
    assert res.returncode == 2
    assert "unknown formula" in res.stderr
    res = run_cli("check", "edge(x, y", "path:3")
    assert res.returncode == 2
    assert "position" in res.stderr


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(graph, formula):
        raise KeyError("unbound variable")

    monkeypatch.setattr(gslogic.cli, "evaluate", broken)
    with pytest.raises(KeyError):
        gslogic.cli.main(["check", "--named", "connected", "path:3"])


def test_cli_import_leaves_numpy_out():
    code = "import sys, gslogic.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


def test_check_text_output_lists_graphs():
    res = run_cli("check", "--named", "connected", "path:3", "cycle:4")
    assert "graph[0] path:3 (n=3): true" in res.stdout
    assert "graph[1] cycle:4 (n=4): true" in res.stdout
    assert "family: true" in res.stdout


def test_simulate_single_vertex_x():
    res = run_cli("simulate", "complete:1", "--pattern", "0:X",
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["transcript"] == [
        {"qubit": 0, "basis": "X", "outcome": 1, "probability": 1.0}
    ]


def test_simulate_probabilities_are_stabilizer_valued():
    res = run_cli("simulate", "grid:3", "--pattern",
                  "0:Z,4:X,8:Y,2:Z", "--seed", "11", "--format", "json")
    payload = json.loads(res.stdout)
    for rec in payload["transcript"]:
        assert rec["probability"] in (0.5, 1.0)
        assert rec["outcome"] in (1, -1)


def test_simulate_seed_determinism():
    args = ("simulate", "cycle:6", "--pattern", "0:Z,1:X,2:Y,3:Z",
            "--seed", "42", "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_simulate_bad_patterns():
    assert run_cli("simulate", "path:3", "--pattern", "0:Q").returncode == 2
    assert run_cli("simulate", "path:3", "--pattern", "0Z").returncode == 2
    assert run_cli("simulate", "path:3", "--pattern", "0:Z,0:X").returncode == 2
    assert run_cli("simulate", "path:3", "--pattern", "7:Z").returncode == 2


def test_trees_count():
    res = run_cli("trees-count", "7", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload == {"count": 945, "leaves": 7, "method": "formula"}
    res2 = run_cli("trees-count", "6", "--enumerate", "--format", "json")
    payload2 = json.loads(res2.stdout)
    assert payload2["count"] == 105 and payload2["method"] == "enumeration"


def test_trees_count_enumerate_refusal():
    res = run_cli("trees-count", "12", "--enumerate")
    assert res.returncode == 3
    assert run_cli("trees-count", "12").returncode == 0


def test_trees_count_needs_two_leaves():
    assert run_cli("trees-count", "1").returncode == 2


def test_graph_file_parse_error(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 1\n9 9\n")
    res = run_cli("rankwidth", str(bad))
    assert res.returncode == 2
    assert "line 2" in res.stderr


def test_missing_file_is_usage_error():
    res = run_cli("rankwidth", "/nonexistent/file.edges")
    assert res.returncode == 2


def test_usage_errors_from_argparse():
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("rankwidth", "path:4", "--format", "yaml").returncode == 2


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("rankwidth", "--help").returncode == 0


@pytest.mark.parametrize("source,n", [("path:4", 4), ("binary_tree:2", 7)])
def test_generator_spec_sources(source, n):
    res = run_cli("cutrank", source, "--side", "0", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["n"] == n
