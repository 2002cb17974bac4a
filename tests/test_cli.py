"""Command-line interface: subcommands, formats, exit codes."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gslogic.cli
from gslogic import parse_edge_list
from test_logic import EVEN_DEGREES

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def test_rankwidth_refuses_large_graph(capsys):
    res = run_cli("rankwidth", "grid:5")
    assert res.returncode == 3
    assert res.stderr.startswith("error:") and "DP table for 25 vertices" in res.stderr
    assert gslogic.cli.main(["rankwidth", "path:21", "--format", "json"]) == 3
    assert "DP table for 21 vertices" in capsys.readouterr().err


def test_rankwidth_answers_up_to_twenty_vertices(capsys):
    assert gslogic.cli.main(["rankwidth", "cycle:13", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["width"] == 2 and payload["method"] == "exact"
    assert payload["decomposition"]["n"] == 13


def test_rankwidth_cap_flag(capsys):
    # the exact search has one size limit and no flag to move it
    for argv in (["gen", "path", "3"], ["rankwidth", "path:3"],
                 ["cutrank", "path:3", "--side", "0"], ["check", "--named", "path2", "path:3"],
                 ["simulate", "path:3", "--pattern", "0:Z"], ["trees-count", "5"]):
        for flag in (["--exact-cap", "12"], ["--exact-cap=30"]):
            assert gslogic.cli.main(argv + flag) == 2, argv + flag
            assert "unrecognized arguments: --exact-cap" in capsys.readouterr().err


def test_rankwidth_greedy_on_long_path():
    res = run_cli("rankwidth", "--greedy", "path:50", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["width"] == 1 and payload["method"] == "greedy"


def test_rankwidth_has_no_exact_flag():
    res = run_cli("rankwidth", "path:4", "--exact")
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr


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


def test_check_cost_follows_the_masked_work(capsys):
    # masked vertex quantifiers put path:10 at cost 132,121,601, below 2^30
    res = run_cli("check", "--named", "two_colorable", "path:10", "--format", "json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdicts"] == [True]
    # the vertex-order DP answers a fragment formula past the cost limit
    argv = ["check", "--named", "two_colorable", "complete:40", "--format", "json"]
    assert gslogic.cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"] == [False]
    # a formula outside the fragment is still refused by its worst-case cost
    assert gslogic.cli.main(["check", EVEN_DEGREES, "complete:40"]) == 3
    assert "evaluation cost" in capsys.readouterr().err


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
    res = run_cli("check", "exists x. " + "(" * 250 + "x = x" + ")" * 250, "path:2")
    assert res.returncode == 2
    assert "position" in res.stderr


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(graph, formula):
        raise KeyError("unbound variable")

    # path2 is checked exhaustively, connected by the vertex-order DP
    monkeypatch.setattr(gslogic.cli, "evaluate", broken)
    with pytest.raises(KeyError):
        gslogic.cli.main(["check", "--named", "path2", "path:3"])
    monkeypatch.setattr(gslogic.cli, "decide", broken)
    with pytest.raises(KeyError):
        gslogic.cli.main(["check", "--named", "connected", "path:3"])


def test_cli_import_leaves_numpy_out():
    # bench/run.py reads gslogic.dense from this -X importtime report
    code = "import sys, gslogic.cli; sys.exit('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0
    modules = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()}
    assert "gslogic.dense" in modules


def test_package_exports_resolve():
    # the dense names resolve through the package's module __getattr__
    assert all(getattr(gslogic, name) is not None for name in gslogic.__all__)
    namespace: dict = {}
    exec("from gslogic import *", namespace)
    assert set(gslogic.__all__) <= set(namespace)


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


def test_simulate_refuses_past_tableau_limit():
    res = run_cli("simulate", "grid:65", "--pattern", "0:Z")
    assert res.returncode == 3
    assert "4096" in res.stderr


def test_simulate_bad_patterns():
    assert run_cli("simulate", "path:3", "--pattern", "0:Q").returncode == 2
    assert run_cli("simulate", "path:3", "--pattern", "0Z").returncode == 2
    assert run_cli("simulate", "path:3", "--pattern", "0:Z,0:X").returncode == 2
    assert run_cli("simulate", "path:3", "--pattern", "7:Z").returncode == 2


def test_pattern_errors_name_the_entry(capsys):
    assert gslogic.cli.main(["simulate", "path:3", "--pattern", "0:Z,,1:X"]) == 2
    assert "bad pattern entry '' (entry 2)" in capsys.readouterr().err
    assert gslogic.cli.main(["simulate", "path:3", "--pattern", "0:Z,1:X,0:Y"]) == 2
    assert "pattern entry 3: qubit 0 measured twice" in capsys.readouterr().err
    assert gslogic.cli.main(["simulate", "path:3", "--pattern", "1:X,7:Z"]) == 2
    assert "pattern entry 2: qubit 7 out of range" in capsys.readouterr().err


def test_options_only_on_the_subcommands_that_read_them():
    assert gslogic.cli.main(["rankwidth", "path:3", "--seed", "3"]) == 2
    assert gslogic.cli.main(["check", "--named", "path2", "path:3", "--greedy"]) == 2
    assert gslogic.cli.main(["simulate", "path:3", "--pattern", "0:Z", "--seed", "3"]) == 0
    assert gslogic.cli.main(["rankwidth", "path:3", "--greedy"]) == 0


def test_non_ascii_digits_are_bad_entries(capsys):
    assert gslogic.cli.main(["simulate", "path:3", "--pattern", "\u00b2:Z"]) == 2
    assert "bad pattern entry '\u00b2:Z'" in capsys.readouterr().err
    assert gslogic.cli.main(["cutrank", "path:3", "--side", "0,\u00b2"]) == 2
    assert "bad vertex '\u00b2' in --side" in capsys.readouterr().err


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


def test_trees_count_refuses_a_count_too_long_to_print(capsys):
    # (2n - 5)!! for n = 1000 has 2,861 digits, for n = 2000 more than the
    # 4,300 that an int may be printed with by default
    assert gslogic.cli.main(["trees-count", "1000", "--format", "json"]) == 0
    count = 1
    for k in range(3, 1001):
        count *= 2 * k - 5
    assert json.loads(capsys.readouterr().out)["count"] == count
    for argv in (["2000"], ["2000", "--format", "json"], ["100000000"]):
        assert gslogic.cli.main(["trees-count", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "decimal digits" in err


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


def test_bench_tracer_wraps_both_check_methods(capsys):
    # bench/tracing.py patches functions by name on gslogic.cli; a rename
    # there would break traced benchmark runs
    spec = importlib.util.spec_from_file_location("tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = gslogic.cli.evaluate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        for argv in (["check", "--named", "two_colorable", "cycle:6"],
                     ["check", "--named", "path2", "path:3", "path:2"]):
            assert gslogic.cli.main(argv + ["--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["holds"] is True
    finally:
        tracer.uninstall()
    assert gslogic.cli.evaluate is original
    assert tracer.calls["logic.evaluate"] == 2  # path2 only
    assert tracer.calls["logic.parse"] == 2
    assert tracer.calls["cli.load_graph"] == 3
    assert tracer.calls["graphs.generate"] == 3
