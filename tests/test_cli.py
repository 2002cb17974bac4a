"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import ast
import hashlib
import importlib.util
import inspect
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gslogic.cli
import gslogic.stabilizer
from gslogic import PauliOperator, generate, graph_state_tableau, parse_edge_list, serialize
from conftest import run_with_memory_limit, src_env
from gslogic.errors import _figure
from test_logic import EVEN_DEGREES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run_cli(*args, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "gslogic.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
        env=src_env(),
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


def test_rankwidth_json_documents_do_not_move(capsys):
    # the machine interface, byte for byte; bench/oracles.py reads the
    # trees of these documents through their leaf_labels
    pinned = {
        ("cycle:5",):
            '{"decomposition": {"edges": [[0, 5], [5, 1], [5, 6], [6, 2], [6, 7], '
            '[7, 3], [7, 4]], "leaf_labels": {"0": 0, "1": 1, "2": 2, "3": 3, '
            '"4": 4}, "n": 5}, "graph": "cycle:5", "m": 5, "method": "exact", '
            '"n": 5, "width": 2}\n',
        ("path:6", "--greedy"):
            '{"decomposition": {"edges": [[0, 6], [1, 6], [6, 7], [2, 7], [7, 8], '
            '[3, 8], [8, 9], [4, 9], [5, 9]], "leaf_labels": {"0": 0, "1": 1, '
            '"2": 2, "3": 3, "4": 4, "5": 5}, "n": 6}, "graph": "path:6", "m": 5, '
            '"method": "greedy", "n": 6, "width": 1}\n',
    }
    for args, document in pinned.items():
        assert gslogic.cli.main(["rankwidth", *args, "--format", "json"]) == 0
        assert capsys.readouterr().out == document, args


@pytest.mark.parametrize("spec, digest", [
    ("cycle:7", "46d58581627004ada7825eeda30dd7613bb86591ce9cd6da9921abd894652573"),
    ("cycle:10", "eb574e955a5293b96256aa1a8a8cabe5c87ee1eb48c101833b2f8ba36509fea2"),
    ("cycle:12", "8ef158df54b258ce03998b6d2c5ff9f9f714c369ebc3725edc1a7b8f1756a358"),
    ("grid:3", "84b1cc1930b04f2f1e2323a642d07c7e7c04cbabd8e49db544ceb6a0eb9877cb"),
    ("grid:4", "c5834cace42ba07597c3e43004c3661d18497c7e52434ba6589c633e8f936886"),
    ("triangular:3", "784f9ac99ca08d8cbe880acbbcac0d75e45a1edb678588d64542a2a0a9ea58c1"),
])
def test_irreducible_rankwidth_documents_do_not_move(capsys, spec, digest):
    # these graphs have no pendant, twin or cut vertex, so the exact answer
    # is the subset DP's own tree; the digests pin its document byte for byte
    assert gslogic.cli.main(["rankwidth", spec, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_rankwidth_text_mentions_width():
    res = run_cli("rankwidth", "path:6")
    assert res.returncode == 0
    assert "width: 1" in res.stdout


def test_rankwidth_refuses_large_graph(capsys):
    # grids and cycles have no pendant, twin or cut vertex to reduce by
    res = run_cli("rankwidth", "grid:5")
    assert res.returncode == 3
    assert res.stderr.startswith("error:") and "DP table for 25 vertices" in res.stderr
    assert "largest piece of this 25-vertex graph has 25 vertices" in res.stderr
    assert gslogic.cli.main(["rankwidth", "cycle:21", "--format", "json"]) == 3
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


def test_rankwidth_greedy_answers_graphs_below_two_vertices(capsys, tmp_path):
    # no tree bounds them; they get the exact answer, not a usage error
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n", encoding="utf-8")
    for source, n in (("path:1", 1), (str(empty), 0)):
        assert gslogic.cli.main(["rankwidth", source, "--greedy", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == n and payload["width"] == 0
        assert payload["decomposition"] is None and payload["method"] == "exact"


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
    res = run_cli("check", "--named", "two_colorable", "path:10", "--format", "json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdicts"] == [True]
    # the vertex-order DP answers a fragment formula evaluate would refuse
    argv = ["check", "--named", "two_colorable", "complete:40", "--format", "json"]
    assert gslogic.cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"] == [False]
    # so does a counting formula: complete:40 has odd degrees
    argv = ["check", EVEN_DEGREES, "complete:40", "--format", "json"]
    assert gslogic.cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == [False] and out["methods"] == ["decomposition"]
    # a formula outside the fragment is refused only by the loops it starts:
    # on path:16 the first X, the empty set, is a witness after one loop over Y
    alternating = "exists X. forall Y. Even(X) | Even(Y)"
    argv = ["check", alternating, "path:16", "--format", "json"]
    assert gslogic.cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"] == [True] and out["methods"] == ["exhaustive"]
    # while on complete:40 the first loop, over 2^40 sets, is refused before it starts
    assert gslogic.cli.main(["check", alternating, "complete:40"]) == 3
    assert capsys.readouterr().err == (
        "error: exhaustive evaluation passes its work limit of 33,554,432 at a set loop "
        "of size 1,099,511,627,776; reduce the graph or the formula\n")


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
    res = run_cli("check", "x = x")  # formula but no graph
    assert res.returncode == 2
    assert "check needs a formula and at least one graph" in res.stderr
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


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # exit 2 is for bad input; a ValueError raised inside an engine is a
    # fault and leaves main as it is
    def broken(*args):
        raise ValueError("rows are linearly dependent at row 0")

    monkeypatch.setattr(gslogic.cli, "evaluate", broken)
    with pytest.raises(ValueError, match="linearly dependent"):
        gslogic.cli.main(["check", "--named", "path2", "path:3"])
    monkeypatch.setattr(gslogic.cli, "exact_rankwidth", broken)
    with pytest.raises(ValueError, match="linearly dependent"):
        gslogic.cli.main(["rankwidth", "path:3"])


def test_corrupt_tableau_is_not_a_usage_error(monkeypatch):
    # a tableau that broke its own invariants is a fault, not bad input:
    # measure and expectation raise RuntimeError, and a RuntimeError from
    # the simulator leaves the CLI as it is instead of becoming exit 2
    def odd_phase(tab):
        tab.ts[0] = 1

    def lost_destabilizer(tab):
        tab.dxcol[0] = tab.dzcol[0] = 0

    x0 = PauliOperator.single(1, 0, "X")
    for corrupt, message in ((odd_phase, "inconsistent phase"),
                             (lost_destabilizer, "outside the stabilizer span")):
        for use in (lambda tab: tab.measure(x0), lambda tab: tab.expectation(x0)):
            tab = graph_state_tableau(generate("path", 1))
            corrupt(tab)
            with pytest.raises(RuntimeError, match=message):
                use(tab)

    def broken(g, pattern, rng_seed=None):
        raise RuntimeError("simulator fault")

    monkeypatch.setattr(gslogic.cli, "simulate_pattern", broken)
    with pytest.raises(RuntimeError, match="simulator fault"):
        gslogic.cli.main(["simulate", "path:1", "--pattern", "0:X"])


def test_simulate_never_reaches_the_tableau(monkeypatch, capsys):
    # patterns run on the graph rules alone, and the tableau is only the
    # general-Pauli type and their oracle: with both of its entry points
    # broken, simulate prints the same transcript
    rng = random.Random(22334)
    order = list(range(64))
    rng.shuffle(order)
    pattern = ",".join(f"{q}:{rng.choice('XYZ')}" for q in order)
    argv = ["simulate", "grid:8", "--pattern", pattern, "--seed", "7",
            "--format", "json"]
    assert gslogic.cli.main(argv) == 0
    want = capsys.readouterr().out

    def unreachable(*args, **kwargs):
        raise AssertionError("simulate reached the tableau")

    monkeypatch.setattr(gslogic.stabilizer, "graph_state_tableau", unreachable)
    monkeypatch.setattr(gslogic.stabilizer.StabilizerTableau, "measure", unreachable)
    assert gslogic.cli.main(argv) == 0
    assert capsys.readouterr().out == want
    assert len(json.loads(want)["transcript"]) == 64


def test_cli_import_leaves_numpy_out():
    # bench/run.py reads gslogic.dense from this -X importtime report
    code = "import sys, gslogic.cli; sys.exit('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                         capture_output=True, text=True, timeout=120, env=src_env())
    assert res.returncode == 0
    modules = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()}
    assert "gslogic.dense" in modules


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # the value classes are written out, so starting the CLI loads neither
    # dataclasses nor the inspect, ast and tokenize modules it imports
    code = ("import sys, gslogic.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    # _Frozen is the only record mechanism: no named tuple class in gslogic
    code = ("import sys, gslogic.cli; "
            "print(sorted(f'{name}.{c.__name__}' for name, m in list(sys.modules.items()) "
            "if name.split('.')[0] == 'gslogic' for c in vars(m).values() "
            "if isinstance(c, type) and issubclass(c, tuple) and hasattr(c, '_fields') "
            "and c.__module__ == name))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_package_exports_resolve():
    # every exported name resolves; the dense oracle's names live in
    # gslogic.dense alone, so none of them is exported here
    assert all(getattr(gslogic, name) is not None for name in gslogic.__all__)
    namespace: dict = {}
    exec("from gslogic import *", namespace)
    assert set(gslogic.__all__) <= set(namespace)
    for name in ("graphs", "gf2", "rankwidth", "logic", "fragment",
                 "stabilizer", "cli", "dense"):
        module = importlib.import_module(f"gslogic.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)


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


def _pinned_pattern(spec: str, carve: bool) -> list:
    """A seeded full random X/Y/Z pattern over the lattice, or a carve: Z on
    all but colour class 0 of (r + c) mod colours, then X or Y on class 0."""
    kind, k = spec.split(":")
    k = int(k)
    n = generate(kind, k).n
    rng = random.Random(62311)
    if not carve:
        order = list(range(n))
        rng.shuffle(order)
        return [(v, rng.choice("XYZ")) for v in order]
    colours = 3 if kind == "triangular" else 2
    cover = [v for v in range(n) if sum(divmod(v, k)) % colours]
    rest = [v for v in range(n) if not sum(divmod(v, k)) % colours]
    rng.shuffle(cover)
    rng.shuffle(rest)
    return [(v, "Z") for v in cover] + [(v, rng.choice("XXY")) for v in rest]


@pytest.mark.parametrize("spec, carve, digest", [
    ("triangular:28", False, "2f94d1df0e579ce3475e145433e857269ddb8bbdaa39ee791abd5b156727cf86"),
    ("grid:28", False, "b29bcfecf090a13830686b74bfd2388f9e89d3d651500b6987ac475f28131828"),
    ("hexagonal:28", True, "56d4c09549ea9fb5fa550feddff9aaebe10dab01b3d36570ed7701b7fba0c88f"),
])
def test_simulate_transcripts_are_pinned(capsys, spec, carve, digest):
    # whether an outcome is random depends only on the state, and a coin is
    # drawn only for a random one, so the vertex-minor the rules keep may
    # change while every transcript stays byte for byte the same
    pattern = ",".join(f"{q}:{b}" for q, b in _pinned_pattern(spec, carve))
    argv = ["simulate", spec, "--pattern", pattern, "--seed", "2004",
            "--format", "json"]
    assert gslogic.cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
    assert gslogic.cli.main(["simulate", "path:3", "--pattern", "0:Z,1:Q"]) == 2
    assert ("pattern entry 2: basis must be one of X, Y, Z, got 'Q'"
            in capsys.readouterr().err)


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
    # the closed form is the one way to the count
    assert gslogic.cli.main(["trees-count", "7", "--enumerate"]) == 2


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


def test_huge_graphs_are_refused_under_a_memory_limit(tmp_path):
    # each of these would exhaust memory if built; under a 512 MiB address
    # space a missing check fails with MemoryError instead of exit code 3
    huge = tmp_path / "huge.edges"
    huge.write_text("1000000000 0\n")
    for argv in (["gen", "path", "1000000"], ["rankwidth", "grid:99999999"],
                 ["rankwidth", str(huge)], ["gen", "complete", "100000"],
                 ["simulate", "binary_tree:99999999", "--pattern", "0:X"]):
        res = run_with_memory_limit(["-m", "gslogic.cli", *argv])
        assert res.returncode == 3, (argv, res.stderr[-500:])
        assert res.stderr.startswith("error:") and "exceed" in res.stderr, argv


def test_rankwidth_of_the_largest_path_fits_a_memory_limit():
    # path:65536 is the vertex ceiling; its witness tree keeps only its
    # edges, as one leaf mask per edge would take O(n^2) bits here
    res = run_with_memory_limit(["-m", "gslogic.cli", "rankwidth", "path:65536",
                                 "--format", "json"])
    assert res.returncode == 0, res.stderr[-500:]
    out = json.loads(res.stdout)
    assert (out["n"], out["width"]) == (65536, 1)


def test_rankwidth_of_a_long_cycle_fits_a_memory_limit():
    # a cycle has no pendant, twin or cut vertex, so it is one piece, refused
    # by size; a whole row kept as a twin key for each vertex, or a mask in
    # each frame of the block walk, takes O(n^2) bits, past this limit here
    res = run_with_memory_limit(["-m", "gslogic.cli", "rankwidth", "cycle:30000"],
                                limit=160 << 20)
    assert res.returncode in (0, 3), res.stderr[-500:]


def test_a_large_edge_list_fits_a_memory_limit(tmp_path):
    # parse_edge_list builds the adjacency rows as it splits the text into
    # lines, one chunk at a time: this run peaks at 23 MB. A list of every
    # line (4 MB of text, 523,777 lines) took it to 55 MB and failed under
    # this limit, and a list of every edge as a tuple as well to 115 MB
    edges = tmp_path / "complete1024.edges"
    edges.write_text(serialize(generate("complete", 1024)), encoding="utf-8")
    res = run_with_memory_limit(["-m", "gslogic.cli", "cutrank", str(edges), "--side", "0"],
                                limit=48 << 20)
    assert res.returncode == 0, res.stderr[-500:]
    assert res.stdout == "cut-rank of {0}: 1\n"


def test_two_colourability_of_a_long_path_fits_a_memory_limit():
    # decide makes each outside row when its walk reaches the vertex; a list
    # of all n rows would take O(n^2) bits, past this limit at path:50000
    res = run_with_memory_limit(["-m", "gslogic.cli", "check", "--named", "two_colorable",
                                 "path:50000", "--format", "json"], limit=320 << 20)
    assert res.returncode == 0, res.stderr[-500:]
    assert json.loads(res.stdout)["verdicts"] == [True]


@pytest.mark.parametrize("argv", [
    ["gen", "path", "9" * 3000],
    ["rankwidth", "-"],  # an edge list whose header declares that many vertices
    ["gen", "grid", "9" * 2200],
    ["rankwidth", "cycle:14286"],
    ["check", "exists X. forall Y. Even(X) | Even(Y)", "path:7150"],
], ids=["gen-path", "edge-list-header", "gen-grid", "rankwidth-table", "check-cost"])
def test_refusals_write_no_unbounded_number(argv, monkeypatch, capsys):
    # each figure would pass the 4,300 digits that str() writes; a refusal
    # gives it as a power of two instead
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{'9' * 3000} 0\n"))
    assert gslogic.cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err) < 300, err[:500]
    assert "2^" in err


def test_figures_are_exact_while_short():
    assert _figure(1 << 20, ",") == "1,048,576"
    assert _figure(10 ** 30 - 1) == "9" * 30
    assert _figure(10 ** 30) == "2^99.7"
    assert _figure(1 << 14285, ",") == "2^14285"
    assert _figure(10 ** 3000) == "2^9965.8"


def test_graph_file_parse_error(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 1\n9 9\n")
    res = run_cli("rankwidth", str(bad))
    assert res.returncode == 2
    assert "line 2" in res.stderr


def test_missing_file_is_usage_error():
    res = run_cli("rankwidth", "/nonexistent/file.edges")
    assert res.returncode == 2


def test_unreadable_inputs_are_usage_errors(tmp_path, capsys):
    binary = tmp_path / "binary.edges"
    binary.write_bytes(b"3 1\n0 1\n\xff\xfe\n")
    digits = "9" * 5000
    for argv, message in (
        (["rankwidth", str(binary)], "'utf-8' codec can't decode"),
        (["rankwidth", ""], "empty graph source"),
        # more digits than int reads
        (["rankwidth", f"path:{digits}"], "digits"),
        (["cutrank", "path:3", "--side", digits], "digits"),
        (["simulate", "path:3", "--pattern", f"{digits}:X"], "digits"),
    ):
        assert gslogic.cli.main(argv) == 2, argv[:2]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and message in err, argv[:2]


def test_usage_errors_from_argparse():
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("rankwidth", "path:4", "--format", "yaml").returncode == 2


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("rankwidth", "--help").returncode == 0


def test_a_closed_stdout_ends_the_run_quietly():
    # a reader that stops after one line, as in `gslogic gen path 60000 | head -1`:
    # the work succeeded, so the rest of the output is dropped with no message
    proc = subprocess.Popen([sys.executable, "-m", "gslogic.cli", "gen", "path", "60000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    with proc:
        assert proc.stdout.readline() == b"60000 59999\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


MAIN_HELP = """\
usage: gslogic [-h] COMMAND ...

Graph states, rank-width, and counting logic on graphs.

positional arguments:
  COMMAND
    gen        write a generated graph as an edge list
    rankwidth  rank-width of a graph with a decomposition tree
    cutrank    GF(2) cut-rank of one vertex bipartition
    check      evaluate a counting-logic formula on graphs
    simulate   measure a Pauli pattern on a graph state
    trees-count
               number of binary (subcubic) trees on N leaves

options:
  -h, --help   show this help message and exit

Graph sources: "kind:size" generator specs (binary_tree, complete, cycle,
grid, hexagonal, path, triangular), an edge-list file path, or "-" for stdin.
"""

RANKWIDTH_HELP = """\
usage: gslogic rankwidth [-h] [--format {text,json}] [--greedy] graph

positional arguments:
  graph                 graph source

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format (default: text; json is the stable
                        interface)
  --greedy              fast upper bound from a greedy vertex order instead of
                        the exact answer with an optimal tree, which removes
                        pendants and twins, splits at cut vertices and refuses
                        when a piece left has more than 20 vertices
"""


@pytest.mark.parametrize("argv,text", [(["--help"], MAIN_HELP),
                                       (["rankwidth", "--help"], RANKWIDTH_HELP)],
                         ids=["main", "rankwidth"])
def test_help_text_is_pinned(monkeypatch, capsys, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    assert gslogic.cli.main(argv) == 0
    assert capsys.readouterr() == (text, "")


COMMAND_NAMES = ["gen", "rankwidth", "cutrank", "check", "simulate", "trees-count"]
FULL_PARSER = ["gslogic"] + [f"gslogic {name}" for name in COMMAND_NAMES]

# per command: valid, a value outside choices, a required argument missing,
# -h and an unknown option; then the forms of options, positionals and "--"
# that the reader must leave to the full parser or read alike
PARSER_CASES = [
    ["gen", "path", "3"], ["gen", "moebius", "3"], ["gen"], ["gen", "-h"],
    ["gen", "path", "3", "--bogus"],
    ["rankwidth", "path:4", "--format", "json"],
    ["rankwidth", "path:4", "--format", "yaml"], ["rankwidth"],
    ["rankwidth", "-h"], ["rankwidth", "path:4", "--bogus"],
    ["cutrank", "path:4", "--side", "0,1"],
    ["cutrank", "path:4", "--side", "0", "--format", "yaml"],
    ["cutrank", "path:4"], ["cutrank", "-h"],
    ["cutrank", "path:4", "--side", "0", "--bogus"],
    ["check", "exists x. x = x", "path:3"],
    ["check", "--named", "connected", "path:4", "--format", "yaml"], ["check"],
    ["check", "-h"], ["check", "--named", "connected", "path:4", "--bogus"],
    ["simulate", "path:3", "--pattern", "0:Z", "--seed", "1"],
    ["simulate", "path:3", "--pattern", "0:Z", "--format", "yaml"],
    ["simulate", "path:3"], ["simulate", "-h"],
    ["simulate", "path:3", "--pattern", "0:Z", "--bogus"],
    ["trees-count", "5"], ["trees-count", "5", "--format", "yaml"],
    ["trees-count"], ["trees-count", "-h"], ["trees-count", "5", "--bogus"],
    ["rankwidth", "path:4", "--format=json"],
    ["trees-count", "5", "--form", "json"],
    ["cutrank", "path:4", "--side", "0", "--format", "json", "--format", "text"],
    ["simulate", "--pattern", "0:Z", "--seed", "1", "path:3"],
    ["rankwidth", "path:4", "path:5"],
    ["check", "--named", "connected", "--", "path:4"],
    ["gen", "--", "path", "3"],
    ["gen", "moebius", "3", "-h"],
    ["simulate", "path:3", "--pattern=0:Z", "--seed", "1"],
]


def spy_on_parsers(monkeypatch, built):
    """Append the prog of each ArgumentParser made to built."""
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_command_parser_answers_like_the_full_parser(monkeypatch, capsys, argv):
    # the command table's reader answers like the full parser: a run with
    # _read and one with _read turned off give the same exit code, stdout
    # and stderr, and only a line that _read leaves builds a parser
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    spy_on_parsers(monkeypatch, built)
    got = (gslogic.cli.main(argv), *capsys.readouterr())
    assert built == ([] if gslogic.cli._read(argv) else FULL_PARSER)
    built.clear()
    monkeypatch.setattr(gslogic.cli, "_read", lambda argv: None)
    assert (gslogic.cli.main(argv), *capsys.readouterr()) == got
    assert built == FULL_PARSER


def test_a_valid_run_builds_no_parser(monkeypatch, capsys):
    built = []
    spy_on_parsers(monkeypatch, built)
    for argv in HANDLER_CASES:  # a valid run of each command
        assert gslogic.cli.main(argv) == 0, argv
        assert gslogic.cli.main(argv + ["--format", "json"]) == 0, argv
    assert built == []
    for argv in (["--help"], [], ["frobnicate"], ["rankwidth", "path:4", "--bogus"]):
        for _ in range(2):  # a second call builds again: nothing is cached
            built.clear()
            gslogic.cli.main(argv)
            assert built == FULL_PARSER, argv
    capsys.readouterr()


def test_a_valid_run_loads_no_argparse():
    # pytest itself imports argparse, so a fresh interpreter runs the check
    code = ("import sys, gslogic.cli; "
            "code = gslogic.cli.main(['check', '--named', 'connected', 'path:4']); "
            "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 []"


def test_importing_the_cli_builds_no_parser(monkeypatch):
    # the benchmark counts the parsing in each query, so no parser may be
    # made at import time, where the query metrics would not see it; a
    # valid run makes none at all and loads no argparse
    built = []
    spy_on_parsers(monkeypatch, built)
    spec = importlib.util.find_spec("gslogic.cli")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert built == []
    assert not any(isinstance(value, argparse.ArgumentParser) for value in vars(module).values())


# the add_argument keywords that _read models, with the values it models
READ_KEYWORDS = {"action": {"store_true"}, "choices": None, "default": None, "help": None,
                 "metavar": None, "nargs": {"+"}, "required": {True}, "type": {int}}


def test_the_reader_models_every_keyword_of_the_table():
    for name, _, _, arguments in gslogic.cli._COMMANDS:
        entries = (gslogic.cli._FORMAT, *arguments)
        positionals = [keywords for flags, keywords in entries if not flags[0].startswith("-")]
        assert positionals, name
        for flags, keywords in entries:
            assert set(keywords) <= set(READ_KEYWORDS), (name, flags)
            for key, value in keywords.items():
                assert READ_KEYWORDS[key] is None or value in READ_KEYWORDS[key], (name, flags, key)
            # a positional has one flag, which is its dest
            assert flags[0].startswith("-") or len(flags) == 1, (name, flags)
            # argparse passes a string default through type; _read does not
            assert not (isinstance(keywords.get("default"), str) and "type" in keywords)
            # a flag alone has no value: no type, choices, nargs or requirement
            if "action" in keywords:
                assert set(keywords) <= {"action", "help"}, (name, flags)
            # nargs "+" only on the last positional, which takes the rest of the run
            assert "nargs" not in keywords or keywords is positionals[-1], (name, flags)


def random_argv(rng: random.Random) -> list[str]:
    """A command line near the plain form: valid positionals and options of
    one command in a random order, then up to three random edits drawn from
    the tokens that argparse reads in other ways."""
    plain = {
        "gen": ([["path", "3"], ["cycle", "12"], ["grid", "\u0665"]],
                [["-o", "out"], ["--output", "x y"]]),
        "rankwidth": ([["path:4"], [""]], [["--greedy"]]),
        "cutrank": ([["path:4"], ["g.edges"]], [["--side", "0,1"], ["--side", ""]]),
        "check": ([["exists x. x = x", "path:3"], ["path:3"], ["a", "b", "c"]],
                  [["--named", "connected"]]),
        "simulate": ([["path:3"]], [["--pattern", "0:Z"], ["--seed", "7"], ["--seed", "+2"]]),
        "trees-count": ([["5"], [" 9"], ["1_0"]], []),
    }
    name = rng.choice(list(plain))
    run_choices, option_choices = plain[name]
    options = rng.sample(option_choices, rng.randrange(len(option_choices) + 1))
    options.append(["--format", rng.choice(["text", "json"])] if rng.random() < 0.7 else [])
    parts = options + [rng.choice(run_choices)]
    rng.shuffle(parts)
    argv = [name] + [token for part in parts for token in part]
    tokens = COMMAND_NAMES + [
        "frobnicate", "--format", "--form", "--format=json", "-o", "--output", "--out",
        "-ox", "--greedy", "--gr", "--side", "--si", "--side=0", "--named", "--nam",
        "--pattern", "--pat", "--seed", "--seed=3", "-h", "--help", "--", "-", "",
        "text", "json", "yaml", "path", "moebius", "3", "0", "-1", "-2.5", "\u0663",
        "\uff17", "7\u00b2", "x", "path:4", "0:Z", "-x", "\u00e9",
    ]
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        at = rng.randrange(len(argv) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            argv.insert(at, rng.choice(tokens))
        elif at < len(argv):
            if edit == 1:
                del argv[at]
            else:
                argv[at] = rng.choice(tokens)
    return argv


def reader_disagreements(count: int, seed: int) -> tuple[int, list]:
    """Read count random argvs with _read and with the full parser. Returns
    the number _read accepts and each accepted argv whose namespace differs
    from the full parser's, with both namespaces."""
    rng = random.Random(seed)
    parser = gslogic.cli.build_parser()
    accepted, wrong = 0, []
    for _ in range(count):
        argv = random_argv(rng)
        args = gslogic.cli._read(argv)
        if args is None:
            continue
        accepted += 1
        try:
            want = vars(parser.parse_args(argv))
        except SystemExit:
            want = "refused"
        if vars(args) != want:
            wrong.append((argv, vars(args), want))
    return accepted, wrong


def test_the_reader_agrees_with_argparse_on_random_argvs(capsys):
    accepted, wrong = reader_disagreements(3000, seed=20061003)
    assert wrong == []
    # both ways are taken often: the reader's lines and the parser's
    assert 600 < accepted < 2400, accepted
    capsys.readouterr()


def test_every_benchmark_command_line_is_read_from_the_table(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    parser = gslogic.cli.build_parser()
    seen = 0
    for workload in workloads.BUILDERS:
        for seed in (1, 2, 3):
            for query in workloads.build(workload, seed, tmp_path / f"{workload}-{seed}"):
                args = gslogic.cli._read(query.argv)
                assert args is not None, query.argv
                assert vars(args) == vars(parser.parse_args(query.argv)), query.argv
                seen += 1
    assert seen >= 9 * 40


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


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_run_answers_a_short_logic_round(trace):
    # bench/run.py as the benchmark runs it: its import timing, its output
    # checks and the package calls it makes, on half a second of queries
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "logic", "--seed", "1",
         "--seconds", "0.5", "--trace", trace],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


# every command in its default, text and JSON form, with the usage errors,
# refusals and help around them; the files are named relative to the
# working directory so that their paths print the same everywhere
OUTPUT_CASES = [
    ["gen", "path", "4"], ["gen", "grid", "2", "-o", "out.edges"], ["gen", "path", "0"],
    ["rankwidth", "cycle:6"], ["rankwidth", "grid:3", "--greedy"],
    ["rankwidth", "path:1", "--greedy"], ["rankwidth", "tri.edges"],
    ["rankwidth", "loop.edges"], ["rankwidth", "cycle:21"],
    ["cutrank", "cycle:5", "--side", "0,2"], ["cutrank", "path:3", "--side", ""],
    ["cutrank", "path:3", "--side", "0,x"],
    ["check", "--named", "connected", "path:4", "cycle:5"],
    ["check", "--named", "two_colorable", "cycle:4", "cycle:5", "path:2"],
    ["check", "--named", "path2", "path:3", "path:2"],
    ["check", "exists x. exists y. edge(x, y)", "path:2", "path:1"],
    ["check", "--named", "nope", "path:3"], ["check", "exists x.", "path:3"],
    ["check", "exists X. forall Y. Even(X) | Even(Y)", "complete:40"],
    ["simulate", "path:3", "--pattern", "0:X,1:Z,2:Y", "--seed", "1"],
    ["simulate", "path:3", "--pattern", "", "--seed", "1"],
    ["simulate", "path:3", "--pattern", "0:Q"], ["simulate", "grid:65", "--pattern", "0:Z"],
    ["trees-count", "7"], ["trees-count", "1"], ["trees-count", "100000"],
]


def test_cli_output_is_pinned(monkeypatch, tmp_path, capsys):
    # exit code, stdout, stderr and the -o file of each case, in-process
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    Path("tri.edges").write_text("3 3\n0 1\n1 2\n0 2\n", encoding="utf-8")
    Path("loop.edges").write_text("2 1\n1 1\n", encoding="utf-8")
    out = Path("out.edges")
    argvs = [case + form for case in OUTPUT_CASES
             for form in ([], ["--format", "text"], ["--format", "json"])]
    argvs += [[], ["--help"], ["rankwidth", "--help"], ["frobnicate"]]
    records = []
    for argv in argvs:
        code = gslogic.cli.main(argv)
        written = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        records.append([argv, code, *capsys.readouterr(), written])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert len(records) == 82
    assert digest == "44680e7b515b56ec075f3079238b349f7a483879a97ee28ee60460d55919878a"


# one run of each handler: the edge-list output and each computing command
HANDLER_CASES = [["gen", "path", "3"], ["rankwidth", "cycle:5"],
                 ["cutrank", "path:3", "--side", "1"], ["check", "--named", "connected", "path:3"],
                 ["simulate", "path:3", "--pattern", "0:X,1:Z", "--seed", "2"],
                 ["trees-count", "6"]]


@pytest.mark.parametrize("argv", HANDLER_CASES, ids=" ".join)
def test_handlers_return_their_output_and_print_nothing(capsys, argv):
    args = gslogic.cli.build_parser().parse_args(argv)
    document, lines = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(document, dict)
    assert inspect.getgeneratorstate(lines) == inspect.GEN_CREATED
    assert gslogic.cli.main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(document, sort_keys=True) + "\n"
    assert gslogic.cli.main(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("form,state", [("json", inspect.GEN_CREATED), ("text", inspect.GEN_CLOSED)])
def test_only_a_text_run_makes_the_lines(monkeypatch, capsys, form, state):
    made = []

    def keep(handler):
        def run(args):
            document, lines = handler(args)
            made.append(lines)
            return document, lines
        return run

    monkeypatch.setattr(gslogic.cli, "_COMMANDS", tuple(
        (name, help_text, keep(handler), add) for name, help_text, handler, add in gslogic.cli._COMMANDS))
    for argv in HANDLER_CASES:
        assert gslogic.cli.main(argv + ["--format", form]) == 0
    capsys.readouterr()
    assert [inspect.getgeneratorstate(lines) for lines in made] == [state] * len(HANDLER_CASES)


def test_only_main_reads_the_format():
    tree = ast.parse(Path(gslogic.cli.__file__).read_text(encoding="utf-8"))
    readers = {function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Attribute) and node.attr == "format"}
    assert readers == {"main"}
