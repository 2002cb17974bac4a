"""The source distribution builds offline and carries the whole package,
and every Python it claims runs the command line alike."""

import inspect
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent


def test_sdist_builds_offline_with_every_module_and_the_entry_point(tmp_path):
    # the build writes src/gslogic.egg-info, so it runs on a copy
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "README.md", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    build = "import setuptools.build_meta as b; print(b.build_sdist('dist'))"
    done = subprocess.run([sys.executable, "-c", build], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    name = done.stdout.split()[-1]
    with tarfile.open(tmp_path / "dist" / name) as archive:
        members = {Path(*Path(m).parts[1:]).as_posix() for m in archive.getnames()}
        entry_points = next(m for m in archive.getmembers()
                            if m.name.endswith("gslogic.egg-info/entry_points.txt"))
        scripts = archive.extractfile(entry_points).read().decode()
    modules = {p.relative_to(ROOT).as_posix() for p in (ROOT / "src" / "gslogic").glob("*.py")}
    assert modules and modules <= members, modules - members
    assert "gslogic = gslogic.cli:main" in scripts.splitlines()


# One plain --format json command line per command and one refusal (exit 3).
# Help and usage errors are left out: argparse words them differently from
# one Python to the next.
CLI_LINES = [
    ["gen", "cycle", "5", "--format", "json"],
    ["rankwidth", "grid:3", "--format", "json"],
    ["rankwidth", "grid:8", "--greedy", "--format", "json"],
    ["cutrank", "path:6", "--side", "0,2,4", "--format", "json"],
    ["check", "--named", "two_colorable", "cycle:6", "cycle:7", "--format", "json"],
    ["check", "exists x. forall y. x = y | edge(x, y)", "path:3", "cycle:5", "--format", "json"],
    ["check", "exists X. forall Y. Even(X) | Even(Y)", "path:4", "--format", "json"],
    ["simulate", "grid:3", "--pattern", "0:X,4:Y,8:Z,2:X", "--seed", "7", "--format", "json"],
    ["trees-count", "6", "--format", "json"],
    ["rankwidth", "grid:5", "--format", "json"],
]


def _outcomes(lines: list) -> list:
    """[exit code, stdout] of gslogic.cli.main on each command line."""
    import contextlib
    import io

    from gslogic.cli import main
    done = []
    for argv in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        done.append([code, out.getvalue()])
    return done


# the child names its implementation and version first, so that a command
# that does not start that Python (a pyenv shim of a version not selected)
# tells itself apart from one that runs the lines
CHILD = f"""import json, sys
print(json.dumps([sys.implementation.name, *sys.version_info[:2]]), flush=True)
{inspect.getsource(_outcomes)}
print(json.dumps(_outcomes(json.loads(sys.argv[1]))))
"""


def _other_pythons():
    """(minor version, command) of each other CPython 3.10-3.13 to try:
    python3.X on PATH, then the interpreters in pyenv's versions directory."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for minor in range(10, 14):
        if minor != sys.version_info.minor:
            installed = sorted(versions.glob(f"3.{minor}.*/bin/python3.{minor}"))
            for command in filter(None, [shutil.which(f"python3.{minor}"), *installed]):
                yield minor, str(command)


def test_every_python_the_package_claims_prints_the_same():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    expected = _outcomes(CLI_LINES)
    assert [code for code, _ in expected] == [0] * (len(CLI_LINES) - 1) + [3]
    started = set()
    for minor, command in _other_pythons():
        if minor in started:
            continue
        done = subprocess.run([command, "-c", CHILD, json.dumps(CLI_LINES)], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        first, _, rest = done.stdout.partition("\n")
        if first != json.dumps(["cpython", 3, minor]):
            continue
        started.add(minor)
        assert done.returncode == 0, (command, done.stderr[-1000:])
        assert json.loads(rest) == expected, command
    if not started:
        pytest.skip("no other CPython 3.10-3.13 starts here")
