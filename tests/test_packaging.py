"""The source distribution builds offline and carries the whole package."""

import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

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
