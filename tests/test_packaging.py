"""The source distribution: what `pyproject.toml` packs, the script it declares,
and the Python floor it claims.

The build runs on a copy of the project files in a temporary directory, so
that no egg-info lands in the tree, and in a child process with a timeout.
It calls the setuptools backend directly, so no pip and no network are
involved.  The backend is whichever setuptools is installed, so the test
also checks that it meets the floor `pyproject.toml` declares: a floor no
build here has met is a claim nothing checked.  No wheel is built.  The
declared `requires-python` floor is held by parsing every module at that
feature version, so syntax newer than the floor fails here.
"""

import ast
import configparser
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reachcalc"

METADATA = {
    "PKG-INFO",
    "README.md",
    "pyproject.toml",
    "setup.cfg",
    *(f"src/reachcalc.egg-info/{name}" for name in (
        "PKG-INFO", "SOURCES.txt", "dependency_links.txt", "entry_points.txt",
        "requires.txt", "top_level.txt")),
}


def release(version: str) -> tuple[int, ...]:
    """The numeric release parts of a version string: "65.5.0" -> (65, 5, 0)."""
    return tuple(int(part) for part in version.split(".") if part.isdigit())


def test_sdist_holds_the_package_modules_and_declares_the_script(tmp_path):
    project = tmp_path / "project"
    shutil.copytree(ROOT / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, project / name)
    code = ("import sys\n"
            "import setuptools\n"
            "from setuptools import build_meta\n"
            "name = build_meta.build_sdist(sys.argv[1])\n"
            "print(setuptools.__version__)\n"
            "print(name)\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "dist")], cwd=project,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    version, name = done.stdout.splitlines()[-2:]
    archive = tmp_path / "dist" / name

    floor = (ROOT / "pyproject.toml").read_text().split('"setuptools>=', 1)[1].split('"', 1)[0]
    assert release(version) >= release(floor), (version, floor)

    with tarfile.open(archive) as tar:
        root = archive.name.removesuffix(".tar.gz")
        files = {m.name.removeprefix(root + "/") for m in tar.getmembers() if m.isfile()}
        entry_points = tar.extractfile(f"{root}/src/reachcalc.egg-info/entry_points.txt")
        scripts = configparser.ConfigParser()
        scripts.read_string(entry_points.read().decode())

    modules = {f"src/reachcalc/{path.name}" for path in PACKAGE.glob("*.py")}
    assert files == modules | METADATA
    assert dict(scripts["console_scripts"]) == {"reachcalc": "reachcalc.cli:main"}


def test_every_module_parses_at_the_declared_python_floor():
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert floor, "pyproject.toml declares no requires-python floor of the form >=X.Y"
    version = (int(floor[1]), int(floor[2]))
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
