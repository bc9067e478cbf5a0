"""What the package imports: every name it binds is used, and no heavy module.

A dead import passes every behavioural test, so the first test reads the
source: each name bound by an import in src/reachcalc must appear as a name
in the same module or in its __all__.  The exceptions are names that only
the benchmark's per-layer tracer looks up.  The second test imports the CLI
in a fresh interpreter and lists the modules it loaded, since start-up time
is most of a one-shot command's cost.
"""

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reachcalc"

#: (module, name) pairs kept only so that the tracer can wrap them.
TRACER_NAMES = {
    ("machine", "entropy_variation"),  # reachbench/layers.py wraps machine.entropy_variation
    ("loss", "w_derivative"),  # reachbench/layers.py wraps loss.w_derivative
    ("loss", "eval_w"),  # reachbench/layers.py wraps loss.eval_w
    ("search", "reach_from_variation"),  # reachbench/layers.py wraps search.reach_from_variation
    ("cli", "reachability_report"),  # reachbench/layers.py wraps cli.reachability_report
    ("cli", "kolmogorov_upper"),  # reachbench/layers.py wraps cli.kolmogorov_upper
}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    allowed = {name for module, name in TRACER_NAMES if module == path.stem}
    unused = _imported(tree) - used - _exported(tree) - allowed
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


#: Standard modules the CLI must not load: dataclasses pulls in inspect and
#: ast, and typing is avoidable on Python 3.10+.
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "typing"}
#: Standard modules no command needs: only formats.parse_csv reads csv, and
#: it imports csv itself; every writer lays out csv without it.
PARSER_ONLY_MODULES = {"csv"}


@functools.cache
def _cli_modules() -> frozenset[str]:
    """The modules a fresh interpreter holds after `import reachcalc.cli`."""
    # -S skips site, which on some hosts preloads typing for its own .pth files.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "import reachcalc.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return frozenset(done.stdout.split())


def test_cli_import_loads_every_package_module_and_no_heavy_one():
    loaded = _cli_modules()
    heavy = loaded & HEAVY_MODULES
    assert not heavy, f"import reachcalc.cli loads {sorted(heavy)}"
    package = {f"reachcalc.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert package <= loaded, sorted(package - loaded)


def test_cli_import_loads_no_csv():
    parser_only = _cli_modules() & PARSER_ONLY_MODULES
    assert not parser_only, f"import reachcalc.cli loads {sorted(parser_only)}"
