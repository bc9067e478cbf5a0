"""Every name a package module imports is used there or exported.

A dead import passes every behavioural test, so this one reads the source:
each name bound by an import in src/reachcalc must appear as a name in the
same module or in its __all__.  The exceptions are names that only the
benchmark's per-layer tracer looks up.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reachcalc"

#: (module, name) pairs kept only so that the tracer can wrap them.
TRACER_NAMES = {
    ("cli", "kolmogorov_upper"),  # reachbench/layers.py wraps cli.kolmogorov_upper
    ("machine", "entropy_variation"),  # reachbench/layers.py wraps machine.entropy_variation
    ("loss", "w_derivative"),  # reachbench/layers.py wraps loss.w_derivative
    ("search", "reach_from_variation"),  # reachbench/layers.py wraps search.reach_from_variation
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

