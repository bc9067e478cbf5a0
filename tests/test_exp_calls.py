"""Where the package calls math.exp: only inside the Lambert W solver.

Every other exponential of a W value is formed from W e^W = x, as W(x)/x
or x/W(x), which keeps W's relative accuracy where exp(W) would multiply
W's rounding by |W|.  Halley's step on w e^w - x and eval_w's residual
|w e^w - x| need e^w itself.  This test reads the source, so a second
exp path fails here even where no accuracy test reaches it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reachcalc"

#: (module, function) pairs allowed to call math.exp.
ALLOWED = {("lambertw", "_halley"), ("lambertw", "eval_w")}


def _exp_callers(path: Path) -> set[tuple[str, str]]:
    """(module, enclosing top-level function) of each math.exp call in path;
    the function is "<module>" for a call at module level."""
    callers = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "exp"
                    and isinstance(node.value, ast.Name) and node.value.id == "math"):
                callers.add((path.stem, owner))
    return callers


def test_math_exp_is_called_only_inside_the_w_solver():
    callers = set().union(*(_exp_callers(p) for p in PACKAGE.glob("*.py")))
    assert callers == ALLOWED


def test_no_module_takes_exp_from_math_by_name():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert "exp" not in {alias.name for alias in node.names}, path.name
