"""Where the package iterates to convergence: only inside the Lambert W solver.

Every root the package finds comes from one of three loops in lambertw:
the anchored Halley iteration (about the branch point, or about a target
for the matching loss), Newton's method in log form and Halley's method on
w e^w - x.  They share the iteration cap _MAX_ITER and the step tolerance
_STEP_RTOL.  This test reads the source, so a second copy of a solver, or a
module that borrows the solver's constants for a loop of its own, fails
here even where every accuracy test still passes.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reachcalc"
SOLVER_CONSTANTS = {"_MAX_ITER", "_STEP_RTOL"}

#: The functions allowed to loop over _MAX_ITER.
SOLVERS = {("lambertw", "_anchored"), ("lambertw", "_log_newton"), ("lambertw", "_halley")}


def _names(node: ast.AST) -> set[str]:
    """Every identifier node mentions: names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.asname or sub.name)
            found.add(sub.name)
    return found


def test_solver_constants_are_named_only_in_lambertw():
    for path in PACKAGE.glob("*.py"):
        if path.stem != "lambertw":
            named = _names(ast.parse(path.read_text(encoding="utf-8"))) & SOLVER_CONSTANTS
            assert not named, f"{path.name} names {sorted(named)}"


def test_only_the_w_solvers_loop_over_max_iter():
    loops = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(top, ast.FunctionDef):
                for node in ast.walk(top):
                    if isinstance(node, (ast.For, ast.While)) and "_MAX_ITER" in _names(
                            node.iter if isinstance(node, ast.For) else node.test):
                        loops.add((path.stem, top.name))
    assert loops == SOLVERS
