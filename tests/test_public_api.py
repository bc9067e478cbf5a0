"""The public surface: every exported name resolves, and deleted names stay gone.

Eight names were deleted because no command, package module or benchmark
called them; each either repeated another public function or had no use.
A name that comes back should come back with a caller.
"""

import importlib
from pathlib import Path

import pytest

import reachcalc

MODULES = ["reachcalc"] + sorted(
    f"reachcalc.{path.stem}" for path in Path(reachcalc.__file__).parent.glob("*.py")
    if path.stem != "__init__"
)

#: Each deleted name, with the module that defined it.
DELETED = {
    "kol_posterior_identity": "reachability",  # P(problem) = 1 makes the product the identity
    "normalize": "reachability",  # report's normalized column is formed in machine
    "solution_distribution": "machine",  # the value SolutionSet.weights gives
    "solve_xlog": "lambertw",  # at a = 2, b = -h it is reach_from_variation(h)
    "ThermoEntropy": "entropy",  # its boltzmann field is algorithmic_entropy(bits, 0.0)
    "microstate_entropy": "entropy",
    "f_inverse": "loss",
    "ConvergenceError": "errors",  # nothing raises it: every W iteration stops on its step
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), module
    assert [name for name in exported if not hasattr(mod, name)] == []


@pytest.mark.parametrize("name, module", sorted(DELETED.items()))
def test_a_deleted_name_cannot_be_imported(name, module):
    for owner in ("reachcalc", f"reachcalc.{module}"):
        mod = importlib.import_module(owner)
        assert name not in getattr(mod, "__all__", ())
        # `from owner import name` fails exactly when the attribute is missing.
        assert not hasattr(mod, name), f"{owner}.{name}"
