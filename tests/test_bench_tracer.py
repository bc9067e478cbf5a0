"""The benchmark's per-layer tracer must install against the package.

reachbench/layers.py wraps reachcalc functions where their callers look them
up, so it names module attributes that the package itself may no longer
call (machine.entropy_variation, machine._core, cli.kolmogorov_upper,
loss.w_derivative).  Deleting one of them passes every other test and
crashes `reachbench/run.py --trace 1`; this test catches that.
"""

import importlib.util
import io
import warnings
from contextlib import redirect_stdout
from pathlib import Path

from reachcalc import _core_py, cli, lambertw, loss, machine, reachability, search

LAYERS_PY = Path(__file__).resolve().parent.parent / "reachbench" / "layers.py"
MODULES = (_core_py, cli, lambertw, loss, machine, reachability, search)


def _load_layers():
    spec = importlib.util.spec_from_file_location("reachbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_removes():
    before = [dict(vars(m)) for m in MODULES]
    tracer = _load_layers().Tracer()
    try:
        tracer.install()
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            assert cli.main(["report", "0", "--max-len", "8"]) == 0
            assert cli.main(["solve", "0101", "--max-len", "12"]) == 0
            assert cli.main(["search", "0", "--format", "csv"]) == 0
            assert cli.main(["loss", "0.5", "0.25"]) == 0
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    assert metrics["machine.scans"][0] > 0
    assert metrics["lambertw.calls"][0] > 0
    assert metrics["loss.calls"][0] == 1
    for module, names in zip(MODULES, before):
        for name, value in names.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name} not restored"
