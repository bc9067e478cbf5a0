"""The benchmark's per-layer tracer must install against the package.

reachbench/layers.py wraps reachcalc functions where their callers look them
up, so it names module attributes that the package itself may no longer
call (machine.entropy_variation, machine._core, loss.w_derivative,
search.reach_from_variation).  Deleting one of them
passes every other test and crashes `reachbench/run.py --trace 1`; these
tests catch that.  The tracer also wraps search._core_py and
search.iter_valid_programs and reads the trace a search returns.
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


def _traced(*argvs):
    """Run each argv through cli.main under a fresh tracer; its metrics."""
    before = [dict(vars(m)) for m in MODULES]
    tracer = _load_layers().Tracer()
    try:
        tracer.install()
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            for argv in argvs:
                assert cli.main(argv) == 0, argv
    finally:
        tracer.remove()
    for module, names in zip(MODULES, before):
        for name, value in names.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name} not restored"
    return tracer.metrics()


def test_tracer_installs_runs_and_removes():
    metrics = _traced(
        ["report", "0", "--max-len", "8"],
        ["solve", "0101", "--max-len", "12"],
        ["search", "0", "--format", "csv"],
        ["loss", "0.5", "0.25"],
    )
    assert metrics["machine.scans"][0] > 0
    assert metrics["lambertw.calls"][0] > 0
    assert metrics["loss.calls"][0] == 1


def test_tracer_counts_search_programs_and_hits():
    """The tracer counts a search from its trace, hits included, in both the
    table format (which prints no step) and the records format."""
    metrics = _traced(
        ["search", "0000", "--policy", "size-descending"],
        ["search", "0000", "--policy", "size-descending", "--format", "records"],
    )
    assert metrics["search.programs_run"][0] == 26  # 13 each
    assert metrics["search.hit_ratio"][0] == 4 / 26  # the literal and 00001011, twice
