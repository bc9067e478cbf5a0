"""Per-layer time and counts, measured by wrapping reachcalc from outside.

The layers are reachcalc's modules.  Each wrapper is installed where the
caller looks the name up (``reachcalc.cli.eval_w`` as well as
``reachcalc.loss.eval_w``), and no package file changes.  A wrapper opens a
span on entry and closes it on exit; a layer's self time is its spans minus
the spans of its children.  Spans are folded into per-layer sums as they
close instead of being kept: one enumerate op runs the machine kernel
hundreds of thousands of times.
"""

from __future__ import annotations

import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "formats", "machine", "search", "entropy", "reachability", "lambertw", "loss")
#: The layers whose self time is printed.  Only ``reach`` and ``report`` ops
#: run the reachability layer, and at the seed their outputs fail the check
#: (see workloads.py), so neither workload of BENCHMARK.json runs it.  It is
#: still wrapped, so that its time is not counted in its callers' self time.
TIMED_LAYERS = tuple(layer for layer in LAYERS if layer != "reachability")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------

    def _span(self, layer: str, fn, after=None):
        stack, self_s = self._stack, self.self_s

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _generator_span(self, layer: str, fn):
        """Time each step of a generator in its own layer, not the caller's."""
        step = self._span(layer, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # --- installation --------------------------------------------------

    def install(self) -> None:
        from reachcalc import _core_py, cli, lambertw, loss, machine, reachability, search

        counts = self.counts

        def wrap(owner, name, layer, after=None):
            self.patch(owner, name, self._span(layer, getattr(owner, name), after))

        wrap(cli, "main", "cli")

        def emitted(args, text):
            counts["formats.bytes"] += len(text.encode())

        for name in ("records_text", "csv_text", "table_text"):
            wrap(cli, name, "formats", emitted)

        def scanned(args, hits):
            counts["machine.scans"] += 1
            counts["machine.candidates"] += 3 ** (args[0] - 1)
            counts["machine.hits"] += len(hits)

        kernels = [_core_py] + ([machine._core] if machine._core is not None else [])
        for kernel in kernels:
            wrap(kernel, "scan_length_class", "machine", scanned)
        for name in ("enumerate_solutions", "kolmogorov_upper", "reachability_report"):
            wrap(cli, name, "machine")
        # search calls the interpreter as _core_py.run_bits; give it a view of
        # the kernel module whose run_bits is wrapped, so the kernel's own
        # class scans keep calling the bare function.
        view = types.SimpleNamespace(**vars(_core_py))
        view.run_bits = self._span("machine", _core_py.run_bits)
        self.patch(search, "_core_py", view)
        wrap(search, "literal_program", "machine")
        self.patch(search, "iter_valid_programs",
                   self._generator_span("machine", search.iter_valid_programs))

        def searched(args, trace):
            counts["search.programs_run"] += trace.programs_run
            counts["search.hits"] += sum(1 for _, outcome in trace.steps if outcome == "hit")

        wrap(cli, "demiurge_search", "search", searched)

        wrap(machine, "entropy_variation", "entropy")
        for owner in (cli, machine, search):
            wrap(owner, "entropy_to_work", "entropy")

        for owner in (cli, machine, search, reachability):
            wrap(owner, "reach_from_variation", "reachability")
        for name in ("reach_curve", "reach_from_energy"):
            wrap(cli, name, "reachability")

        def evaluated(args, ev):
            counts["lambertw.calls"] += 1
            counts["lambertw.iterations"] += ev.iterations

        for owner in (cli, reachability, loss, lambertw):
            wrap(owner, "eval_w", "lambertw", evaluated)
        wrap(cli, "w_curve", "lambertw")
        wrap(loss, "w_derivative", "lambertw")

        def lost(args, result):
            counts["loss.calls"] += 1

        for name in ("matching_loss", "convexity_certificate"):
            wrap(cli, name, "loss", lost)

    # --- results -------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in TIMED_LAYERS}
        out.update({
            "machine.scans": (c["machine.scans"], "count"),
            "machine.candidates": (c["machine.candidates"], "count"),
            "machine.hit_ratio": (ratio("machine.hits", "machine.candidates"), "ratio"),
            "search.programs_run": (c["search.programs_run"], "count"),
            "search.hit_ratio": (ratio("search.hits", "search.programs_run"), "ratio"),
            "formats.bytes": (c["formats.bytes"], "bytes"),
            "lambertw.calls": (c["lambertw.calls"], "count"),
            "lambertw.iterations_per_call": (ratio("lambertw.iterations", "lambertw.calls"),
                                             "count"),
            "loss.calls": (c["loss.calls"], "count"),
        })
        return out


#: Per-layer counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("machine.scans", "machine.candidates", "search.programs_run",
                "lambertw.calls", "formats.bytes")
