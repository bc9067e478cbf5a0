"""End-to-end benchmark of the reachcalc CLI, with every output checked.

Run from the root of a reachcalc checkout:

    python3 reachbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn, each in its own process.
BENCHMARK.json names two of them, ``enumerate`` and ``search``; on
``numeric`` about a third of the ops fail the check at the seed (see
workloads.py).

One client calls ``reachcalc.cli.main(argv)`` in a closed loop, in this
process, on one thread.  Each op's stdout and stderr are captured, the op is
timed, and its output is checked against reference.py outside the timed
region and then dropped.  Ops come in whole decks (see workloads.py) until
the ops have run for ``--seconds`` and at least 100 of them have run.  Times
are wall times on a reference host (see hostspeed.py); the summary and the
``detail`` line also give them unscaled.

``--trace 0`` prints the end-to-end metrics: setup_s, throughput_ops_s,
latency_p50_s, latency_p90_s and peak_rss_mb; error_rate is the top-level
``failed``/``attempted`` pair, since it is 0 on a correct program.
``--trace 1`` runs a fixed number of decks, set by ``--seconds`` alone so
that its counts repeat exactly for one seed: first untraced, then with the
per-layer wrappers of layers.py installed, and prints the per-layer metrics
plus the tracing overhead, untraced minus traced throughput.

After the result's metrics are taken, every run also runs and checks
defect_probe() of workloads.py, untimed: ops that show the known defects of
the seed's Lambert W.  Their failures are printed as ``known defects`` in
the summary and the ``detail`` line, apart from the result's counts.

Stdout ends with a human-readable summary, a ``detail`` JSON line (the
environment, workload properties, failures) and, last, the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 21
# Untraced op seconds per deck on a 2-core x86-64 host with the pure kernel;
# --trace 1 runs ceil(seconds / this) decks.
DECK_SECONDS = {"enumerate": 3.0, "numeric": 0.14, "search": 6.5}
_SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import reachcalc.cli\n"
    "reachcalc.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)


class Sink:
    """Collects what the CLI writes without copying it."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def measure_setup(src: Path) -> tuple[float, float]:
    """Median time, scaled and raw, to import reachcalc.cli and build its
    parser in a fresh interpreter; one untimed start first writes the
    bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times, around = [], []
    for i in range(SETUP_REPEATS + 1):
        before = hostspeed.probe()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=src.parent,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(done.stdout))
            around.append((before + hostspeed.probe()) / 2)
    return statistics.median(hostspeed.scaled(times, around)), statistics.median(times)


def run_op(main, op):
    """(seconds, exit code or the exception raised, stdout, stderr)."""
    out, err = Sink(), Sink()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except Exception as exc:  # an op that raises out of main is a failed op
            code = exc
        elapsed = time.perf_counter() - start
    return elapsed, code, out.text(), err.text()


class Pass:
    """The ops of one pass, their latencies and what the check found."""

    def __init__(self):
        self.ops = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.bytes_out = 0
        self._probes: list[float] = []
        self._probe_before: list[int] = []  # per op, the index of the last probe before it
        self._probed_at = -math.inf

    def execute(self, cli, op, checker) -> None:
        if time.perf_counter() - self._probed_at >= hostspeed.PROBE_EVERY:
            self._probe()
        self._probe_before.append(len(self._probes) - 1)
        elapsed, code, out, err = run_op(cli.main, op)
        if elapsed >= hostspeed.PROBE_EVERY:
            self._probe()
        self.ops.append(op)
        self.latencies.append(elapsed)
        self.bytes_out += len(out)
        if checker is not None:
            reason = checker(op, code, out, err)
            if reason is not None:
                self.failures.append(f"{' '.join(op.argv)[:160]} -> {reason[:300]}")

    def _probe(self) -> None:
        self._probes.append(hostspeed.probe())
        self._probed_at = time.perf_counter()

    def around(self) -> list[float]:
        """Each op's probe time: the mean of the probe before it and the
        first one after it."""
        return [statistics.fmean(self._probes[i:i + 2]) for i in self._probe_before]

    def scaled(self) -> list[float]:
        """Op wall times on the reference host."""
        return hostspeed.scaled(self.latencies, self.around())


def throughput(latencies: list[float]) -> float:
    return len(latencies) / math.fsum(latencies)


def timed_pass(cli, decks, seconds: float, checker) -> Pass:
    """Whole decks until the ops have run for `seconds` and MIN_OPS ran."""
    done = Pass()
    while math.fsum(done.latencies) < seconds or len(done.ops) < MIN_OPS:
        for op in next(decks):
            done.execute(cli, op, checker)
    return done


def known_defects(cli, seed: int) -> Pass:
    """Runs and checks defect_probe(), drawn from the seed."""
    from check import Checker
    from workloads import defect_probe

    probe, checker = Pass(), Checker()
    for op in defect_probe(random.Random(f"defect probe {seed}")):
        probe.execute(cli, op, checker)
    return probe


def properties(done: Pass, checker) -> dict:
    """Measured shares of the inputs this run generated."""
    import reference as ref

    n = len(done.ops)
    props = {
        "ops_by_command": {k: v / n for k, v in sorted(Counter(o.command for o in done.ops).items())},
        "ops_by_format": {k: v / n for k, v in sorted(Counter(o.fmt for o in done.ops).items())},
        "out_of_domain_share": sum(o.expect == "DomainError" for o in done.ops) / n,
        "bytes_printed": done.bytes_out,
    }
    enum = [o for o in done.ops if o.kind in ("solve", "report") and o.info["max_len"] <= 24]
    if enum:
        sizes = [len(ref.solutions(o.info["target"], o.info["max_len"])) for o in enum]
        props["enumerate_no_solution_share"] = sum(s == 0 for s in sizes) / len(enum)
        props["enumerate_single_solution_share"] = sum(s == 1 for s in sizes) / len(enum)
        props["enumerate_over_cap_share"] = sum(o.expect == "ResourceExceeded"
                                                for o in done.ops) / n
    if checker is not None and checker.ledger.exhausted:
        flags = list(checker.ledger.exhausted.values())
        props["search_budget_exhausted_share"] = sum(flags) / len(flags)
    return props


def environment(seed: int) -> dict:
    import mpmath
    from reachcalc import machine

    return {
        "core_backend": machine.CORE_BACKEND,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath": mpmath.__version__,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("enumerate", "search", "numeric", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", workload,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for workload in ("enumerate", "search", "numeric")]
        return max(codes)

    src = Path.cwd() / "src"
    if not (src / "reachcalc" / "cli.py").is_file():
        sys.stderr.write("reachbench: run from the root of a reachcalc checkout (no src/reachcalc)\n")
        return 2
    sys.path.insert(0, str(src))
    import reachcalc.cli as cli
    from check import Checker
    from layers import Tracer
    from workloads import DECKS

    if Path(cli.__file__).resolve().parent != (src / "reachcalc").resolve():
        sys.stderr.write(f"reachbench: imported reachcalc from {cli.__file__}, not {src}\n")
        return 2

    rng = random.Random(args.seed)
    make_deck = DECKS[args.workload]

    def decks():
        while True:
            yield make_deck(rng)

    checker = Checker()
    run_op(cli.main, make_deck(random.Random(-1))[0])  # untimed warm-up
    if args.trace:
        n_decks = max(1, math.ceil(args.seconds / DECK_SECONDS[args.workload]))
        ops = [op for _ in range(n_decks) for op in make_deck(rng)]
        untraced = Pass()
        for op in ops:
            untraced.execute(cli, op, None)
        tracer = Tracer()
        tracer.install()
        try:
            done = Pass()
            for op in ops:
                done.execute(cli, op, checker)
        finally:
            tracer.remove()
        metrics = tracer.metrics()
        traced = throughput(done.scaled())
        metrics["trace.overhead_ops_s"] = (throughput(untraced.scaled()) - traced, "ops/s")
        metrics["trace.throughput_ops_s"] = (traced, "ops/s")
        raw = {}
    else:
        setup_s, raw_setup_s = measure_setup(src)
        done = timed_pass(cli, decks(), args.seconds, checker)
        lat = done.scaled()
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (throughput(lat), "ops/s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw = {
            "setup_s": raw_setup_s,
            "throughput_ops_s": throughput(done.latencies),
            "latency_p50_s": statistics.median(done.latencies),
            "latency_p90_s": statistics.quantiles(done.latencies, n=10)[8],
            "probe_median_s": statistics.median(done.around()),
        }

    attempted, failed = len(done.ops), len(done.failures)
    probe = known_defects(cli, args.seed)
    probe_failed = len(probe.failures)
    env = environment(args.seed)
    props = properties(done, checker)
    print(f"reachbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:<12.6g} {unit}"
              + (f"  (unscaled {raw[name]:.6g})" if name in raw else ""))
    if not args.trace:
        beyond = sum(x > metrics["latency_p90_s"][0] for x in lat)
        print(f"  {'(ops beyond p90)':<30} {beyond} of {attempted}")
    print(f"  {'error_rate':<30} {failed / attempted:<12.6g} ratio "
          f"({failed} failed of {attempted})")
    for reason in done.failures[:10]:
        print(f"  failed: {reason}")
    print(f"  {'known defects (probe)':<30} {probe_failed / len(probe.ops):<12.6g} ratio "
          f"({probe_failed} failed of {len(probe.ops)}, untimed, not in the counts above)")
    for reason in probe.failures[:5]:
        print(f"  defect: {reason}")
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "properties": props, "error_rate": failed / attempted,
              "metrics": {k: v for k, (v, _) in metrics.items()}, "unscaled": raw,
              "failures": done.failures[:20],
              "known_defects": {"attempted": len(probe.ops), "failed": probe_failed,
                                "error_rate": probe_failed / len(probe.ops),
                                "failures": probe.failures[:20]}}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
