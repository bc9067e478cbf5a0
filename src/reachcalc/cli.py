"""Command-line interface.

Subcommands: lambertw, reach, solve, report, search, loss.  Floats print
with 12 significant digits; records/csv output is byte-identical across
identical invocations.  Exit codes: 0 success, 1 domain error, 2 resource
or budget error, 3 usage error.  Each warning a command raises is written
to stderr as one ``warning: <message>`` line.

``main`` parses with one parser per process, built by ``build_parser`` on the
first call and shared by every later in-process call; ``build_parser`` itself
returns a fresh parser each time.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from collections.abc import Iterable

from . import __version__
from .entropy import entropy_to_work, work_to_entropy
from .errors import InvalidPolicy, ReachcalcError, ResourceExceeded
from .formats import (
    REPORT_KEYS,
    SOLUTION_KEYS,
    TRACE_KEYS,
    csv_text,
    format_value,
    read_program_text,
    records_text,
    table_text,
)
from .lambertw import BranchChoice, eval_w, w_curve
from .loss import convexity_certificate, matching_loss
from .machine import (
    CORE_BACKEND,
    DEFAULT_MAX_LEN,
    Scheme,
    enumerate_solutions,
    kolmogorov_upper,  # unused here; reachbench/layers.py wraps cli.kolmogorov_upper
    reachability_report,
)
from .reachability import reach_curve, reach_from_energy, reach_from_variation
from .search import Budget, demiurge_search

_EXIT_DOMAIN = 1
_EXIT_RESOURCE = 2
_EXIT_USAGE = 3
_MAX_CURVE_POINTS = 100_000  # the default search budget, so no curve outgrows a default trace


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _emit(rows: Iterable[dict], keys: tuple[str, ...], fmt: str) -> None:
    if fmt == "records":
        sys.stdout.write(records_text(rows, keys))
    elif fmt == "csv":
        sys.stdout.write(csv_text(rows, keys))
    else:
        sys.stdout.write(table_text(rows, keys))


def _write_fields(fields: list[tuple[str, object]]) -> None:
    for k, v in fields:
        sys.stdout.write(f"{k}: {format_value(v)}\n")


def _scalar(fields: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "table":
        _write_fields(fields)
    else:
        _emit([dict(fields)], tuple(k for k, _ in fields), fmt)


def _curve(curve: list[str]) -> tuple[float, float, int]:
    lo, hi, n = curve
    try:
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise _UsageError(
            f"--curve needs numbers LO HI and an integer N, got {' '.join(curve)}"
        ) from None
    if n > _MAX_CURVE_POINTS:
        raise ResourceExceeded(f"--curve asks for {n} points, above the limit {_MAX_CURVE_POINTS}")
    return lo, hi, n


def _target_from(args) -> str:
    if args.input is not None:
        if args.rho is not None:
            raise _UsageError("give the target either inline or via --input, not both")
        # surrogateescape decodes every byte; a non-ASCII one becomes a lone
        # surrogate, which read_program_text rejects like any other non-bit.
        with open(args.input, encoding="ascii", errors="surrogateescape") as fh:
            return read_program_text(fh.read())
    if args.rho is None:
        raise _UsageError("missing target: pass it inline or via --input")
    return args.rho


def _add_target(sub) -> None:
    sub.add_argument("rho", nargs="?", default=None, help="target bit string (may be empty: '')")
    sub.add_argument("--input", metavar="FILE", help="read the target bits from FILE")


def _cmd_lambertw(args) -> int:
    branch = BranchChoice(args.branch)
    if args.curve:
        lo, hi, n = _curve(args.curve)
        rows = [{"x": x, "w": w} for x, w in w_curve(lo, hi, n, branch)]
        _emit(rows, ("x", "w"), args.format)
        return 0
    if args.x is None:
        raise _UsageError("lambertw needs an argument x or --curve lo hi n")
    ev = eval_w(args.x, branch)
    _scalar(
        [
            ("x", ev.argument),
            ("branch", ev.branch.value),
            ("w", ev.value),
            ("residual", ev.residual),
            ("iterations", ev.iterations),
        ],
        args.format,
    )
    return 0


def _cmd_reach(args) -> int:
    branch = BranchChoice(args.branch)
    if args.curve:
        lo, hi, n = _curve(args.curve)
        rows = [{"variation": h, "reachability": p} for h, p in reach_curve(lo, hi, n, branch)]
        _emit(rows, ("variation", "reachability"), args.format)
        return 0
    if (args.variation is None) == (args.energy is None):
        raise _UsageError("reach needs exactly one of --variation or --energy (or --curve)")
    if args.variation is not None:
        h = args.variation
        p = reach_from_variation(h, branch)
        energy = entropy_to_work(h, args.temp)
    else:
        p = reach_from_energy(args.energy, args.temp, branch)
        energy = args.energy
        h = work_to_entropy(energy, args.temp)
    _scalar(
        [
            ("variation", h),
            ("reachability", p),
            ("branch", branch.value),
            ("energy", energy),
            ("temperature", args.temp),
        ],
        args.format,
    )
    return 0


def _cmd_solve(args) -> int:
    target = _target_from(args)
    solutions = enumerate_solutions(target, args.max_len, scheme=Scheme(args.scheme))
    # Programs come in (length, lex) order, so the first is the shortest
    # solution with kolmogorov_upper's tie-break.
    first = solutions.programs[0] if solutions.programs else None
    header = [
        ("target", target),
        ("max_len", args.max_len),
        ("solutions", len(solutions)),
        ("k_upper", first.length if first else "none"),
        ("witness", first.bits if first else "none"),
    ]
    if args.format == "table":
        _write_fields(header)
    rows = [
        {"program": prog.bits, "length": prog.length, "p": solutions.weights[i]}
        for i, prog in enumerate(solutions.programs)
    ]
    if rows:
        _emit(rows, SOLUTION_KEYS, args.format)
    return 0


def _cmd_report(args) -> int:
    target = _target_from(args)
    records = reachability_report(
        target,
        args.max_len,
        scheme=Scheme(args.scheme),
        temperature=args.temp,
        branch=BranchChoice(args.branch),
    )
    rows = [
        {
            "program": r.program_id,
            "length": r.length,
            "p": r.p_i,
            "variation": r.variation,
            "reachability": r.reachability,
            "energy": r.energy,
            "normalized": r.normalized,
        }
        for r in records
    ]
    if args.format == "table":
        sys.stdout.write(
            f"target: {target!r}  branch: {args.branch}  scheme: {args.scheme}  "
            f"T: {format_value(args.temp)} K\n"
        )
        _emit(rows, REPORT_KEYS + ("normalized",), "table")
    else:
        _emit(rows, REPORT_KEYS, args.format)
    return 0


def _cmd_search(args) -> int:
    target = _target_from(args)
    budget = Budget(programs=args.budget_programs, energy=args.budget_energy)
    trace = demiurge_search(
        target,
        args.policy,
        budget,
        temperature=args.temp,
        start_length=args.start_length,
        max_len=args.max_len,
    )
    summary = [
        ("policy", trace.policy.value),
        ("programs_run", trace.programs_run),
        ("best_found", trace.best_found.bits if trace.best_found else "none"),
        ("best_length", trace.best_found.length if trace.best_found else "none"),
        ("bits_reduced", trace.bits_reduced),
        ("energy_charged", trace.energy_charged),
        ("temperature", trace.temperature),
        ("budget_exhausted", trace.budget_exhausted),
    ]
    if args.format == "table":
        _write_fields(summary)
        return 0
    rows = (
        {"program": bits, "length": len(bits), "outcome": outcome}
        for bits, outcome in trace.iter_steps()
    )
    _emit(rows, TRACE_KEYS, args.format)
    return 0


def _cmd_loss(args) -> int:
    if args.convexity_grid:
        cert = convexity_certificate()
        _scalar(
            [
                ("convex", cert.ok),
                ("min_second_difference", cert.min_second_difference),
                ("points", cert.points),
                ("lo", cert.lo),
                ("hi", cert.hi),
                ("step", cert.step),
            ],
            args.format,
        )
        return 0 if cert.ok else _EXIT_DOMAIN
    if args.z_hat is None or args.z is None:
        raise _UsageError("loss needs z_hat and z (or --convexity-grid)")
    ev = matching_loss(args.z_hat, args.z)
    _scalar(
        [
            ("z_hat", ev.z_hat),
            ("z", ev.z),
            ("f_z_hat", ev.f_z_hat),
            ("f_z", ev.f_z),
            ("divergence", ev.divergence),
        ],
        args.format,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reachcalc",
        description="Reachability calculus for programs of a prefix-free toy machine.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"reachcalc {__version__} (core: {CORE_BACKEND})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, branch=True, temp=False, scheme=False, max_len=False):
        p.add_argument(
            "--format",
            choices=("table", "records", "csv"),
            default="table",
            help="output shape (default table)",
        )
        if branch:
            p.add_argument(
                "--branch",
                choices=("lower", "principal"),
                default="lower",
                help="real branch of W (default lower)",
            )
        if temp:
            p.add_argument("--temp", type=float, default=300.0, metavar="K",
                           help="temperature in kelvin (default 300)")
        if scheme:
            p.add_argument(
                "--scheme",
                choices=("uniform", "lengthweighted"),
                default="lengthweighted",
                help="solution weighting (default lengthweighted)",
            )
        if max_len:
            p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN, metavar="BITS",
                           help=f"program length cap (default {DEFAULT_MAX_LEN})")

    p = sub.add_parser("lambertw", help="evaluate a real branch of the Lambert W function")
    p.add_argument("x", nargs="?", type=float, default=None, help="argument")
    p.add_argument("--curve", nargs=3, metavar=("LO", "HI", "N"),
                   help="emit N sampled (x, W) pairs on [LO, HI]")
    common(p)
    p.set_defaults(func=_cmd_lambertw)

    p = sub.add_parser("reach", help="reachability from an entropy variation or energy")
    p.add_argument("--variation", type=float, metavar="H", help="entropy variation in bits")
    p.add_argument("--energy", type=float, metavar="J", help="energy form k T ln2 * H")
    p.add_argument("--curve", nargs=3, metavar=("LO", "HI", "N"),
                   help="emit N sampled (variation, reachability) pairs on [LO, HI]")
    common(p, temp=True)
    p.set_defaults(func=_cmd_reach)

    p = sub.add_parser("solve", help="enumerate the solution set of a target")
    _add_target(p)
    common(p, branch=False, scheme=True, max_len=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("report", help="reachability report over a target's solution set")
    _add_target(p)
    common(p, temp=True, scheme=True, max_len=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("search", help="run a Demiurge search policy")
    _add_target(p)
    p.add_argument(
        "--policy",
        default="sizedescending",
        metavar="NAME",
        help="exhaustive-by-size, size-descending, or reachability-greedy "
        "(default size-descending; case and -/_ are ignored)",
    )
    p.add_argument("--budget-programs", type=int, default=100_000, metavar="N",
                   help="program budget (default 100000)")
    p.add_argument("--budget-energy", type=float, default=math.inf, metavar="J",
                   help="energy budget in joules (default unlimited)")
    p.add_argument("--start-length", type=int, default=None, metavar="BITS",
                   help="size class where the search starts (default: literal program)")
    common(p, branch=False, temp=True, max_len=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("loss", help="matching loss of the convex link exp(-W(z))")
    p.add_argument("z_hat", nargs="?", type=float, default=None, help="prediction")
    p.add_argument("z", nargs="?", type=float, default=None, help="target")
    p.add_argument("--convexity-grid", action="store_true",
                   help="run the numerical convexity certificate instead")
    common(p, branch=False)
    p.set_defaults(func=_cmd_loss)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one CLI invocation and return its exit code.

    In-process callers share one parser, built on the first call.
    """
    try:
        args = _parser().parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.func(args)
            finally:
                for w in caught:
                    sys.stderr.write(f"warning: {w.message}\n")
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return _EXIT_USAGE
    except ReachcalcError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        if isinstance(exc, InvalidPolicy):
            return _EXIT_USAGE
        return _EXIT_RESOURCE if isinstance(exc, ResourceExceeded) else _EXIT_DOMAIN
    except OSError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
