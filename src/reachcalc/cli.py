"""Command-line interface.

Subcommands: lambertw, reach, solve, report, search, loss.  Floats print
with 12 significant digits; records/csv output is byte-identical across
identical invocations.  Exit codes: 0 success, 1 domain error, 2 resource
or budget error, 3 usage error.  Each warning a command raises is written
to stderr as one ``warning: <message>`` line.

Every command prints through ``_write``, except the rows of ``solve`` and
``report``, which go straight to ``formats.classes_text`` one length class at
a time: rows of one class share every column but ``program``, so each class's
columns are formatted once.  ``_write``'s row writers lay out their rows
through the same function, so every format has one layout.  A table shows
``name: value`` lines, then rows as aligned columns (``report`` puts a title
line first).  Records and csv show the rows, or a scalar result as one row.
``search --format table`` prints only the summary; a ``solve`` with no
solution prints its header in a table and nothing in records or csv.  An
argument the command would ignore is a usage error, like a target given both
inline and by --input: ``lambertw X`` or ``reach
--variation``/``--energy``/``--temp`` with ``--curve``, ``loss Z_HAT Z`` with
``--convexity-grid``, ``search --start-length`` with the reachability-greedy
policy, ``search --max-len`` with the other two and ``search --budget-energy``
or ``--temp`` with any policy but size-descending, the only one that charges
energy.  So ``--temp``, ``--max-len`` and ``--budget-energy`` default to None
in the parser, and ``_given_or_default`` applies the documented default where
the value is used.

``main`` parses with one parser per process, built by ``build_parser`` on the
first call and shared by every later in-process call; ``build_parser`` itself
returns a fresh parser each time.  An argv that starts with a command is
parsed by that command's parser alone, the one the top-level parser would
hand the rest of argv to; any other argv goes through the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

from . import __version__
from .entropy import entropy_to_work, work_to_entropy
from .errors import InvalidPolicy, ReachcalcError, ResourceExceeded
from .formats import (
    REPORT_KEYS,
    SOLUTION_KEYS,
    TRACE_KEYS,
    classes_text,
    csv_text,
    format_value,
    read_program_text,
    records_text,
    table_text,
)
from .lambertw import BranchChoice, eval_w, w_curve
from .loss import convexity_certificate, matching_loss
from .machine import (
    DEFAULT_MAX_LEN,
    Scheme,
    _class_weights,
    _report_classes,
    enumerate_solutions,
)
from .machine import kolmogorov_upper  # unused; reachbench/layers.py wraps it here
from .machine import reachability_report  # unused; reachbench/layers.py wraps it here
from .reachability import reach_curve, reach_from_energy, reach_from_variation
from .search import Budget, SearchPolicy, _as_policy, demiurge_search

_EXIT_DOMAIN = 1
_EXIT_RESOURCE = 2
_EXIT_USAGE = 3
_MAX_CURVE_POINTS = 100_000  # the default search budget, so no curve outgrows a default trace
_DEFAULTS = {"temp": 300.0, "max_len": DEFAULT_MAX_LEN, "budget_energy": math.inf}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _write(fmt: str, fields=(), keys: tuple[str, ...] = (), rows=None) -> None:
    """Print fields and rows in fmt by the rule of the module docstring; the
    fields make the one row when rows is None, and an empty row list prints
    nothing.  records_text, csv_text and table_text are looked up here at
    call time, where reachbench/layers.py wraps them; each hands its rows to
    formats.classes_text as one-row classes."""
    if fmt == "table":
        for k, v in fields:
            sys.stdout.write(f"{k}: {format_value(v)}\n")
        if rows:
            sys.stdout.write(table_text(rows, keys))
        return
    if rows is None:
        rows, keys = [dict(fields)], tuple(k for k, _ in fields)
    if rows:
        sys.stdout.write((records_text if fmt == "records" else csv_text)(rows, keys))


def _given_or_default(args, name: str):
    """The value of option `name`, or its documented default when not given."""
    value = getattr(args, name)
    return _DEFAULTS[name] if value is None else value


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
        if args.x is not None:
            raise _UsageError("give lambertw either an argument x or --curve, not both")
        lo, hi, n = _curve(args.curve)
        _write(args.format, keys=("x", "w"),
               rows=[{"x": x, "w": w} for x, w in w_curve(lo, hi, n, branch)])
        return 0
    if args.x is None:
        raise _UsageError("lambertw needs an argument x or --curve lo hi n")
    ev = eval_w(args.x, branch)
    _write(args.format, [
        ("x", ev.argument),
        ("branch", ev.branch.value),
        ("w", ev.value),
        ("residual", ev.residual),
        ("iterations", ev.iterations),
    ])
    return 0


def _cmd_reach(args) -> int:
    branch = BranchChoice(args.branch)
    if args.curve:
        if args.variation is not None or args.energy is not None:
            raise _UsageError("give reach either --variation/--energy or --curve, not both")
        if args.temp is not None:
            raise _UsageError("reach --curve has no energy column, so it takes no --temp")
        lo, hi, n = _curve(args.curve)
        _write(args.format, keys=("variation", "reachability"), rows=[
            {"variation": h, "reachability": p} for h, p in reach_curve(lo, hi, n, branch)
        ])
        return 0
    if (args.variation is None) == (args.energy is None):
        raise _UsageError("reach needs exactly one of --variation or --energy (or --curve)")
    temp = _given_or_default(args, "temp")
    if args.variation is not None:
        h = args.variation
        p = reach_from_variation(h, branch)
        energy = entropy_to_work(h, temp)
    else:
        p = reach_from_energy(args.energy, temp, branch)
        energy = args.energy
        h = work_to_entropy(energy, temp)
    _write(args.format, [
        ("variation", h),
        ("reachability", p),
        ("branch", branch.value),
        ("energy", energy),
        ("temperature", temp),
    ])
    return 0


def _cmd_solve(args) -> int:
    target = _target_from(args)
    max_len = _given_or_default(args, "max_len")
    solutions = enumerate_solutions(target, max_len, scheme=Scheme(args.scheme))
    # The set is empty exactly when K(rho) > max_len, and otherwise its first
    # class is the shortest one, whose first program is K's witness.
    shortest = solutions.classes[0] if solutions.classes else None
    header = [
        ("target", target),
        ("max_len", max_len),
        ("solutions", len(solutions)),
        ("k_upper", 2 * shortest[0] if shortest else "none"),
        ("witness", shortest[1][0] if shortest else "none"),
    ]
    _write(args.format, header, rows=[])  # only a table shows the header
    if solutions.classes:
        sys.stdout.write(classes_text(args.format, SOLUTION_KEYS, [
            (hits, {"length": 2 * n, "p": p})
            for (n, hits), p in zip(solutions.classes,
                                    _class_weights(solutions.classes, solutions.scheme))
        ]))
    return 0


def _cmd_report(args) -> int:
    target = _target_from(args)
    temp = _given_or_default(args, "temp")
    classes = _report_classes(target, _given_or_default(args, "max_len"), Scheme(args.scheme),
                              temp, BranchChoice(args.branch))
    keys = REPORT_KEYS
    if args.format == "table":
        sys.stdout.write(
            f"target: {target!r}  branch: {args.branch}  scheme: {args.scheme}  "
            f"T: {format_value(temp)} K\n"
        )
        keys += ("normalized",)
    sys.stdout.write(classes_text(args.format, keys, [
        (hits, {"length": len(hits[0]), "p": p, "variation": h, "reachability": reach,
                "energy": energy, "normalized": normalized})
        for hits, p, h, reach, energy, normalized in classes
    ]))
    return 0


def _cmd_search(args) -> int:
    target = _target_from(args)
    budget = Budget(programs=args.budget_programs, energy=_given_or_default(args, "budget_energy"))
    policy = _as_policy(args.policy)
    greedy = policy is SearchPolicy.REACHABILITY_GREEDY
    if greedy and args.start_length is not None:
        raise _UsageError("reachability-greedy starts at the smallest class; drop --start-length")
    if not greedy and args.max_len is not None:
        raise _UsageError("--max-len bounds only the reachability-greedy policy; drop it")
    if policy is not SearchPolicy.SIZE_DESCENDING:
        if args.budget_energy is not None:
            raise _UsageError("--budget-energy bounds only the size-descending policy; drop it")
        if args.temp is not None:
            raise _UsageError("--temp prices only the size-descending policy's energy; drop it")
    trace = demiurge_search(
        target,
        policy,
        budget,
        temperature=_given_or_default(args, "temp"),
        start_length=args.start_length,
        max_len=_given_or_default(args, "max_len"),
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
    # A table prints only the summary; records and csv print every step.
    rows = None if args.format == "table" else (
        {"program": bits, "length": len(bits), "outcome": outcome}
        for bits, outcome in trace.iter_steps()
    )
    _write(args.format, summary, TRACE_KEYS, rows)
    return 0


def _cmd_loss(args) -> int:
    if args.convexity_grid:
        if args.z_hat is not None:
            raise _UsageError("give loss either z_hat and z or --convexity-grid, not both")
        cert = convexity_certificate()
        _write(args.format, [
            ("convex", cert.ok),
            ("min_second_difference", cert.min_second_difference),
            ("points", cert.points),
            ("lo", cert.lo),
            ("hi", cert.hi),
            ("step", cert.step),
        ])
        return 0 if cert.ok else _EXIT_DOMAIN
    if args.z_hat is None or args.z is None:
        raise _UsageError("loss needs z_hat and z (or --convexity-grid)")
    ev = matching_loss(args.z_hat, args.z)
    _write(args.format, [
        ("z_hat", ev.z_hat),
        ("z", ev.z),
        ("f_z_hat", ev.f_z_hat),
        ("f_z", ev.f_z),
        ("divergence", ev.divergence),
    ])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reachcalc",
        description="Reachability calculus for programs of a prefix-free toy machine.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"reachcalc {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser._commands = sub.choices  # name -> command parser, read by main

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
            p.add_argument("--temp", type=float, default=None, metavar="K",
                           help="temperature in kelvin (default 300)")
        if scheme:
            p.add_argument(
                "--scheme",
                choices=("uniform", "lengthweighted"),
                default="lengthweighted",
                help="solution weighting (default lengthweighted)",
            )
        if max_len:
            p.add_argument("--max-len", type=int, default=None, metavar="BITS",
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
    p.add_argument("--budget-energy", type=float, default=None, metavar="J",
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

    In-process callers share one parser, built on the first call; an argv
    that starts with a command is parsed by that command's parser alone.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = _parser()
        command = parser._commands.get(argv[0]) if argv else None
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
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
