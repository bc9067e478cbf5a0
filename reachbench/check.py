"""Checks every line a CLI op prints against the references in reference.py.

A printed float passes when it is the 12-significant-digit rendering of some
double within ULPS ulps of the 50-digit reference.  For the two printed
differences of computed terms (the matching-loss divergence and the
convexity grid's smallest second difference) the ulps are taken of the
largest term, which is what the formula allows when every term is right to
the last bit.  Nothing else is loosened: a wrong 12th digit is a failure.
"""

from __future__ import annotations

import io
import math
import re
from functools import lru_cache

from mpmath import mp, mpf

import reference as ref
from workloads import Op

ULPS = 4
W_MAX_ITER = 64
_PROGRAM = re.compile(r"(?:0[01]|10)*11")
_POLICY_NAMES = {
    "exhaustive-by-size": "exhaustivebysize",
    "size-descending": "sizedescending",
    "reachability-greedy": "reachabilitygreedy",
}
_DEGENERATE = "warning: deterministic solution set: reachability reported as the branch limit\n"


class Mismatch(Exception):
    """An output line disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def expect_float(text: str, value, scale=None) -> None:
    """text must print a double within ULPS ulps of value (or of scale)."""
    v = float(value)
    slack = ULPS * math.ulp(abs(float(scale)) if scale is not None else v)
    lo, hi = float(f"{v - slack:.12g}"), float(f"{v + slack:.12g}")
    got = float(text)
    _require(lo <= got <= hi and text == f"{got:.12g}",
             f"printed {text}, reference {mp.nstr(mpf(value), 17)}")


def expect_echo(text: str, value: float) -> None:
    _require(text == f"{value:.12g}", f"printed {text}, argument {value!r}")


def expect_keys(row: dict, keys: tuple[str, ...]) -> None:
    _require(tuple(row) == keys, f"fields {tuple(row)}, expected {keys}")


# --- output shapes -------------------------------------------------------

def _scalar_lines(lines: list[str]) -> dict:
    fields = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        _require(bool(sep), f"not a 'key: value' line: {line!r}")
        fields[key] = value
    return fields


def _table_rows(lines: list[str]) -> list[dict]:
    keys = lines[0].split()
    rows = []
    for line in lines[1:]:
        cells = line.split()
        _require(len(cells) == len(keys), f"table row {line!r} has {len(cells)} cells")
        rows.append(dict(zip(keys, cells)))
    return rows


def iter_rows(text: str, fmt: str):
    """Yield the rows of records or csv text one at a time."""
    lines = io.StringIO(text)
    if fmt == "records":
        for line in lines:
            row = {}
            for pair in line.split():
                key, sep, value = pair.partition("=")
                _require(bool(sep), f"not a key=value pair: {pair!r}")
                row[key] = value
            yield row
        return
    header = next(lines, "").rstrip("\n").split(",")
    for line in lines:
        cells = line.rstrip("\n").split(",")
        _require(len(cells) == len(header), f"csv row {line!r} does not match the header")
        yield dict(zip(header, cells))


def rows_of(text: str, fmt: str) -> list[dict]:
    if fmt == "table":
        lines = text.splitlines()
        _require(bool(lines), "empty table")
        return _table_rows(lines)
    return list(iter_rows(text, fmt))


def scalar_of(text: str, fmt: str) -> dict:
    """The one-record outputs: 'key: value' lines, or a single row."""
    if fmt == "table":
        return _scalar_lines(text.splitlines())
    rows = rows_of(text, fmt)
    _require(len(rows) == 1, f"{len(rows)} rows, expected 1")
    return rows[0]


# --- numeric -------------------------------------------------------------

def _curve_points(lo: float, hi: float, n: int) -> list[float]:
    # The sample points as the CLI defines them: lo + i (hi - lo)/(n - 1).
    xs = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    xs[-1] = hi
    return xs


def check_lambertw(op: Op, out: str) -> None:
    f = scalar_of(out, op.fmt)
    expect_keys(f, ("x", "branch", "w", "residual", "iterations"))
    x, lower = op.info["x"], op.info["branch"] == "lower"
    expect_echo(f["x"], x)
    _require(f["branch"] == op.info["branch"], f"branch {f['branch']}")
    expect_float(f["w"], ref.lambert_w(x, lower))
    # The residual is |w e^w - x| at the unprinted double w; hold it to the
    # bound the package documents.
    near = mpf(x) + ref.INV_E < mpf("1e-5")
    bound = 1e-9 if near else 1e-12 * max(1.0, abs(x))
    residual = float(f["residual"])
    _require(0.0 <= residual <= bound, f"residual {f['residual']} above {bound:g}")
    _require(f["iterations"].isdigit() and int(f["iterations"]) <= W_MAX_ITER,
             f"iterations {f['iterations']}")


def check_lambertw_curve(op: Op, out: str) -> None:
    rows = rows_of(out, op.fmt)
    xs = _curve_points(op.info["lo"], op.info["hi"], op.info["n"])
    _require(len(rows) == len(xs), f"{len(rows)} rows, expected {len(xs)}")
    lower = op.info["branch"] == "lower"
    for row, x in zip(rows, xs):
        expect_keys(row, ("x", "w"))
        expect_echo(row["x"], x)
        expect_float(row["w"], ref.lambert_w(x, lower))


def check_reach(op: Op, out: str) -> None:
    f = scalar_of(out, op.fmt)
    expect_keys(f, ("variation", "reachability", "branch", "energy", "temperature"))
    info, lower = op.info, op.info["branch"] == "lower"
    temp = info["temp"]
    if "energy" in info:
        h = mpf(info["energy"]) / ref.energy(1, temp)
        expect_float(f["variation"], h)
        expect_echo(f["energy"], info["energy"])
    else:
        h = info["variation"]
        expect_echo(f["variation"], h)
        expect_float(f["energy"], ref.energy(h, temp))
    expect_float(f["reachability"], ref.reachability(h, lower))
    _require(f["branch"] == info["branch"], f"branch {f['branch']}")
    expect_echo(f["temperature"], temp)


def check_reach_curve(op: Op, out: str) -> None:
    rows = rows_of(out, op.fmt)
    hs = _curve_points(op.info["lo"], op.info["hi"], op.info["n"])
    _require(len(rows) == len(hs), f"{len(rows)} rows, expected {len(hs)}")
    lower = op.info["branch"] == "lower"
    for row, h in zip(rows, hs):
        expect_keys(row, ("variation", "reachability"))
        expect_echo(row["variation"], h)
        expect_float(row["reachability"], ref.reachability(h, lower))


def check_loss(op: Op, out: str) -> None:
    f = scalar_of(out, op.fmt)
    expect_keys(f, ("z_hat", "z", "f_z_hat", "f_z", "divergence"))
    z_hat, z = op.info["z_hat"], op.info["z"]
    expect_echo(f["z_hat"], z_hat)
    expect_echo(f["z"], z)
    f_hat, f_z = ref.link(z_hat), ref.link(z)
    tangent = ref.link_slope(z) * (mpf(z_hat) - mpf(z))
    expect_float(f["f_z_hat"], f_hat)
    expect_float(f["f_z"], f_z)
    expect_float(f["divergence"], f_hat - f_z - tangent,
                 scale=max(abs(f_hat), abs(f_z), abs(tangent)))


@lru_cache(maxsize=1)
def convexity_reference() -> tuple[mpf, mpf, int]:
    """Smallest second difference of f on the default grid, its largest
    term and the number of grid points.

    The grid is the float grid the CLI walks: lo = -1/e + 1e-3 and steps of
    0.01 up to 10, accumulated in doubles.
    """
    lo, hi, step = -1.0 / math.e + 1e-3, 10.0, 1e-2
    f = lru_cache(maxsize=None)(ref.link)
    best = None
    points = 0
    x = lo + step
    while x + step <= hi + step * 1e-9:
        a, b, c = f(x - step), f(x), f(x + step)
        d2 = a - 2 * b + c
        if best is None or d2 < best[0]:
            best = (d2, abs(a) + 2 * abs(b) + abs(c))
        points += 1
        x += step
    return best[0], best[1], points


def check_convexity(op: Op, out: str) -> None:
    f = scalar_of(out, op.fmt)
    expect_keys(f, ("convex", "min_second_difference", "points", "lo", "hi", "step"))
    d2, scale, points = convexity_reference()
    _require(f["convex"] == "true", f"convex {f['convex']}")
    expect_float(f["min_second_difference"], d2, scale=scale)
    _require(f["points"] == str(points), f"points {f['points']}, expected {points}")
    expect_float(f["lo"], -ref.INV_E + mpf("1e-3"))
    expect_echo(f["hi"], 10.0)
    expect_echo(f["step"], 0.01)


# --- enumerate -----------------------------------------------------------

def _weights(programs: list[str], scheme: str) -> list[mpf]:
    if not programs:
        return []
    if scheme == "uniform":
        return [mpf(1) / len(programs)] * len(programs)
    raw = [mpf(2) ** -len(p) for p in programs]  # exact: a sum of powers of two
    total = sum(raw)
    return [r / total for r in raw]


def check_solve(op: Op, out: str) -> None:
    target, max_len = op.info["target"], op.info["max_len"]
    programs = ref.solutions(target, max_len)
    lines = out.splitlines()
    if op.fmt == "table":
        head = _scalar_lines(lines[:5])
        expect_keys(head, ("target", "max_len", "solutions", "k_upper", "witness"))
        _require(head["target"] == target, f"target {head['target']!r}")
        _require(head["max_len"] == str(max_len), f"max_len {head['max_len']}")
        _require(head["solutions"] == str(len(programs)),
                 f"{head['solutions']} solutions, expected {len(programs)}")
        k = str(len(programs[0])) if programs else "none"
        witness = programs[0] if programs else "none"
        _require(head["k_upper"] == k, f"k_upper {head['k_upper']}, expected {k}")
        _require(head["witness"] == witness, f"witness {head['witness']}, expected {witness}")
        rows = _table_rows(lines[5:]) if programs else []
        _require(bool(programs) or len(lines) == 5, "rows printed for an empty set")
    else:
        rows = list(iter_rows(out, op.fmt)) if programs else []
        _require(bool(programs) or out == "", "output printed for an empty set")
    _require([r.get("program") for r in rows] == programs,
             f"{len(rows)} programs printed, reference has {len(programs)}")
    for row, prog, p in zip(rows, programs, _weights(programs, op.info["scheme"])):
        expect_keys(row, ("program", "length", "p"))
        _require(row["length"] == str(len(prog)), f"length {row['length']} of {prog}")
        expect_float(row["p"], p)


def check_report(op: Op, out: str) -> None:
    info = op.info
    target, lower, temp = info["target"], info["branch"] == "lower", info["temp"]
    programs = ref.solutions(target, info["max_len"])
    weights = _weights(programs, info["scheme"])
    records = []
    for prog, p in zip(programs, weights):
        if len(programs) == 1:
            v, reach = mpf(0), mpf(0 if lower else 1)
        else:
            v = -p * mp.log(p, 2)
            reach = ref.reachability(v, lower)
        records.append((prog, p, v, reach))
    total = sum(r[3] for r in records)
    records.sort(key=lambda r: -r[3])
    keys = ("program", "length", "p", "variation", "reachability", "energy")
    if op.fmt == "table":
        lines = out.splitlines()
        title = (f"target: {target!r}  branch: {info['branch']}  "
                 f"scheme: {info['scheme']}  T: {temp:.12g} K")
        _require(bool(lines) and lines[0] == title, f"title {lines[:1]}")
        rows = _table_rows(lines[1:])
        keys += ("normalized",)
    else:
        rows = list(iter_rows(out, op.fmt))
    _require([r.get("program") for r in rows] == [r[0] for r in records],
             f"{len(rows)} rows, reference has {len(records)} in another order")
    for row, (prog, p, v, reach) in zip(rows, records):
        expect_keys(row, keys)
        _require(row["length"] == str(len(prog)), f"length {row['length']} of {prog}")
        expect_float(row["p"], p)
        expect_float(row["variation"], v)
        expect_float(row["reachability"], reach)
        expect_float(row["energy"], ref.energy(v, temp))
        if "normalized" in row:
            expect_float(row["normalized"], reach / total if total > 0 else 1)


# --- search --------------------------------------------------------------

class SearchLedger:
    """Holds programs_run from a table op against the row count of its twin."""

    def __init__(self):
        self.counts: dict[tuple, dict[str, int]] = {}
        self.exhausted: dict[tuple, bool] = {}

    def record(self, op: Op, side: str, count: int) -> None:
        key = (op.info["target"], op.info["policy"], op.info["budget"])
        seen = self.counts.setdefault(key, {})
        seen[side] = count
        if len(seen) == 2:
            _require(seen["table"] == seen["trace"],
                     f"programs_run {seen['table']} but {seen['trace']} trace rows")


@lru_cache(maxsize=4096)
def _class_hits(target: str, length: int) -> frozenset:
    return frozenset(ref.class_solutions(target, length // 2))


def check_search(op: Op, out: str, ledger: SearchLedger) -> None:
    target, budget = op.info["target"], op.info["budget"]
    if op.fmt == "table":
        f = _scalar_lines(out.splitlines())
        expect_keys(f, ("policy", "programs_run", "best_found", "best_length", "bits_reduced",
                        "energy_charged", "temperature", "budget_exhausted"))
        _require(f["policy"] == _POLICY_NAMES[op.info["policy"]], f"policy {f['policy']}")
        run = int(f["programs_run"])
        _require(1 <= run <= budget, f"programs_run {run} outside 1..{budget}")
        _require(f["budget_exhausted"] in ("true", "false"), "budget_exhausted")
        exhausted = f["budget_exhausted"] == "true"
        _require(not exhausted or run == budget, f"exhausted after {run} programs")
        best = f["best_found"]
        if best == "none":
            _require(f["best_length"] == "none", f"best_length {f['best_length']}")
        else:
            _require(ref.interpret(best) == target, f"best_found {best} does not print target")
            _require(f["best_length"] == str(len(best)), f"best_length {f['best_length']}")
            _require(len(best) >= ref.complexity(target), f"best_found {best} shorter than K")
        bits = int(f["bits_reduced"])
        _require(bits >= 0, f"bits_reduced {bits}")
        expect_float(f["energy_charged"], ref.energy(bits, 300.0))
        expect_echo(f["temperature"], 300.0)
        ledger.exhausted[(target, op.info["policy"])] = exhausted
        ledger.record(op, "table", run)
        return
    count = 0
    for row in iter_rows(out, op.fmt):
        count += 1
        expect_keys(row, ("program", "length", "outcome"))
        prog = row["program"]
        _require(_PROGRAM.fullmatch(prog) is not None, f"{prog!r} is not a program")
        _require(row["length"] == str(len(prog)), f"length {row['length']} of {prog}")
        if row["outcome"] == "hit":
            _require(ref.interpret(prog) == target, f"hit {prog} does not print target")
        else:
            _require(row["outcome"] == "miss", f"outcome {row['outcome']!r}")
            _require(prog not in _class_hits(target, len(prog)), f"miss {prog} prints target")
    _require(1 <= count <= budget, f"{count} trace rows outside 1..{budget}")
    ledger.record(op, "trace", count)


_CHECKS = {
    "lambertw": check_lambertw,
    "lambertw_curve": check_lambertw_curve,
    "reach": check_reach,
    "reach_curve": check_reach_curve,
    "loss": check_loss,
    "convexity": check_convexity,
    "solve": check_solve,
    "report": check_report,
}


class Checker:
    """Decides whether one op's exit code, stdout and stderr are right."""

    def __init__(self):
        self.ledger = SearchLedger()

    def __call__(self, op: Op, code, out: str, err: str) -> str | None:
        """None when the op is right, else why it is not."""
        if not isinstance(code, int):
            return f"raised {code}"
        try:
            if op.expect != "ok":
                _require(code == op.exit_code and out == "" and err.startswith(op.expect + ":"),
                         f"exit {code} {err.strip()[:120]!r}, expected {op.expect}")
                return None
            _require(code == 0, f"exit {code}: {err.strip()[:120]}")
            degenerate = (op.kind == "report"
                          and len(ref.solutions(op.info["target"], op.info["max_len"])) == 1)
            _require(err == (_DEGENERATE if degenerate else ""), f"stderr {err[:120]!r}")
            if op.kind == "search":
                check_search(op, out, self.ledger)
            else:
                _CHECKS[op.kind](op, out)
        except (Mismatch, ValueError, KeyError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

