"""Seeded CLI workloads for reachcalc.

Each workload is a stream of *decks*.  A deck is a fixed list of strata
(subcommand, size class, target family, format mix) whose concrete
arguments the seed draws; the deck is then shuffled.  A run executes whole
decks, so every run holds the same mix of op costs and its median and
90th-percentile latencies fall inside the same stratum from seed to seed,
while the seed still decides every target bit and every float argument.

* ``enumerate``: ``solve``; the machine kernel is almost the whole cost of
  an op.
* ``search``: ``search`` under all three policies; one interpreter call per
  candidate, and the only workload whose outputs run to megabytes.
* ``numeric``: ``lambertw``, ``reach`` and ``loss`` over W's whole domain;
  drives Lambert W and bypasses the machine.

The first two are the timed workloads of BENCHMARK.json.  Each of their
decks also holds one ``loss --convexity-grid`` and the enumerate deck one
small ``search --policy reachability-greedy``, so every layer's self time is
measured on both.  No op of theirs prints a value that goes through W's
stopping rule on a drawn argument: at the seed that rule leaves some W
values wrong in the 12th digit, so ``report``, ``reach``, ``lambertw`` and
single ``loss`` values fail the check at rates from 1e-4 per value to a
third of the ops.  Those ops are in ``numeric`` and in defect_probe(), whose
failures run.py prints with every result.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from decimal import Decimal

import reference as ref

FORMATS = ("table", "records", "csv")
SEARCH_BUDGET = 100_000
CURVE_POINTS = 512
INV_E = 1.0 / math.e  # a float close to 1/e; domain tests use ref.INV_E


@dataclass
class Op:
    """One CLI invocation and what its output must say."""

    argv: list[str]
    kind: str
    fmt: str
    expect: str = "ok"  # "ok" or the error class name the CLI must report
    info: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "ResourceExceeded": 2}.get(self.expect, 1)


def number(x: float) -> str:
    """A float argument that reads back exactly.

    Negative numbers are written in plain decimal: argparse takes
    ``-1e-06`` for an option flag, but accepts ``-0.000001``.
    """
    if x < 0 and math.isfinite(x):
        return format(Decimal(repr(x)), "f")
    return repr(x)


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _formats(rng: random.Random, n: int) -> list[str]:
    """n formats in an equal, shuffled mix."""
    fmts = [FORMATS[i % 3] for i in range(n)]
    rng.shuffle(fmts)
    return fmts


# --- targets -------------------------------------------------------------

def random_target(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def doubling_target(rng: random.Random) -> str:
    """A random 1-4 bit block repeated 2^j times (j >= 1), at most 16 bits."""
    while True:
        block = random_target(rng, 1, 4)
        reps = 2 ** rng.randint(1, 4)
        if len(block) * reps <= 16:
            return block * reps


# --- enumerate -----------------------------------------------------------

# (max_len, family); families: "double" is doubling_target(), "short" a
# random target whose literal program fits the cap, "long" a random 12-16 bit
# target with no solution within the cap, "any" 0-16 bits.  Ten of the twenty
# targets are doubling-friendly and ten uniform random.
_ENUMERATE_DECK = (
    (26, "any"),
    (16, "double"), (16, "double"), (16, "double"),
    (16, "short"), (16, "short4"), (16, "long"), (16, "long"),
    (18, "double"), (18, "double"), (18, "double"), (18, "long"), (18, "short"),
    (20, "double"), (20, "double"), (20, "long"), (20, "short5"),
    (22, "double"), (22, "short6"),
    (24, "double"),
)
# The report ops of defect_probe(): cheap caps, every family.
_REPORT_PROBE = ((16, "double"), (16, "short"), (16, "long"), (18, "double"), (18, "short"))


def _enumerate_target(rng: random.Random, family: str, max_len: int) -> str:
    if family == "double":
        return doubling_target(rng)
    if family == "long":
        return random_target(rng, 12, 16)
    if family == "any":
        return random_target(rng, 0, 16)
    if family == "short":
        return random_target(rng, 0, (max_len - 2) // 2)
    return random_target(rng, 0, int(family[len("short"):]))


def _class_op(rng: random.Random, cmd: str, max_len: int, family: str, fmt: str) -> Op:
    """A solve or report op on a drawn target."""
    target = _enumerate_target(rng, family, max_len)
    scheme = rng.choice(("uniform", "lengthweighted"))
    argv = [cmd, target, "--max-len", str(max_len), "--scheme", scheme, "--format", fmt]
    info = {"target": target, "max_len": max_len, "scheme": scheme}
    if cmd == "report":
        info["branch"] = rng.choice(("lower", "principal"))
        info["temp"] = 300.0 if rng.random() < 0.5 else round(rng.uniform(1.0, 1000.0), 3)
        argv += ["--branch", info["branch"], "--temp", number(info["temp"])]
    if max_len > 24:
        expect = "ResourceExceeded"
    elif cmd == "report" and not ref.solutions(target, max_len):
        expect = "EmptySetError"
    else:
        expect = "ok"
    return Op(argv, cmd, fmt, expect, info)


def _convexity(fmt: str) -> Op:
    return Op(["loss", "--convexity-grid", "--format", fmt], "convexity", fmt)


def enumerate_deck(rng: random.Random) -> list[Op]:
    """The twenty solve strata, one small greedy search and one convexity grid."""
    fmts = _formats(rng, len(_ENUMERATE_DECK))
    ops = [_class_op(rng, "solve", max_len, family, fmt)
           for (max_len, family), fmt in zip(_ENUMERATE_DECK, fmts)]
    target = _search_target(rng, "random4-6")
    ops.append(_search_op("reachability-greedy", target, rng.choice(FORMATS)))
    ops.append(_convexity(rng.choice(FORMATS)))
    rng.shuffle(ops)
    return ops


# --- numeric -------------------------------------------------------------

def _near_branch(rng: random.Random) -> float:
    """A float a tiny offset (1e-16 .. 1e-2) above -1/e, strictly in-domain."""
    while True:
        x = -INV_E + _log_uniform(rng, -16, -2)
        if x > -ref.INV_E:
            return x


def _w_argument(rng: random.Random, lower: bool, region: str) -> float:
    if region == "near":
        return _near_branch(rng)
    if region == "tiny":
        mag = _log_uniform(rng, -300, -5)
        return -mag if lower or rng.random() < 0.5 else mag
    if region == "huge":
        return _log_uniform(rng, 300, 308.25)
    if region == "large":
        return _log_uniform(rng, 1, 300)
    # moderate
    return -rng.uniform(1e-5, 0.36) if lower else rng.uniform(-0.36, 20.0)


_PRINCIPAL_REGIONS = ("tiny", "near", "moderate", "large", "huge", "moderate", "tiny")
_LOWER_REGIONS = ("tiny", "near", "moderate", "moderate", "near")


def _variation(rng: random.Random, small: bool) -> float:
    """An entropy variation in (0, 1/(e ln 2))."""
    while True:
        h = _log_uniform(rng, -16, -1) if small else rng.uniform(1e-6, 0.5307)
        if h < ref.VARIATION_MAX:
            return h


def _w_single(rng, branch, region, fmt) -> Op:
    x = _w_argument(rng, branch == "lower", region)
    return Op(["lambertw", "--branch", branch, "--format", fmt, number(x)],
              "lambertw", fmt, "ok", {"x": x, "branch": branch})


def _w_curve(rng, branch, region, fmt) -> Op:
    if branch == "lower":
        lo = _near_branch(rng) if region == "near" else -rng.uniform(0.2, 0.36)
        hi = -_log_uniform(rng, -12, -1)
    else:
        lo = _near_branch(rng) if region == "near" else rng.uniform(-0.36, 1.0)
        hi = lo + _log_uniform(rng, -3, 2)
    argv = ["lambertw", "--branch", branch, "--format", fmt,
            "--curve", number(lo), number(hi), str(CURVE_POINTS)]
    return Op(argv, "lambertw_curve", fmt, "ok",
              {"lo": lo, "hi": hi, "n": CURVE_POINTS, "branch": branch})


def _reach_single(rng, branch, form, fmt) -> Op:
    h = _variation(rng, small=rng.random() < 0.5)
    if form == "energy":
        temp = round(rng.uniform(1.0, 1000.0), 3)
        energy = h * float(ref.energy(1.0, temp))
        argv = ["reach", "--energy", number(energy), "--temp", number(temp)]
        info = {"energy": energy, "temp": temp}
    else:
        argv = ["reach", "--variation", number(h)]
        info = {"variation": h, "temp": 300.0}
    info["branch"] = branch
    return Op(argv + ["--branch", branch, "--format", fmt], "reach", fmt, "ok", info)


def _reach_curve(rng, branch, fmt) -> Op:
    lo = _variation(rng, small=rng.random() < 0.5)
    hi = _variation(rng, small=False)
    lo, hi = min(lo, hi), max(lo, hi)
    argv = ["reach", "--branch", branch, "--format", fmt,
            "--curve", number(lo), number(hi), str(CURVE_POINTS)]
    return Op(argv, "reach_curve", fmt, "ok",
              {"lo": lo, "hi": hi, "n": CURVE_POINTS, "branch": branch})


def _loss_argument(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.2:
        return _near_branch(rng)
    if kind < 0.4:
        return rng.choice((-1.0, 1.0)) * _log_uniform(rng, -12, -1)
    return rng.uniform(-0.36, 20.0)


def _loss_single(rng, fmt) -> Op:
    z_hat, z = _loss_argument(rng), _loss_argument(rng)
    return Op(["loss", "--format", fmt, number(z_hat), number(z)], "loss", fmt, "ok",
              {"z_hat": z_hat, "z": z})


def _out_of_domain(rng, fmt) -> Op:
    """An argument outside every branch's domain; DomainError is correct."""
    case = rng.choice(("nan", "inf", "-inf", "below", "lower_nonneg", "reach_above"))
    if case == "reach_above":
        h = ref.VARIATION_MAX * (1.0 + _log_uniform(rng, -6, 0))
        argv = ["reach", "--variation", number(float(h)), "--format", fmt]
        return Op(argv, "reach", fmt, "DomainError", {})
    branch = "principal"
    if case == "below":
        text = number(-INV_E - _log_uniform(rng, -8, 3))
    elif case == "lower_nonneg":
        branch, text = "lower", number(rng.uniform(0.0, 10.0))
    else:
        text = case
    return Op(["lambertw", "--branch", branch, "--format", fmt, "--", text],
              "lambertw", fmt, "DomainError", {})


def numeric_deck(rng: random.Random) -> list[Op]:
    """36 ops: 28 single values (2 of them out of domain), 6 curves, 2 grids."""
    ops = []
    fmts = _formats(rng, 12)
    for region, fmt in zip(_PRINCIPAL_REGIONS, fmts):
        ops.append(_w_single(rng, "principal", region, fmt))
    for region, fmt in zip(_LOWER_REGIONS, fmts[7:]):
        ops.append(_w_single(rng, "lower", region, fmt))
    for i, fmt in enumerate(_formats(rng, 8)):
        ops.append(_reach_single(rng, ("lower", "principal")[i % 2],
                                 "energy" if i < 3 else "variation", fmt))
    for fmt in _formats(rng, 6):
        ops.append(_loss_single(rng, fmt))
    for fmt in _formats(rng, 2):
        ops.append(_out_of_domain(rng, fmt))
    fmts = _formats(rng, 6)
    ops.append(_w_curve(rng, "principal", "near", fmts[0]))
    ops.append(_w_curve(rng, "principal", "moderate", fmts[1]))
    ops.append(_w_curve(rng, "lower", rng.choice(("near", "moderate")), fmts[2]))
    ops.append(_reach_curve(rng, "lower", fmts[3]))
    ops.append(_reach_curve(rng, "lower", fmts[4]))
    ops.append(_reach_curve(rng, "principal", fmts[5]))
    for fmt in _formats(rng, 2):
        ops.append(_convexity(fmt))
    rng.shuffle(ops)
    return ops


# --- search --------------------------------------------------------------

# (policy, family): "randomA-B" targets are random strings of A..B bits.
# exhaustive-by-size runs the whole literal class, 3^l programs for an l-bit
# target whatever its bits, so the 8-bit cases give the median a stratum of
# fixed cost; the 4-6 bit cases all cost less, the 9-bit case more.  On
# 12-16 bit targets every policy runs out of the 100k program budget; each
# of those four cases has one length, which sets the cost of its programs,
# and their records/csv twins, the top sixth of ops, hold the 90th
# percentile inside them.
_SEARCH_DECK = (
    ("exhaustive-by-size", "random4-5"), ("exhaustive-by-size", "random8-8"),
    ("exhaustive-by-size", "random8-8"), ("exhaustive-by-size", "random8-8"),
    ("exhaustive-by-size", "random9-9"), ("exhaustive-by-size", "random12-12"),
    ("size-descending", "random4-6"), ("size-descending", "random4-6"),
    ("size-descending", "random14-14"),
    ("reachability-greedy", "random4-6"), ("reachability-greedy", "random13-13"),
    ("reachability-greedy", "random16-16"),
)


def _search_target(rng: random.Random, family: str) -> str:
    lo, hi = family[len("random"):].split("-")
    return random_target(rng, int(lo), int(hi))


def _search_op(policy: str, target: str, fmt: str) -> Op:
    info = {"target": target, "policy": policy, "budget": SEARCH_BUDGET}
    return Op(["search", target, "--policy", policy, "--format", fmt], "search", fmt, "ok", info)


def search_deck(rng: random.Random) -> list[Op]:
    """Each search case runs twice: once as a table, once as records or csv;
    and one convexity grid.

    The table prints the summary and the trace formats print every step, so
    the pair lets the check hold programs_run against the row count.
    """
    ops = []
    for case, (policy, family) in enumerate(_SEARCH_DECK):
        target = _search_target(rng, family)
        ops.append(_search_op(policy, target, "table"))
        ops.append(_search_op(policy, target, ("records", "csv")[case % 2]))
    ops.append(_convexity(rng.choice(FORMATS)))
    rng.shuffle(ops)
    return ops


def defect_probe(rng: random.Random) -> list[Op]:
    """Ops that show the seed's known defects: one numeric deck and a few
    cheap reports.  run.py runs and checks them after the timed ops and
    prints their failures beside, not inside, the result's counts."""
    fmts = _formats(rng, len(_REPORT_PROBE))
    ops = [_class_op(rng, "report", max_len, family, fmt)
           for (max_len, family), fmt in zip(_REPORT_PROBE, fmts)]
    return numeric_deck(rng) + ops


DECKS = {"enumerate": enumerate_deck, "numeric": numeric_deck, "search": search_deck}
