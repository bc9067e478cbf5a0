"""Reference values for the reachcalc outputs, sharing no code with the package.

* Lambert W: Halley's method on w e^w = x in mpmath at 50 digits, started
  from a float estimate computed here.  Each real branch is monotone on its
  half-line, so a converged root on the right half-line is the unique answer
  whatever the start.
* Toy machine: the target-prefix walk.  The machine only appends to its
  output, so a program can print the target only if its output stays a
  prefix of the target after every opcode; a depth-first walk over
  00 < 01 < 10 yields a length class's solutions in lexicographic order.
* A plain interpreter, for single programs.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp, mpf

mp.dps = 50

#: Boltzmann constant in J/K, the value the reachcalc specification states.
BOLTZMANN_K = mpf("1.38065e-23")
E = mp.e
INV_E = 1 / mp.e
LN2 = mp.log(2)
#: Largest entropy variation, 1/(e ln 2).
VARIATION_MAX = 1 / (mp.e * LN2)
# Halley converges cubically: once a step is below 1e-14 |w|, what is left
# is orders of magnitude below the 1e-17 the 12-digit check can see, even
# 1e-16 from the branch point where the constant grows like 1/(1 + w)^2.
_STOP = mpf(10) ** -14


def _float_guess(x: float, lower: bool) -> float:
    """A float estimate of W(x), good to a few ulps away from -1/e."""
    if lower:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    elif x < 3.0:
        w = math.log1p(x) if x > -0.25 else x
    else:
        l1 = math.log(x)
        w = l1 - math.log(l1)
    for _ in range(8):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0))
        if denom == 0.0 or not math.isfinite(denom):
            break
        w -= f / denom
    return w


def lambert_w(x: float | mpf, lower: bool) -> mpf:
    """W(x) at 50 digits on the principal (lower=False) or lower branch.

    The caller has checked the domain: x > -1/e, and x < 0 for the lower
    branch.
    """
    x = mpf(x)
    if x == 0:
        return mpf(0)
    q = x + INV_E
    if q < mpf("1e-3"):
        p = mp.sqrt(2 * E * q) * (-1 if lower else 1)
        w = -1 + p - p**2 / 3 + 11 * p**3 / 72
    else:
        w = mpf(_float_guess(float(x), lower))
    for _ in range(100):
        ew = mp.exp(w)
        f = w * ew - x
        w1 = w + 1
        step = f / (ew * w1 - (w + 2) * f / (2 * w1))
        w -= step
        if lower and w > -1:
            w = mpf(-1) - mpf("1e-30")
        elif not lower and w < -1:
            w = mpf(-1) + mpf("1e-30")
        if abs(step) <= _STOP * abs(w):
            return w
    raise ArithmeticError(f"reference W did not converge at x = {x}")


def reachability(variation: float | mpf, lower: bool) -> mpf:
    """P with P log2 P = -variation: exp(W(-variation ln 2)) = x / W(x)."""
    x = -mpf(variation) * LN2
    return x / lambert_w(x, lower)


def energy(variation: float | mpf, temperature: float) -> mpf:
    """Landauer work k T ln 2 * variation, in joules."""
    return BOLTZMANN_K * mpf(temperature) * LN2 * mpf(variation)


def link(z: float) -> mpf:
    """The convex link f(z) = exp(-W0(z))."""
    if z == 0.0:
        return mpf(1)
    return mp.exp(-lambert_w(z, False))


def link_slope(z: float) -> mpf:
    """f'(z) = -W0'(z) exp(-W0(z)), with W0'(z) = W / (z (1 + W))."""
    if z == 0.0:
        return mpf(-1)
    w = lambert_w(z, False)
    return -(w / (mpf(z) * (1 + w))) * mp.exp(-w)


# --- toy machine ---------------------------------------------------------

def interpret(bits: str, max_steps: int = 10_000, max_output_bits: int = 64) -> str | None:
    """Output of a program, or None when it is malformed or breaches a cap."""
    if not bits or len(bits) % 2 or set(bits) - {"0", "1"}:
        return None
    ops = [bits[i:i + 2] for i in range(0, len(bits), 2)]
    if ops[-1] != "11" or "11" in ops[:-1]:
        return None
    if len(ops) > max_steps:
        return None
    out = ""
    for op in ops[:-1]:
        if op == "10":
            out += out
        else:
            out += op[1]
        if len(out) > max_output_bits:
            return None
    return out


@lru_cache(maxsize=4096)
def class_solutions(target: str, n_opcodes: int) -> tuple[str, ...]:
    """Every program of exactly n_opcodes opcodes printing target, lex order."""
    hits: list[str] = []
    body: list[str] = []
    size = len(target)

    def walk(ell: int, depth: int) -> None:
        if depth == n_opcodes - 1:
            if ell == size:
                hits.append("".join(body) + "11")
            return
        if ell < size:
            op = "00" if target[ell] == "0" else "01"
            body.append(op)
            walk(ell + 1, depth + 1)
            body.pop()
        if ell == 0 or target[ell:2 * ell] == target[:ell]:
            body.append("10")
            walk(2 * ell, depth + 1)
            body.pop()

    if n_opcodes >= 1:
        walk(0, 0)
    return tuple(hits)


def solutions(target: str, max_len: int) -> list[str]:
    """Every solution of target up to max_len bits, by (length, lex)."""
    found: list[str] = []
    for n in range(1, max_len // 2 + 1):
        found.extend(class_solutions(target, n))
    return found


def complexity(target: str) -> int:
    """Length in bits of the shortest program printing target."""
    n = 1
    while not class_solutions(target, n):
        n += 1
    return 2 * n
