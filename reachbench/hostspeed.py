"""How fast the host runs Python at the moment, for scaling op times.

On a host whose cores are shared, the same op can take 1.7 times as long for
seconds at a time, and even the host's fastest speed drifts by a third from
one minute to the next; unscaled medians then move between runs by more than
any change worth measuring.  run.py takes this probe before and after the
ops, at least every PROBE_EVERY seconds, and reports each op's wall time
times REFERENCE_PROBE_S over the probe time around it: the op's wall time on
a host that runs the probe in REFERENCE_PROBE_S.  The probe is fixed
benchmark code, so a change to reachcalc cannot move it.
"""

from __future__ import annotations

from time import perf_counter

PROBE_EVERY = 0.02
#: The probe's time on an uncontended core of the 2-core x86-64 host the
#: benchmark was tuned on (Python 3.11).
REFERENCE_PROBE_S = 170e-6


def _probe_once() -> float:
    start = perf_counter()
    seen: dict[str, int] = {}
    text = ""
    for i in range(250):
        text = text[-20:] + "01"[i & 1]
        seen[text] = seen.get(text, 0) + 1
        _ = [c for c in text]
    return perf_counter() - start


def probe() -> float:
    """Seconds for the probe; the least of three, so that caches left cold
    by a large op do not count as a slow host."""
    return min(_probe_once() for _ in range(3))


def scaled(times: list[float], around: list[float]) -> list[float]:
    """times[i] on the reference host, given the probe time around it."""
    return [t * REFERENCE_PROBE_S / p for t, p in zip(times, around)]
