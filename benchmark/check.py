"""Output checker: every rendered result against an independent reference.

The reference for generic inputs is ``numpy.roots`` (companion eigenvalues,
a different route from the library's Durand-Kerner/Aberth oracle); the hard
families use the roots they were built from, within the accuracy their
conditioning allows. An operation is

- "failed" when it raised, or its report carries ``oracle_error`` (what the
  CLI signals with exit code 4);
- "wrong" when its output contradicts the reference;
- "ok" otherwise.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import Op, hard_tolerance

# The library's verdict slack (validate_bound / validate_rectangle).
VERDICT_SLACK = 1e-9
# Relative agreement required between the reported and the reference max
# modulus; rendered values carry 12 significant digits.
MODULUS_RTOL = 1e-9


def _around(ref: float) -> tuple[float, float]:
    return ref * (1.0 - MODULUS_RTOL), ref * (1.0 + MODULUS_RTOL)


def reference_max_modulus(op: Op) -> tuple[float, float]:
    """(lo, hi) interval for the true max root modulus of op's input."""
    if op.hard is not None:
        return hard_tolerance(op.values, op.hard)
    return _around(float(np.max(np.abs(np.roots(op.values)))))


def _modulus_ok(reported: float, interval: tuple[float, float]) -> bool:
    lo, hi = interval
    return lo <= reported <= hi


def _verdict_band(ref: float) -> float:
    """Width of the band around a row's boundary where no verdict is judged."""
    return VERDICT_SLACK * (1.0 + ref)


def _expected_disk_verdict(value: float, ref: float) -> str | None:
    edge = ref - (value + VERDICT_SLACK)
    if abs(edge) <= _verdict_band(ref):
        return None
    return "holds" if edge < 0 else "violated"


def _expected_rectangle_verdict(rect: dict, roots: np.ndarray, ref: float) -> str | None:
    re_lo, re_hi = float(rect["re_lo"]), float(rect["re_hi"])
    im_lo, im_hi = float(rect["im_lo"]), float(rect["im_hi"])
    worst = float(np.min(np.minimum.reduce([
        roots.real - re_lo, re_hi - roots.real, roots.imag - im_lo, im_hi - roots.imag,
    ])))
    edge = worst + VERDICT_SLACK
    if abs(edge) <= _verdict_band(ref):
        return None
    return "holds" if edge > 0 else "violated"


def check_compare(op: Op, rendered: str) -> str:
    """'wrong' when the oracle's max modulus or any row's verdict contradicts
    the reference; rows inside the boundary band are not judged."""
    payload = json.loads(rendered)
    if payload["oracle"] is None:
        return "failed"
    roots = np.roots(op.values)
    ref = float(np.max(np.abs(roots)))
    if not _modulus_ok(float(payload["oracle"]["max_modulus"]), _around(ref)):
        return "wrong"
    for row in payload["rows"]:
        if row["verdict"] is None:
            continue
        if row["rectangle"] is not None:
            expected = _expected_rectangle_verdict(row["rectangle"], roots, ref)
        else:
            expected = _expected_disk_verdict(float(row["value"]), ref)
        if expected is not None and expected != row["verdict"]:
            return "wrong"
    return "ok"


def check_fixture(op: Op, rendered: str) -> str:
    """'wrong' when the fixture report does not pass or its oracle max
    modulus disagrees with the reference."""
    (report,) = json.loads(rendered)
    if not report["passed"]:
        return "wrong"
    if not _modulus_ok(float(report["oracle_max_modulus"]), reference_max_modulus(op)):
        return "wrong"
    return "ok"


def check_roots(op: Op, max_modulus: float) -> str:
    return "ok" if _modulus_ok(max_modulus, reference_max_modulus(op)) else "wrong"


def check(op: Op, output) -> str:
    """Outcome of one operation; output is None when the operation raised."""
    if output is None:
        return "failed"
    if op.kind == "compare":
        return check_compare(op, output)
    if op.kind == "fixture":
        return check_fixture(op, output)
    return check_roots(op, output)
