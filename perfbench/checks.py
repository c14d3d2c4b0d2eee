"""Classify each operation's outcome against the committed references.

Outcomes: ok, exit1, exit2, exit3 (the CLI's exit codes, or the exception
the CLI maps to them), error (any other exception), truncated (fewer rows
than requested), off-reference (a value further than the tolerance from
the reference) and z-fail (a Monte Carlo CDF that disagrees with the exact
law).  Every outcome but ok counts as a failure.
"""

from __future__ import annotations

import math

# Monte Carlo: thresholds whose exact probability is resolvable at the
# sample size enter the check, and the family of (correlated) thresholds of
# one simulation fails when any |z| exceeds Z_CRIT.  At 5.5 sigma a correct
# sampler trips it about once in 10^5 simulations.
Z_CRIT = 5.5
Z_MIN_VARIANCE = 5.0


def exception_outcome(exc: BaseException) -> str:
    """Map a program exception the way the CLI maps it to exit codes."""
    from lppdet.errors import (BreakdownError, TruncationError, ValidationError,
                               VerificationError)

    if isinstance(exc, ValidationError):
        return "exit1"
    if isinstance(exc, (BreakdownError, TruncationError)):
        return "exit2"
    if isinstance(exc, VerificationError):
        return "exit3"
    return "error"


def exit_outcome(code: int) -> str:
    return {0: "ok", 1: "exit1", 2: "exit2", 3: "exit3"}.get(code, "error")


def expected_rows(req: dict) -> list[int]:
    kind, lmax = req["kind"], req["lmax"]
    if kind == "triangle":
        return list(range(1, lmax + 1, 2))
    if kind == "external":
        return list(range(1, lmax + 1))
    return list(range(0, lmax + 1))


def check_table(req: dict, rows: dict[int, float], law: dict, tol: float) -> tuple[str, float | None]:
    """(outcome, largest |p - p_ref|) for one returned distribution table.

    Rows without a reference (group averages above l = 8) are checked for
    presence, range and monotonicity only.
    """
    ref = law["p"]
    err = None
    for ell, p in rows.items():
        want = ref.get(str(ell))
        if want is not None:
            diff = abs(p - want)
            err = diff if err is None else max(err, diff)
    missing = [ell for ell in expected_rows(req) if ell not in rows]
    if missing:
        return "truncated", err
    probs = [rows[ell] for ell in sorted(rows)]
    if any(not (-tol <= p <= 1.0 + tol) for p in probs) or any(
        b < a - tol for a, b in zip(probs, probs[1:])
    ):
        return "off-reference", err
    if err is not None and err > tol:
        return "off-reference", err
    return "ok", err


def z_check(counts: dict[int, int], trials: int, law: dict) -> tuple[str, float]:
    """(outcome, largest |z|) of an empirical CDF against the exact law."""
    values = sorted(counts)
    worst, cum, idx = 0.0, 0, 0
    for ell, p in sorted((int(k), v) for k, v in law["p"].items() if v is not None):
        while idx < len(values) and values[idx] <= ell:
            cum += counts[values[idx]]
            idx += 1
        var = p * (1.0 - p)
        if trials * var < Z_MIN_VARIANCE:
            continue
        worst = max(worst, abs(cum / trials - p) / math.sqrt(var / trials))
    return ("z-fail" if worst > Z_CRIT else "ok"), worst
