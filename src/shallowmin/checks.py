"""One record for every tolerance check, passed iff measured <= tolerance (so
NaN fails): a runtime self-check keeps the Check it passed, and verify prints
those records next to the ones its suites measure."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def check(name: str, measured: float, tol: float, detail: str = "") -> Check:
    return Check(name, bool(measured <= tol), float(measured), float(tol), detail)


def require(c: Check, error: type[Exception], message: str) -> Check:
    """c, if it passed; error(message) otherwise."""
    if not c.passed:
        raise error(message)
    return c


def rel(a: float, b: float) -> float:
    """|a - b| / (1 + max(|a|, |b|)): the relative difference of the checks."""
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))
