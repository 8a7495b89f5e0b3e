"""Correctness checks for the benchmark: residuals, LAPACK oracle, tally.

Every solution the program returns is checked with a banded residual
computed here from the pristine operands (independent of the program's
own verification layer).  A seeded sample of lanes is also solved by
LAPACK ``dgbsv``: pivots must be equal and solutions must agree within a
condition-scaled tolerance.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

EPS = float(np.finfo(np.float64).eps)

#: Largest accepted scaled residual ``||A x - b|| / ((||A|| ||x|| + ||b||)
#: n eps)`` (infinity norms).  Backward-stable solves of the workloads'
#: random band systems stay below 0.01; a flipped high-order bit of one
#: solution entry lands many orders of magnitude above 1.
RESIDUAL_TOL = 1.0

#: Oracle tolerance factor: solutions may differ by ``ORACLE_FACTOR * n *
#: eps / rcond`` in relative infinity norm (the forward-error bound of two
#: backward-stable solves with the same pivots).
ORACLE_FACTOR = 64.0


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def add(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += int(attempted)
        self.fail(failed, reason)

    def fail(self, count: int, reason: str) -> None:
        if count:
            self.failed += int(count)
            self.reasons[reason] = self.reasons.get(reason, 0) + int(count)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        for reason, count in other.reasons.items():
            self.fail(count, reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _band_apply(ab: np.ndarray, x: np.ndarray, kl: int, ku: int,
                absolute: bool = False) -> np.ndarray:
    """``A @ x`` per lane for ``ab`` of shape ``(batch, ldab, n)`` in LAPACK
    factor layout (diagonal on row ``kl + ku``), ``x`` of ``(batch, n, r)``."""
    n = ab.shape[2]
    kv = kl + ku
    y = np.zeros(x.shape, dtype=np.result_type(ab, x))
    for d in range(-ku, kl + 1):            # d = i - j
        diag = ab[:, kv + d, :]
        if absolute:
            diag = np.abs(diag)
        if d >= 0:
            y[:, d:, :] += diag[:, :n - d, None] * x[:, :n - d, :]
        else:
            y[:, :n + d, :] += diag[:, -d:, None] * x[:, -d:, :]
    return y


def band_norm_inf(ab: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """Per-lane infinity norm of the band operators in ``ab``."""
    ones = np.ones((ab.shape[0], ab.shape[2], 1))
    return _band_apply(ab, ones, kl, ku, absolute=True).max(axis=(1, 2))


def scaled_residuals(ab: np.ndarray, x: np.ndarray, b: np.ndarray,
                     kl: int, ku: int) -> np.ndarray:
    """Per-lane ``||A x - b|| / ((||A|| ||x|| + ||b||) n eps)``; NaN and
    infinite solutions give ``inf``."""
    x = x.reshape(x.shape[0], x.shape[1], -1)
    b = b.reshape(x.shape)
    n = ab.shape[2]
    with np.errstate(invalid="ignore", over="ignore"):
        r = np.abs(_band_apply(ab, x, kl, ku) - b).max(axis=(1, 2))
        denom = (band_norm_inf(ab, kl, ku) * np.abs(x).max(axis=(1, 2))
                 + np.abs(b).max(axis=(1, 2))) * n * EPS
        scaled = r / np.where(denom > 0, denom, 1.0)
    return np.where(np.isfinite(scaled), scaled, np.inf)


def lapack_solve(ab: np.ndarray, b: np.ndarray, kl: int, ku: int):
    """LAPACK ``dgbsv`` on one lane: ``(x, pivots, info, rcond)``."""
    lub, piv, x, info = lapack.dgbsv(kl, ku, ab, b.reshape(ab.shape[1], -1))
    rcond = 0.0
    if info == 0:
        rows = ab[kl:, :]
        anorm = float(np.abs(rows).sum(axis=0).max())
        rcond, _ = lapack.dgbcon(kl, ku, lub, piv, anorm)
    return x, piv, int(info), float(rcond)


def oracle_mismatches(cases) -> int:
    """Compare lanes with LAPACK; returns the number that disagree.

    ``cases`` yields ``(ab, b, kl, ku, x, pivots)`` with ``ab``/``b`` the
    pristine operands, ``x`` the program's solution and ``pivots`` its
    pivots (``None`` when the program does not expose them).
    """
    bad = 0
    for ab, b, kl, ku, x, piv in cases:
        x_ref, piv_ref, info, rcond = lapack_solve(ab, b, kl, ku)
        if info != 0:
            continue        # singular for LAPACK too: not comparable
        n = ab.shape[1]
        x = np.asarray(x).reshape(x_ref.shape)
        tol = ORACLE_FACTOR * n * EPS / max(rcond, EPS)
        with np.errstate(invalid="ignore", over="ignore"):
            diff = np.abs(x - x_ref).max() / np.abs(x_ref).max()
        ok = bool(diff <= tol)
        if piv is not None:
            ok = ok and np.array_equal(np.asarray(piv).ravel(), piv_ref)
        bad += not ok
    return bad
