"""Verified solves: silent-data-corruption defense for the batched drivers.

Every fault the resilient dispatch survives announces itself — launch
errors, NaN/Inf lanes, device outages.  Real GPU fleets also produce
*silent* data corruption (SDC): finite-valued bit flips in compute or
transfer that sail through every NaN/Inf scan and return a confidently
wrong ``x``.  This module is the defense the ``verify=`` knob on the
batched drivers turns on:

* **Residual gates** — per-lane scaled residuals computed directly in band
  storage, vectorized across lanes (:func:`band_mv_batch`).  One gate
  evaluation costs O(n·k) per lane against the O(n·k²) factorization it
  guards, so verification is asymptotically cheaper than the work it
  checks.  ``gbsv`` verifies ``||A x - b||`` against the call's pristine
  copy of the operands (:meth:`~repro.core.chain.BatchOp.capture`, taken
  here and inherited by every layer below); ``gbtrf`` verifies the factors
  themselves by applying the reconstructed ``P L U`` to a deterministic
  probe vector (:func:`plu_apply_batch`); ``gbtrs`` replays ``P L U x``
  from the pristine factors against the pristine right-hand sides.
* **Operand digests** — read-only operands (the ``gbtrs`` factors and
  pivots) are fingerprinted at the stage boundary and re-verified after
  the stage; a mismatch restores them from the copy and attributes the
  lane (``BatchReport.digest_mismatches``).  The serve layer applies the
  same digests to cached factors (:mod:`repro.serve.cache`).
* **Pivot-growth monitors** — ``max|U| / max|A|`` computed batched; the
  maximum is stamped on the report and feeds the condition-aware
  classification below.
* **Condition-aware escalation** — a lane failing its residual gate walks
  a recovery ladder that reuses the resilience machinery: recompute on
  the device from the rewound lanes → host reference path (``gbtf2`` /
  ``gbtrs_unblocked``, bit-identical by contract) → ``gbequ``/``laqgb``
  equilibrated refactor (``gbsv`` only) → ``gbrfs`` iterative refinement
  with berr/ferr bounds.  A lane that *still* fails is classified with
  ``gbcon``: ill-conditioned lanes (``rcond`` below the floor, or pivot
  growth past the threshold) are flagged *expected*-inaccurate
  (``BatchReport.ill_conditioned``) rather than corrupted; a
  well-conditioned lane that cannot be recovered raises
  :class:`~repro.errors.DataCorruptionError` (``on_fail='raise'``) or is
  flagged in ``BatchReport.unrecovered`` (``on_fail='flag'``).

Healthy lanes — lanes that pass their gate — are never touched, so a
verified call is bit-identical to an unverified one on every lane that
was not corrupted, across chunking, ``[vec]``/``[vec+soa]``/``[vec+pack]``
routes, pipelining and failover (:func:`verified` is the outermost layer
of the execution chain, :mod:`repro.core.chain`, so it wraps all of those
stages).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..band.ops import band_norm_1, solve_residual
from ..errors import DataCorruptionError, check_arg
from ..types import Trans
from .gbcon import gbcon
from .gbequ import gbequ, laqgb
from .gbrfs import gbrfs
from .batch_args import stack_lanes
from .gbtf2 import gbtf2
from .resilience import BatchReport
from .solve_blocks import gbtrs_unblocked

__all__ = [
    "VerifyPolicy",
    "as_verify_policy",
    "band_mv_batch",
    "plu_apply_batch",
    "band_norms_inf",
    "factor_norms_inf",
    "pivot_growth_batch",
    "operand_digest",
    "verified",
]

_MODES = ("cheap", "full")
_ON_FAIL = ("raise", "flag")

#: Default residual-tolerance multiplier: a backward-stable banded solve
#: produces scaled residuals of a few ULP; 64·n·eps leaves generous slack
#: for legitimate rounding while any finite-magnitude flip of an operand
#: element lands orders of magnitude above it.
_TOL_SCALE = 64.0


@dataclass(frozen=True)
class VerifyPolicy:
    """Tunables for verified solves (the ``verify=`` knob).

    Attributes
    ----------
    mode:
        ``'cheap'`` (default) runs the residual gates and pivot-growth
        monitors only — the <10%-overhead configuration the benchmark
        gates.  ``'full'`` additionally fingerprints read-only operands
        (:func:`operand_digest`) and stamps a ``gbcon`` condition
        estimate on every lane (``BatchReport.rcond_min``).
    residual_tol:
        Scaled-residual acceptance threshold.  ``None`` (default) uses
        ``64 * n * eps`` of the operand dtype — comfortably above
        backward-stable rounding noise, orders of magnitude below any
        finite-magnitude element flip.
    growth_threshold:
        Pivot-growth ratio ``max|U| / max|A|`` above which a failing lane
        is classified *expected*-inaccurate rather than corrupted.
    check_digests:
        Master switch for operand digests; ``None`` follows the mode
        (on for ``'full'``).
    condition:
        Stamp ``gbcon`` estimates on every lane (not just failing ones);
        ``None`` follows the mode (on for ``'full'``).
    rcond_floor:
        ``rcond`` below which a failing lane is classified
        ill-conditioned.  ``None`` (default) uses ``n * eps``.
    refine:
        Allow the :func:`~repro.core.gbrfs.gbrfs` refinement rung on
        lanes the exact recompute rungs could not bring under tolerance.
    max_refine:
        Iteration cap for that refinement rung.
    on_fail:
        ``'raise'`` (default) raises
        :class:`~repro.errors.DataCorruptionError` for a well-conditioned
        lane that fails every rung; ``'flag'`` records it in
        ``BatchReport.unrecovered`` and returns.
    """

    mode: str = "cheap"
    residual_tol: float | None = None
    growth_threshold: float = 1e8
    check_digests: bool | None = None
    condition: bool | None = None
    rcond_floor: float | None = None
    refine: bool = True
    max_refine: int = 2
    on_fail: str = "raise"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, "
                             f"got {self.mode!r}")
        if self.on_fail not in _ON_FAIL:
            raise ValueError(f"on_fail must be one of {_ON_FAIL}, "
                             f"got {self.on_fail!r}")
        if self.residual_tol is not None and not self.residual_tol > 0:
            raise ValueError(
                f"residual_tol must be > 0, got {self.residual_tol}")
        if self.rcond_floor is not None and not self.rcond_floor >= 0:
            raise ValueError(
                f"rcond_floor must be >= 0, got {self.rcond_floor}")
        if self.max_refine < 1:
            raise ValueError(
                f"max_refine must be >= 1, got {self.max_refine}")

    @property
    def digests_enabled(self) -> bool:
        if self.check_digests is None:
            return self.mode == "full"
        return bool(self.check_digests)

    @property
    def condition_enabled(self) -> bool:
        if self.condition is None:
            return self.mode == "full"
        return bool(self.condition)

    def tol_for(self, n: int, dtype) -> float:
        if self.residual_tol is not None:
            return float(self.residual_tol)
        return _TOL_SCALE * max(n, 1) * float(np.finfo(dtype).eps)

    def floor_for(self, n: int, dtype) -> float:
        if self.rcond_floor is not None:
            return float(self.rcond_floor)
        return max(n, 1) * float(np.finfo(dtype).eps)


def as_verify_policy(verify) -> VerifyPolicy | None:
    """Canonicalise a ``verify=`` knob value.

    ``None``/``False`` → no verification; ``True`` → default policy;
    ``'cheap'``/``'full'`` → that mode; a :class:`VerifyPolicy` passes
    through.
    """
    if verify is None or verify is False:
        return None
    if verify is True:
        return VerifyPolicy()
    if isinstance(verify, VerifyPolicy):
        return verify
    check_arg(isinstance(verify, str) and verify in _MODES, 0,
              f"verify must be one of {_MODES}, a VerifyPolicy, True or "
              f"None, got {verify!r}")
    return VerifyPolicy(mode=verify)


# --- batched band kernels of the gate --------------------------------------

def band_mv_batch(ab3: np.ndarray, x3: np.ndarray, n: int, kl: int,
                  ku: int, *, offset: int | None = None) -> np.ndarray:
    """``y[k] = A_k @ x[k]`` over a band stack, one pass per diagonal.

    ``ab3`` is a ``(batch, rows, n)`` band stack (factor layout by
    default: diagonal on row ``kl+ku``), ``x3`` a ``(batch, n, nrhs)``
    stack.  The per-diagonal accumulation order matches
    :func:`repro.band.ops.gbmv` exactly, so each lane's result is
    bit-identical to the single-matrix routine.
    """
    if offset is None:
        offset = kl + ku
    y = np.zeros(x3.shape, dtype=np.result_type(ab3.dtype, x3.dtype))
    for row, lo, hi, d in _diagonals(n, kl, ku, offset):
        y[:, lo - d:hi - d, :] += ab3[:, row, lo:hi, None] * x3[:, lo:hi, :]
    return y


def _diagonals(n: int, kl: int, ku: int, offset: int):
    """``(row, lo, hi, d)`` for each non-empty diagonal ``d`` in
    ``-kl..ku``: band row ``row`` holds ``A[j - d, j]`` for ``lo <= j <
    hi``."""
    for d in range(-kl, ku + 1):
        lo, hi = max(0, d), n + min(0, d)
        if hi > lo:
            yield offset - d, lo, hi, d


def plu_apply_batch(fact3: np.ndarray, piv2: np.ndarray,
                    x3: np.ndarray, n: int, kl: int, ku: int) -> np.ndarray:
    """``y[k] = P_k L_k U_k @ x[k]`` reconstructed from ``gbtrf`` factors.

    Inverts the solve's forward elimination: first ``y = U x`` (``U``
    occupies rows ``0..kl+ku`` of the factor layout), then for each
    column ``j`` *descending* the multiplier column is added back and the
    row interchange re-applied — the exact reverse of the (swap, update)
    pairs :func:`~repro.core.solve_blocks.gbtrs_unblocked` performs.
    O(n·k) per lane, vectorized across the batch.
    """
    kv = kl + ku
    y = np.zeros(x3.shape, dtype=np.result_type(fact3.dtype, x3.dtype))
    for row, lo, hi, d in _diagonals(n, 0, kv, kv):
        y[:, lo - d:hi - d, :] += fact3[:, row, lo:hi, None] * x3[:, lo:hi, :]
    if kl > 0:
        bidx = np.arange(fact3.shape[0])
        for j in range(n - 2, -1, -1):
            lm = min(kl, n - j - 1)
            if lm > 0:
                y[:, j + 1:j + 1 + lm, :] += (
                    fact3[:, kv + 1:kv + 1 + lm, j][:, :, None]
                    * y[:, j, :][:, None, :])
            pp = np.asarray(piv2)[:, j]
            rowj = y[:, j].copy()
            rowp = y[bidx, pp].copy()
            y[:, j] = rowp
            y[bidx, pp] = rowj
    return y


def band_norms_inf(ab3: np.ndarray, n: int, kl: int, ku: int, *,
                   offset: int | None = None) -> np.ndarray:
    """Per-lane infinity norms of a band stack (max absolute row sums)."""
    if offset is None:
        offset = kl + ku
    sums = np.zeros((ab3.shape[0], n), dtype=np.float64)
    for row, lo, hi, d in _diagonals(n, kl, ku, offset):
        sums[:, lo - d:hi - d] += np.abs(ab3[:, row, lo:hi])
    if sums.size == 0:
        return np.zeros(ab3.shape[0])
    return sums.max(axis=1)


def factor_norms_inf(fact3: np.ndarray, n: int, kl: int,
                     ku: int) -> np.ndarray:
    """Per-lane ``||U||_inf`` from a ``gbtrf`` factor stack.

    ``U`` has bandwidth ``kl+ku`` after pivoting and occupies rows
    ``0..kl+ku`` of the factor layout.
    """
    return band_norms_inf(fact3, n, 0, kl + ku, offset=kl + ku)


def pivot_growth_batch(fact3: np.ndarray, orig3: np.ndarray, kl: int,
                       ku: int) -> np.ndarray:
    """Per-lane pivot growth ``max|U| / max|A|``, 0 for all-zero inputs."""
    if fact3.shape[0] == 0 or fact3.shape[2] == 0:
        return np.zeros(fact3.shape[0])
    sub = fact3[:, :kl + ku + 1]
    num, den = _abs_max(sub), _abs_max(orig3)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = np.where(den > 0, num / den, 0.0)
    return growth


def _abs_max(stack3: np.ndarray) -> np.ndarray:
    """Per-lane ``max|x|`` of a ``(batch, rows, n)`` stack."""
    if np.iscomplexobj(stack3):
        return np.abs(stack3).max(axis=(1, 2))
    # max|x| as max(max, -min): two allocation-free reductions instead
    # of materialising |stack| (tens of MB at paper scale).
    return np.maximum(stack3.max(axis=(1, 2)), -stack3.min(axis=(1, 2)))


def operand_digest(*arrays) -> str:
    """Content fingerprint of one lane's operands (blake2b-128).

    Shapes and dtypes join the hash so a reinterpretation of the same
    bytes cannot collide; strided views are serialised contiguously.
    """
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.shape}:{a.dtype.str};".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# --- shared ladder pieces --------------------------------------------------

def _finite_max(values, mask=None) -> float:
    vals = np.asarray(values, dtype=np.float64)
    if mask is not None:
        vals = vals[np.asarray(mask)]
    vals = vals[np.isfinite(vals)]
    return float(vals.max()) if vals.size else 0.0


def _fails(s, tol: float) -> bool:
    """A gate verdict: residual above tolerance or non-finite."""
    return not np.isfinite(s) or s > tol


def _failing(scaled: np.ndarray, tol: float, eligible) -> list[int]:
    """Lanes whose gate fails."""
    return [int(k) for k in eligible if _fails(scaled[k], tol)]


def _lane_absmax(x3: np.ndarray) -> np.ndarray:
    """Per-lane ``max|x|`` of a ``(batch, ...)`` stack."""
    return np.abs(x3).reshape(len(x3), -1).max(axis=1)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Scaled residuals ``num / den``, unscaled where ``den`` is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / den, num)


def _rcond_of(n, kl, ku, fact, piv, anorm1) -> float:
    try:
        return gbcon("1", n, kl, ku, fact, piv, float(anorm1))
    except Exception:
        return 0.0


def _classify(report, policy, op, device, failing, residuals, growth,
              rconds, floor):
    """Split still-failing lanes into expected-inaccurate vs corrupted."""
    ill, corrupt = [], []
    for k in failing:
        g = growth[k]
        ill_cond = (rconds.get(k, 1.0) < floor
                    or (np.isfinite(g) and g > policy.growth_threshold))
        (ill if ill_cond else corrupt).append(k)
    report.ill_conditioned = tuple(
        sorted(set(report.ill_conditioned) | set(ill)))
    if corrupt:
        worst = _finite_max([residuals[k] for k in corrupt])
        if policy.on_fail == "raise":
            raise DataCorruptionError(op, sorted(corrupt),
                                      device=device.name, residual=worst)
        report.unrecovered = tuple(
            sorted(set(report.unrecovered) | set(corrupt)))
    return ill, corrupt


VERIFY_EXEC_MSG = ("verify requires full functional execution "
                   "(execute=True, max_blocks=None)")


# --- the verify layer ------------------------------------------------------

def verified(op, opts, below):
    """Verify layer of the execution chain (:mod:`repro.core.chain`).

    Captures the pristine operands for the whole batch under the
    descriptor's gate (``op.verify_gate``; every layer below inherits the
    copy), runs the rest of the chain unchanged, then checks every healthy
    lane and escalates failing ones: exact recompute of the rewound lane
    subset through the layers below (governed, default knobs) → the host
    reference path → the gate's own extra rungs.  Lanes
    that still fail are classified ill-conditioned or corrupted.  Passes
    straight through unless ``opts.verify``; returns the report.  Healthy
    lanes are bit-identical to an unverified call.
    """
    vp = opts.verify
    if vp is None:
        return below(op, opts)
    gate = op.verify_gate(vp)
    report = below(op, opts)
    if report is None:
        report = BatchReport(op.name, op.batch, method_requested=opts.method,
                             info=op.info)
    report.verify_mode = vp.mode
    if gate is None:
        return report
    gate.check_digests(report)

    info = op.info
    skip = set(report.unrecovered)
    eligible = [k for k in range(op.batch) if info[k] == 0 and k not in skip]
    mask = np.zeros(op.batch, dtype=bool)
    mask[eligible] = True
    scaled = gate.residuals(eligible)
    growth = gate.growth()
    report.verified_lanes += len(eligible)
    report.residual_max = max(report.residual_max, _finite_max(scaled, mask))
    report.growth_max = max(report.growth_max, _finite_max(growth, mask))
    if vp.condition_enabled:
        gate.stamp_condition(report)

    failing = _failing(scaled, gate.tol, eligible)
    if not failing:
        return report
    report.sdc_detected = tuple(
        sorted(set(report.sdc_detected) | set(failing)))
    residuals = {k: float(scaled[k]) for k in failing}

    # Rung 1: exact recompute through the layers below (bit-identical
    # designs), governed with default knobs.
    op.rewind(failing)
    sub = op.pick(failing, tuned=False)
    below(sub, type(opts)(device=opts.device, stream=opts.stream,
                          method=opts.method))
    report.recomputes += len(failing)
    info[failing] = sub.info
    still = gate.reverify(failing, residuals)

    # Rung 2: host reference net (bit-identical to the reference kernels).
    if still:
        op.rewind(still)
        sub = op.pick(still)
        sub.host()
        info[still] = sub.info
        report.recomputes += len(still)
        still = gate.reverify(still, residuals)

    for rung in gate.extra_rungs():
        if still:
            still = rung(still, report, residuals)

    recovered = [k for k in failing if k not in still and info[k] == 0]
    report.sdc_recovered = tuple(
        sorted(set(report.sdc_recovered) | set(recovered)))
    if still:
        rconds = {k: gate.rcond(k) for k in still}
        rmin = min(rconds.values())
        report.rcond_min = (rmin if report.rcond_min is None
                            else min(report.rcond_min, rmin))
        _classify(report, vp, op.name, opts.device, still, residuals, growth,
                  rconds, gate.floor)
    return report


# --- the gates -------------------------------------------------------------

class Gate:
    """A verify gate: residual check and recovery rungs of one operation
    over views of its pristine copy (``snap_a``: the rows kernels touch).
    Subclasses add ``residuals``, ``reverify`` and ``rcond``."""

    def __init__(self, op, vp: VerifyPolicy):
        self.op, self.vp = op, vp
        self.rows = op.rows
        mats, self.snap_p, self.snap_b = op.pristine
        self.snap_a = stack_lanes(mats, rows=self.rows, copy=False)
        self.tol = vp.tol_for(op.n, self.snap_a.dtype)
        self.floor = vp.floor_for(op.n, self.snap_a.dtype)

    def check_digests(self, report) -> None:
        pass

    def extra_rungs(self) -> tuple:
        """Recovery rungs after the recompute and host rungs."""
        return ()

    def growth(self) -> np.ndarray:
        return np.zeros(self.op.batch)

    def stamp_condition(self, report) -> None:
        pass


class FactorGate(Gate):
    """Shared pieces of the gates whose copy of ``A`` is the original."""

    def __init__(self, op, vp: VerifyPolicy):
        super().__init__(op, vp)
        self._anorms1: dict = {}

    def growth(self) -> np.ndarray:
        return pivot_growth_batch(
            stack_lanes(self.op.mats, rows=self.rows, copy=False),
            self.snap_a, self.op.kl, self.op.ku)

    def anorm1(self, k: int) -> float:
        if k not in self._anorms1:
            op = self.op
            self._anorms1[k] = band_norm_1(self.snap_a[k], op.n, op.kl,
                                           op.ku)
        return self._anorms1[k]

    def stamp_condition(self, report) -> None:
        """Full-mode condition stamping: ``rcond`` for every healthy lane."""
        op = self.op
        rconds = [gbcon("1", op.n, op.kl, op.ku, op.mats[k][:self.rows],
                        op.pivots[k], float(self.anorm1(k)))
                  for k in range(op.batch) if op.info[k] == 0]
        if rconds:
            rmin = float(min(rconds))
            report.rcond_min = (rmin if report.rcond_min is None
                                else min(report.rcond_min, rmin))

    def rcond(self, k: int) -> float:
        op = self.op
        return _rcond_of(op.n, op.kl, op.ku, op.mats[k][:self.rows],
                         op.pivots[k], self.anorm1(k))


class ProbeGate(FactorGate):
    """``gbtrf`` gate: with no right-hand side to check, the factors are
    verified directly — ``P L U`` (reconstructed by
    :func:`plu_apply_batch`) applied to a deterministic probe vector must
    reproduce ``A`` applied to the same vector."""

    def __init__(self, op, vp):
        super().__init__(op, vp)
        n = op.n
        # Deterministic probe (gbcon's alternating ramp): exercises every
        # column with O(1) dynamic range, so a flipped element anywhere in
        # the factors perturbs the probe image proportionally.
        w = np.array([(-1.0) ** i * (1.0 + i / max(n - 1, 1))
                      for i in range(n)])[:, None]
        self.w3 = np.broadcast_to(w, (op.batch, n, 1))
        self.wmax = float(np.abs(w).max())

    def _probe(self, ks) -> np.ndarray:
        """Scaled probe residuals ``|PLU w - A w|`` for the given lanes."""
        op, idx = self.op, list(ks)
        n, kl, ku = op.n, op.kl, op.ku
        f3 = stack_lanes([op.mats[k] for k in idx], rows=self.rows,
                         copy=False)
        p2 = np.stack([np.asarray(op.pivots[k]) for k in idx])
        w3 = self.w3[:len(idx)]
        got = plu_apply_batch(f3, p2, w3, n, kl, ku)
        ref = band_mv_batch(self.snap_a[idx], w3, n, kl, ku)
        unorms = factor_norms_inf(f3, n, kl, ku)
        anorms = band_norms_inf(self.snap_a[idx], n, kl, ku)
        return _ratio(_lane_absmax(got - ref),
                      ((1.0 + kl) * unorms + anorms) * self.wmax)

    def residuals(self, eligible) -> np.ndarray:
        scaled = np.zeros(self.op.batch)
        if eligible:
            scaled[eligible] = self._probe(eligible)
        return scaled

    def reverify(self, ks, residuals) -> list:
        live = [k for k in ks if self.op.info[k] == 0]
        if not live:
            return []
        return _still_failing(live, self._probe(live), self.tol, residuals)


class ResidualGate(FactorGate):
    """``gbsv`` gate: the scaled residual ``||A x - b||`` of every solution
    against the pristine ``A`` and ``b``, with two extra rungs —
    equilibrated refactor and iterative refinement.  A lane whose returned
    factors hold a non-finite value fails too, however good its ``x``:
    the call returns those factors."""

    def extra_rungs(self) -> tuple:
        return (self._equilibrate, self._refine)

    def residuals(self, eligible) -> np.ndarray:
        op = self.op
        x3 = stack_lanes(op.rhs, copy=False)
        anorms = band_norms_inf(self.snap_a, op.n, op.kl, op.ku)
        r3 = band_mv_batch(self.snap_a, x3, op.n, op.kl, op.ku) - self.snap_b
        scaled = _ratio(_lane_absmax(r3), anorms * _lane_absmax(x3)
                        + _lane_absmax(self.snap_b))
        f3 = stack_lanes(op.mats, rows=self.rows, copy=False)
        finite = np.isfinite(f3).reshape(len(f3), -1).all(axis=1)
        return np.where(finite, scaled, np.inf)

    def _residual(self, k, x) -> float:
        return solve_residual(self.snap_a[k], x, self.snap_b[k], self.op.kl,
                              self.op.ku)

    def reverify(self, ks, residuals) -> list:
        op = self.op
        live = [k for k in ks if op.info[k] == 0]
        return _still_failing(
            live, [np.inf if op.lane_nonfinite(k)
                   else self._residual(k, op.rhs[k]) for k in live],
            self.tol, residuals)

    def _equilibrate(self, still, report, residuals) -> list:
        """Rung 3: ``gbequ`` equilibrate + refactor on scratch copies.  The
        caller's factors keep the host-rung state (factors of the original
        ``A``); only an equilibrated solution that passes the gate is
        written back."""
        op = self.op
        n, kl, ku = op.n, op.kl, op.ku
        for k in list(still):
            scratch = self.snap_a[k].copy()
            r, c, rowcnd, colcnd, _amax, einfo = gbequ(n, n, kl, ku, scratch)
            if einfo != 0:
                continue
            equed = laqgb(n, n, kl, ku, scratch, r, c, rowcnd, colcnd)
            if equed == "N":
                continue
            piv_s = np.zeros(n, dtype=np.int64)
            _, inf = gbtf2(n, n, kl, ku, scratch, piv_s)
            if inf != 0:
                continue
            y = self.snap_b[k].astype(
                np.result_type(self.snap_b.dtype, np.float64))
            if equed in ("R", "B"):
                y = y * r[:, None]
            gbtrs_unblocked(Trans.NO_TRANS, n, kl, ku, scratch, piv_s, y)
            if equed in ("C", "B"):
                y = y * c[:, None]
            report.recomputes += 1
            s = self._residual(k, y)
            if np.isfinite(s) and s <= self.tol:
                op.rhs[k][...] = y.astype(self.snap_b.dtype, copy=False)
                residuals[k] = s
        return self.reverify(still, residuals)

    def _refine(self, still, report, residuals) -> list:
        """Rung 4: ``gbrfs`` iterative refinement against the pristine
        operands, stamping berr/ferr bounds."""
        if not self.vp.refine:
            return still
        op = self.op
        refined = []
        for k in still:
            if op.info[k] != 0:
                continue
            res = gbrfs(op.n, op.kl, op.ku, self.snap_a[k],
                        op.mats[k][:self.rows], op.pivots[k], self.snap_b[k],
                        op.rhs[k], max_iter=self.vp.max_refine)
            refined.append(k)
            report.berr_max = max(report.berr_max, _finite_max(res.berr))
        if refined:
            report.refined = tuple(sorted(set(report.refined) | set(refined)))
            eps = float(np.finfo(self.snap_a.dtype).eps)
            for k in refined:
                rc = self.rcond(k)
                report.rcond_min = (rc if report.rcond_min is None
                                    else min(report.rcond_min, rc))
                if report.berr_max > 0:
                    report.ferr_max = max(
                        report.ferr_max, report.berr_max / max(rc, eps))
        return self.reverify(still, residuals)


class ReplayGate(Gate):
    """``gbtrs`` gate: without the original ``A``, the residual is checked
    against the reconstructed operator — ``P L U x`` (from the pristine
    factors) must reproduce the pristine ``b``.  With digests enabled the
    read-only factors and pivots are also fingerprinted before the stage
    and re-verified after it; a mismatch restores them from the copy."""

    def __init__(self, op, vp: VerifyPolicy):
        super().__init__(op, vp)
        self.digests = None
        if vp.digests_enabled:
            self.digests = [operand_digest(op.mats[k][:self.rows],
                                           op.pivots[k])
                            for k in range(op.batch)]

    def check_digests(self, report) -> None:
        """Digest re-verification of the read-only operands."""
        if self.digests is None:
            return
        op = self.op
        mismatched = [k for k in range(op.batch)
                      if operand_digest(op.mats[k][:self.rows], op.pivots[k])
                      != self.digests[k]]
        if mismatched:
            report.digest_mismatches = tuple(
                sorted(set(report.digest_mismatches) | set(mismatched)))
            report.sdc_detected = tuple(
                sorted(set(report.sdc_detected) | set(mismatched)))
            # Factors and pivots only: the gate checks the solution next.
            sub = op.pick(mismatched)
            sub.pristine = sub.pristine._replace(rhs=None)
            sub.rewind()

    def _scaled(self, idx, x) -> np.ndarray:
        op = self.op
        g = plu_apply_batch(self.snap_a[idx], self.snap_p[idx], x, op.n,
                            op.kl, op.ku)
        return _ratio(_lane_absmax(g - self.snap_b[idx]),
                      (1.0 + op.kl) * self.unorms[idx] * _lane_absmax(x)
                      + self.bmax[idx])

    def residuals(self, eligible) -> np.ndarray:
        op = self.op
        self.unorms = factor_norms_inf(self.snap_a, op.n, op.kl, op.ku)
        self.bmax = _lane_absmax(self.snap_b)
        return self._scaled(slice(None), stack_lanes(op.rhs, copy=False))

    def reverify(self, ks, residuals) -> list:
        if not ks:
            return []
        idx = list(ks)
        x = np.stack([np.asarray(self.op.rhs[k]) for k in idx])
        return _still_failing(idx, self._scaled(idx, x), self.tol, residuals)

    def rcond(self, k: int) -> float:
        # No original A here: bound ||A||_1 by (1+kl)·||U||_1 (unit
        # multipliers) for the condition classification.
        op = self.op
        anorm1 = (1.0 + op.kl) * band_norm_1(self.snap_a[k], op.n, 0,
                                             op.kl + op.ku,
                                             factor_layout=False)
        return _rcond_of(op.n, op.kl, op.ku, self.snap_a[k], self.snap_p[k],
                         anorm1)


def _still_failing(idx, scaled, tol, residuals) -> list:
    """Record the re-verified residuals; return the lanes still failing."""
    residuals.update((k, float(v)) for k, v in zip(idx, scaled))
    return [k for k, v in zip(idx, scaled) if _fails(v, tol)]
