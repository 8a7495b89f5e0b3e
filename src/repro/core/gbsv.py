"""Batched band factorize-and-solve driver (paper Sections 4, 7).

LAPACK defines ``GBSV`` as a driver calling ``GBTRF`` then ``GBTRS``.  Our
``gbsv_batch`` follows that, except that small systems (order
``<= FUSED_GBSV_CUTOFF`` with a single right-hand side — the paper's
empirical crossover) are handled by the fused single-kernel
factorize-and-solve of :mod:`repro.core.gbsv_fused`.

LAPACK semantics on singularity: the factorization always completes and is
written back with the pivots; the solve is skipped for any problem whose
``info > 0``, leaving that problem's ``B`` unchanged.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..tuning.defaults import FUSED_GBSV_CUTOFF
from ..types import Trans
from .batch_args import (
    as_matrix_list,
    as_rhs_list,
    check_gb_args,
    ensure_info,
    ensure_pivots,
)
from .chain import BatchOp, ExecOptions, run
from .gbsv_fused import FusedGbsvKernel
from .gbtf2 import gbtf2
from .gbtrf import GbtrfOp
from .gbtrs import _METHODS as _GBTRS_METHODS
from .gbtrs import GbtrsOp
from .solve_blocks import gbtrs_unblocked
from .verify import ResidualGate

__all__ = ["gbsv", "gbsv_batch", "select_gbsv_method"]

_METHODS = ("auto", "fused", "standard")


def gbsv(n: int, kl: int, ku: int, ab: np.ndarray, b: np.ndarray,
         ipiv: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Single-matrix band solve ``A x = b`` (LAPACK ``DGBSV`` equivalent).

    ``ab`` (factor layout) is overwritten with the factors and ``b`` with
    the solution (unless singular).  Returns ``(b, ipiv, info)``.
    """
    ipiv, info = gbtf2(n, n, kl, ku, ab, ipiv)
    if info == 0:
        b2 = b[:, None] if b.ndim == 1 else b
        gbtrs_unblocked(Trans.NO_TRANS, n, kl, ku, ab, ipiv, b2)
    return b, ipiv, info


def select_gbsv_method(device: DeviceSpec, n: int, kl: int, ku: int,
                       nrhs: int, itemsize: int = 8) -> str:
    """Dispatcher choice: fused for small single-RHS systems (paper Section 7)."""
    if n <= FUSED_GBSV_CUTOFF and nrhs == 1:
        from ..band.layout import BandLayout
        elems = BandLayout(n, n, kl, ku).fused_elems() + n * nrhs
        if device.round_smem(elems * itemsize) <= device.max_smem_per_block:
            return "fused"
    return "standard"


def gbsv_batch(n: int, kl: int, ku: int, nrhs: int, a_array, pv_array,
               b_array, info=None, *, batch: int | None = None,
               device: DeviceSpec = H100_PCIE, stream=None,
               method: str = "auto", execute: bool = True,
               max_blocks: int | None = None,
               vectorize: bool | None = None,
               resilient: bool = False, policy=None,
               max_resident_bytes: int | None = None,
               chunk_hint: int | None = None,
               streams: int | None = None, devices=None,
               overlap: bool | None = None,
               layout: str | None = None,
               verify=None):
    """Factor and solve a uniform batch of band systems (paper's top API).

    Returns ``(pivots, info)``.  ``a_array`` is overwritten with factors,
    ``b_array`` with solutions (per-problem, skipped when singular).
    ``vectorize`` selects the execution path (see
    :func:`repro.core.gbtrf.gbtrf_batch`); when some problems are singular
    the follow-up solve runs on a scattered sub-batch, which the
    gather/pack stage stages for the batch-interleaved path like any
    other scattered batch.

    ``resilient=True`` routes the call through the self-healing dispatch
    of :mod:`repro.core.resilience` and returns ``(pivots, info,
    report)``; ``policy`` is an optional
    :class:`~repro.core.resilience.ResiliencePolicy`.

    ``max_resident_bytes`` / ``chunk_hint`` are the memory-governance
    knobs (:mod:`repro.core.memory_plan`): a batch whose resident
    footprint exceeds the device pool budget (or either cap) is streamed
    through the device in chunks, bit-identically to an unchunked run.

    ``streams`` / ``devices`` / ``overlap`` are the pipelined-execution
    knobs (see :func:`repro.core.gbtrf.gbtrf_batch`): chunks stream
    through double-buffered copy/compute streams and shard across
    devices, bit-identically to the sequential single-device path.

    ``layout`` selects the batch storage layout (docs/LAYOUTS.md, same
    semantics as :func:`repro.core.gbtrf.gbtrf_batch`): ``None`` runs
    matrices and right-hand sides in the layout they arrive in,
    ``'interleaved'``/``'soa'`` or ``'lane-major'``/``'aos'`` stage both
    operand batches into that layout exactly once at the batch
    boundary — the internal factorize and solve stages then run in that
    layout with no further conversion.

    ``verify`` turns on the silent-data-corruption defense
    (:mod:`repro.core.verify`): ``True``, ``'cheap'``, ``'full'`` or a
    :class:`~repro.core.verify.VerifyPolicy`.  Every healthy lane's
    solution is checked against a pristine snapshot of ``A`` and ``b``
    with a scaled residual gate; failing lanes escalate through recompute
    → reference path → equilibrated refactor → iterative refinement, and
    the call returns ``(pivots, info, report)`` with the verification
    fields stamped on the :class:`~repro.core.resilience.BatchReport`.
    Lanes that pass are bit-identical to an unverified call.
    """
    opts = ExecOptions.build(
        _METHODS, 12, 13, device=device, stream=stream, method=method,
        execute=execute, max_blocks=max_blocks, vectorize=vectorize,
        resilient=resilient, policy=policy,
        max_resident_bytes=max_resident_bytes, chunk_hint=chunk_hint,
        streams=streams, devices=devices, overlap=overlap, layout=layout,
        verify=verify)
    op = GbsvOp.from_args(n, kl, ku, nrhs, a_array, pv_array, b_array, info,
                          batch)
    return op.result(run(op, opts))


class GbsvOp(BatchOp):
    """Descriptor of one batched factorize-and-solve.

    Built from a :class:`~repro.core.gbtrf.GbtrfOp` and a
    :class:`~repro.core.gbtrs.GbtrsOp` over the same operands (LAPACK's
    ``GBSV = GBTRF + GBTRS``); the fused single-kernel design is its own.
    """

    name = "gbsv"
    gate = ResidualGate
    stages = ("gbtrf", "gbtrs")
    layout_outputs = (True, True)

    @property
    def factor_part(self) -> GbtrfOp:
        part = GbtrfOp(self.n, self.n, self.kl, self.ku, self.mats,
                       self.pivots, self.info)
        part.pristine = self.pristine
        return part

    @property
    def solve_part(self) -> GbtrsOp:
        """The solve stage; its copy keeps only ``B`` (factors are outputs)."""
        part = GbtrsOp(Trans.NO_TRANS, self.n, self.kl, self.ku, self.nrhs,
                       self.mats, self.pivots, self.rhs, self.info)
        part.pristine = self.pristine and self.pristine._replace(mats=None)
        return part

    @classmethod
    def from_args(cls, n, kl, ku, nrhs, a_array, pv_array, b_array, info,
                  batch) -> "GbsvOp":
        """Validate and normalize the operands once (argument positions of
        the paper's ``dgbsv_batch``)."""
        check_arg(nrhs >= 0, 4, f"nrhs must be non-negative, got {nrhs}")
        if batch is None:
            batch = len(a_array)
        mats = as_matrix_list(a_array, batch, arg_pos=5)
        check_gb_args(n, n, kl, ku, mats, batch=batch)
        pivots = ensure_pivots(pv_array, batch, n, arg_pos=6, zero=True)
        rhs = as_rhs_list(b_array, batch, n, nrhs, arg_pos=7)
        info = ensure_info(info, batch, arg_pos=8)
        return cls(n, kl, ku, mats, pivots, info, rhs, nrhs)

    def _rebuild(self, mats, pivots, rhs, info, tuned=True):
        return GbsvOp(self.n, self.kl, self.ku, mats, pivots, info, rhs,
                      self.nrhs)

    @property
    def empty(self) -> bool:
        return self.batch == 0 or self.n == 0

    def design(self, device, method: str) -> str:
        if method == "auto":
            method = select_gbsv_method(device, self.n, self.kl, self.ku,
                                        self.nrhs,
                                        self.mats[0].dtype.itemsize)
        return "fused" if method == "fused" and self.nrhs >= 1 else "standard"

    def kernels(self, device, method: str) -> list:
        """The fused kernel, or the factorization's then the solve's."""
        if self.design(device, method) == "fused":
            return [FusedGbsvKernel(self.n, self.kl, self.ku, self.nrhs,
                                    self.mats, self.pivots, self.rhs,
                                    self.info)]
        kernels = self.factor_part.kernels(device, "auto")
        if self.nrhs:
            kernels += self.solve_part.kernels(device, "auto")
        return kernels

    def launch(self, opts) -> None:
        """Bottom of the chain: the fused kernel, or ``gbtrf`` then
        ``gbtrs`` on the non-singular lanes."""
        if self.empty:
            return
        if self.design(opts.device, opts.method) == "fused":
            self._launch_all(self.kernels(opts.device, "fused"), opts)
            return
        stage = opts.replace(method="auto")
        self.factor_part.launch(stage)
        if self.nrhs == 0:
            return
        ok = [k for k in range(self.batch) if self.info[k] == 0]
        if len(ok) == self.batch:
            self.solve_part.launch(stage)
        elif ok:
            # Solve only the non-singular problems (LAPACK leaves B of a
            # singular problem unchanged).  The scattered sub-batch is no
            # longer a contiguous stack; the gather/pack stage stages it
            # for the batch-interleaved path.
            self.solve_part.pick(ok).launch(stage)

    def host(self) -> None:
        """Host reference algorithm: ``gbtf2``, then ``gbtrs_unblocked``
        on the non-singular lanes."""
        self.factor_part.host()
        ok = [k for k in range(self.batch) if self.info[k] == 0]
        if self.nrhs and ok:
            self.solve_part.pick(ok).host()

    def design_ladder(self, device, method: str):
        """Resilience stages: ``(stage, part, lanes, rungs, fallback)``.

        The fused kernel has no rung below it; when it fails the call
        falls back to the standard two-stage path, each stage with its own
        design ladder.  The solve runs on the lanes the factorization left
        healthy (singular and corrupted ones go through quarantine)."""
        if self.design(device, method) == "fused":
            yield "gbsv", self, None, ("fused",), "standard"
        yield from self.factor_part.design_ladder(device, "auto")
        if self.nrhs:
            ok = [k for k in range(self.batch)
                  if self.info[k] == 0 and not self.lane_nonfinite(k)]
            if ok:
                yield "gbtrs", self.solve_part, ok, _GBTRS_METHODS[1:], None

