"""Batched band triangular solve driver (paper Sections 4 and 6).

``gbtrs_batch`` mirrors the paper's ``dgbtrs_batch`` signature: it consumes
the factors and pivots produced by :func:`repro.core.gbtrf.gbtrf_batch` and
solves for ``nrhs`` right-hand sides per problem, dispatching between the
blocked sliding-window kernels (default) and the reference per-column
design.  The single-matrix :func:`gbtrs` wrapper is LAPACK
``DGBTRS``-equivalent.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..types import Trans
from .batch_args import (
    as_matrix_list,
    as_rhs_list,
    check_gb_args,
    ensure_info,
    ensure_pivots,
)
from .chain import BatchOp, ExecOptions, run
from .gbtrs_blocked import (
    BlockedBackwardKernel,
    BlockedForwardKernel,
    BlockedTransLKernel,
    BlockedTransUKernel,
)
from .gbtrs_reference import gbtrs_reference_batch
from .solve_blocks import gbtrs_unblocked
from .verify import ReplayGate

__all__ = ["gbtrs", "gbtrs_batch"]

_METHODS = ("auto", "blocked", "reference")


def gbtrs(trans: Trans | str, n: int, kl: int, ku: int, ab: np.ndarray,
          ipiv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Single-matrix band solve from ``gbtrf`` factors, in place on ``b``.

    Equivalent to LAPACK ``DGBTRS``.  ``b`` may be ``(n,)`` or
    ``(n, nrhs)``; returns the solution view.
    """
    b2 = b[:, None] if b.ndim == 1 else b
    check_arg(b2.shape[0] == n, 7,
              f"b has {b2.shape[0]} rows, expected {n}")
    gbtrs_unblocked(trans, n, kl, ku, ab, ipiv, b2)
    return b


def gbtrs_batch(trans: Trans | str, n: int, kl: int, ku: int, nrhs: int,
                a_array, pv_array, b_array, info=None, *,
                batch: int | None = None, device: DeviceSpec = H100_PCIE,
                stream=None, method: str = "auto", nb: int | None = None,
                threads: int | None = None, rhs_tile: int | None = None,
                execute: bool = True, max_blocks: int | None = None,
                vectorize: bool | None = None,
                resilient: bool = False, policy=None,
                max_resident_bytes: int | None = None,
                chunk_hint: int | None = None,
                streams: int | None = None, devices=None,
                overlap: bool | None = None,
                layout: str | None = None,
                verify=None):
    """Solve a uniform batch of factored band systems on the simulated GPU.

    Arguments follow the paper's ``dgbtrs_batch``; ``b_array`` (``(batch,
    n, nrhs)`` stack or pointer array) is overwritten with the solutions.
    Returns the ``info`` array (all zeros unless argument validation
    raises; numerical singularity is reported by the factorization, not the
    solve — LAPACK semantics).

    ``vectorize`` selects the execution path as in
    :func:`repro.core.gbtrf.gbtrf_batch`: ``None`` auto-dispatches the
    blocked kernels — no-transpose *and* transposed — to the
    batch-interleaved path whenever the factors and right-hand sides can
    be staged (uniform stacks directly, scattered/pointer-array batches
    through the gather/pack stage), ``False`` forces per-block execution,
    ``True`` requires vectorized execution (the reference method has no
    vectorized path and raises; so do unpackable aliased batches).

    ``resilient=True`` routes the call through the self-healing dispatch
    of :mod:`repro.core.resilience` and returns ``(info, report)``;
    ``policy`` is an optional
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
    factors and right-hand sides in the layout they arrive in
    (interleaved stacks natively, as ``[vec+soa]``),
    ``'interleaved'``/``'soa'`` or ``'lane-major'``/``'aos'`` stage both
    operand batches into that layout exactly once at the batch boundary.

    ``verify`` turns on the silent-data-corruption defense
    (:mod:`repro.core.verify`): ``True``, ``'cheap'``, ``'full'`` or a
    :class:`~repro.core.verify.VerifyPolicy`.  Each solution is checked
    by replaying ``P L U x`` from pristine factor snapshots against the
    pristine right-hand side; in ``'full'`` mode the read-only factors
    and pivots are also digest-checked across the stage boundary.
    Failing lanes escalate through recompute → reference path, and the
    call returns ``(info, report)``.  No-transpose solves only.
    """
    trans = Trans.from_any(trans)
    opts = ExecOptions.build(
        _METHODS, 14, 15, device=device, stream=stream, method=method,
        execute=execute, max_blocks=max_blocks, vectorize=vectorize,
        resilient=resilient, policy=policy,
        max_resident_bytes=max_resident_bytes, chunk_hint=chunk_hint,
        streams=streams, devices=devices, overlap=overlap, layout=layout,
        verify=verify)
    op = GbtrsOp.from_args(trans, n, kl, ku, nrhs, a_array, pv_array,
                           b_array, info, batch, opts, nb=nb,
                           threads=threads, rhs_tile=rhs_tile)
    return op.result(run(op, opts))


class GbtrsOp(BatchOp):
    """Descriptor of one batched band solve from ``gbtrf`` factors."""

    name = "gbtrs"
    gate = ReplayGate
    stages = ("gbtrs",)
    factors_out = False
    layout_outputs = (False, True)      # factors are pure inputs here

    def __init__(self, trans, n, kl, ku, nrhs, mats, pivots, rhs, info, *,
                 nb=None, threads=None, rhs_tile=None):
        super().__init__(n, kl, ku, mats, pivots, info, rhs=rhs, nrhs=nrhs)
        self.trans = trans
        self.nb, self.threads, self.rhs_tile = nb, threads, rhs_tile

    @classmethod
    def from_args(cls, trans, n, kl, ku, nrhs, a_array, pv_array, b_array,
                  info, batch, opts, **tuning) -> "GbtrsOp":
        """Validate and normalize the operands once (argument positions of
        the paper's ``dgbtrs_batch``)."""
        if opts.verify is not None:
            check_arg(trans is Trans.NO_TRANS, 1,
                      "verify supports trans='N' solves (the reconstruction "
                      "replays forward elimination); use verify=None for "
                      "transposed solves")
        check_arg(nrhs >= 0, 5, f"nrhs must be non-negative, got {nrhs}")
        if batch is None:
            batch = len(a_array)
        mats = as_matrix_list(a_array, batch, arg_pos=6)
        check_gb_args(n, n, kl, ku, mats, batch=batch, ldab_pos=7)
        pivots = ensure_pivots(pv_array, batch, n, arg_pos=8)
        rhs = as_rhs_list(b_array, batch, n, nrhs, arg_pos=9)
        info = ensure_info(info, batch, arg_pos=11)
        return cls(trans, n, kl, ku, nrhs, mats, pivots, rhs, info,
                   **tuning)

    def _rebuild(self, mats, pivots, rhs, info, tuned=True):
        tuning = (dict(nb=self.nb, threads=self.threads,
                       rhs_tile=self.rhs_tile) if tuned else {})
        return GbtrsOp(self.trans, self.n, self.kl, self.ku, self.nrhs,
                       mats, pivots, rhs, info, **tuning)

    @property
    def empty(self) -> bool:
        return self.batch == 0 or self.n == 0 or self.nrhs == 0

    @property
    def solve_part(self) -> "GbtrsOp":
        return self

    def kernels(self, device, method: str) -> list:
        """The blocked design's two stage kernels (none for reference)."""
        if self.design(device, method) == "reference":
            return []
        args = (self.n, self.kl, self.ku, self.nrhs, self.mats, self.pivots,
                self.rhs)
        if self.trans is Trans.NO_TRANS:
            tuning = dict(nb=self.nb, threads=self.threads,
                          rhs_tile=self.rhs_tile)
            return [BlockedForwardKernel(*args, **tuning),
                    BlockedBackwardKernel(*args, **tuning)]
        tuning = dict(nb=self.nb, threads=self.threads,
                      conj=self.trans is Trans.CONJ_TRANS)
        return [BlockedTransUKernel(*args, **tuning),
                BlockedTransLKernel(*args, **tuning)]

    def design(self, device, method: str) -> str:
        return "blocked" if method == "auto" else method

    def reference(self, opts) -> None:
        """The reference design's per-column launches."""
        check_arg(not opts.vectorize, 16,
                  "method='reference' (per-column kernels) has no "
                  "batch-interleaved path; use vectorize=None or False")
        gbtrs_reference_batch(self.trans, self.n, self.kl, self.ku,
                              self.nrhs, self.mats, self.pivots, self.rhs,
                              opts.device, opts.stream,
                              execute=opts.execute,
                              max_blocks=opts.max_blocks)

    def host(self) -> None:
        """Host reference algorithm (``gbtrs_unblocked``) on every lane."""
        for a, p, b in zip(self.mats, self.pivots, self.rhs):
            gbtrs_unblocked(self.trans, self.n, self.kl, self.ku, a, p, b)

    def design_ladder(self, device, method: str):
        """Resilience stages: ``(stage, part, lanes, rungs, fallback)``."""
        rungs = _METHODS[_METHODS.index(self.design(device, method)):]
        yield "gbtrs", self, None, rungs, None


    def result(self, report):
        return self.info if report is None else (self.info, report)
