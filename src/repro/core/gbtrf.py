"""Batched band LU factorization driver (paper Sections 4 and 5.4).

``gbtrf_batch`` puts the three factorization designs behind one interface:

* *fused* — whole matrix in shared memory; chosen for very small matrices
  (order ``<= FUSED_CUTOFF``) where it avoids the window-shift
  synchronisation overhead;
* *window* — sliding window; the workhorse covering "a very wide range of
  band sizes regardless of the matrix size";
* *reference* — fork-join per-column kernels; kept as the safeguard when a
  single window would not even fit in shared memory.

The single-matrix :func:`gbtrf` convenience wrapper applies the same
algorithm on the host (it is LAPACK ``DGBTRF``-equivalent).
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..tuning.defaults import FUSED_CUTOFF, window_params
from .batch_args import (
    as_matrix_list,
    check_gb_args,
    ensure_info,
    ensure_pivots,
)
from .chain import BatchOp, ExecOptions, run
from .gbtf2 import gbtf2
from .gbtrf_fused import FusedGbtrfKernel
from .gbtrf_reference import gbtrf_reference_batch
from .gbtrf_window import SlidingWindowGbtrfKernel
from .verify import ProbeGate

__all__ = ["gbtrf", "gbtrf_batch", "select_gbtrf_method"]

_METHODS = ("auto", "fused", "window", "reference")


def gbtrf(m: int, n: int, kl: int, ku: int, ab: np.ndarray,
          ipiv: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Single-matrix band LU with partial pivoting, in place on ``ab``.

    Equivalent to LAPACK ``DGBTRF`` (identical factors, pivots and info).
    Returns ``(ipiv, info)``; pivots are 0-based absolute row indices.
    """
    check_gb_args(m, n, kl, ku, [np.asarray(ab)], batch=1, ldab_pos=6)
    return gbtf2(m, n, kl, ku, ab, ipiv)


def select_gbtrf_method(device: DeviceSpec, m: int, n: int, kl: int,
                        ku: int, itemsize: int = 8) -> str:
    """The dispatcher's choice for a configuration (paper Section 5.4)."""
    from ..band.layout import BandLayout
    layout = BandLayout(m, n, kl, ku)
    fused_smem = device.round_smem(layout.fused_elems() * itemsize)
    if max(m, n) <= FUSED_CUTOFF and fused_smem <= device.max_smem_per_block:
        return "fused"
    nb, _ = window_params(device, kl, ku)
    window_smem = device.round_smem(layout.window_elems(nb) * itemsize)
    if window_smem <= device.max_smem_per_block:
        return "window"
    return "reference"


def gbtrf_batch(m: int, n: int, kl: int, ku: int, a_array,
                pv_array=None, info=None, *, batch: int | None = None,
                device: DeviceSpec = H100_PCIE, stream=None,
                method: str = "auto", nb: int | None = None,
                threads: int | None = None, execute: bool = True,
                max_blocks: int | None = None,
                vectorize: bool | None = None,
                resilient: bool = False, policy=None,
                max_resident_bytes: int | None = None,
                chunk_hint: int | None = None,
                streams: int | None = None, devices=None,
                overlap: bool | None = None,
                layout: str | None = None,
                verify=None):
    """LU-factorize a uniform batch of band matrices on the simulated GPU.

    Parameters
    ----------
    a_array:
        ``(batch, ldab, n)`` stack or pointer array of ``(ldab, n)``
        matrices in factor layout (``ldab >= 2*kl + ku + 1``); overwritten
        with the factors.
    pv_array:
        Optional ``(batch, min(m, n))`` integer stack (or pointer array) to
        receive 0-based pivot rows; allocated when ``None``.
    info:
        Optional ``(batch,)`` integer array for per-problem status codes;
        allocated when ``None``.
    device, stream:
        Simulated device and execution stream (the paper's mandatory
        ``gpu_stream_t`` argument).
    method:
        ``'auto'`` (dispatcher), ``'fused'``, ``'window'`` or
        ``'reference'``.
    nb, threads:
        Sliding-window tuning overrides; defaults come from the tuning
        tables / heuristics.
    execute, max_blocks:
        Passed to the launcher: ``execute=False`` evaluates only the timing
        model; ``max_blocks`` functionally executes a sample of the batch.
    vectorize:
        Execution-path selector, forwarded to the launcher.  ``None``
        (default) auto-dispatches to the batch-interleaved path when the
        batch is a uniform contiguous stack *or* can be staged by the
        gather/pack stage (pointer-array and scattered same-shape batches
        pack automatically); ``False`` forces the per-block reference
        path; ``True`` requires the vectorized path (raises
        :class:`~repro.errors.DeviceError` for aliased/overlapping or
        mixed-shape batches that cannot be packed, and
        :class:`~repro.errors.ArgumentError` for ``method='reference'``,
        which has no such path).  Results are bit-identical either way.

    resilient, policy:
        ``resilient=True`` routes the call through the self-healing
        dispatch of :mod:`repro.core.resilience` (retry, design-ladder
        fallback, lane quarantine) and returns ``(pivots, info, report)``
        with a :class:`~repro.core.resilience.BatchReport` appended.
        ``policy`` is an optional
        :class:`~repro.core.resilience.ResiliencePolicy`.
    max_resident_bytes, chunk_hint:
        Memory-governance knobs (:mod:`repro.core.memory_plan`).
        ``max_resident_bytes`` caps the batch's resident device footprint
        below the pool budget; ``chunk_hint`` caps the lanes per chunk.
        A batch over either cap is streamed through the device in chunks,
        bit-identically to an unchunked run.
    streams, devices, overlap:
        Pipelined-execution knobs (:mod:`repro.core.pipeline`).
        ``streams`` (1–3) sets the per-device stream count — 3 gives the
        full h2d/compute/d2h double-buffered pipeline, 2 a shared copy
        stream, 1 sequential staging; ``overlap=True`` is shorthand for
        ``streams=3`` and ``overlap=False`` forces sequential staging.
        ``devices`` shards the batch across devices — an int replicates
        ``device`` that many times, or pass a list of uniquely-named
        :class:`~repro.gpusim.device.DeviceSpec`; shards are weighted by
        modeled per-device throughput and each runs on its own host
        worker thread.  Results stay bit-identical to the sequential
        single-device path.  Ignored for non-governed calls
        (``execute=False``, ``max_blocks``, graph capture).

    layout:
        Batch storage-layout selector (docs/LAYOUTS.md).  ``None``
        (default) runs the batch in the layout it arrives in:
        batch-interleaved (SoA, lane index fastest-varying) stacks run
        natively as ``[vec+soa]`` launches with zero-copy staging,
        lane-major stacks keep the classic ``[vec]`` path.
        ``'interleaved'``/``'soa'`` stages a uniform batch into the
        interleaved layout first; ``'lane-major'``/``'aos'`` stages an
        interleaved batch into the classic layout first.  The conversion
        happens exactly once at the batch boundary — before governance,
        chunking and pipelining split the batch — and its round-trip
        traffic is attributed to the first launch's ``soa_bytes``.
        Results always land back in the caller's arrays, bit-identical
        across layouts.

    verify:
        Silent-data-corruption defense (:mod:`repro.core.verify`):
        ``True``, ``'cheap'``, ``'full'`` or a
        :class:`~repro.core.verify.VerifyPolicy`.  The factors of every
        healthy lane are checked by applying the reconstructed ``P L U``
        to a deterministic probe vector and comparing against ``A``
        applied to the same vector (snapshotted before the call);
        failing lanes escalate through recompute → reference path, and
        the call returns ``(pivots, info, report)``.  Requires square
        matrices (``m == n``).  Lanes that pass are bit-identical to an
        unverified call.

    Returns
    -------
    (pivots, info):
        List of per-problem pivot vectors and the info array (plus the
        report when ``resilient=True``).
    """
    opts = ExecOptions.build(
        _METHODS, 14, 15, device=device, stream=stream, method=method,
        execute=execute, max_blocks=max_blocks, vectorize=vectorize,
        resilient=resilient, policy=policy,
        max_resident_bytes=max_resident_bytes, chunk_hint=chunk_hint,
        streams=streams, devices=devices, overlap=overlap, layout=layout,
        verify=verify)
    op = GbtrfOp.from_args(m, n, kl, ku, a_array, pv_array, info, batch,
                           opts, nb=nb, threads=threads)
    return op.result(run(op, opts))


class GbtrfOp(BatchOp):
    """Descriptor of one batched band LU factorization."""

    name = "gbtrf"
    gate = ProbeGate
    stages = ("gbtrf",)
    layout_outputs = (True,)

    def __init__(self, m, n, kl, ku, mats, pivots, info, *, nb=None,
                 threads=None, raw=(None, None)):
        super().__init__(n, kl, ku, mats, pivots, info, raw=raw)
        self.m, self.nb, self.threads = m, nb, threads

    @classmethod
    def from_args(cls, m, n, kl, ku, a_array, pv_array, info, batch, opts,
                  **tuning) -> "GbtrfOp":
        """Validate and normalize the operands once (argument positions of
        the paper's ``dgbtrf_batch``)."""
        if opts.verify is not None:
            check_arg(m == n, 1,
                      f"verify requires square matrices, got m={m}, n={n}")
        if batch is None:
            batch = len(a_array)
        mats = as_matrix_list(a_array, batch, arg_pos=5)
        check_gb_args(m, n, kl, ku, mats, batch=batch)
        pivots = ensure_pivots(pv_array, batch, min(m, n), arg_pos=7,
                               zero=True)
        info = ensure_info(info, batch, arg_pos=8)
        return cls(m, n, kl, ku, mats, pivots, info, raw=(a_array, None),
                   **tuning)

    def _rebuild(self, mats, pivots, rhs, info, tuned=True):
        tuning = dict(nb=self.nb, threads=self.threads) if tuned else {}
        return GbtrfOp(self.m, self.n, self.kl, self.ku, mats, pivots, info,
                       **tuning)

    @property
    def empty(self) -> bool:
        return self.batch == 0 or min(self.m, self.n) == 0

    @property
    def factor_part(self) -> "GbtrfOp":
        return self

    def design(self, device, method: str) -> str:
        if method == "auto":
            return select_gbtrf_method(device, self.m, self.n, self.kl,
                                       self.ku, self.mats[0].dtype.itemsize)
        return method

    def kernels(self, device, method: str) -> list:
        """The design's kernel (none for the fork-join reference design)."""
        m, n, kl, ku = self.m, self.n, self.kl, self.ku
        method = self.design(device, method)
        if method == "fused":
            return [FusedGbtrfKernel(m, n, kl, ku, self.mats, self.pivots,
                                     self.info, threads=self.threads)]
        if method == "window":
            nb_d, th_d = window_params(device, kl, ku)
            return [SlidingWindowGbtrfKernel(
                m, n, kl, ku, self.mats, self.pivots, self.info,
                nb=nb_d if self.nb is None else self.nb,
                threads=th_d if self.threads is None else self.threads)]
        return []

    def reference(self, opts) -> None:
        """The fork-join reference design's per-column launches."""
        check_arg(not opts.vectorize, 17,
                  "method='reference' (fork-join per-column kernels) has "
                  "no batch-interleaved path; use vectorize=None or False")
        gbtrf_reference_batch(self.m, self.n, self.kl, self.ku, self.mats,
                              self.pivots, self.info, opts.device,
                              opts.stream, execute=opts.execute,
                              max_blocks=opts.max_blocks)

    def host(self) -> None:
        """Host reference algorithm (``gbtf2``) on every lane."""
        for j, (a, p) in enumerate(zip(self.mats, self.pivots)):
            _, inf = gbtf2(self.m, self.n, self.kl, self.ku, a, p)
            self.info[j] = inf

    def design_ladder(self, device, method: str):
        """Resilience stages: ``(stage, part, lanes, rungs, fallback)``."""
        rungs = _METHODS[_METHODS.index(self.design(device, method)):]
        yield "gbtrf", self, None, rungs, None

