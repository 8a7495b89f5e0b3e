"""One execution chain for the batched drivers.

Every batched driver (``gbtrf_batch``, ``gbtrs_batch``, ``gbsv_batch`` and
the vbatch drivers' groups) validates its knobs once into an
:class:`ExecOptions`, normalizes its operands once into an operation
descriptor (a :class:`BatchOp` subclass kept in the driver's module), and
runs that descriptor through one ordered list of layers::

    verify -> layout -> govern (sequential or pipelined) -> resilient -> launch

Each layer is one generic function ``layer(op, opts, below)`` in the module
that owns it; ``below(op, opts)`` runs the rest of the chain and returns the
call's :class:`~repro.core.resilience.BatchReport` (``None`` when no layer
produced one).  A layer that does not apply to the call passes straight
through.  No layer calls a public driver again: sub-calls (a verify
recompute, a governed chunk, a resilience rung, a quarantine re-run) are
lane subsets of the same descriptor handed to the layer below.

The descriptor tells the layers everything they need about the operation:
its launch (the kernel dispatch), ``lane_bytes``, ``snapshot``/``restore``
of a lane range, the host fallback, ``probe_stages``, the resilience design
ladder and quarantine test, the verify gate and the return tuple.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..band.layout import ldab_for_factor, normalize_layout
from ..errors import check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.kernel import launch as launch_kernel
from .batch_args import stage_layout
from .memory_plan import _check_caps, _lane_bytes, governed
from .pipeline import _resolve_buffers, _resolve_devices, pipeline_requested
from .resilience import resilient
from .verify import VERIFY_EXEC_MSG, as_verify_policy, verified


@dataclass(frozen=True)
class ExecOptions:
    """The execution knobs of one batched call, validated once.

    ``layout`` is canonical (:func:`~repro.band.layout.normalize_layout`)
    and ``verify`` a :class:`~repro.core.verify.VerifyPolicy` or ``None``.
    """

    device: DeviceSpec = H100_PCIE
    stream: object = None
    method: str = "auto"
    execute: bool = True
    max_blocks: int | None = None
    vectorize: bool | None = None
    resilient: bool = False
    policy: object = None
    max_resident_bytes: int | None = None
    chunk_hint: int | None = None
    streams: int | None = None
    devices: object = None
    overlap: bool | None = None
    layout: str | None = None
    verify: object = None

    @classmethod
    def build(cls, methods, method_pos: int, exec_pos: int, *,
              layout=None, verify=None, **knobs) -> "ExecOptions":
        """Validate every knob before any operand is read.

        ``methods`` is the driver's method vocabulary; ``method_pos`` and
        ``exec_pos`` are the argument positions its errors report for a
        bad ``method`` and for ``resilient``/``verify`` without full
        functional execution.
        """
        opts = cls(layout=normalize_layout(layout),
                   verify=as_verify_policy(verify), **knobs)
        check_arg(opts.method in methods, method_pos,
                  f"method must be one of {methods}, got {opts.method!r}")
        full = opts.execute and opts.max_blocks is None
        if opts.verify is not None:
            check_arg(full, exec_pos, VERIFY_EXEC_MSG)
        if opts.resilient:
            check_arg(full, exec_pos,
                      "resilient=True requires full functional execution "
                      "(execute=True, max_blocks=None)")
        _check_caps(opts.max_resident_bytes, opts.chunk_hint)
        if pipeline_requested(streams=opts.streams, devices=opts.devices,
                              overlap=opts.overlap):
            _resolve_devices(opts.device, opts.devices)
            _resolve_buffers(opts.streams, opts.overlap)
        return opts

    def replace(self, **changes) -> "ExecOptions":
        return dataclasses.replace(self, **changes)


# --- the operation descriptor -----------------------------------------------

class BatchOp:
    """Operands of one batched operation, normalized once.

    Subclasses (one per driver) set ``name``, ``gate``, ``stages`` (the
    stage names a host-fallback report attributes) and ``factors_out``
    (whether the operation writes factors, pivots and ``info``), and
    implement ``empty``, ``design``, ``kernels``, ``reference``, ``host``,
    ``design_ladder`` and ``_rebuild``.  ``rhs`` is ``None`` for an
    operation without right-hand sides.  ``raw`` keeps the batch
    containers the caller passed (a 3-D stack lets the verify snapshot
    slice wholesale); lane subsets drop it.
    """

    name = ""
    #: The verify gate class (:mod:`repro.core.verify`).
    gate = None
    stages: tuple = ()
    factors_out = True
    #: Per layout-staged operand (band matrices, then right-hand sides):
    #: written back after staging.
    layout_outputs: tuple = ()

    def __init__(self, n, kl, ku, mats, pivots, info, rhs=None, nrhs=0,
                 raw=(None, None)):
        self.n, self.kl, self.ku, self.nrhs = n, kl, ku, nrhs
        self.mats, self.pivots, self.rhs, self.info = mats, pivots, rhs, info
        self.raw = raw

    @property
    def batch(self) -> int:
        return len(self.mats)

    @property
    def rows(self) -> int:
        """Factor-layout rows the kernels touch (``2*kl + ku + 1``)."""
        return ldab_for_factor(self.kl, self.ku)

    # -- lane subsets ----------------------------------------------------

    def lanes(self, start: int, stop: int) -> "BatchOp":
        """Contiguous lane range; ``info`` is a view of this op's."""
        return self._rebuild(
            self.mats[start:stop], self.pivots[start:stop],
            None if self.rhs is None else self.rhs[start:stop],
            self.info[start:stop])

    def pick(self, idx, *, tuned: bool = True) -> "BatchOp":
        """Scattered lanes with a fresh zeroed ``info`` (copy it back).

        ``tuned=False`` drops the kernel tuning overrides, as a call with
        default arguments would.
        """
        return self._rebuild(
            [self.mats[k] for k in idx], [self.pivots[k] for k in idx],
            None if self.rhs is None else [self.rhs[k] for k in idx],
            np.zeros(len(idx), dtype=np.int64), tuned=tuned)

    def _rebuild(self, mats, pivots, rhs, info, tuned=True) -> "BatchOp":
        raise NotImplementedError

    # -- layout ----------------------------------------------------------

    def restaged(self, converted) -> "BatchOp":
        """This op over operands staged into another storage layout."""
        rhs = None if self.rhs is None else list(converted[1])
        return self._rebuild(list(converted[0]), self.pivots, rhs, self.info)

    # -- governance ------------------------------------------------------

    @property
    def lane_bytes(self) -> int:
        """Exact per-lane device residency of the actual operands."""
        return _lane_bytes(self.mats[0], self.pivots[0],
                           self.rhs[0] if self.rhs is not None and self.nrhs
                           else None)

    def snapshot(self, start: int, stop: int):
        """Copies of what running lanes ``[start, stop)`` mutates."""
        ks = range(start, stop)
        return ([self.mats[k].copy() for k in ks] if self.factors_out
                else None,
                [self.pivots[k].copy() for k in ks] if self.factors_out
                else None,
                None if self.rhs is None else [self.rhs[k].copy()
                                               for k in ks],
                np.array(self.info[start:stop], copy=True))

    def restore(self, start: int, stop: int, snap) -> None:
        """Rewind lanes ``[start, stop)`` to a :meth:`snapshot`."""
        s_m, s_p, s_r, s_i = snap
        for j, k in enumerate(range(start, stop)):
            if s_m is not None:
                self.mats[k][...] = s_m[j]
                self.pivots[k][...] = s_p[j]
            if s_r is not None:
                self.rhs[k][...] = s_r[j]
        self.info[start:stop] = s_i

    def probe_stages(self, device: DeviceSpec, method: str) -> list:
        """Cost triples of the stage kernels the design would run on
        ``device`` (one representative lane), for throughput weighting.
        Empty for designs without a representative kernel."""
        return [(k.block_cost(), k.threads(), k.smem_bytes())
                for k in self.lanes(0, 1).kernels(device, method)]

    # -- resilience ------------------------------------------------------

    def save(self) -> "BatchOp":
        """Pristine copies of every lane's band matrix and right-hand
        sides (the resilience snapshot), as a descriptor over the copies."""
        return self._rebuild([a.copy() for a in self.mats], self.pivots,
                             None if self.rhs is None
                             else [b.copy() for b in self.rhs], self.info)

    def rewind(self, saved) -> None:
        """Reset what this op writes to the pristine ``saved`` inputs."""
        if self.factors_out:
            for a, s in zip(self.mats, saved.mats):
                a[...] = s
            for p in self.pivots:
                p[...] = 0
            self.info[...] = 0
        if self.rhs is not None:
            for b, s in zip(self.rhs, saved.rhs):
                b[...] = s

    def health(self) -> tuple[list, list]:
        """Quarantine test: ``(singular, corrupted)`` lanes.

        Singular lanes report ``info > 0``; corrupted ones carry non-finite
        values in their factor-relevant band rows or right-hand sides.
        """
        singular = [k for k in range(self.batch) if self.info[k] > 0]
        corrupted = [k for k in range(self.batch)
                     if self.info[k] <= 0 and (
                         self.lane_nonfinite(k)
                         or (self.rhs is not None
                             and not bool(np.all(np.isfinite(self.rhs[k])))))]
        return singular, corrupted

    def lane_nonfinite(self, k: int) -> bool:
        """Non-finite anywhere in lane ``k``'s factor-relevant rows (rows
        past ``2*kl + ku + 1`` are caller padding no kernel touches)."""
        return not bool(np.all(np.isfinite(self.mats[k][:self.rows])))

    def verify_gate(self, vp):
        """The verify gate, snapshotting the pristine operands now
        (``None`` when there is nothing to verify)."""
        if self.empty or (self.rhs is not None and self.nrhs == 0):
            return None
        return self.gate(self, vp)

    def result(self, report):
        """The driver's return tuple: ``(pivots, info)``, plus the report
        when the call asked for one."""
        if report is None:
            return self.pivots, self.info
        return self.pivots, self.info, report

    # -- launch ----------------------------------------------------------

    def launch(self, opts: ExecOptions) -> None:
        """Bottom of the chain: dispatch the design's kernels (a reference
        design runs its own per-column launches)."""
        if self.empty:
            return
        if self.design(opts.device, opts.method) == "reference":
            self.reference(opts)
        else:
            self._launch_all(self.kernels(opts.device, opts.method), opts)

    def _launch_all(self, kernels, opts: ExecOptions) -> None:
        for kernel in kernels:
            launch_kernel(opts.device, kernel, stream=opts.stream,
                          execute=opts.execute, max_blocks=opts.max_blocks,
                          vectorize=opts.vectorize)


# --- the chain --------------------------------------------------------------

def _layout(op: BatchOp, opts: ExecOptions, below):
    """Layout layer: stage the operands once, before governance splits
    the batch."""
    if opts.layout is None:
        return below(op, opts)
    return stage_layout(
        opts.layout,
        (op.mats,) if op.rhs is None else (op.mats, op.rhs), batch=op.batch,
        outputs=op.layout_outputs,
        run=lambda *ops: below(op.restaged(ops), opts))


#: The layers, outermost first.  A list (not a tuple) so tracing tools that
#: rebind module-level containers reach every layer.
LAYERS = [verified, _layout, governed, resilient]


def run(op: BatchOp, opts: ExecOptions, depth: int = 0):
    """Run ``op`` through the layers from ``depth`` down to its launch.

    Returns the call's report (``None`` when neither ``resilient`` nor
    ``verify`` asked for one).
    """
    if depth == len(LAYERS):
        return op.launch(opts)
    return LAYERS[depth](op, opts,
                         lambda o, p: run(o, p, depth + 1))
