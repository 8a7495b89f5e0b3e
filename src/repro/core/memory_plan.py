"""Device-memory governance: admission control and OOM-safe chunking.

The paper runs batches that fit comfortably in HBM; a production library
cannot assume that.  This module makes every batched driver OOM-safe:

* :func:`plan_batch` estimates the resident device footprint of a call
  from its actual operands, compares it against the device
  :class:`~repro.gpusim.memory.MemoryPool` budget (optionally tightened by
  ``max_resident_bytes``), and decides how many lanes fit at once;
* the governance layer (:func:`governed`, one step of the execution chain
  every batched driver runs through) plans and admits the call, then
  hands it to the one chunk executor in :mod:`repro.core.pipeline`: a
  sequential call runs as a single shard (one buffer, the caller's device
  and stream), a ``streams``/``devices``/``overlap`` call through the
  pipelined executor.  Each chunk's footprint is leased from the pool,
  streamed upload -> solve -> download and released, so the next chunk
  reuses the same residency — an oversized batch completes
  bit-identically to an unchunked run because every lane's result is
  independent of sub-batch composition (the same contract the resilient
  quarantine path relies on);
* a mid-run :class:`~repro.errors.DeviceMemoryError` — injected by the
  fault harness or raised by a genuinely exhausted pool — walks the
  executor's degradation ladder under ``resilient=True``: halve the chunk
  size with the policy's capped backoff, degrade to per-lane execution
  (``chunk=1``), and finally finish the remaining lanes on the host
  reference algorithm.  Every decision lands in
  :attr:`~repro.core.resilience.BatchReport.chunk_events`.

Governance applies only to outermost functional calls: timing-only
(``execute=False``), sampled (``max_blocks``), and graph-capturing calls
are exempt.  A chunk is handed to the layers below governance, so it is
never re-chunked.

Fault-injection semantics: allocation faults strike at chunk boundaries
(the lease points), and the executor opens a
:meth:`~repro.gpusim.faults.FaultInjector.lane_window` per chunk so a
corruption plan targeting global lane *k* hits the same lane no matter
how the batch is chunked — the determinism the fault-plan tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..band.layout import ldab_for_factor
from ..errors import DeviceMemoryError, check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.memory import memory_pool
from .pipeline import _run_shard, execute_pipelined, pipeline_requested
from .resilience import HOST_FALLBACK, BatchReport, merge_reports

__all__ = [
    "MemoryPlan",
    "estimate_footprint",
    "estimate_vbatch_footprint",
    "plan_batch",
    "governance_active",
    "governed",
]

#: Bytes of one device pointer (pointer-array entries for each operand).
POINTER_BYTES = 8
#: Bytes of one ``info`` entry resident on the device.
INFO_BYTES = 8

def governance_active(*, execute: bool = True, max_blocks=None,
                      stream=None) -> bool:
    """Should a driver call take the governed path?

    False for timing-only or sampled calls, and while a stream is
    capturing a graph (replay must not re-plan).
    """
    if not execute or max_blocks is not None:
        return False
    if stream is not None and getattr(stream, "_capturing", False):
        return False
    return True


# --- footprint estimation --------------------------------------------------

def estimate_footprint(op: str, *, batch: int, n: int, kl: int, ku: int,
                       m: int | None = None, nrhs: int = 0,
                       itemsize: int = 8) -> int:
    """Estimated resident device footprint of one batched call, bytes.

    Counts, per lane: the band matrix in factor layout (``ldab = 2*kl +
    ku + 1`` rows), the pivot vector, the ``info`` entry, the right-hand
    sides (``gbtrs``/``gbsv``), and one device pointer per operand array.
    This is the shape-based mirror of what the governed drivers charge
    from the actual operands.
    """
    check_arg(op in ("gbtrf", "gbtrs", "gbsv"), 1,
              f"op must be one of ('gbtrf', 'gbtrs', 'gbsv'), got {op!r}")
    m = n if m is None else m
    lane = ldab_for_factor(kl, ku) * n * itemsize
    lane += min(m, n) * 8 + INFO_BYTES      # pivots + info
    pointers = 2 * POINTER_BYTES            # matrix + pivot arrays
    if op in ("gbtrs", "gbsv"):
        lane += n * nrhs * itemsize
        pointers += POINTER_BYTES
    return batch * (lane + pointers)


def estimate_vbatch_footprint(op: str, ns, kls, kus, *, ms=None,
                              nrhss=None, itemsize: int = 8) -> int:
    """Footprint of a variable-size batch: the sum over its lanes."""
    total = 0
    for k, n in enumerate(ns):
        total += estimate_footprint(
            op, batch=1, n=int(n), kl=int(kls[k]), ku=int(kus[k]),
            m=None if ms is None else int(ms[k]),
            nrhs=0 if nrhss is None else int(nrhss[k]),
            itemsize=itemsize)
    return total


def _lane_bytes(mat, piv=None, rhs=None) -> int:
    """Exact per-lane residency from the call's actual operands."""
    total = int(np.asarray(mat).nbytes) + INFO_BYTES + POINTER_BYTES
    if piv is not None:
        total += int(np.asarray(piv).nbytes) + POINTER_BYTES
    if rhs is not None:
        total += int(np.asarray(rhs).nbytes) + POINTER_BYTES
    return total


def _check_caps(max_resident_bytes, chunk_hint) -> None:
    check_arg(max_resident_bytes is None or max_resident_bytes > 0, 3,
              f"max_resident_bytes must be positive, "
              f"got {max_resident_bytes}")
    check_arg(chunk_hint is None or chunk_hint > 0, 4,
              f"chunk_hint must be positive, got {chunk_hint}")


# --- the plan --------------------------------------------------------------

@dataclass(frozen=True)
class MemoryPlan:
    """Admission decision for one batched call.

    ``chunk`` is the largest lane count whose footprint fits the budget
    (at least 1 — a single unfit lane is caught by admission control, not
    by the planner), further capped by ``chunk_hint``.
    """

    batch: int
    lane_bytes: int
    footprint: int
    budget: int
    chunk: int
    admitted: bool

    @property
    def num_chunks(self) -> int:
        """Chunks needed at the planned size (ceiling division)."""
        if self.batch == 0:
            return 0
        return -(-self.batch // self.chunk)

    @property
    def chunked(self) -> bool:
        """True when the batch will run as more than one chunk."""
        return self.batch > 0 and self.chunk < self.batch


def plan_batch(batch: int, lane_bytes: int, *,
               device: DeviceSpec = H100_PCIE,
               max_resident_bytes: int | None = None,
               chunk_hint: int | None = None,
               buffers: int = 1) -> MemoryPlan:
    """Plan the chunking of ``batch`` lanes of ``lane_bytes`` each.

    The budget is the device pool's remaining capacity, tightened by
    ``max_resident_bytes`` when given.  ``chunk_hint`` can only shrink
    the chunk (it forces chunked execution even when everything fits —
    useful for staging pipelines and for the bit-identity tests); it
    never admits more than the budget allows.  ``buffers`` is the number
    of chunk leases the executor keeps live simultaneously (double/triple
    buffering in the pipelined executor): the chunk is sized against
    ``budget // buffers`` so the whole in-flight set respects admission
    control, while ``admitted`` still compares the full footprint against
    the full budget.
    """
    _check_caps(max_resident_bytes, chunk_hint)
    check_arg(buffers >= 1, 5, f"buffers must be >= 1, got {buffers}")
    budget = memory_pool(device).available
    if max_resident_bytes is not None:
        budget = min(budget, int(max_resident_bytes))
    footprint = batch * lane_bytes
    fit = ((budget // int(buffers)) // lane_bytes if lane_bytes > 0
           else batch)
    chunk = min(batch, max(1, fit)) if batch else 0
    if chunk_hint is not None and batch:
        chunk = max(1, min(chunk, int(chunk_hint)))
    return MemoryPlan(batch=batch, lane_bytes=lane_bytes,
                      footprint=footprint, budget=budget, chunk=chunk,
                      admitted=footprint <= budget)


def _admit_or_raise(plan: MemoryPlan, resilient: bool,
                    device: DeviceSpec) -> None:
    """Admission control for the plain (non-resilient) path.

    Without a recovery ladder there is nothing to degrade to: a call
    whose single lane exceeds the budget fails structurally *before* any
    work touches the operands.
    """
    if not resilient and plan.lane_bytes > plan.budget:
        raise DeviceMemoryError(plan.lane_bytes,
                                memory_pool(device).in_use, plan.budget,
                                device=device.name)


# --- the governance layer --------------------------------------------------

def governed(op, opts, below):
    """Governance layer of the execution chain (:mod:`repro.core.chain`).

    Plans the call's footprint against the device pool, then leases and
    runs it in chunks through :func:`~repro.core.pipeline._run_shard` —
    as one shard on the caller's device and stream, or through the
    pipelined executor when ``streams``/``devices``/``overlap`` ask for
    it — each chunk handed to ``below`` as a lane subset of ``op``
    (carrying its slice of the call's pristine copy, if any).
    Passes straight through when governance does not apply
    (:func:`governance_active`).
    Returns the merged report when resilient, else ``None``.
    """
    if not governance_active(execute=opts.execute,
                             max_blocks=opts.max_blocks, stream=opts.stream):
        return below(op, opts)
    if op.empty:
        return (BatchReport(op.name, op.batch, method_requested=opts.method,
                            info=op.info) if opts.resilient else None)

    def run_chunk(sub, device, stream):
        return below(sub, opts.replace(device=device, stream=stream))

    def run_host(start, stop):
        sub = op.lanes(start, stop)
        sub.host()
        if not opts.resilient:
            return None
        sub_info = np.array(sub.info, dtype=np.int64)
        rep = BatchReport(op.name, stop - start,
                          method_requested=opts.method,
                          methods=dict.fromkeys(op.stages, HOST_FALLBACK),
                          info=sub_info)
        rep.fallbacks.append((op.name, "chunked", HOST_FALLBACK))
        bad = tuple(int(j) for j in np.flatnonzero(sub_info > 0))
        rep.quarantined = rep.singular = bad
        return rep

    if pipeline_requested(streams=opts.streams, devices=opts.devices,
                          overlap=opts.overlap):
        out = execute_pipelined(op, opts, run_chunk, run_host)
    else:
        # One shard: one buffer on the caller's device and stream.
        plan = plan_batch(op.batch, op.lane_bytes, device=opts.device,
                          max_resident_bytes=opts.max_resident_bytes,
                          chunk_hint=opts.chunk_hint)
        _admit_or_raise(plan, opts.resilient, opts.device)
        out = _run_shard(op, opts, opts.device, [(0, op.batch)], plan, 1,
                         (opts.stream,) * 3, run_chunk, run_host)
    if not opts.resilient:
        return None
    report = (merge_reports(op.name, op.batch, out.parts) if out.parts
              else BatchReport(op.name, op.batch))
    report.method_requested = opts.method
    report.info = op.info
    report.footprint_bytes = out.plan.footprint
    report.budget_bytes = out.plan.budget
    report.chunks = tuple(out.chunks)
    report.oom_failures += out.oom
    report.chunk_events.extend(out.events)
    report.backoff_total += out.backoff
    presult = out.result
    if presult is not None:
        report.devices = presult.devices
        report.makespan = presult.makespan
        report.device_events.extend(dict(e) for e in presult.device_events)
        report.failovers += presult.failovers
        report.hedges += presult.hedges
    return report
