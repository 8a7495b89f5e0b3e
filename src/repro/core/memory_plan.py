"""Device-memory governance: admission control and OOM-safe chunking.

The paper runs batches that fit comfortably in HBM; a production library
cannot assume that.  This module makes every batched driver OOM-safe:

* :func:`plan_batch` estimates the resident device footprint of a call
  from its actual operands, compares it against the device
  :class:`~repro.gpusim.memory.MemoryPool` budget (optionally tightened by
  ``max_resident_bytes``), and decides how many lanes fit at once;
* the governance layer (:func:`governed`, one step of the execution chain
  every batched driver runs through) leases each chunk's footprint
  from the pool, stream it upload -> solve -> download, and release the
  lease so the next chunk reuses the same residency — an oversized batch
  completes bit-identically to an unchunked run because every lane's
  result is independent of sub-batch composition (the same contract the
  resilient quarantine path relies on);
* a mid-run :class:`~repro.errors.DeviceMemoryError` — injected by the
  fault harness or raised by a genuinely exhausted pool — walks a
  degradation ladder under ``resilient=True``: halve the chunk size with
  the policy's capped backoff, degrade to per-lane execution
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
from ..gpusim.faults import active_injector
from ..gpusim.memory import memory_pool
from ..gpusim.transfer import stage_chunk
from .pipeline import (
    _lane_window,
    _oom_event,
    execute_pipelined,
    pipeline_requested,
)
from .resilience import (
    HOST_FALLBACK,
    BatchReport,
    ResiliencePolicy,
    merge_reports,
)

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


# --- chunked execution -----------------------------------------------------

def _execute_governed(op: str, batch: int, plan: MemoryPlan,
                      device: DeviceSpec, stream, resilient: bool,
                      policy: ResiliencePolicy | None, run_chunk,
                      run_host):
    """Run the batch in leased chunks with the OOM degradation ladder.

    ``run_chunk(start, stop)`` executes lanes ``[start, stop)`` through
    the layers below governance and returns the chunk's
    :class:`BatchReport` when resilient, else None.  ``run_host(start,
    stop)`` finishes lanes on the host net.  Returns ``(parts, chunks,
    oom, events, backoff)``.
    """
    pool = memory_pool(device)
    injector = active_injector(device)
    policy = policy or ResiliencePolicy()
    parts, chunks, events = [], [], []
    oom = 0
    backoff_total = 0.0
    chunk = plan.chunk
    if plan.chunked or not plan.admitted:
        events.append({"action": "split", "chunk": int(chunk),
                       "footprint": int(plan.footprint),
                       "budget": int(plan.budget)})
    start = 0
    attempt = 0
    while start < batch:
        stop = min(start + chunk, batch)
        nbytes = (stop - start) * plan.lane_bytes
        try:
            # The lease honours the planned budget, not just the pool: a
            # caller-imposed max_resident_bytes below one lane must reach
            # the ladder's host rung, not silently run on the device.
            if nbytes > plan.budget:
                raise DeviceMemoryError(nbytes, pool.in_use, plan.budget,
                                        device=device.name)
            pool.alloc(nbytes, label=f"{op}-chunk")
        except DeviceMemoryError as exc:
            if not resilient:
                raise
            oom += 1
            if chunk > 1:
                attempt += 1
                delay = policy.backoff(attempt)
                backoff_total += delay
                new_chunk = max(1, chunk // 2)
                events.append(_oom_event(
                    "halve", exc, {"from": int(chunk), "to": int(new_chunk)}))
                chunk = new_chunk
                continue
            # Final rung: even one lane cannot be leased — finish every
            # remaining lane on the host reference algorithm.
            events.append(_oom_event(
                "host", exc, {"start": int(start), "stop": int(batch)}))
            rep = run_host(start, batch)
            if rep is not None:
                parts.append((list(range(start, batch)), rep))
            break
        staged = (stop - start) < batch
        try:
            if staged:
                stage_chunk(device, nbytes, direction="h2d", stream=stream)
            with _lane_window(injector, start):
                rep = run_chunk(start, stop)
            if staged:
                stage_chunk(device, nbytes, direction="d2h", stream=stream)
        finally:
            pool.free(nbytes)
        if rep is not None:
            parts.append((list(range(start, stop)), rep))
        chunks.append(stop - start)
        start = stop
    return parts, tuple(chunks), oom, events, backoff_total


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
    runs it in chunks — sequentially, or through the pipelined executor
    when ``streams``/``devices``/``overlap`` ask for it — each chunk
    handed to ``below`` as a lane subset of ``op``.  Passes straight
    through when governance does not apply (:func:`governance_active`).
    Returns the merged report when resilient, else ``None``.
    """
    if not governance_active(execute=opts.execute,
                             max_blocks=opts.max_blocks, stream=opts.stream):
        return below(op, opts)
    if op.empty:
        return (BatchReport(op.name, op.batch, method_requested=opts.method,
                            info=op.info) if opts.resilient else None)

    def run_chunk(start, stop, device=opts.device, stream=opts.stream):
        return below(op.lanes(start, stop),
                     opts.replace(device=device, stream=stream))

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
        # ``snapshot``/``restore`` let the pipelined executor recover chunks
        # orphaned by a device outage or watchdog hang, and hedge
        # stragglers.
        parts, chunks, oom, events, backoff, plan, presult = \
            execute_pipelined(
                op.name, op.batch, op.lane_bytes, device=opts.device,
                stream=opts.stream, streams=opts.streams,
                devices=opts.devices, overlap=opts.overlap,
                resilient=opts.resilient, policy=opts.policy,
                run_chunk=run_chunk, run_host=run_host,
                max_resident_bytes=opts.max_resident_bytes,
                chunk_hint=opts.chunk_hint,
                probe_stages=lambda dev: op.probe_stages(dev, opts.method),
                snapshot=op.snapshot, restore=op.restore)
    else:
        plan = plan_batch(op.batch, op.lane_bytes, device=opts.device,
                          max_resident_bytes=opts.max_resident_bytes,
                          chunk_hint=opts.chunk_hint)
        _admit_or_raise(plan, opts.resilient, opts.device)
        parts, chunks, oom, events, backoff = _execute_governed(
            op.name, op.batch, plan, opts.device, opts.stream,
            opts.resilient, opts.policy, run_chunk, run_host)
        presult = None
    if not opts.resilient:
        return None
    report = (merge_reports(op.name, op.batch, parts) if parts
              else BatchReport(op.name, op.batch))
    report.method_requested = opts.method
    report.info = op.info
    report.footprint_bytes = plan.footprint
    report.budget_bytes = plan.budget
    report.chunks = tuple(chunks)
    report.oom_failures += oom
    report.chunk_events.extend(events)
    report.backoff_total += backoff
    if presult is not None:
        report.devices = presult.devices
        report.makespan = presult.makespan
        report.device_events.extend(dict(e) for e in presult.device_events)
        report.failovers += presult.failovers
        report.hedges += presult.hedges
    return report
