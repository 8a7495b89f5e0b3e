"""The chunk executor: one shard loop for sequential and pipelined runs.

The paper's batched API takes a stream argument precisely so host staging
and device compute can overlap (paper Section 4).  Every governed call
(:func:`repro.core.memory_plan.governed`) runs its chunks through one
loop, :func:`_run_shard` — lease, upload, solve, download, release — and
one chunk dispatch.  A sequential call is a single shard: one buffer, one
device, the caller's stream as all three of its streams.  The pipelined
executor (:func:`execute_pipelined`, asked for by ``streams``/``devices``/
``overlap``) drives the *same* loop through a double-buffered pipeline:

* each device shard runs up to three streams — an **h2d copy stream**, a
  **compute stream** and a **d2h copy stream** — with cross-stream events
  (:meth:`repro.gpusim.stream.Stream.wait_event`) ordering chunk *i*'s
  compute after its upload and its download after its compute.  Because
  the streams carry absolute timelines, chunk *i+1*'s upload overlaps
  chunk *i*'s compute and chunk *i−1*'s download in the modeled makespan
  (the per-stream tail maximum), exactly like a real double-buffered
  ``cudaMemcpyAsync`` pipeline;
* up to ``streams`` chunk leases stay live simultaneously (double/triple
  buffering), every one charged to the device
  :class:`~repro.gpusim.memory.MemoryPool` under a per-shard label, and
  the chunk size is planned against ``budget // buffers`` so admission
  control still holds with multiple buffers resident;
* the batch is sharded across devices with
  :func:`~repro.gpusim.multidevice.split_batch`, weighted by modeled
  per-device throughput (:func:`~repro.gpusim.multidevice.throughput_weights`
  fed from the kernels' own cost declarations and per-device tuning
  tables), and each shard runs on its own host worker thread — NumPy
  releases the GIL for the heavy vectorized operations, so multi-device
  runs see real wall-clock parallelism, not just a better model;
* ``resilient=True`` keeps its full contract: the OOM ladder (drain the
  pipeline's live buffers, halve the chunk, finish on the host net) runs
  per shard, fault-plan lane windows stay keyed to *global* lane indices,
  and the per-chunk :class:`~repro.core.resilience.BatchReport` parts are
  merged into one global report regardless of stream or device count;
* with more than one device, ``resilient=True`` additionally arms the
  **device fault domain**: execution becomes a sequence of dispatch
  *rounds* governed by a per-device circuit breaker
  (:class:`~repro.gpusim.multidevice.CircuitBreaker`).  A chunk that dies
  with :class:`~repro.errors.DeviceLostError` (whole-device outage) or
  :class:`~repro.errors.KernelHangError` (stream watchdog) is rewound
  from the call's pristine copy and **re-sharded** onto the surviving
  devices in the next round; tripped devices re-enter through single-lane
  probe launches (closed → open → half-open → recovered/dead), straggler
  chunks can be **hedged** onto the fastest other healthy device
  (first-finisher wins, the loser's traffic is attributed), and every
  decision lands in ``BatchReport.device_events``.

Per-lane results are independent of sub-batch composition (the contract
the vectorized and chunked paths already pin), so the pipelined path is
bit-identical to the sequential chunked path — and to an unchunked run —
on every execution route, *including* runs recovered from mid-flight
device loss: a rewound re-dispatch replays the exact same lanes through
the exact same kernels.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

from ..errors import (
    DeviceError,
    DeviceLostError,
    DeviceMemoryError,
    KernelHangError,
    check_arg,
)
from ..gpusim.device import DeviceSpec
from ..gpusim.faults import active_injector
from ..gpusim.memory import memory_pool
from ..gpusim.multidevice import (
    CircuitBreaker,
    DevicePartition,
    replicate_device,
    split_batch,
    throughput_weights,
)
from ..gpusim.stream import Stream
from ..gpusim.transfer import TransferRecord, stage_chunk
from .batch_args import stack_lanes
from .resilience import ResiliencePolicy, escalate_device_faults

__all__ = ["PipelineResult", "pipeline_requested", "execute_pipelined",
           "last_pipeline_result"]


def pipeline_requested(*, streams=None, devices=None,
                       overlap=None) -> bool:
    """Do these knob values ask for the pipelined executor?

    ``streams=1`` alone (and ``overlap=False`` alone) keep the sequential
    chunked path; any multi-stream, multi-device or explicit-overlap
    request routes through the pipeline.
    """
    return (devices is not None or bool(overlap)
            or (streams is not None and int(streams) > 1))


@dataclass(frozen=True)
class ShardResult:
    """One device shard's slice of a pipelined run.

    ``partition`` spans the shard's lane hull; failover rounds may leave
    holes inside it (lanes another device completed earlier).  ``role``
    is ``"full"`` for a throughput-weighted share, ``"probe"`` for a
    circuit-breaker probe launch, and ``"hedge"`` for a straggler's
    duplicate dispatch.
    """

    partition: DevicePartition
    streams: tuple          # (h2d, compute, d2h) — may alias each other
    h2d_bytes: int
    d2h_bytes: int
    role: str = "full"

    @property
    def makespan(self) -> float:
        """Absolute tail of the shard's slowest stream."""
        return max(s.elapsed for s in set(self.streams))

    @property
    def busy_time(self) -> float:
        """Engine-seconds the shard's streams actually executed."""
        return sum(s.busy_time for s in set(self.streams))


@dataclass(frozen=True)
class PipelineResult:
    """Timing/traffic account of one pipelined batched call."""

    op: str
    batch: int
    #: Device names, in shard order.
    devices: tuple
    #: Streams per shard (1 = no overlap, 2 = shared copy stream,
    #: 3 = separate h2d and d2h streams).
    streams: int
    overlap: bool
    shards: tuple
    #: Dispatch rounds the batch took (1 = no failover re-sharding).
    rounds: int = 1
    #: Modeled wall time of each round; rounds are sequential (a
    #: re-shard decision needs the failed round's outcome), so the total
    #: makespan is their sum.  Hedge savings are already subtracted.
    round_makespans: tuple = ()
    #: Failure-domain decisions, in order: circuit-breaker transitions,
    #: chunk failovers, hedges (JSON-safe dicts).
    device_events: tuple = ()
    #: Chunks re-dispatched onto surviving devices.
    failovers: int = 0
    #: Straggler chunks hedged onto a second device.
    hedges: int = 0

    @property
    def makespan(self) -> float:
        """Modeled wall time.

        Within a round, shards run concurrently and the slowest wins;
        failover rounds run sequentially, so the total is the sum of the
        per-round maxima.
        """
        if self.round_makespans:
            return sum(self.round_makespans)
        return max((s.makespan for s in self.shards), default=0.0)

    @property
    def device_busy_time(self) -> float:
        """Aggregate engine-seconds across every shard's streams."""
        return sum(s.busy_time for s in self.shards)

    @property
    def h2d_bytes(self) -> int:
        return sum(s.h2d_bytes for s in self.shards)

    @property
    def d2h_bytes(self) -> int:
        return sum(s.d2h_bytes for s in self.shards)

    def to_dict(self) -> dict:
        """JSON-safe summary (for structured logging / benchmarks)."""
        return {
            "op": self.op,
            "batch": int(self.batch),
            "devices": [str(d) for d in self.devices],
            "streams": int(self.streams),
            "overlap": bool(self.overlap),
            "makespan": float(self.makespan),
            "device_busy_time": float(self.device_busy_time),
            "h2d_bytes": int(self.h2d_bytes),
            "d2h_bytes": int(self.d2h_bytes),
            "rounds": int(self.rounds),
            "round_makespans": [float(m) for m in self.round_makespans],
            "device_events": [dict(e) for e in self.device_events],
            "failovers": int(self.failovers),
            "hedges": int(self.hedges),
            "partitions": [
                {"device": s.partition.device.name,
                 "start": int(s.partition.start),
                 "stop": int(s.partition.stop),
                 "role": s.role,
                 "makespan": float(s.makespan)}
                for s in self.shards
            ],
        }


_LAST: PipelineResult | None = None
_LAST_LOCK = threading.Lock()


def last_pipeline_result() -> PipelineResult | None:
    """The :class:`PipelineResult` of the most recent pipelined call."""
    return _LAST


def _oom_event(action: str, exc, fields: dict, device: str) -> dict:
    """One OOM-ladder decision for ``BatchReport.chunk_events``."""
    return {"action": action, **fields, "requested": int(exc.requested),
            "budget": int(exc.capacity), "injected": bool(exc.injected),
            "device": device}


def _resolve_devices(device: DeviceSpec, devices) -> list[DeviceSpec]:
    """Normalize the ``devices=`` knob to a list of uniquely-named specs."""
    if devices is None:
        return [device]
    if isinstance(devices, int):
        check_arg(devices >= 1, 0,
                  f"devices must be >= 1, got {devices}")
        if devices == 1:
            return [device]
        return replicate_device(device, devices)
    devs = list(devices)
    check_arg(len(devs) >= 1, 0, "devices must not be empty")
    names = [d.name for d in devs]
    check_arg(len(set(names)) == len(names), 0,
              f"device names must be unique (pools and fault injectors "
              f"key on them), got {names}")
    return devs


def _resolve_buffers(streams, overlap) -> int:
    """Streams (= live chunk buffers) per shard from the knob pair.

    ``overlap=False`` forces sequential staging inside each shard;
    ``overlap=True`` (or any pipelining request with ``streams`` unset)
    defaults to the full h2d/compute/d2h triple.  More than three streams
    buys nothing in this model (there are only three engines to keep
    busy), so the count is capped there.
    """
    if overlap is False:
        return 1
    if streams is None:
        return 3
    check_arg(int(streams) >= 1, 0,
              f"streams must be >= 1, got {streams}")
    return min(int(streams), 3)


def _shard_streams(device: DeviceSpec, nbuf: int,
                   watchdog: float | None = None) -> tuple:
    """(h2d, compute, d2h) streams for one shard; aliased when shared.

    The watchdog deadline arms the *compute* stream only — staging copies
    cannot hang in this model, and a shared copy/compute stream (1 or 2
    buffers) inherits the deadline because it *is* the compute stream.
    """
    cmp_s = Stream(device, name=f"pipe-compute@{device.name}",
                   watchdog=watchdog)
    if nbuf >= 3:
        return (Stream(device, name=f"pipe-h2d@{device.name}"), cmp_s,
                Stream(device, name=f"pipe-d2h@{device.name}"))
    if nbuf == 2:
        copy = Stream(device, name=f"pipe-copy@{device.name}")
        return (copy, cmp_s, copy)
    return (cmp_s, cmp_s, cmp_s)


def _take_lanes(ranges: list, count: int) -> list:
    """Pop ``count`` lanes off the front of a range worklist (mutates)."""
    taken = []
    while count > 0 and ranges:
        start, stop = ranges[0]
        n = min(count, stop - start)
        taken.append((start, start + n))
        if start + n == stop:
            ranges.pop(0)
        else:
            ranges[0] = (start + n, stop)
        count -= n
    return taken


class _ShardOutcome:
    """Everything one shard worker (or, merged, one call) produced — or
    left behind."""

    __slots__ = ("parts", "chunks", "oom", "events", "backoff", "shard",
                 "spans", "orphans", "kept", "failure", "plan", "result")

    def __init__(self):
        self.parts = []      # (lane_list, BatchReport) pairs
        self.chunks = []     # completed chunk sizes
        self.oom = 0
        self.events = []     # OOM-ladder events
        self.backoff = 0.0
        self.shard = None    # ShardResult
        self.spans = []      # per-chunk dispatch spans (hedging input)
        self.orphans = []    # lane ranges never started (device died)
        self.kept = {}       # global lane -> its copy from a failed chunk
        self.failure = None  # {"kind", "device", "start", "stop", ...}
        self.plan = None     # MemoryPlan the chunks were sized by
        self.result = None   # PipelineResult (pipelined runs only)

    def absorb(self, other: "_ShardOutcome") -> None:
        """Fold in a shard's parts, chunks and OOM-ladder account."""
        self.parts.extend(other.parts)
        self.chunks.extend(other.chunks)
        self.oom += other.oom
        self.events.extend(other.events)
        self.backoff += other.backoff


def _follow(stream, other) -> None:
    """Order ``stream``'s next record after ``other``'s tail (a no-op on
    a single stream, or with no stream at all)."""
    if stream is not other:
        stream.wait_event(other.record_event())


class _Dispatch:
    """Chunk dispatch on one device's ``(h2d, compute, d2h)`` streams,
    counting staged bytes as they move (a chunk may die mid-way)."""

    def __init__(self, dev: DeviceSpec, streams: tuple, guard=nullcontext):
        self.dev, self.streams, self.guard = dev, streams, guard
        self.injector = active_injector(dev)
        self.h2d_bytes = self.d2h_bytes = 0

    def run(self, run_chunk, sub, start: int, nbytes: int, staged: bool):
        """Stage, run chunk ``sub`` inside the fault injector's lane window
        at its global ``start``, unstage; returns the report."""
        s_h2d, s_cmp, s_d2h = self.streams
        if staged:
            stage_chunk(self.dev, nbytes, direction="h2d", stream=s_h2d)
            self.h2d_bytes += nbytes
            _follow(s_cmp, s_h2d)
        window = (nullcontext() if self.injector is None
                  else self.injector.lane_window(start))
        with self.guard(), window:
            rep = run_chunk(sub, self.dev, s_cmp)
        if staged:
            _follow(s_d2h, s_cmp)
            stage_chunk(self.dev, nbytes, direction="d2h", stream=s_d2h)
            self.d2h_bytes += nbytes
        return rep

    def shard(self, start: int, stop: int, role: str) -> ShardResult:
        """The streams and traffic so far, as a :class:`ShardResult`."""
        return ShardResult(partition=DevicePartition(self.dev, start, stop),
                           streams=self.streams, h2d_bytes=self.h2d_bytes,
                           d2h_bytes=self.d2h_bytes, role=role)


def _lane_copies(sub, start: int) -> dict:
    """Chunk ``sub``'s copy, split by global lane (``sub`` starts at
    ``start``)."""
    return {start + i: sub.pristine._make(
        None if f is None else f[i] for f in sub.pristine)
        for i in range(sub.batch)}


def _inherit_copies(op, sub, start: int, kept: dict) -> None:
    """Hand chunk ``sub`` the copies ``kept`` holds for its lanes (an
    orphaned chunk's, sliced per lane); capture only the lanes without
    one.

    Copies stay per chunk, not one per call, to keep host memory at the
    chunks in flight: a whole-batch copy on a failover call without
    ``verify`` (batch 512, n=128, kl=ku=4, two devices, ``chunk_hint=16``)
    raised the traced peak from 1.8 MB to 7.9 MB, a second copy of the
    7 MB of operands.
    """
    lanes = range(start, start + sub.batch)
    if sub.pristine is not None or kept.keys().isdisjoint(lanes):
        return
    copies = []
    for k in lanes:
        copy = kept.get(k)
        if copy is None:
            part = op.lanes(k, k + 1)
            part.capture()
            (copy,) = _lane_copies(part, k).values()
        copies.append(copy)
    sub.pristine = copies[0]._make(
        None if col[0] is None else list(col) for col in zip(*copies))


def _run_shard(op, opts, dev, ranges, plan, nbuf, streams, run_chunk,
               run_host, *, failover=False, hedging=False, role="full",
               kept=None):
    """Run the lane ranges of descriptor ``op`` on ``dev`` in leased chunks.

    The one chunk loop of every governed call.  A sequential call is one
    shard over ``[(0, batch)]`` with one buffer and the caller's stream
    as all three ``streams`` (which may be ``None``); the pipelined
    executor runs one shard per device with fresh ``(h2d, compute, d2h)``
    streams and up to ``nbuf`` chunk leases live at once.
    ``run_chunk(sub, device, stream)`` runs a chunk (a lane subset of
    ``op``) through the layers below; ``run_host(start, stop)`` finishes
    lanes on
    the host net.  Lane indices are global throughout, so results and
    fault placement cannot depend on the sharding.

    Under ``opts.resilient`` an allocation failure walks the OOM ladder:
    first *drain* the pipeline (free the completed chunks' live buffers)
    and retry, because under double buffering the squeeze may come from
    our own in-flight leases rather than a genuinely too-large chunk; then
    halve the chunk with the policy's capped backoff; finally finish every
    remaining lane on the host.  A sequential call never drains: its one
    live lease is freed before each allocation.

    With ``failover`` armed, every chunk not covered by the call's copy
    captures its inputs before dispatch, and a
    :class:`~repro.errors.DeviceLostError` or
    :class:`~repro.errors.KernelHangError` does not propagate: the chunk is
    rewound (a hung kernel has already mutated its operands — in-place
    factorization is not idempotent), the failure is described in
    :attr:`_ShardOutcome.failure`, and every lane not yet completed is
    returned as an orphan range for the coordinator to re-shard.  Breaker
    bookkeeping happens on the coordinator thread, not here, which keeps
    failover decisions deterministic.  ``hedging`` records each chunk's
    compute span and descriptor for hedges.  ``kept`` maps global lanes
    to the copies earlier failed chunks made (:attr:`_ShardOutcome.kept`);
    a chunk re-running such lanes takes its copy from there.
    """
    out = _ShardOutcome()
    out.plan = plan
    pool = memory_pool(dev)
    policy = opts.policy or ResiliencePolicy()
    guard = escalate_device_faults if failover else nullcontext
    disp = _Dispatch(dev, streams, guard)
    label = f"{op.name}-chunk@{dev.name}"
    chunk = plan.chunk
    shard_count = sum(stop - start for start, stop in ranges)
    if plan.chunked or not plan.admitted or shard_count < op.batch:
        out.events.append({"action": "split", "chunk": int(chunk),
                           "footprint": int(plan.footprint),
                           "budget": int(plan.budget),
                           "device": dev.name,
                           "start": int(ranges[0][0]),
                           "stop": int(ranges[-1][1])})
    live: deque = deque()       # nbytes of completed chunks' live leases
    pending = deque(ranges)
    attempt = 0
    try:
        while pending:
            start, rstop = pending.popleft()
            while start < rstop:
                stop = min(start + chunk, rstop)
                nbytes = (stop - start) * plan.lane_bytes
                try:
                    # Honour the planned budget, not just the pool (a
                    # caller cap below one lane must reach the host rung).
                    if nbytes > plan.budget:
                        raise DeviceMemoryError(nbytes, pool.in_use,
                                                plan.budget,
                                                device=dev.name)
                    while len(live) >= nbuf:
                        pool.free(live.popleft(), label=label)
                    pool.alloc(nbytes, label=label)
                except DeviceMemoryError as exc:
                    if not opts.resilient:
                        raise
                    out.oom += 1
                    if live:
                        # Drain the pipeline and retry at the same size:
                        # the pressure may be our own double buffers, not
                        # the chunk.  ``live`` is empty on the retry, so a
                        # second failure falls through to the ladder.
                        while live:
                            pool.free(live.popleft(), label=label)
                        out.events.append(
                            _oom_event("drain", exc, {}, dev.name))
                        continue
                    if chunk > 1:
                        attempt += 1
                        out.backoff += policy.backoff(attempt)
                        new_chunk = max(1, chunk // 2)
                        out.events.append(_oom_event(
                            "halve", exc,
                            {"from": int(chunk), "to": int(new_chunk)},
                            dev.name))
                        chunk = new_chunk
                        continue
                    # Host rung: this range's tail plus every range not
                    # yet started — the device cannot fit a single lane.
                    host_ranges = [(start, rstop)] + list(pending)
                    pending.clear()
                    for h_start, h_stop in host_ranges:
                        out.events.append(_oom_event(
                            "host", exc,
                            {"start": int(h_start), "stop": int(h_stop)},
                            dev.name))
                        rep = run_host(h_start, h_stop)
                        if rep is not None:
                            out.parts.append(
                                (list(range(h_start, h_stop)), rep))
                    start = rstop
                    break
                sub = op.lanes(start, stop)
                if failover:
                    _inherit_copies(op, sub, start, kept or {})
                    sub.capture()
                staged = (stop - start) < op.batch
                t0 = streams[1].elapsed if hedging else 0.0
                try:
                    rep = disp.run(run_chunk, sub, start, nbytes, staged)
                except BaseException as exc:
                    pool.free(nbytes, label=label)
                    if not (failover and isinstance(
                            exc, (DeviceLostError, KernelHangError))):
                        raise
                    sub.rewind()
                    out.kept = _lane_copies(sub, start)
                    kind = ("device-lost"
                            if isinstance(exc, DeviceLostError) else "hang")
                    out.failure = {
                        "kind": kind, "device": dev.name,
                        "start": int(start), "stop": int(stop),
                        "injected": bool(getattr(exc, "injected", False))}
                    out.orphans = [(start, rstop)] + list(pending)
                    pending.clear()
                    start = rstop
                    break
                live.append(nbytes)
                if rep is not None:
                    out.parts.append((list(range(start, stop)), rep))
                out.chunks.append(stop - start)
                if hedging:
                    out.spans.append({"start": int(start), "stop": int(stop),
                                      "duration": streams[1].elapsed - t0,
                                      "nbytes": int(nbytes),
                                      "staged": bool(staged),
                                      "sub": sub})
                start = stop
    finally:
        while live:
            pool.free(live.popleft(), label=label)
    out.shard = disp.shard(min(r[0] for r in ranges),
                           max(r[1] for r in ranges), role)
    return out


def _run_hedge(dev, span, streams, run_chunk):
    """Duplicate one completed chunk onto ``dev`` (straggler hedging).

    The primary's outputs are copied first, the chunk descriptor
    ``span["sub"]`` is rewound from its pristine copy, and the chunk
    replays on the fresh ``streams``.  A successful hedge leaves
    bit-identical outputs (the per-lane determinism contract), so only
    timing attribution and the loser's traffic differ; a failed hedge
    puts the primary's outputs back and stands down.  Returns
    ``(ShardResult | None, seconds, ok)``.
    """
    sub, start, stop = span["sub"], span["start"], span["stop"]
    nbytes = span["nbytes"]
    pool = memory_pool(dev)
    disp = _Dispatch(dev, streams, escalate_device_faults)
    label = f"{sub.name}-hedge@{dev.name}"
    try:
        pool.alloc(nbytes, label=label)
    except DeviceMemoryError:
        return None, 0.0, False     # no room to hedge: not an error
    outputs = [seq for seq in ((sub.mats, sub.pivots) if sub.factors_out
                               else ()) + (sub.rhs, [sub.info])
               if seq is not None]
    primary = [stack_lanes(seq) for seq in outputs]
    sub.rewind()
    ok = True
    try:
        disp.run(run_chunk, sub, start, nbytes, span["staged"])
    except (DeviceError, DeviceMemoryError):
        for seq, kept in zip(outputs, primary):   # primary's results stand
            for live, saved in zip(seq, kept):
                live[...] = saved
        ok = False
    finally:
        pool.free(nbytes, label=label)
    shard = disp.shard(start, stop, "hedge")
    return shard, shard.makespan if ok else 0.0, ok


def execute_pipelined(op, opts, run_chunk, run_host):
    """Run descriptor ``op`` through the pipelined executor.

    Reads the governance knobs (``device``, ``stream``, ``streams``,
    ``devices``, ``overlap``, ``resilient``, ``policy``,
    ``max_resident_bytes``, ``chunk_hint``, ``method``) from the
    :class:`~repro.core.chain.ExecOptions` ``opts``.  ``run_chunk`` and
    ``run_host`` take global lane ranges, as for :func:`_run_shard`.
    Returns the merged :class:`_ShardOutcome`, whose ``plan`` is an
    aggregate :class:`~repro.core.memory_plan.MemoryPlan` for report
    attachment and whose ``result`` is the :class:`PipelineResult` (also
    retrievable via :func:`last_pipeline_result`).

    With ``resilient=True`` and more than one device, the **device fault
    domain** arms: execution becomes a sequence of dispatch rounds
    governed by a per-device :class:`~repro.gpusim.multidevice.
    CircuitBreaker` (``policy.breaker`` or a fresh one), chunks orphaned
    by a device outage or watchdog hang are rewound from the call's
    pristine copy and re-sharded onto the surviving devices, tripped
    devices re-enter through single-lane probes, and — with
    ``policy.hedge_ratio`` set — straggler chunks are hedged onto the
    fastest other closed device.  All decisions land in
    ``PipelineResult.device_events``; if every device dies, the leftover
    lanes finish on the host net.
    """
    from .memory_plan import MemoryPlan, _admit_or_raise, plan_batch
    global _LAST
    batch = op.batch
    policy = opts.policy or ResiliencePolicy()
    devs = _resolve_devices(opts.device, opts.devices)
    nbuf = _resolve_buffers(opts.streams, opts.overlap)
    watchdog = getattr(policy, "watchdog", None)
    hedge_ratio = getattr(policy, "hedge_ratio", None)
    failover = bool(opts.resilient) and len(devs) > 1
    hedge_on = failover and hedge_ratio is not None
    breaker = None
    if failover:
        breaker = getattr(policy, "breaker", None) or CircuitBreaker()
    weights = None
    if len(devs) > 1:
        weights = throughput_weights(
            devs, lambda dev: op.probe_stages(dev, opts.method),
            grid=max(batch, 1))

    merged = _ShardOutcome()
    kept = {}          # lane copies of failed chunks, for their re-runs
    shard_results = []
    plans = []
    device_events = []
    round_makespans = []
    failovers = hedges = 0
    rounds = 0

    def plan_for(dev, count):
        plan = plan_batch(count, op.lane_bytes, device=dev,
                          max_resident_bytes=opts.max_resident_bytes,
                          chunk_hint=opts.chunk_hint, buffers=nbuf)
        _admit_or_raise(plan, opts.resilient, dev)
        plans.append(plan)
        return plan

    def launch(assignments):
        """Run one round's shard assignments on worker threads."""
        outs = [None] * len(assignments)
        errs = [None] * len(assignments)

        def work(i, dev, ranges, plan, role):
            try:
                outs[i] = _run_shard(
                    op, opts, dev, ranges, plan, nbuf,
                    _shard_streams(dev, nbuf, watchdog=watchdog),
                    run_chunk, run_host, failover=failover,
                    hedging=hedge_on, role=role, kept=kept)
            except BaseException as exc:  # re-raised on the coordinator
                errs[i] = exc

        if len(assignments) > 1:
            workers = [threading.Thread(
                target=work, args=(i, dev, ranges, plan, role),
                name=f"pipe-{op.name}-{dev.name}")
                for i, (dev, ranges, plan, role) in enumerate(assignments)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        else:
            for i, (dev, ranges, plan, role) in enumerate(assignments):
                work(i, dev, ranges, plan, role)
        for exc in errs:
            if exc is not None:
                raise exc
        return outs

    if not failover:
        # Single dispatch round: the pre-fault-domain behavior, byte for
        # byte (rounds=1, empty round_makespans, shard-max makespan).
        shards = split_batch(batch, devs, weights=weights)
        assignments = [(part.device, [(part.start, part.stop)],
                        plan_for(part.device, part.count), "full")
                       for part in shards]
        for out in launch(assignments):
            merged.absorb(out)
            shard_results.append(out.shard)
        rounds = 1
    else:
        pending = [(0, batch)] if batch else []
        ev_cursor = len(breaker.events)

        def drain_breaker():
            nonlocal ev_cursor
            device_events.extend(breaker.events[ev_cursor:])
            ev_cursor = len(breaker.events)

        # Generous upper bound: every device can trip, probe and die.
        max_rounds = 4 + 2 * len(devs) * breaker.max_probes
        while pending:
            rounds += 1
            all_dead = all(breaker.state(d.name) == CircuitBreaker.DEAD
                           for d in devs)
            if rounds > max_rounds or all_dead:
                # No device pool left: finish the leftovers on the host
                # net — the same last rung the OOM ladder bottoms out on.
                for h_start, h_stop in pending:
                    merged.events.append({"action": "host",
                                          "start": int(h_start),
                                          "stop": int(h_stop),
                                          "reason": "no-healthy-devices",
                                          "device": None})
                    rep = run_host(h_start, h_stop)
                    if rep is not None:
                        merged.parts.append(
                            (list(range(h_start, h_stop)), rep))
                pending = []
                break
            roles = [(d, breaker.poll(d.name)) for d in devs]
            drain_breaker()
            probes = [d for d, r in roles if r == "probe"]
            fulls = [d for d, r in roles if r == "full"]
            if not probes and not fulls:
                continue    # open devices are counting denied polls
            assignments = []
            for d in probes:
                taken = _take_lanes(pending, 1)
                if taken:
                    assignments.append((d, taken, plan_for(d, 1), "probe"))
            if fulls and pending:
                w = [weights[devs.index(d)] for d in fulls]
                total = sum(stop - start for start, stop in pending)
                for part in split_batch(total, fulls, weights=w):
                    d = part.device
                    taken = _take_lanes(pending, part.count)
                    if taken:
                        n = sum(s2 - s1 for s1, s2 in taken)
                        assignments.append(
                            (d, taken, plan_for(d, n), "full"))
            if not assignments:
                continue
            outs = launch(assignments)
            savings = [0.0] * len(outs)
            for (dev, ranges, plan, role), out in zip(assignments, outs):
                merged.absorb(out)
                shard_results.append(out.shard)
                if out.failure is not None:
                    fail = dict(out.failure)
                    orphan_lanes = sum(s2 - s1 for s1, s2 in out.orphans)
                    device_events.append(
                        {"event": "failover", **fail,
                         "orphan_lanes": int(orphan_lanes)})
                    failovers += len(out.orphans)
                    breaker.record_failure(
                        dev.name, kind=fail["kind"],
                        fatal=fail["kind"] == "device-lost")
                    pending.extend(out.orphans)
                    kept.update(out.kept)
                else:
                    breaker.record_success(dev.name)
                drain_breaker()
            if hedge_on and len(outs) > 1:
                # Straggler hedging, decided on the coordinator after the
                # round joins: a chunk that took longer than hedge_ratio
                # times the round's median replays on the fastest other
                # closed device; the first finisher wins and the loser's
                # traffic stays attributed.
                all_spans = [(i, sp) for i, out in enumerate(outs)
                             for sp in out.spans]
                durs = sorted(sp["duration"] for _, sp in all_spans
                              if sp["duration"] > 0.0)
                median = durs[len(durs) // 2] if durs else 0.0
                for i, sp in all_spans:
                    if median <= 0.0:
                        continue
                    if sp["duration"] <= hedge_ratio * median:
                        continue
                    primary = assignments[i][0]
                    cands = [d for d in devs
                             if d.name != primary.name
                             and breaker.state(d.name)
                             == CircuitBreaker.CLOSED]
                    if not cands:
                        continue
                    target = max(cands,
                                 key=lambda d: weights[devs.index(d)])
                    hshard, hdur, ok = _run_hedge(
                        target, sp,
                        _shard_streams(target, nbuf, watchdog=watchdog),
                        run_chunk)
                    if hshard is None:
                        continue
                    hedges += 1
                    shard_results.append(hshard)
                    won = ok and hdur < sp["duration"]
                    if won:
                        savings[i] += sp["duration"] - hdur
                    device_events.append({
                        "event": "hedge",
                        "start": int(sp["start"]),
                        "stop": int(sp["stop"]),
                        "primary": primary.name,
                        "hedge": target.name,
                        "primary_seconds": float(sp["duration"]),
                        "hedge_seconds": float(hdur),
                        "winner": target.name if won else primary.name,
                        "loser_bytes": int(sp["nbytes"] if won
                                           else hshard.h2d_bytes
                                           + hshard.d2h_bytes)})
            effective = [max(out.shard.makespan - sv, 0.0)
                         for out, sv in zip(outs, savings)]
            round_makespans.append(max(effective, default=0.0))

    result = PipelineResult(
        op=op.name, batch=batch,
        devices=tuple(d.name for d in devs),
        streams=nbuf, overlap=nbuf > 1,
        shards=tuple(shard_results),
        rounds=max(rounds, 1),
        round_makespans=tuple(round_makespans),
        device_events=tuple(device_events),
        failovers=failovers, hedges=hedges)
    with _LAST_LOCK:
        _LAST = result
    if opts.stream is not None and batch:
        # One summary record on the caller's stream: the pipeline occupied
        # the device(s) for the modeled makespan.  Traffic was already
        # charged by the per-chunk staging copies, so this carries time
        # only.
        opts.stream.record(TransferRecord(
            kernel_name=f"{op.name}_pipeline", nbytes=0,
            time=result.makespan))

    merged.plan = MemoryPlan(
        batch=batch, lane_bytes=op.lane_bytes,
        footprint=batch * op.lane_bytes,
        budget=min((p.budget for p in plans), default=0),
        chunk=min((p.chunk for p in plans), default=batch or 1),
        admitted=all(p.admitted for p in plans))
    merged.result = result
    return merged
