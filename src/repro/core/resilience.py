"""Self-healing batched dispatch: retry, fallback, lane quarantine.

The paper's dispatcher (paper Section 5.4) already expresses a degradation
order — fused for tiny orders, sliding-window as the workhorse, and the
fork-join reference design "as a safeguard".  This module turns that order
into an actual fault-tolerance ladder.  The resilience layer
(:func:`resilient`, the step of the execution chain that ``resilient=True``
on the batched drivers turns on) wraps each kernel stage so that a batch
survives the failure modes
the fault-injection harness (:mod:`repro.gpusim.faults`) models:

* **transient launch failures** (:class:`~repro.errors.DeviceError`) are
  retried in place, up to :attr:`ResiliencePolicy.max_retries` times per
  ladder rung with capped exponential backoff; operands are restored from
  pristine snapshots before every re-attempt, so a retry after a partial
  in-place factorization is exact, not best-effort;
* **shared-memory rejections** (:class:`~repro.errors.SharedMemoryError`)
  degrade to the next rung of the design ladder — ``fused`` → ``window`` →
  ``reference`` for the factorization, ``blocked`` → ``reference`` for the
  solve, fused ``gbsv`` → the standard two-stage path.  The gbtrf/gbtrs
  rungs are bit-identical by contract (the design-equivalence tests pin
  this at ``atol=0``), so a fallback changes *where* the batch runs, never
  *what* it computes;
* **lane corruption and numerical breakdown** are quarantined after the
  fact: any lane whose ``info > 0`` (singular) or whose outputs are
  non-finite is re-run from its snapshot through the reference design —
  first the reference kernels, then, should the storm also knock those
  over, the same per-column elimination on the host (``gbtf2`` /
  ``gbtrs_unblocked``, bit-identical to the reference kernels) — while the
  healthy lanes keep their fast-path results untouched and bit-identical
  to a fault-free run;
* recovered ``gbsv`` lanes that were quarantined for non-finite output, or
  whose pivot growth exceeds :attr:`ResiliencePolicy.growth_threshold`,
  get one :func:`~repro.core.gbrfs.gbrfs` refinement pass against the
  original operands.

Everything that happened is reported through a structured
:class:`BatchReport` so callers (and the fault-sweep tests) can assert the
batch survived *exactly* the storm that was injected.

The resilient path is honest about its own limits: argument errors
(:class:`~repro.errors.ArgumentError`) still raise eagerly — retrying a
malformed call cannot fix it — and a ladder whose every rung is exhausted
re-raises the last device error.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as _dataclass_fields

import numpy as np

from ..errors import (
    DeviceError,
    DeviceLostError,
    DeviceMemoryError,
    KernelHangError,
    SharedMemoryError,
)
from .gbrfs import gbrfs

__all__ = [
    "ResiliencePolicy",
    "BatchReport",
    "merge_reports",
    "escalate_device_faults",
    "device_fault_escalation_active",
    "resilient",
]

#: Marker used in :attr:`BatchReport.fallbacks` when a quarantine re-run
#: abandoned the reference *kernels* for the host reference *algorithm*.
HOST_FALLBACK = "host"

# Thread-local escalation switch for the pipelined executor's fault
# domains.  Inside an `escalate_device_faults()` scope, the retry ladder
# re-raises whole-device failures (DeviceLostError) and watchdog hangs
# (KernelHangError) immediately instead of retrying or absorbing them
# into the host net — the pipeline coordinator owns those errors: it
# trips the circuit breaker and re-shards the chunk onto a surviving
# device.  Outside the scope (a plain sequential resilient call with no
# other device to fail over to) the old absorb-into-host behaviour
# stands.
_ESCALATE = threading.local()


def device_fault_escalation_active() -> bool:
    """True inside an :func:`escalate_device_faults` scope (this thread)."""
    return getattr(_ESCALATE, "depth", 0) > 0


def _escalates(exc) -> bool:
    return (isinstance(exc, (DeviceLostError, KernelHangError))
            and device_fault_escalation_active())


@contextmanager
def escalate_device_faults():
    """Scope in which device-lost and kernel-hang errors escalate.

    The pipelined executor wraps each chunk's kernel work in this scope so
    :class:`~repro.errors.DeviceLostError` and
    :class:`~repro.errors.KernelHangError` propagate to the coordinator
    (which owns failover) rather than being retried on the dying device or
    silently finished on the host.
    """
    _ESCALATE.depth = getattr(_ESCALATE, "depth", 0) + 1
    try:
        yield
    finally:
        _ESCALATE.depth -= 1


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunables for the self-healing dispatch.

    Attributes
    ----------
    max_retries:
        Re-attempts per ladder rung after a transient
        :class:`~repro.errors.DeviceError` before falling to the next
        rung.
    backoff_base, backoff_cap:
        Exponential backoff between retries: attempt ``i`` sleeps
        ``min(backoff_base * 2**(i-1), backoff_cap)`` seconds.  The
        default base of 0 keeps the simulation instant while preserving
        the accounting (:attr:`BatchReport.backoff_total`).
    growth_threshold:
        Pivot-growth ratio ``max|U| / max|A|`` above which a recovered
        ``gbsv`` lane gets a refinement pass even though it is finite.
    refine:
        Master switch for the single :func:`~repro.core.gbrfs.gbrfs`
        pass on recovered ``gbsv`` lanes.
    watchdog:
        Watchdog deadline (modeled seconds) armed on the pipelined
        executor's compute streams; a launch exceeding it raises
        :class:`~repro.errors.KernelHangError` and the chunk fails over.
        ``None`` disables hang detection.
    hedge_ratio:
        Straggler hedging threshold for the pipelined executor: after
        each dispatch round, any chunk whose modeled duration exceeded
        ``hedge_ratio`` times the round's median chunk duration is
        duplicated onto the fastest other healthy device; the first
        finisher wins (results are bit-identical either way) and the
        loser's traffic is attributed in ``BatchReport.device_events``.
        ``None`` disables hedging.
    breaker:
        A :class:`~repro.gpusim.multidevice.CircuitBreaker` shared with
        the pipelined executor; ``None`` gives each pipelined call a
        private breaker.  Pass a long-lived breaker (the serving layer
        does) so device state survives across calls.
    """

    max_retries: int = 4
    backoff_base: float = 0.0
    backoff_cap: float = 0.05
    growth_threshold: float = 1e8
    refine: bool = True
    watchdog: float | None = None
    hedge_ratio: float | None = None
    breaker: object = None

    def __post_init__(self):
        if self.watchdog is not None and self.watchdog <= 0.0:
            raise ValueError(f"watchdog must be > 0, got {self.watchdog}")
        if self.hedge_ratio is not None and self.hedge_ratio < 1.0:
            raise ValueError(
                f"hedge_ratio must be >= 1, got {self.hedge_ratio}")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), in seconds."""
        return min(self.backoff_base * (2.0 ** (attempt - 1)),
                   self.backoff_cap)


#: :class:`BatchReport` fields :func:`merge_reports` adds up (counters,
#: and the ``chunks`` tuple concatenated) and takes the maximum of.
_SUMMED = ("retries", "launch_failures", "smem_rejections", "backoff_total",
           "footprint_bytes", "chunks", "oom_failures", "failovers", "hedges",
           "verified_lanes", "recomputes")
_MAXED = ("makespan", "residual_max", "growth_max", "berr_max", "ferr_max")
#: :class:`BatchReport` fields holding lane-index tuples.
_LANE_FIELDS = ("quarantined", "singular", "corrupted", "refined",
                "unrecovered", "sdc_detected", "sdc_recovered",
                "digest_mismatches", "ill_conditioned")


@dataclass
class BatchReport:
    """Structured account of one resilient batched call.

    Lane tuples are 0-based batch indices, sorted ascending.  ``info`` is
    the same array the driver returned, attached for convenience.
    """

    operation: str
    batch: int
    method_requested: str = "auto"
    #: stage name -> design that finally served it (e.g. ``{"gbtrf":
    #: "window", "gbtrs": "blocked"}``).
    methods: dict = field(default_factory=dict)
    #: Launch re-attempts made after transient device errors.
    retries: int = 0
    #: Injected/real :class:`~repro.errors.DeviceError` launches absorbed.
    launch_failures: int = 0
    #: :class:`~repro.errors.SharedMemoryError` rejections absorbed.
    smem_rejections: int = 0
    #: Seconds of backoff accounted (slept when ``backoff_base > 0``).
    backoff_total: float = 0.0
    #: ``(stage, from_design, to_design)`` degradations, in order.
    fallbacks: list = field(default_factory=list)
    #: Lanes pulled off the fast path (union of singular + corrupted).
    quarantined: tuple = ()
    #: Quarantined lanes whose final ``info > 0`` (genuinely singular).
    singular: tuple = ()
    #: Quarantined lanes with non-finite output (corruption/breakdown).
    corrupted: tuple = ()
    #: Recovered lanes that received a gbrfs refinement pass.
    refined: tuple = ()
    #: Lanes that stayed non-finite even after the reference re-run
    #: (their *inputs* are non-finite; nothing recoverable).
    unrecovered: tuple = ()
    #: Estimated resident device footprint of the call, bytes (0 when the
    #: memory governor did not run, e.g. ``execute=False``).
    footprint_bytes: int = 0
    #: Device-memory budget the call was admitted against, bytes (None when
    #: the governor did not run).
    budget_bytes: int | None = None
    #: Lane counts of the chunks that executed on the device, in order.  A
    #: batch that fit whole records a single full-size chunk; lanes that
    #: finished on the host net appear in :attr:`chunk_events`, not here.
    chunks: tuple = ()
    #: Injected/real :class:`~repro.errors.DeviceMemoryError` allocations
    #: absorbed by the chunking ladder.
    oom_failures: int = 0
    #: Structured memory-governance decisions, in order: dicts with an
    #: ``action`` key (``"split"``, ``"halve"``, ``"host"``, and under
    #: the pipelined executor ``"drain"``) plus the numbers behind the
    #: decision; pipelined events also carry a ``"device"`` key.
    chunk_events: list = field(default_factory=list)
    #: Device names the call's shards ran on (empty for a plain
    #: single-device run outside the pipelined executor).
    devices: tuple = ()
    #: Modeled pipelined makespan, seconds (0 outside the pipelined
    #: executor): the per-stream tail maximum across every shard.
    makespan: float = 0.0
    #: Failure-domain decisions from the pipelined executor, in order:
    #: circuit-breaker transitions (``trip`` / ``probe`` / ``reopen`` /
    #: ``recover`` / ``dead``), chunk ``failover`` re-shards, and
    #: ``hedge`` duplicate dispatches (winner, loser, attributed bytes).
    device_events: list = field(default_factory=list)
    #: Chunks re-dispatched onto a surviving device after a device-lost
    #: or kernel-hang failure.
    failovers: int = 0
    #: Straggler chunks duplicated onto a second device (first-finisher
    #: wins; results are bit-identical either way).
    hedges: int = 0
    #: Verification mode that ran (``"cheap"`` / ``"full"``, empty when
    #: the call was not verified).  All ``verify_``/SDC fields below are
    #: stamped by :mod:`repro.core.verify`.
    verify_mode: str = ""
    #: Lanes whose residual gate was evaluated.
    verified_lanes: int = 0
    #: Lanes that failed a residual gate or digest check (silent data
    #: corruption detected).
    sdc_detected: tuple = ()
    #: Detected lanes the recovery ladder brought back under tolerance.
    sdc_recovered: tuple = ()
    #: Lanes whose read-only operands changed fingerprints across the
    #: stage boundary (restored from snapshots).
    digest_mismatches: tuple = ()
    #: Lanes that still fail their gate but are *expected*-inaccurate:
    #: condition estimate below the policy floor or pivot growth past the
    #: threshold.  Accepted, never raised.
    ill_conditioned: tuple = ()
    #: Lane-recompute events the escalation ladder performed (device
    #: recompute, host reference, equilibrated refactor).
    recomputes: int = 0
    #: Worst scaled residual observed across verified lanes.
    residual_max: float = 0.0
    #: Worst pivot-growth ratio ``max|U| / max|A|`` across verified lanes.
    growth_max: float = 0.0
    #: Worst gbrfs component-wise backward error across refined lanes.
    berr_max: float = 0.0
    #: Worst forward-error bound ``berr / rcond`` across refined lanes.
    ferr_max: float = 0.0
    #: Smallest gbcon condition estimate stamped (None when no estimate
    #: ran; ``'full'`` mode stamps every healthy lane).
    rcond_min: float | None = None
    info: np.ndarray | None = None

    @property
    def faults_tolerated(self) -> int:
        """Total faults this call absorbed without raising."""
        return (self.launch_failures + self.smem_rejections
                + len(self.corrupted) + self.oom_failures + self.failovers)

    @property
    def ok(self) -> bool:
        """True when every lane ended in a well-defined state."""
        return not self.unrecovered

    def summary(self) -> str:
        """One-line human-readable account."""
        parts = [f"{self.operation} batch={self.batch}"]
        if self.methods:
            parts.append("via " + ",".join(
                f"{s}:{m}" for s, m in sorted(self.methods.items())))
        parts.append(f"retries={self.retries}")
        parts.append(f"launch_failures={self.launch_failures}")
        parts.append(f"smem_rejections={self.smem_rejections}")
        if self.fallbacks:
            parts.append("fallbacks=" + ";".join(
                f"{s}:{a}->{b}" for s, a, b in self.fallbacks))
        if self.quarantined:
            parts.append(f"quarantined={list(self.quarantined)}"
                         f" (singular={list(self.singular)},"
                         f" corrupted={list(self.corrupted)})")
        if self.refined:
            parts.append(f"refined={list(self.refined)}")
        if len(self.chunks) > 1 or self.oom_failures:
            parts.append(f"chunks={list(self.chunks)}")
            parts.append(f"oom_failures={self.oom_failures}")
            parts.append(f"footprint={self.footprint_bytes}B"
                         f"/budget={self.budget_bytes}B")
        if self.devices:
            parts.append(f"devices={list(self.devices)}")
            parts.append(f"makespan={self.makespan * 1e3:.3f}ms")
        if self.failovers:
            parts.append(f"failovers={self.failovers}")
        if self.hedges:
            parts.append(f"hedges={self.hedges}")
        if self.device_events:
            parts.append(f"device_events={len(self.device_events)}")
        if self.verify_mode:
            parts.append(f"verify={self.verify_mode}"
                         f" lanes={self.verified_lanes}"
                         f" residual_max={self.residual_max:.3e}")
            if self.sdc_detected:
                parts.append(f"sdc_detected={list(self.sdc_detected)}"
                             f" recovered={list(self.sdc_recovered)}"
                             f" recomputes={self.recomputes}")
            if self.digest_mismatches:
                parts.append(
                    f"digest_mismatches={list(self.digest_mismatches)}")
            if self.ill_conditioned:
                parts.append(
                    f"ill_conditioned={list(self.ill_conditioned)}")
            if self.rcond_min is not None:
                parts.append(f"rcond_min={self.rcond_min:.3e}")
        if self.unrecovered:
            parts.append(f"UNRECOVERED={list(self.unrecovered)}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """JSON-safe dict of the full report (for structured logging).

        Everything numpy becomes plain Python; tuples become lists.  The
        derived ``ok`` / ``faults_tolerated`` properties are included for
        log consumers; :meth:`from_dict` ignores them on the way back.
        """
        return {
            "operation": self.operation,
            "batch": int(self.batch),
            "method_requested": self.method_requested,
            "methods": {str(k): str(v) for k, v in self.methods.items()},
            "retries": int(self.retries),
            "launch_failures": int(self.launch_failures),
            "smem_rejections": int(self.smem_rejections),
            "backoff_total": float(self.backoff_total),
            "fallbacks": [list(f) for f in self.fallbacks],
            "quarantined": [int(k) for k in self.quarantined],
            "singular": [int(k) for k in self.singular],
            "corrupted": [int(k) for k in self.corrupted],
            "refined": [int(k) for k in self.refined],
            "unrecovered": [int(k) for k in self.unrecovered],
            "footprint_bytes": int(self.footprint_bytes),
            "budget_bytes": (None if self.budget_bytes is None
                             else int(self.budget_bytes)),
            "chunks": [int(c) for c in self.chunks],
            "oom_failures": int(self.oom_failures),
            "chunk_events": [dict(e) for e in self.chunk_events],
            "devices": [str(d) for d in self.devices],
            "makespan": float(self.makespan),
            "device_events": [dict(e) for e in self.device_events],
            "failovers": int(self.failovers),
            "hedges": int(self.hedges),
            "verify_mode": self.verify_mode,
            "verified_lanes": int(self.verified_lanes),
            "sdc_detected": [int(k) for k in self.sdc_detected],
            "sdc_recovered": [int(k) for k in self.sdc_recovered],
            "digest_mismatches": [int(k) for k in self.digest_mismatches],
            "ill_conditioned": [int(k) for k in self.ill_conditioned],
            "recomputes": int(self.recomputes),
            "residual_max": float(self.residual_max),
            "growth_max": float(self.growth_max),
            "berr_max": float(self.berr_max),
            "ferr_max": float(self.ferr_max),
            "rcond_min": (None if self.rcond_min is None
                          else float(self.rcond_min)),
            "info": (None if self.info is None
                     else [int(i) for i in np.asarray(self.info)]),
            "ok": bool(self.ok),
            "faults_tolerated": int(self.faults_tolerated),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        """Rebuild a report from :meth:`to_dict` output (round-trip).

        Unknown keys are ignored (forward compatibility: a log written by
        a newer version still loads), as are the derived properties
        :meth:`to_dict` includes for log consumers.
        """
        known = {f.name for f in _dataclass_fields(cls)}
        d = {k: v for k, v in data.items() if k in known}
        for name in _LANE_FIELDS + ("chunks", "devices"):
            d[name] = tuple(d.get(name, ()))
        d["fallbacks"] = [tuple(f) for f in d.get("fallbacks", [])]
        d["device_events"] = [dict(e) for e in d.get("device_events", [])]
        if d.get("info") is not None:
            d["info"] = np.asarray(d["info"], dtype=np.int64)
        return cls(**d)


def merge_reports(operation: str, batch: int, parts) -> BatchReport:
    """Merge per-group reports of a vbatch call into one global report.

    ``parts`` is a sequence of ``(lane_indices, BatchReport)`` pairs where
    ``lane_indices[j]`` is the global lane of the group's lane ``j``.
    """
    merged = BatchReport(operation, batch)
    info = np.zeros(batch, dtype=np.int64)
    for idxs, rep in parts:
        merged.method_requested = rep.method_requested
        for name in _SUMMED:
            setattr(merged, name, getattr(merged, name) + getattr(rep, name))
        for name in _MAXED:
            setattr(merged, name, max(getattr(merged, name),
                                      getattr(rep, name)))
        for name in ("budget_bytes", "rcond_min"):      # None means unset
            mine, theirs = getattr(merged, name), getattr(rep, name)
            if theirs is not None:
                setattr(merged, name,
                        theirs if mine is None else min(mine, theirs))
        for name in ("fallbacks", "chunk_events", "device_events"):
            getattr(merged, name).extend(getattr(rep, name))
        merged.devices += tuple(d for d in rep.devices
                                if d not in merged.devices)
        if rep.verify_mode:
            merged.verify_mode = rep.verify_mode
        for stage, meth in rep.methods.items():
            prev = merged.methods.get(stage)
            if prev is None:
                merged.methods[stage] = meth
            elif meth not in prev.split("+"):
                merged.methods[stage] = prev + "+" + meth
        for name in _LANE_FIELDS:
            setattr(merged, name, getattr(merged, name) + tuple(
                int(idxs[k]) for k in getattr(rep, name)))
        if rep.info is not None:
            for j, i in enumerate(idxs):
                info[i] = rep.info[j]
    for name in _LANE_FIELDS:
        setattr(merged, name, tuple(sorted(getattr(merged, name))))
    merged.info = info
    return merged


# --- ladder execution ------------------------------------------------------

def _run_ladder(report: BatchReport, stage: str, ladder, call, restore,
                policy: ResiliencePolicy) -> str:
    """Run ``call(method)`` down the design ladder until one rung succeeds.

    ``restore()`` rewinds the operands to their pristine snapshots; it runs
    before every attempt except the very first (whose operands are already
    pristine), which is what keeps the zero-fault overhead to one snapshot
    copy.  Transient :class:`~repro.errors.DeviceError` launches are
    retried on the same rung; :class:`~repro.errors.SharedMemoryError`
    falls straight to the next rung (re-asking for the same allocation
    cannot succeed).  Raises the last error when the ladder is exhausted.
    """
    last: Exception | None = None
    dirty = False
    for pos, meth in enumerate(ladder):
        attempt = 0
        while True:
            try:
                if dirty:
                    restore()
                dirty = True
                call(meth)
                report.methods[stage] = meth
                return meth
            except (DeviceError, DeviceMemoryError) as exc:
                # Whole-device failures and watchdog hangs escalate to the
                # pipeline coordinator (which owns failover) instead of
                # being retried on a device that just died.
                if _escalates(exc):
                    raise
                last = exc
                # Allocation failures (injected or genuine pressure) are
                # transient like launch failures: retry the rung, then
                # fall down the ladder toward the host net.
                if isinstance(exc, DeviceMemoryError):
                    report.oom_failures += 1
                else:
                    report.launch_failures += 1
                if attempt >= policy.max_retries:
                    break
                attempt += 1
                report.retries += 1
                delay = policy.backoff(attempt)
                if delay > 0:
                    report.backoff_total += delay
                    time.sleep(delay)
            except SharedMemoryError as exc:
                last = exc
                report.smem_rejections += 1
                break
        if pos + 1 < len(ladder):
            report.fallbacks.append((stage, meth, ladder[pos + 1]))
    assert last is not None
    raise last


def _ladder_with_host(report: BatchReport, stage: str, ladder, call,
                      restore, policy: ResiliencePolicy, host,
                      net: str = HOST_FALLBACK) -> bool:
    """Run the kernel ladder with the host reference algorithm as the net.

    When every rung is exhausted — a storm that rejects even the
    reference kernels — the stage finishes on the host (``gbtf2`` /
    ``gbtrs_unblocked``), which the design-equivalence tests pin as
    bit-identical to the reference kernels.  With the net in place the
    resilient drivers raise only for argument errors.  With ``host=None``
    the exhausted stage is only rewound and recorded as falling back to
    ``net`` (another design the caller runs next).  Returns True when a
    rung succeeded.
    """
    try:
        _run_ladder(report, stage, ladder, call, restore, policy)
        return True
    except (DeviceError, DeviceMemoryError, SharedMemoryError) as exc:
        if _escalates(exc):
            raise
        restore()
        if host is not None:
            host()
            report.methods[stage] = net
        report.fallbacks.append((stage, ladder[-1], net))
        return False


def _vec_for(method: str, vectorize):
    """Downgrade ``vectorize=True`` on the reference rung.

    The reference designs have no batch-interleaved path and reject
    ``vectorize=True`` eagerly; a fallback that lands there must not turn
    a recoverable device fault into an argument error.
    """
    return None if (vectorize and method == "reference") else vectorize


# --- the resilience layer -------------------------------------------------

def resilient(op, opts, below):
    """Resilience layer of the execution chain (:mod:`repro.core.chain`).

    Runs ``op`` down its design ladder (retry, rung fallback, host net),
    then quarantines singular and non-finite lanes: they are rewound to
    their pristine inputs and re-run through the reference design — the
    factorization first, then the solve of the lanes it recovered — and a
    recovered ``gbsv`` lane that was corrupted or shows pivot growth past
    ``policy.growth_threshold`` gets one :func:`~repro.core.gbrfs.gbrfs`
    pass.  Every attempt is handed to ``below`` (the launch).  Passes
    straight through unless ``opts.resilient``; returns the report.
    Healthy lanes are bit-identical to a fault-free call.
    """
    if not opts.resilient:
        return below(op, opts)
    from .verify import pivot_growth_batch
    policy = opts.policy or ResiliencePolicy()
    report = BatchReport(op.name, op.batch, method_requested=opts.method,
                         info=op.info)
    if op.empty:
        return report
    saved = op.save()

    def attempt(sub, vectorize):
        return lambda meth: below(sub, opts.replace(
            method=meth, vectorize=_vec_for(meth, vectorize)))

    def run_rungs(stage, part, lanes, rungs, vectorize=opts.vectorize,
                  fallback=None):
        sub = part if lanes is None else part.pick(lanes)
        sub_saved = saved if lanes is None else saved.pick(lanes)
        ok = _ladder_with_host(
            report, stage, rungs, attempt(sub, vectorize),
            lambda: sub.rewind(sub_saved), policy,
            None if fallback else sub.host, fallback or HOST_FALLBACK)
        return sub, ok

    for stage, part, lanes, rungs, fallback in op.design_ladder(
            opts.device, opts.method):
        _, ok = run_rungs(stage, part, lanes, rungs, fallback=fallback)
        if fallback and ok:
            break       # the preferred design served every lane

    # -- quarantine ---------------------------------------------------------
    singular, corrupted = op.health()
    bad = sorted(singular + corrupted)
    if not bad:
        return report
    report.quarantined = tuple(bad)
    report.singular = tuple(singular)
    report.corrupted = tuple(corrupted)
    for k in bad:
        op.mats[k][...] = saved.mats[k]
        if op.factors_out:
            op.pivots[k][...] = 0
        if op.rhs is not None:
            op.rhs[k][...] = saved.rhs[k]
    unrecovered = []
    recovered = bad
    if op.factors_out:
        sub, _ = run_rungs("quarantine:gbtrf", op.factor_part, bad,
                           ("reference",), vectorize=None)
        recovered = []
        for j, k in enumerate(bad):
            op.info[k] = sub.info[j]
            if sub.info[j] > 0:
                # Genuinely singular: factors + pivots stand, B stays as
                # the caller supplied it (LAPACK semantics).
                if op.rhs is not None:
                    op.rhs[k][...] = saved.rhs[k]
            elif op.lane_nonfinite(k):
                unrecovered.append(k)
            else:
                recovered.append(k)
    if op.rhs is not None and op.nrhs and recovered:
        run_rungs("quarantine:gbtrs", op.solve_part, recovered,
                  ("reference",), vectorize=None)
        refined = []
        corrupt_set = set(corrupted)
        for k in recovered:
            if not bool(np.all(np.isfinite(op.rhs[k]))):
                unrecovered.append(k)
                continue
            if not (op.factors_out and policy.refine):
                continue
            orig = saved.mats[k][:op.rows]
            growth = pivot_growth_batch(op.mats[k][None], orig[None],
                                        op.kl, op.ku)[0]
            if k in corrupt_set or growth > policy.growth_threshold:
                gbrfs(op.n, op.kl, op.ku, saved.mats[k], op.mats[k],
                      op.pivots[k], saved.rhs[k], op.rhs[k], max_iter=1)
                refined.append(k)
        if op.factors_out:
            report.refined = tuple(refined)
    report.unrecovered = tuple(sorted(unrecovered))
    report.singular = tuple(k for k in bad if op.info[k] > 0)
    return report
