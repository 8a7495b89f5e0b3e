"""The benchmark's three workloads: seeded inputs and their timed runs.

Every input is generated here from the ``--seed`` argument alone; the
program only receives the generated arrays.  Sub-streams are drawn from
``numpy.random.default_rng([seed, stream])`` so each piece of input is
independent of how much of another piece was generated.

* ``anchor-gbsv`` — the ROADMAP anchor: one ``gbsv_batch`` call on 1000
  lane-major fp64 band systems, n=256, kl=ku=8, one right-hand side,
  default knobs.  Serve, verify, resilience and pipeline are bypassed.
* ``stack-small`` — ``gbsv_batch`` on 64 systems, n=128, kl=ku=4, with
  every production layer on (SoA layout, cheap verification, resilience,
  forced chunking, two devices, two streams).
* ``serve-mixed`` — an open-loop ``SolverService`` stream over four
  shapes with recurring and fresh operators, a paced phase and a backlog
  phase, replayed on a fast-forward virtual clock.

README.md gives the reasons for each choice and what each should move.
"""

from __future__ import annotations

import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import (BatchingPolicy, SolverService, gbsv_batch, operand_digest,
                   random_band, random_band_batch, random_rhs)

from checks import RESIDUAL_TOL, Tally, oracle_mismatches, scaled_residuals

NAMES = ("anchor-gbsv", "stack-small", "serve-mixed")

#: Worker threads the program may start: the two-device shard workers of
#: ``stack-small``, capped at the host's core count.
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class BatchSpec:
    batch: int
    n: int
    kl: int
    ku: int
    operand_sets: int       # distinct A stacks, cycled by the calls
    rhs_sets: int           # distinct B stacks, cycled by the calls
    knobs: tuple = ()       # extra gbsv_batch keyword arguments

    @property
    def pairs(self) -> int:
        return max(self.operand_sets, self.rhs_sets)


@dataclass(frozen=True)
class ServeSpec:
    shapes: tuple = ((32, 2, 3), (64, 3, 3), (96, 4, 4), (128, 5, 5))
    recurring: int = 24
    fresh_share: float = 0.2
    rate: float = 50.0      # paced phase arrival rate, requests/s
    paced: int = 1000
    backlog: int = 1000
    max_group: int = 64
    max_delay: float = 0.005
    cache_entries: int = 64
    warmup: int = 96        # requests per phase in the warm-up round


_STACK_KNOBS = (("layout", "soa"), ("verify", "cheap"), ("resilient", True),
                ("chunk_hint", 16), ("devices", min(2, NPROC)),
                ("streams", 2))

SPECS = {
    "anchor-gbsv": BatchSpec(1000, 256, 8, 8, operand_sets=1, rhs_sets=16),
    "stack-small": BatchSpec(64, 128, 4, 4, operand_sets=16, rhs_sets=16,
                             knobs=_STACK_KNOBS),
    "serve-mixed": ServeSpec(),
}

#: Tiny sizes for the smoke test: same code paths, a fraction of the work.
SMOKE_SPECS = {
    "anchor-gbsv": BatchSpec(8, 32, 2, 2, operand_sets=1, rhs_sets=2),
    "stack-small": BatchSpec(8, 24, 2, 2, operand_sets=2, rhs_sets=2,
                             knobs=tuple({**dict(_STACK_KNOBS),
                                          "chunk_hint": 2}.items())),
    "serve-mixed": ServeSpec(shapes=((16, 1, 2), (24, 2, 2)), recurring=6,
                             paced=40, backlog=40, max_group=8,
                             cache_entries=8, warmup=8),
}

#: Lanes per run compared against LAPACK.
ORACLE_LANES = 8

#: ``BatchReport`` counters summed over a run's calls.
REPORT_COUNTS = ("retries", "verified_lanes", "recomputes")


def residual_summary(worst: np.ndarray) -> tuple[float, float]:
    """``(p90, max)`` over operators of each operator's largest scaled
    residual (over its right-hand sides).

    The largest residual over every lane is an extreme-value statistic of
    the seeded operators: its spread across seeds is wider than any bound,
    so the p90 over operators is the gated figure and the maximum is
    reported beside it.  A lane above tolerance fails the run regardless.
    Non-finite residuals are failures, counted elsewhere.
    """
    worst = worst[np.isfinite(worst)]
    if not worst.size:
        return math.inf, math.inf
    return float(np.percentile(worst, 90)), float(worst.max())


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# -- batch workloads --------------------------------------------------------

@dataclass
class BatchInputs:
    spec: BatchSpec
    mats: list          # operand_sets x (batch, ldab, n)
    rhs: list           # rhs_sets x (batch, n, 1)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.mats) + sum(b.nbytes
                                                      for b in self.rhs)

    def pair(self, i: int):
        return (self.mats[i % self.spec.operand_sets],
                self.rhs[i % self.spec.rhs_sets])


def make_batch_inputs(spec: BatchSpec, seed: int) -> BatchInputs:
    mats = [random_band_batch(spec.batch, spec.n, spec.kl, spec.ku,
                              seed=_rng(seed, 1 + k))
            for k in range(spec.operand_sets)]
    rhs = [random_rhs(spec.n, 1, batch=spec.batch, seed=_rng(seed, 101 + k))
           for k in range(spec.rhs_sets)]
    return BatchInputs(spec, mats, rhs)


def batch_call(spec: BatchSpec, a: np.ndarray, b: np.ndarray):
    """One timed unit: ``gbsv_batch`` on working copies ``a``/``b``."""
    return gbsv_batch(spec.n, spec.kl, spec.ku, 1, a, None, b,
                      **dict(spec.knobs))


@dataclass
class BatchRun:
    call_s: list = field(default_factory=list)
    lanes: int = 0
    residual: tuple = (math.inf, math.inf)        # (p90, max)
    layer_counts: dict = field(default_factory=dict)  # BatchReport sums
    tally: Tally = field(default_factory=Tally)


def run_batch(inputs: BatchInputs, seconds: float, *,
              min_calls: int | None = None, seed: int = 0) -> BatchRun:
    """Call ``gbsv_batch`` over the operand pairs for ``seconds``, and at
    least once on every pair (unless ``min_calls`` says otherwise).

    Every call works on fresh copies of a pristine pair (copying is not
    timed) and every returned solution is checked: ``info`` must be 0,
    the scaled residual within tolerance, and a repeat of a pair must
    reproduce the first call's pivots and solutions bit for bit.  A
    seeded sample of lanes from each pair's first call goes to the LAPACK
    oracle.
    """
    spec = inputs.spec
    out = BatchRun()
    first: dict = {}
    oracle = []
    pick = _rng(seed, 900)
    worst = np.zeros((spec.operand_sets, spec.batch))
    if min_calls is None:
        min_calls = spec.pairs
    start = perf_counter()
    i = 0
    while i < min_calls or perf_counter() - start < seconds:
        p = i % spec.pairs
        a0, b0 = inputs.pair(p)
        a, b = a0.copy(), b0.copy()
        t0 = perf_counter()
        try:
            result = batch_call(spec, a, b)
        except Exception:      # a raised call is a counted failure
            out.call_s.append(perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            out.tally.add(spec.batch, spec.batch, "raised")
            i += 1
            continue
        out.call_s.append(perf_counter() - t0)
        piv, info = np.asarray(result[0]), np.asarray(result[1])
        if len(result) > 2:
            for key in REPORT_COUNTS:
                out.layer_counts[key] = (out.layer_counts.get(key, 0)
                                         + getattr(result[2], key))
        resid = scaled_residuals(a0, b, b0, spec.kl, spec.ku)
        bad = (info != 0) | ~(resid <= RESIDUAL_TOL)
        if p in first:
            piv1, x1 = first[p]
            bad |= ((piv1 != piv).any(axis=1)
                    | (x1 != b.view(np.uint64)).any(axis=(1, 2)))
        else:
            first[p] = (piv, b.view(np.uint64).copy())
            lanes = pick.choice(spec.batch, size=min(ORACLE_LANES,
                                                     spec.batch),
                                replace=False)
            oracle += [(a0[k], b0[k], spec.kl, spec.ku, b[k].copy(),
                        piv[k].copy()) for k in lanes]
            m = p % spec.operand_sets
            worst[m] = np.maximum(worst[m], resid)
        out.tally.add(spec.batch, int(bad.sum()), "info-residual-or-repeat")
        out.lanes += spec.batch
        i += 1
    # Spread the oracle sample over every pair that ran.
    keep = pick.choice(len(oracle), size=min(ORACLE_LANES, len(oracle)),
                       replace=False) if oracle else []
    out.tally.fail(oracle_mismatches(oracle[k] for k in keep),
                   "lapack-mismatch")
    out.residual = residual_summary(worst.ravel())
    return out


def warm_up_batch(inputs: BatchInputs) -> None:
    a0, b0 = inputs.pair(0)
    batch_call(inputs.spec, a0.copy(), b0.copy())


def lapack_batch_lanes(inputs: BatchInputs):
    """The lanes of the first operand pair, for the LAPACK baseline."""
    a0, b0 = inputs.pair(0)
    spec = inputs.spec
    return [(a0[k], b0[k], spec.kl, spec.ku) for k in range(spec.batch)]


# -- serve-mixed --------------------------------------------------------------

class VirtualClock:
    """Fast-forward clock: idle gaps are skipped, busy time is real.

    ``advance_to`` jumps to a future instant; between jumps the clock runs
    at ``perf_counter`` rate, so work the service does is charged in real
    time while waiting for the next arrival costs nothing.
    """

    def __init__(self):
        self._base = 0.0
        self._anchor = perf_counter()

    def __call__(self) -> float:
        return self._base + (perf_counter() - self._anchor)

    def advance_to(self, t: float) -> None:
        now = self()
        if t > now:
            self._base += t - now


@dataclass
class ServeInputs:
    spec: ServeSpec
    ops: list           # (n, kl, ku, ab)
    paced: list         # (due_s, op index, b)
    backlog: list       # (0.0, op index, b)

    @property
    def nbytes(self) -> int:
        return (sum(op[3].nbytes for op in self.ops)
                + sum(r[2].nbytes for r in self.paced + self.backlog))


def make_serve_inputs(spec: ServeSpec, seed: int) -> ServeInputs:
    """The request stream, stratified so seeds vary values and order but
    not the load: each phase has exactly ``fresh_share`` fresh operators
    spread evenly over the shapes, recurring operators drawn evenly, and
    paced arrivals whose exponential gaps are rescaled to span exactly
    ``paced / rate`` seconds."""
    rng = _rng(seed, 2)
    ops: list = []

    def new_op(shape: int) -> int:
        n, kl, ku = spec.shapes[shape]
        ops.append((n, kl, ku, random_band(n, kl, ku, seed=rng)))
        return len(ops) - 1

    for k in range(spec.recurring):
        new_op(k % len(spec.shapes))

    def phase(count: int) -> list:
        fresh = round(count * spec.fresh_share)
        picks = [("fresh", k % len(spec.shapes)) for k in range(fresh)]
        picks += [("recurring", k % spec.recurring)
                  for k in range(count - fresh)]
        out = []
        for kind, k in (picks[i] for i in rng.permutation(count)):
            op = new_op(k) if kind == "fresh" else k
            out.append((op, random_rhs(ops[op][0], 1, seed=rng)[:, 0]))
        return out

    gaps = rng.exponential(1.0, spec.paced)
    dues = np.cumsum(gaps) * (spec.paced / spec.rate) / gaps.sum()
    paced = [(float(t),) + req for t, req in zip(dues, phase(spec.paced))]
    backlog = [(0.0,) + req for req in phase(spec.backlog)]
    return ServeInputs(spec, ops, paced, backlog)


@dataclass
class PhaseResult:
    latency_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    dispatch_s: list = field(default_factory=list)
    makespan_s: float = 0.0
    completed: int = 0
    due_of: dict = field(default_factory=dict)     # id(handle) -> due


@dataclass
class ServeRound:
    paced: PhaseResult
    backlog: PhaseResult
    report: object
    wall_s: float
    tally: Tally
    residual: tuple         # (p90, max)
    oracle: list


def _drive(svc, clock, ops, schedule, tick: float,
           handles: list) -> PhaseResult:
    """Send ``schedule`` open-loop; ticks of ``tick`` virtual seconds
    call ``poll()`` (the thread-free stand-in for the background poller).
    Requests are timed from when they were due."""
    res = PhaseResult()
    t0 = clock()
    next_tick = tick
    dues = []
    first = len(handles)

    def timed(fn, *args, adds=0):
        before = svc.pending + adds
        s = perf_counter()
        out = fn(*args)
        took = perf_counter() - s
        if svc.pending < before:        # the call dispatched a flush
            res.dispatch_s.append(took)
        return out

    def tick_until(limit):
        nonlocal next_tick
        while next_tick < limit:
            clock.advance_to(t0 + next_tick)
            timed(svc.poll)
            now = clock() - t0
            next_tick = max(next_tick + tick,
                            (math.floor(now / tick) + 1) * tick)

    for due, k, b in schedule:
        tick_until(due)
        clock.advance_to(t0 + due)
        res.late_s.append(clock() - (t0 + due))
        n, kl, ku, ab = ops[k]
        handle = timed(svc.submit, kl, ku, ab, b, adds=1)
        handles.append((handle, k, b))
        dues.append(t0 + due)
        res.due_of[id(handle)] = t0 + due
    while svc.pending:
        tick_until(next_tick + tick)
    phase = handles[first:]
    done = [h for h, _, _ in phase if h.done and not h.shed]
    res.latency_s = [h.completed_at - d for (h, _, _), d in zip(phase, dues)
                     if h.done and not h.shed]
    res.completed = len(done)
    if done:
        res.makespan_s = max(h.completed_at for h in done) - t0
    return res


def _check_handles(ops, handles, tally: Tally) -> np.ndarray:
    """Check every request's solution; returns the scaled residuals in
    submission order (``inf`` for a request that failed)."""
    resid = np.full(len(handles), np.inf)
    groups: dict = {}
    for j, (h, k, b) in enumerate(handles):
        if not h.done or h.shed:
            tally.add(1, 1, "shed")
        elif h.info != 0:
            tally.add(1, 1, "residual-or-info")
        else:
            groups.setdefault(ops[k][:3], []).append(j)
    for (n, kl, ku), idx in groups.items():
        ab = np.stack([ops[handles[j][1]][3] for j in idx])
        b = np.stack([handles[j][2] for j in idx])[:, :, None]
        x = np.stack([np.asarray(handles[j][0].solution).reshape(n)
                      for j in idx])[:, :, None]
        r = scaled_residuals(ab, x, b, kl, ku)
        tally.add(len(idx), int((~(r <= RESIDUAL_TOL)).sum()),
                  "residual-or-info")
        resid[idx] = r
    return resid


def serve_round(inputs: ServeInputs, *, warmup: bool = False,
                seed: int = 0) -> ServeRound:
    """One paced phase then one backlog phase on a fresh service."""
    spec = inputs.spec
    paced, backlog = inputs.paced, inputs.backlog
    if warmup:
        paced, backlog = paced[:spec.warmup], backlog[:spec.warmup]
    clock = VirtualClock()
    handles: list = []
    tally = Tally()
    start = perf_counter()
    svc = SolverService(policy=BatchingPolicy(max_group=spec.max_group,
                                              max_delay=spec.max_delay),
                        cache_entries=spec.cache_entries, clock=clock)
    oracle = []
    with svc:
        p = _drive(svc, clock, inputs.ops, paced, spec.max_delay, handles)
        q = _drive(svc, clock, inputs.ops, backlog, spec.max_delay, handles)
        report = svc.report()
        wall = perf_counter() - start
        if not warmup:
            oracle = _oracle_sample(svc, inputs, handles, seed)
    resid = _check_handles(inputs.ops, handles, tally)
    worst = np.zeros(len(inputs.ops))
    for r, (_, k, _) in zip(resid, handles):
        worst[k] = max(worst[k], r)
    return ServeRound(p, q, report, wall, tally, residual_summary(worst),
                      oracle)


def _oracle_sample(svc, inputs: ServeInputs, handles, seed: int) -> list:
    """Seeded request sample with the cached pivots of its operator, when
    the factor cache still holds them (``None`` otherwise)."""
    pick = _rng(seed, 901)
    cases = []
    for j in pick.choice(len(handles), size=min(ORACLE_LANES, len(handles)),
                         replace=False):
        h, k, b = handles[j]
        if not h.done or h.shed:
            continue
        n, kl, ku, ab = inputs.ops[k]
        entry = svc.cache.lookup(operand_digest(kl, ku, ab))
        piv = None if entry is None else np.array(entry.pivots)
        cases.append((ab, b, kl, ku, np.array(h.solution), piv))
    return cases


def lapack_serve_lanes(inputs: ServeInputs):
    return [(inputs.ops[k][3], b, inputs.ops[k][1], inputs.ops[k][2])
            for _, k, b in inputs.paced + inputs.backlog]


@dataclass
class ServeRun:
    rounds: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)


def run_serve(inputs: ServeInputs, seconds: float, *, min_rounds: int = 1,
              seed: int = 0) -> ServeRun:
    """Replay the request stream, one fresh service per round, for
    ``seconds``.  Each round's solutions are checked; a seeded sample of
    the first round goes to the LAPACK oracle."""
    out = ServeRun()
    start = perf_counter()
    tries = 0
    while tries < min_rounds or perf_counter() - start < seconds:
        tries += 1
        try:
            rnd = serve_round(inputs, seed=seed)
        except Exception:      # a raised round fails all its requests
            traceback.print_exc(file=sys.stderr)
            n = len(inputs.paced) + len(inputs.backlog)
            out.tally.add(n, n, "raised")
            continue
        out.tally.merge(rnd.tally)
        if not out.rounds:
            out.tally.fail(oracle_mismatches(rnd.oracle), "lapack-mismatch")
        rnd.oracle = []
        out.rounds.append(rnd)
    return out
