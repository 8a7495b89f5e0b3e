"""The execution chain: every knob combination runs the same lanes.

Each batched driver validates its knobs once, normalizes its operands once
and runs one chain (verify -> layout -> govern -> resilient -> launch).
These tests pin what the chain promises:

* the full cross-knob grid of ``layout``, ``chunk_hint``, ``resilient``,
  ``verify`` and ``devices`` produces factors, pivots and solutions
  byte-identical to the plain per-block (``vectorize=False``) call, with
  the return tuple the driver docstrings give;
* a default call normalizes its operands once, not once per layer;
* a verified or resilient call copies each lane's inputs once, however
  many layers rewind from that copy, and a plain call copies nothing;
* a call leaves no reference cycles behind (the pristine copy of its
  inputs is freed when the call returns, not at the next garbage
  collection), and no lease on any device pool.
"""

from __future__ import annotations

import gc
import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from repro import gbsv_batch, gbtrf_batch, gbtrs_batch
from repro.band.generate import random_band_batch, random_rhs
from repro.core import batch_args
from repro.core.batched import gbsv_vbatch
from repro.core.chain import BatchOp
from repro.core.resilience import BatchReport, ResiliencePolicy
from repro.gpusim import H100_PCIE, FaultPlan, fault_injection
from repro.gpusim.memory import _POOLS
from repro.gpusim.multidevice import replicate_device

BATCH, N, KL, KU, NRHS = 7, 24, 2, 3, 2

GRID = list(itertools.product(
    [None, "soa"],          # layout
    [None, 3],              # chunk_hint
    [False, True],          # resilient
    [None, "cheap"],        # verify
    [None, 2],              # devices
))
KNOBS = "layout,chunk_hint,resilient,verify,devices"


def _problem():
    a = random_band_batch(BATCH, N, KL, KU, seed=2023)
    b = random_rhs(N, NRHS, batch=BATCH, seed=2024)
    return a, b


def _same(*pairs):
    for got, ref in pairs:
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _split(out, plain_len, with_report):
    """Check the return shape; return the plain part."""
    assert isinstance(out, tuple)
    assert len(out) == plain_len + with_report
    if with_report:
        assert isinstance(out[-1], BatchReport)
    return out[:plain_len]


@pytest.fixture(scope="module")
def reference():
    """Plain per-block results every knob combination must reproduce."""
    a, b = _problem()
    fact = a.copy()
    piv, info = gbtrf_batch(N, N, KL, KU, fact, vectorize=False)
    x = b.copy()
    gbtrs_batch("N", N, KL, KU, NRHS, fact, piv, x, vectorize=False)
    a_sv, x_sv = a.copy(), b.copy()
    piv_sv, info_sv = gbsv_batch(N, KL, KU, NRHS, a_sv, None, x_sv,
                                 vectorize=False)
    return dict(fact=fact, piv=np.stack(piv), info=info, x=x,
                fact_sv=a_sv, piv_sv=np.stack(piv_sv), info_sv=info_sv,
                x_sv=x_sv)


@pytest.mark.parametrize(KNOBS, GRID)
def test_gbtrf_grid(reference, layout, chunk_hint, resilient, verify,
                    devices):
    a, _ = _problem()
    out = gbtrf_batch(N, N, KL, KU, a, layout=layout, chunk_hint=chunk_hint,
                      resilient=resilient, verify=verify, devices=devices)
    piv, info = _split(out, 2, resilient or verify is not None)
    _same((a, reference["fact"]), (np.stack(piv), reference["piv"]),
          (info, reference["info"]))


@pytest.mark.parametrize(KNOBS, GRID)
def test_gbtrs_grid(reference, layout, chunk_hint, resilient, verify,
                    devices):
    _, b = _problem()
    fact = reference["fact"].copy()
    out = gbtrs_batch("N", N, KL, KU, NRHS, fact, list(reference["piv"]), b,
                      layout=layout, chunk_hint=chunk_hint,
                      resilient=resilient, verify=verify, devices=devices)
    if resilient or verify is not None:
        (info,) = _split(out, 1, True)
    else:
        info = out
        assert isinstance(info, np.ndarray)
    _same((b, reference["x"]), (fact, reference["fact"]),
          (info, np.zeros(BATCH, dtype=np.int64)))


@pytest.mark.parametrize(KNOBS, GRID)
def test_gbsv_grid(reference, layout, chunk_hint, resilient, verify,
                   devices):
    a, b = _problem()
    out = gbsv_batch(N, KL, KU, NRHS, a, None, b, layout=layout,
                     chunk_hint=chunk_hint, resilient=resilient,
                     verify=verify, devices=devices)
    piv, info = _split(out, 2, resilient or verify is not None)
    _same((a, reference["fact_sv"]), (b, reference["x_sv"]),
          (np.stack(piv), reference["piv_sv"]), (info, reference["info_sv"]))


def test_default_gbsv_normalizes_operands_once(monkeypatch):
    """Every normalization helper runs once per call, wherever the package
    imported it — not once per layer the call passes through."""
    names = ("as_matrix_list", "check_gb_args", "ensure_pivots",
             "as_rhs_list", "ensure_info")
    counts = Counter()
    for name in names:
        original = getattr(batch_args, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counting)
    a = random_band_batch(16, 64, 4, 4, seed=7)
    b = random_rhs(64, 1, batch=16, seed=8)
    _, info = gbsv_batch(64, 4, 4, 1, a, None, b)
    assert (info == 0).all()
    assert counts == Counter({name: 1 for name in names})


#: Knob sets for the copy count: every copy consumer (verify gate,
#: failover shard loop, hedging, resilience) with and without the others.
COPY_KNOBS = {
    "plain": dict(),
    "verify": dict(verify="cheap"),
    "resilient": dict(resilient=True),
    "stack-small": dict(layout="soa", verify="cheap", resilient=True,
                        chunk_hint=3, devices=2, streams=2),
    "two-replicas": dict(devices=2, resilient=True, chunk_hint=2),
}


def _count_captured_lanes(monkeypatch) -> list:
    """Record the lanes each call of ``BatchOp.capture`` copies (a call on
    an op that already carries a copy copies nothing)."""
    copied = []
    original = BatchOp.capture

    def counting(self):
        if self.pristine is None:
            copied.append(self.batch)
        return original(self)

    monkeypatch.setattr(BatchOp, "capture", counting)
    return copied


@pytest.mark.parametrize("op", ["gbtrf", "gbtrs", "gbsv"])
@pytest.mark.parametrize("knobs", COPY_KNOBS.values(), ids=COPY_KNOBS)
def test_each_lane_is_copied_at_most_once(reference, monkeypatch, op,
                                          knobs):
    copied = _count_captured_lanes(monkeypatch)
    a, b = _problem()
    if op == "gbtrf":
        gbtrf_batch(N, N, KL, KU, a, **knobs)
    elif op == "gbtrs":
        gbtrs_batch("N", N, KL, KU, NRHS, reference["fact"].copy(),
                    list(reference["piv"]), b, **knobs)
    else:
        gbsv_batch(N, KL, KU, NRHS, a, None, b, **knobs)
    rewinds = knobs.get("resilient") or "verify" in knobs
    assert sum(copied) == (BATCH if rewinds else 0)


def test_hedged_call_copies_each_lane_once(monkeypatch):
    """A straggler's hedge replays from the chunk's copy, not a new one."""
    devs = replicate_device(H100_PCIE, 2)
    copied = _count_captured_lanes(monkeypatch)
    a, b = _problem()
    # An un-watched hang inflates one chunk far past the median.
    with fault_injection(devs[0], FaultPlan(seed=5, hang_launches=1,
                                            hang_seconds=10.0)):
        *_, report = gbsv_batch(N, KL, KU, NRHS, a, None, b, devices=devs,
                                resilient=True, chunk_hint=2,
                                policy=ResiliencePolicy(hedge_ratio=1.5))
    assert report.hedges >= 1
    assert sum(copied) == BATCH


def test_resilient_vbatch_copies_each_lane_once(monkeypatch):
    copied = _count_captured_lanes(monkeypatch)
    ns = [16, 24, 16, 24, 24]
    a = [random_band_batch(1, n, 2, 2, seed=k)[0] for k, n in enumerate(ns)]
    b = [random_rhs(n, 1, seed=10 + k) for k, n in enumerate(ns)]
    *_, report = gbsv_vbatch(ns, [2] * 5, [2] * 5, [1] * 5, a, b,
                             resilient=True)
    assert report.ok
    assert sum(copied) == len(ns)


@pytest.mark.parametrize("knobs", [
    dict(), dict(verify="cheap"), dict(resilient=True),
    dict(layout="soa", chunk_hint=3, resilient=True, verify="full"),
    dict(devices=2, resilient=True, verify="cheap"),
], ids=["plain", "verify", "resilient", "all-sequential", "all-sharded"])
def test_call_leaves_no_reference_cycles(reference, knobs):
    a, b = _problem()
    fact, piv = reference["fact"].copy(), list(reference["piv"])
    gc.collect()
    gc.disable()
    try:
        gbsv_batch(N, KL, KU, NRHS, a, None, b.copy(), **knobs)
        gbtrf_batch(N, N, KL, KU, a.copy(), **knobs)
        gbtrs_batch("N", N, KL, KU, NRHS, fact, piv, b, **knobs)
        assert gc.collect() == 0
    finally:
        gc.enable()
    # Nor any device residency: every pool the calls touched is empty.
    assert _POOLS
    for pool in _POOLS.values():
        assert pool.in_use == 0
        assert pool.in_use_by_label == {}
