"""Tests for the benchmark itself.

    python -m pytest perfbench -q

The smoke tests run every workload at tiny sizes through the real command
line, with tracing off and on, and check that every metric named in
BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, timeout=170):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    return proc


def _flip(value: float, bit: int) -> float:
    raw = np.array([value]).view(np.uint64)
    raw ^= np.uint64(1) << np.uint64(bit)
    return float(raw.view(np.float64)[0])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert np.isfinite(got["value"]), m["name"]
    details = json.loads(lines[-2])
    assert details["host"]["nproc"] >= 1
    if trace:
        assert details["details"]["stale_references"] == []
    else:
        for m in want:
            assert result["metrics"][m["name"]]["value"] != 0, m["name"]


def test_fails_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anchor-gbsv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_bit_flipped_solution_counts_in_error_rate(monkeypatch):
    spec = workloads.SMOKE_SPECS["anchor-gbsv"]
    inputs = workloads.make_batch_inputs(spec, 3)
    real = workloads.batch_call

    def corrupting(spec_, a, b):
        out = real(spec_, a, b)
        b[2, 5, 0] = _flip(b[2, 5, 0], 51)      # top mantissa bit
        return out

    monkeypatch.setattr(workloads, "batch_call", corrupting)
    run = workloads.run_batch(inputs, 0.0, min_calls=2, seed=3)
    assert run.tally.failed >= 2
    assert run.tally.error_rate > 0


def test_oracle_flags_flipped_solution_and_pivots():
    spec = workloads.SMOKE_SPECS["anchor-gbsv"]
    inputs = workloads.make_batch_inputs(spec, 4)
    a0, b0 = inputs.pair(0)
    a, b = a0.copy(), b0.copy()
    piv, info = workloads.batch_call(spec, a, b)
    cases = [(a0[k], b0[k], spec.kl, spec.ku, b[k].copy(), piv[k].copy())
             for k in range(spec.batch)]
    assert checks.oracle_mismatches(cases) == 0
    x = b[0].copy()
    x[3, 0] = _flip(x[3, 0], 51)
    assert checks.oracle_mismatches(
        [(a0[0], b0[0], spec.kl, spec.ku, x, piv[0])]) == 1
    wrong = piv[0].copy()
    wrong[0] += 1
    assert checks.oracle_mismatches(
        [(a0[0], b0[0], spec.kl, spec.ku, b[0], wrong)]) == 1


def test_inputs_come_from_the_seed_alone():
    for name, spec in workloads.SMOKE_SPECS.items():
        make = (workloads.make_serve_inputs
                if isinstance(spec, workloads.ServeSpec)
                else workloads.make_batch_inputs)
        one, same, other = make(spec, 11), make(spec, 11), make(spec, 12)

        def arrays(inp):
            if isinstance(inp, workloads.ServeInputs):
                return ([op[3] for op in inp.ops]
                        + [np.array([r[0] for r in inp.paced])]
                        + [r[2] for r in inp.paced + inp.backlog])
            return inp.mats + inp.rhs

        assert all(np.array_equal(x, y)
                   for x, y in zip(arrays(one), arrays(same))), name
        assert not all(np.array_equal(x, y) for x, y in
                       zip(arrays(one), arrays(other))), name


def test_self_time_subtracts_children_on_any_thread():
    S = tracing
    spans = [
        [1, "outer", "a", 0.0, 10.0, None, 1, None],
        [2, "child", "b", 1.0, 4.0, 1, 1, None],
        [3, "worker", "b", 2.0, 6.0, 1, 2, None],     # overlaps child
        [4, "leaf", "c", 2.5, 3.0, 3, 2, None],
    ]
    selfs = S.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)      # children cover [1, 6]
    # child and worker overlap on [2, 2.5] and [3, 4]; the leaf and the
    # child on [2.5, 3]: those instants are shared between the two threads.
    assert selfs[2] == pytest.approx(1.0 + 0.25 + 0.25 + 0.5)
    assert selfs[3] == pytest.approx(0.25 + 0.5 + 2.0)
    assert selfs[4] == pytest.approx(0.25)
    assert sum(selfs.values()) == pytest.approx(10.0)
    totals = S.layer_totals(spans)
    assert totals["layers"]["b"]["calls"] == 2


def test_traced_run_rebinds_every_import_site_and_threads():
    code = """
import sys, json, threading
sys.path[:0] = [{here!r}, {src!r}]
import tracing
tracer = tracing.Tracer()
info = tracing.install(tracer)
from repro import gbsv_batch, random_band_batch, random_rhs
sites = [sys.modules["repro.core." + m].rank_one_update_batched
         for m in ("gbtf2", "gbtrf_window", "gbsv_fused")]
a = random_band_batch(8, 24, 2, 2, seed=1)
b = random_rhs(24, 1, batch=8, seed=2)
gbsv_batch(24, 2, 2, 1, a, None, b, devices=2, chunk_hint=2, streams=2)
by_id = {{s[0]: s for s in tracer.spans}}
main = threading.get_ident()
def reaches_pipeline(s):
    while s is not None:
        if s[1].endswith("execute_pipelined"):
            return True
        s = by_id.get(s[5])
    return False
workers = [s for s in tracer.spans if s[6] != main]
print(json.dumps({{
    "stale": info["stale"],
    "wrapped": all(hasattr(x, "__perfbench_original__") for x in sites),
    "workers": len(workers),
    "attributed": all(reaches_pipeline(s) for s in workers),
}}))
""".format(here=str(HERE), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["stale"] == []
    assert out["wrapped"]
    assert out["workers"] > 0 and out["attributed"]


def test_tail_percentile_keeps_ten_samples_beyond():
    import run
    assert run.tail_percentile(15) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
