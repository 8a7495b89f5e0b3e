"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload anchor-gbsv --seed 2023 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  ``--trace 0`` times the workload with no
instrumentation and prints the end-to-end metrics; ``--trace 1`` times a
short untraced baseline, then starts a second process that wraps every
layer module (``tracing.py``) and prints the per-layer metrics.  The last
line of standard output is the result object; the line before it holds
host facts and sample counts.  ``--smoke`` shrinks every workload for the
benchmark's own tests.

The default seed is 2023; seed 7919 is held out for rechecking a claimed
gain on inputs nobody tuned against (see README.md).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 2023
HELD_OUT_SEED = 7919

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Seconds the traced process may take before it is stopped.
CHILD_TIMEOUT_S = 150
#: Standard percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("anchor-gbsv", "stack-small", "serve-mixed"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--traced-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail_percentile(samples: int) -> float:
    """Highest standard percentile with at least ``TAIL_BEYOND`` samples
    beyond it; the median when the sample is too small for any."""
    for p in TAIL_PERCENTILES:
        if round(samples * (100.0 - p) / 100.0, 9) >= TAIL_BEYOND:
            return p
    return 50.0


def _pct(values, p: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), p))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


# -- set-up -------------------------------------------------------------------

def _setup(workload: str, seed: int, smoke: bool):
    """Tuning-table load, operand generation and the first warm-up call."""
    from repro import H100_PCIE
    from repro.tuning import load_shipped_table
    import workloads as wl
    spec = (wl.SMOKE_SPECS if smoke else wl.SPECS)[workload]
    load_shipped_table(H100_PCIE.name)
    if isinstance(spec, wl.ServeSpec):
        inputs = wl.make_serve_inputs(spec, seed)
        wl.serve_round(inputs, warmup=True)
    else:
        inputs = wl.make_batch_inputs(spec, seed)
        wl.warm_up_batch(inputs)
    return inputs


def _run(inputs, seconds: float, seed: int, traced: bool = False):
    """Time the workload.  The traced run and its untraced baseline need
    only a few units each: at least 3 calls, or exactly 2 serve rounds
    (a traced round records a few hundred thousand spans)."""
    import workloads as wl
    if isinstance(inputs, wl.ServeInputs):
        return wl.run_serve(inputs, 0.0 if traced else seconds, seed=seed,
                            min_rounds=2 if traced else 1)
    return wl.run_batch(inputs, seconds, seed=seed,
                        min_calls=3 if traced else None)


def _unit_walls(run) -> list:
    """Wall time of each unit of work: a call, or a serve round."""
    if hasattr(run, "rounds"):
        return [r.wall_s for r in run.rounds]
    return list(run.call_s)


# -- end-to-end (untraced) ----------------------------------------------------

def end_to_end(run, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one timed run, plus sample details.

    Every metric is reported on every workload.  On the batch workloads a
    call returns all its lanes at once, so lane latency is call time and
    capacity is lanes per second; on ``serve-mixed`` a "call" is a
    service call (``submit`` or ``poll``) that dispatched a flush.
    """
    if hasattr(run, "rounds"):
        lat = [t for r in run.rounds for t in r.paced.latency_s]
        calls = [t for r in run.rounds for t in r.paced.dispatch_s
                 + r.backlog.dispatch_s]
        done = sum(r.paced.completed + r.backlog.completed
                   for r in run.rounds)
        lanes_per_s = done / sum(r.wall_s for r in run.rounds)
        capacity = statistics.median(
            r.backlog.completed / r.backlog.makespan_s for r in run.rounds)
        residual = run.rounds[0].residual     # the same every round
        lat_p = 99.0 if len(lat) * 0.01 >= TAIL_BEYOND \
            else tail_percentile(len(lat))
        latency = (_pct(lat, 50) * 1e3, _pct(lat, lat_p) * 1e3)
        units = len(run.rounds)
    else:
        calls = run.call_s
        lanes_per_s = run.lanes / sum(run.call_s)
        capacity = lanes_per_s
        residual = run.residual
        lat, lat_p = calls, tail_percentile(len(calls))
        latency = (_pct(calls, 50) * 1e3, _pct(calls, lat_p) * 1e3)
        units = len(calls)
    call_p = tail_percentile(len(calls))
    metrics = {
        "lanes_per_s": _metric(lanes_per_s, "1/s"),
        "call_p50_ms": _metric(_pct(calls, 50) * 1e3, "ms"),
        "call_tail_ms": _metric(_pct(calls, call_p) * 1e3, "ms"),
        "latency_p50_ms": _metric(latency[0], "ms"),
        "latency_p99_ms": _metric(latency[1], "ms"),
        "serve_capacity_rps": _metric(capacity, "1/s"),
        "success_rate": _metric(1.0 - run.tally.error_rate, "ratio"),
        "residual_p90": _metric(residual[0], "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    details = {
        "units": units,
        "calls": len(calls),
        "call_tail_percentile": call_p,
        "latency_samples": len(lat),
        "latency_tail_percentile": lat_p,
        "residual_max": residual[1],
    }
    return metrics, details


# -- per-layer (traced) -------------------------------------------------------

def _lapack_lanes_per_s(inputs, repeats: int = 5) -> float:
    """Plain single-threaded LAPACK ``dgbsv``, one lane at a time."""
    from scipy.linalg import lapack
    import workloads as wl
    lanes = (wl.lapack_serve_lanes(inputs)
             if isinstance(inputs, wl.ServeInputs)
             else wl.lapack_batch_lanes(inputs))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for ab, b, kl, ku in lanes:
            lapack.dgbsv(kl, ku, ab, b.reshape(ab.shape[1], -1))
        times.append(perf_counter() - t0)
    return len(lanes) / statistics.median(times)


def _flops_per_config(inputs, sample: int = 4) -> dict:
    """Mean factorization flops per lane for each ``(n, kl, ku)``,
    computed by ``repro.core.opcount`` on a few lanes of the inputs."""
    from repro.core.opcount import gbtrf_opcount
    import workloads as wl
    if isinstance(inputs, wl.ServeInputs):
        by_cfg: dict = {}
        for n, kl, ku, ab in inputs.ops:
            by_cfg.setdefault((n, kl, ku), []).append(ab)
    else:
        s = inputs.spec
        by_cfg = {(s.n, s.kl, s.ku): list(inputs.mats[0][:sample])}
    out = {}
    for (n, kl, ku), mats in by_cfg.items():
        counts = [gbtrf_opcount(n, n, kl, ku, ab.copy())[0].flops
                  for ab in mats[:sample]]
        out[f"{n},{kl},{ku}"] = statistics.fmean(counts)
    return out


def traced_child(args) -> int:
    """The traced run: wrap every layer, run the workload, print raw
    per-unit aggregates as one JSON line."""
    import tracing
    import workloads as wl
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    inputs = _setup(args.workload, args.seed, args.smoke)
    tracer.reset()
    run = _run(inputs, args.seconds, args.seed, traced=True)
    units = len(_unit_walls(run))
    totals = tracing.layer_totals(tracer.spans)
    counters = dict(tracer.counters)
    if isinstance(inputs, wl.BatchInputs):
        s = inputs.spec
        counters[f"factored:{s.n},{s.kl},{s.ku}"] = s.batch * units
    counts = getattr(run, "layer_counts", {})
    serve = {}
    if isinstance(inputs, wl.ServeInputs):
        serve = _serve_layer_numbers(run, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json.gz")
    print(json.dumps({
        "units": units,
        "unit_wall": _unit_walls(run),
        "layers": totals["layers"],
        "names": totals["names"],
        "self_total": totals["self_total"],
        "counters": counters,
        "retries": counts.get("retries", 0),
        "verified_lanes": counts.get("verified_lanes", 0),
        "recomputes": counts.get("recomputes", 0),
        "serve": serve,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "failures": run.tally.reasons,
        "wrapped": len(installed["wrapped"]),
        "stale": installed["stale"],
    }))
    return 0


def _serve_layer_numbers(run, tracer) -> dict:
    rounds = run.rounds
    due_of = {}
    for r in rounds:
        due_of.update(r.paced.due_of)
    waits = [clock_at - due_of[id(h)] for clock_at, taken in tracer.flushes
             for h in taken if id(h) in due_of]
    flushes = sum(1 for _, taken in tracer.flushes if taken)
    return {
        "flushes": flushes,
        "group_mean": statistics.fmean(r.report.mean_group_size
                                       for r in rounds),
        "hit_rate": statistics.fmean(r.report.hit_rate for r in rounds),
        "queue_wait_ms": (statistics.median(waits) * 1e3 if waits
                          else 0.0),
        "late_ms": statistics.fmean(t for r in rounds
                                    for t in r.paced.late_s) * 1e3,
    }


def per_layer(child: dict, untraced_walls: list, lapack_lps: float,
              flops: dict) -> dict:
    """Per-layer metrics per unit of work (a call, or a serve round)."""
    k = max(child["units"], 1)
    layers, names, c = child["layers"], child["names"], child["counters"]

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0) / k

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0) / k

    def name_s(*qualnames):
        return sum(names.get(q, 0.0) for q in qualnames) / k

    factored_flops = sum(v * flops.get(key.split(":", 1)[1], 0.0)
                         for key, v in c.items()
                         if key.startswith("factored:"))
    gbtf2_s = self_s("core.gbtf2")
    launches = c.get("launches", 0.0)
    serve = child["serve"]
    m = {
        "core.gbtf2.self_s": (gbtf2_s, "s"),
        "core.gbtf2.calls": (calls("core.gbtf2"), "count"),
        "core.gbtf2.gflops": (factored_flops / k / gbtf2_s / 1e9
                              if gbtf2_s > 0 else 0.0, "GFLOP/s"),
        "core.solve_blocks.self_s": (self_s("core.solve_blocks"), "s"),
        "core.solve_blocks.calls": (calls("core.solve_blocks"), "count"),
        "core.kernels.self_s": (self_s("core.kernels"), "s"),
        "core.drivers.self_s": (self_s("core.drivers"), "s"),
        "gpusim.kernel.self_s": (self_s("gpusim.kernel"), "s"),
        "gpusim.kernel.launches": (launches / k, "count"),
        "gpusim.kernel.vec_frac": (c.get("vec_launches", 0.0) / launches
                                   if launches else 0.0, "ratio"),
        "gpusim.kernel.pack_bytes": (c.get("pack_bytes", 0.0) / k, "B"),
        "gpusim.kernel.soa_bytes": (c.get("soa_bytes", 0.0) / k, "B"),
        "gpusim.transfer.self_s": (self_s("gpusim.transfer"), "s"),
        "gpusim.modeled_ms": (c.get("modeled_s", 0.0) / k * 1e3, "ms"),
        "gpusim.h2d_bytes": (c.get("h2d_bytes", 0.0) / k, "B"),
        "gpusim.d2h_bytes": (c.get("d2h_bytes", 0.0) / k, "B"),
        "core.batch_args.self_s": (self_s("core.batch_args"), "s"),
        "core.batch_args.calls": (calls("core.batch_args"), "count"),
        "core.memory_plan.self_s": (self_s("core.memory_plan"), "s"),
        "core.memory_plan.chunks": (c.get("chunks", 0.0) / k, "count"),
        "core.pipeline.self_s": (self_s("core.pipeline"), "s"),
        "core.pipeline.idle_s": (
            name_s("repro.core.pipeline.execute_pipelined"), "s"),
        "core.resilience.self_s": (self_s("core.resilience"), "s"),
        "core.resilience.retries": (child["retries"] / k, "count"),
        "core.verify.self_s": (self_s("core.verify"), "s"),
        "core.verify.gate_s": (name_s("repro.core.verify.band_mv_batch",
                                      "repro.core.verify.plu_apply_batch"),
                               "s"),
        "core.verify.lanes": (child["verified_lanes"] / k, "count"),
        "core.verify.recomputes": (child["recomputes"] / k, "count"),
        "core.batched.self_s": (self_s("core.batched"), "s"),
        "core.batched.buckets": (c.get("buckets", 0.0) / k, "count"),
        "serve.self_s": (self_s("serve"), "s"),
        "serve.submit_s": (
            name_s("repro.serve.service.SolverService.submit"), "s"),
        "serve.flush_s": (
            name_s("repro.serve.service.SolverService._flush_locked"), "s"),
        "serve.flushes": (serve.get("flushes", 0) / k, "count"),
        "serve.group_mean": (serve.get("group_mean", 0.0), "count"),
        "serve.queue_wait_ms": (serve.get("queue_wait_ms", 0.0), "ms"),
        "serve.cache.hit_rate": (serve.get("hit_rate", 0.0), "ratio"),
        "serve.cache.self_s": (self_s("serve.cache"), "s"),
        "serve.digest_s": (self_s("serve.digest"), "s"),
        "serve.generator_late_ms": (serve.get("late_ms", 0.0), "ms"),
        "host.lapack_lanes_per_s": (lapack_lps, "1/s"),
        "unattributed_s": ((sum(child["unit_wall"]) - child["self_total"])
                           / k, "s"),
        "trace_overhead": (statistics.median(child["unit_wall"])
                           / statistics.median(untraced_walls) - 1.0,
                           "ratio"),
    }
    return {name: _metric(v, unit) for name, (v, unit) in m.items()}


def _traced(args, inputs, tally) -> tuple[dict, dict]:
    half = args.seconds / 2.0
    untraced = _run(inputs, half, args.seed, traced=True)
    tally.merge(untraced.tally)
    lapack_lps = _lapack_lanes_per_s(inputs)
    flops = _flops_per_config(inputs)
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(half), "--trace", "1", "--traced-child"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed with code {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.add(child["attempted"])
    for reason, count in child["failures"].items():
        tally.fail(count, reason)
    if child["stale"]:
        tally.fail(1, "trace-stale-references")
    metrics = per_layer(child, _unit_walls(untraced), lapack_lps, flops)
    details = {"units_untraced": len(_unit_walls(untraced)),
               "units_traced": child["units"],
               "wrapped_functions": child["wrapped"],
               "stale_references": child["stale"]}
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import hostfacts
    hostfacts.pin_thread_pools()
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg.lapack  # noqa: F401
    import repro
    import workloads  # noqa: F401
    import_s = perf_counter() - t0
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    if args.traced_child:
        return traced_child(args)

    from checks import Tally
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        inputs = None
        s = perf_counter()
        inputs = _setup(args.workload, args.seed, args.smoke)
        setups.append(perf_counter() - s)
    setup_s = import_s + statistics.median(setups)
    facts = hostfacts.host_facts(ROOT, inputs.nbytes)
    tally = Tally()
    if args.trace:
        metrics, details = _traced(args, inputs, tally)
    else:
        run = _run(inputs, args.seconds, args.seed)
        tally.merge(run.tally)
        metrics, details = end_to_end(run, setup_s)
    details.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   setup_runs_s=setups, import_s=import_s,
                   error_rate=tally.error_rate, failures=tally.reasons)
    print(json.dumps({"host": facts, "details": details}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
