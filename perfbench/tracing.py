"""Span tracing for the benchmark's traced run, installed from outside.

The program's source is not touched.  :func:`install` wraps the public
functions of each layer module (plus the few private entry points a
per-layer metric needs), then rebinds every reference to a wrapped
function that the ``repro`` package holds: module globals (so a name
imported into several modules — ``rank_one_update_batched`` lives in
``core.gbtf2`` and is bound again in ``core.gbtrf_window`` and
``core.gbsv_fused`` — is traced at every call site), module-level
containers, closure cells and default arguments.  Kernel body methods are
wrapped on their classes.

Each call records a span: name, layer, start, end, parent span, thread and
request id.  The span stack is kept per thread; a thread started while a
span is open (the pipeline's per-device shard workers) takes that span as
the parent of its own root spans, so concurrent shards attribute to the
call that spawned them.  Spans stay in memory until :meth:`Tracer.dump`.

Only the traced run imports this module; the timed runs never carry
wrappers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Span fields.
SID, NAME, LAYER, T0, T1, PARENT, TID, RID = range(8)

# Layer -> (module, names).  ``None`` takes the module's ``__all__``
# functions.  Private names are listed where a per-layer metric needs the
# function itself (the service flush, the vbatch bucketing, the shard
# worker body).
FUNCTION_LAYERS = (
    ("core.gbtf2", "repro.core.gbtf2", None),
    ("core.solve_blocks", "repro.core.solve_blocks", None),
    ("gpusim.kernel", "repro.gpusim.kernel", None),
    ("gpusim.transfer", "repro.gpusim.transfer", None),
    ("core.batch_args", "repro.core.batch_args", None),
    ("core.memory_plan", "repro.core.memory_plan", None),
    ("core.pipeline", "repro.core.pipeline", None),
    ("core.pipeline", "repro.core.pipeline", ("_run_shard",)),
    ("core.resilience", "repro.core.resilience", None),
    ("core.verify", "repro.core.verify", None),
    ("core.batched", "repro.core.batched", None),
    ("core.batched", "repro.core.batched", ("_group_indices",)),
    ("core.drivers", "repro.core.gbsv", None),
    ("core.drivers", "repro.core.gbtrf", None),
    ("core.drivers", "repro.core.gbtrs", None),
    ("core.kernels", "repro.core.gbtrf_window", None),
    ("core.kernels", "repro.core.gbtrf_fused", None),
    ("core.kernels", "repro.core.gbtrs_blocked", None),
    ("core.kernels", "repro.core.gbtrf_reference", None),
    ("core.kernels", "repro.core.gbtrs_reference", None),
    ("core.kernels", "repro.core.gbtrf_vbatch_kernel", None),
    ("serve.digest", "repro.serve.cache", None),
)

# Layer -> (module, class, method names).
METHOD_LAYERS = (
    ("serve", "repro.serve.service", "SolverService",
     ("submit", "poll", "flush", "solve", "report", "invalidate", "close",
      "_flush_locked")),
    ("serve.cache", "repro.serve.cache", "FactorCache",
     ("lookup", "insert", "ensure_headroom", "invalidate", "close")),
    ("serve.cache", "repro.serve.cache", "CacheEntry",
     ("verify_integrity",)),
)

NO_HOOKS = (None, None)

# Kernel body methods, wrapped on every Kernel subclass that defines them.
KERNEL_BODY_LAYER = "core.kernels"
KERNEL_BODY_METHODS = ("run_block", "run_batch_vectorized")


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.flushes: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            base = getattr(threading.current_thread(), "_perfbench_parent",
                           None)
            stack = self._local.stack = [base]
        return stack

    def current(self):
        """Id of the innermost open span on this thread (or None)."""
        return self._stack()[-1]

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    def reset(self) -> None:
        """Drop recorded spans and counters (after the warm-up)."""
        self.spans = []
        self.counters = defaultdict(float)
        self.flushes = []

    def wrap(self, fn, name: str, layer: str, hooks=None):
        """``fn`` recording a span per call; ``hooks`` are a
        ``before(tracer, span, args, kwargs)`` and an ``after(tracer,
        span, args, result)`` counter callback, run outside the span's
        timing."""
        tracer = self
        before, after = hooks or NO_HOOKS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            span = [sid, name, layer, 0.0, 0.0, stack[-1],
                    threading.get_ident(), None]
            stack.append(sid)
            if before:
                before(tracer, span, args, kwargs)
            span[T0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after:
                after(tracer, span, args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def dump(self, path) -> None:
        """Write every recorded span as gzipped JSON (a list per span)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["id", "name", "layer", "start", "end",
                                  "parent", "thread", "request"],
                       "spans": self.spans}, fh)


# -- counter hooks ----------------------------------------------------------

def _after_launch(tracer, span, args, record):
    tracer.count("launches")
    tracer.count("vec_launches", 1.0 if record.vectorized else 0.0)
    tracer.count("pack_bytes", record.pack_bytes)
    tracer.count("soa_bytes", record.soa_bytes)
    tracer.count("modeled_s", record.time)


def _after_transfer(tracer, span, args, result):
    rec = result[1] if isinstance(result, tuple) else result
    direction = "d2h" if rec.kernel_name.endswith("d2h") else "h2d"
    tracer.count(f"{direction}_bytes", rec.nbytes)
    tracer.count("modeled_s", rec.time)


def _after_plan(tracer, span, args, plan):
    tracer.count("chunks", plan.num_chunks)


def _after_group(tracer, span, args, groups):
    tracer.count("buckets", len(groups))


def _after_submit(tracer, span, args, handle):
    span[RID] = handle.seq


def _before_vbatch(tracer, span, args, kwargs):
    for n, kl, ku in zip(args[1], args[2], args[3]):
        tracer.count(f"factored:{n},{kl},{ku}")


def _before_flush(tracer, span, args, kwargs):
    svc = args[0]
    taken = [req.handle for req in svc._pending]
    span[RID] = [h.seq for h in taken]
    tracer.flushes.append((svc._clock(), taken))


# Qualified name -> (before, after) counter hooks.
HOOKS = {
    "repro.gpusim.kernel.launch": (None, _after_launch),
    "repro.gpusim.transfer.memcpy_h2d": (None, _after_transfer),
    "repro.gpusim.transfer.memcpy_d2h": (None, _after_transfer),
    "repro.gpusim.transfer.stage_chunk": (None, _after_transfer),
    "repro.core.memory_plan.plan_batch": (None, _after_plan),
    "repro.core.batched._group_indices": (None, _after_group),
    "repro.core.batched.gbtrf_vbatch": (_before_vbatch, None),
    "repro.serve.service.SolverService.submit": (None, _after_submit),
    "repro.serve.service.SolverService._flush_locked": (_before_flush, None),
}


# -- installation -----------------------------------------------------------

def _repro_modules() -> list:
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


def _module_functions(mod, names):
    if names is None:
        names = [n for n in getattr(mod, "__all__", ())
                 if inspect.isfunction(getattr(mod, n, None))]
    return [(n, getattr(mod, n)) for n in names]


def _kernel_classes(modules) -> list:
    from repro.gpusim.kernel import Kernel
    seen = {}
    for mod in modules:
        for obj in vars(mod).values():
            if inspect.isclass(obj) and issubclass(obj, Kernel) \
                    and obj is not Kernel:
                seen[id(obj)] = obj
    return list(seen.values())


def _is_wrapper(obj) -> bool:
    return hasattr(obj, "__perfbench_original__")


def _slots(modules):
    """Every place the package holds a reference that may be a function:
    module globals, items of module-level dicts and lists, and the closure
    cells, defaults and keyword defaults of its functions and methods.
    Yields ``(where, value, put)`` where ``put(new)`` replaces the value."""
    def function_slots(fn):
        if not inspect.isfunction(fn) or _is_wrapper(fn):
            return
        for cell in fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:          # an empty cell
                continue
            yield (f"{fn.__qualname__} closure", value,
                   functools.partial(setattr, cell, "cell_contents"))
        for i, value in enumerate(fn.__defaults__ or ()):
            def put_default(new, fn=fn, i=i):
                values = list(fn.__defaults__)
                values[i] = new
                fn.__defaults__ = tuple(values)
            yield f"{fn.__qualname__} default", value, put_default
        kwdefaults = fn.__kwdefaults__ or {}
        for key, value in list(kwdefaults.items()):
            yield (f"{fn.__qualname__} default {key}", value,
                   functools.partial(kwdefaults.__setitem__, key))

    for mod in modules:
        for attr, val in list(vars(mod).items()):
            where = f"{mod.__name__}.{attr}"
            yield where, val, functools.partial(setattr, mod, attr)
            if isinstance(val, dict):
                for key, value in list(val.items()):
                    yield (f"{where}[{key!r}]", value,
                           functools.partial(val.__setitem__, key))
            elif isinstance(val, list):
                for i, value in enumerate(val):
                    yield (f"{where}[{i}]", value,
                           functools.partial(val.__setitem__, i))
            if inspect.isfunction(val):
                yield from function_slots(val)
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                for member in list(vars(val).values()):
                    yield from function_slots(
                        getattr(member, "__func__", member))


def _rebind(modules, swap: dict) -> int:
    """Replace every held reference to an original function by its
    wrapper; returns the number of references rebound."""
    done = 0
    for _, value, put in _slots(modules):
        original, wrapper = swap.get(id(value), (None, None))
        if original is value:
            put(wrapper)
            done += 1
    return done


def stale_references(modules, originals) -> list:
    """Where the package still holds an original (unwrapped) function
    after :func:`install` — expected empty."""
    ids = {id(f) for f in originals}
    return [where for where, value, _ in _slots(modules) if id(value) in ids]


def install(tracer: Tracer) -> dict:
    """Wrap every layer function and kernel body; returns a summary with
    the wrapped names and the stale references left (expected none)."""
    modules = _repro_modules()
    by_name = {m.__name__: m for m in modules}
    swap: dict = {}
    wrapped: dict[str, str] = {}

    for layer, modname, names in FUNCTION_LAYERS:
        mod = by_name[modname]
        for name, fn in _module_functions(mod, names):
            if id(fn) in swap:
                continue
            qual = f"{modname}.{name}"
            w = tracer.wrap(fn, qual, layer, HOOKS.get(qual, NO_HOOKS))
            swap[id(fn)] = (fn, w)
            wrapped[qual] = layer

    def wrap_method(cls, meth, layer):
        fn = vars(cls)[meth]
        qual = f"{cls.__module__}.{cls.__qualname__}.{meth}"
        setattr(cls, meth,
                tracer.wrap(fn, qual, layer, HOOKS.get(qual, NO_HOOKS)))
        wrapped[qual] = layer

    for layer, modname, clsname, meths in METHOD_LAYERS:
        cls = getattr(by_name[modname], clsname)
        for meth in meths:
            wrap_method(cls, meth, layer)
    for cls in _kernel_classes(modules):
        for meth in KERNEL_BODY_METHODS:
            if meth in vars(cls) and not _is_wrapper(vars(cls)[meth]):
                wrap_method(cls, meth, KERNEL_BODY_LAYER)

    rebound = _rebind(modules, swap)

    # Shard workers inherit the span open on the thread that starts them.
    original_start = threading.Thread.start

    def start(thread):
        thread._perfbench_parent = tracer.current()
        return original_start(thread)

    threading.Thread.start = start
    stale = stale_references(modules, [orig for orig, _ in swap.values()])
    return {"wrapped": wrapped, "rebound": rebound, "stale": stale}


# -- attribution ------------------------------------------------------------

def _exclusive_segments(span, kids) -> list:
    """The parts of ``span``'s interval that none of its children cover."""
    segs, cursor = [], span[T0]
    for a, b in sorted(kids):
        a, b = max(a, span[T0]), min(b, span[T1])
        if a > cursor:
            segs.append((cursor, a))
        cursor = max(cursor, b)
    if span[T1] > cursor:
        segs.append((cursor, span[T1]))
    return segs


def self_times(spans) -> dict:
    """Span id -> self time.

    A span's own intervals are its duration minus the union of its child
    spans on any thread.  Where own intervals of spans on different threads
    overlap (the shard workers run concurrently under one interpreter
    lock), each instant is shared equally among them, so self times add
    up to the wall time the spans cover instead of counting it twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[T0], s[T1]))
    events = []
    for s in spans:
        for a, b in _exclusive_segments(s, children.get(s[SID], ())):
            events.append((a, 1, s[SID]))
            events.append((b, -1, s[SID]))
    events.sort()
    out = dict.fromkeys((s[SID] for s in spans), 0.0)
    active: set = set()
    last = None
    for t, kind, sid in events:
        if active and t > last:
            share = (t - last) / len(active)
            for a in active:
                out[a] += share
        last = t
        if kind > 0:
            active.add(sid)
        else:
            active.discard(sid)
    return out


def layer_totals(spans) -> dict:
    """Layer -> {"self_s", "calls"} summed over all spans, plus per-name
    self time for the names a metric singles out."""
    selfs = self_times(spans)
    layers: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    names: dict = defaultdict(float)
    for s in spans:
        entry = layers[s[LAYER]]
        entry["self_s"] += selfs[s[SID]]
        entry["calls"] += 1
        names[s[NAME]] += selfs[s[SID]]
    return {"layers": dict(layers), "names": dict(names),
            "self_total": sum(selfs.values())}
