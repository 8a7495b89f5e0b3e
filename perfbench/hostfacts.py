"""Host facts recorded beside every result."""

from __future__ import annotations

import glob
import os
import platform
from pathlib import Path

#: Thread-pool variables the benchmark pins before numpy is imported.
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_thread_pools() -> None:
    """Cap every BLAS/OpenMP pool at ``nproc`` (keeping a lower setting);
    must run before numpy is first imported."""
    cap = nproc()
    for var in POOL_VARS:
        try:
            want = min(int(os.environ.get(var, cap)), cap)
        except ValueError:
            want = cap
        os.environ[var] = str(max(want, 1))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, from sysfs."""
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if level >= best[0]:
            best = (level, value)
    return best[1]


def _git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(root: Path, working_set_bytes: int) -> dict:
    import numpy
    import scipy
    llc = _llc_bytes()
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "thread_pools": {var: os.environ.get(var) for var in POOL_VARS},
        "working_set_bytes": int(working_set_bytes),
        "kernel_counts": "computed: flops from repro.core.opcount on "
                         "sampled lanes, bytes from array sizes",
        "roofline": ("omitted: the modeled GPU is not present, and the "
                     f"working set ({working_set_bytes / 1e6:.0f} MB) fits "
                     f"in the {llc / 2 ** 20:.0f} MiB last-level cache, so "
                     "no DRAM-bound ratio can be measured here"
                     if llc and working_set_bytes < llc else
                     "omitted: the modeled GPU is not present"),
    }
