"""Canonicalisation and validation of batched call arguments.

The paper's C interface (paper Section 4) takes arrays of device pointers plus an
``info`` output array.  On the Python side we accept, for each batched
operand, either

* a 3-D numpy stack ``(batch, ldab, n)`` — the strided-batch idiom, or
* a :class:`~repro.gpusim.memory.PointerArray` / sequence of 2-D arrays —
  the true pointer-array idiom (each matrix anywhere in memory),

and canonicalise to a list of per-problem views.  Validation mirrors
LAPACK argument checking: the 1-based argument positions in raised
:class:`~repro.errors.ArgumentError` match the paper's C signatures.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from ..band.layout import (
    INTERLEAVED,
    LANE_MAJOR,
    ldab_for_factor,
    to_interleaved,
    to_lane_major,
)
from ..errors import ArgumentError, check_arg
from ..gpusim.kernel import Kernel, SharedMemory, note_layout_conversion
from ..gpusim.memory import PointerArray, is_packable_batch

__all__ = [
    "as_matrix_list",
    "as_rhs_list",
    "ensure_pivots",
    "ensure_info",
    "check_gb_args",
    "is_uniform_stack",
    "is_interleaved_stack",
    "is_packable_batch",
    "stack_view",
    "stage_stack",
    "soa_stageable",
    "LaneStackKernel",
    "convert_batch_layout",
    "stage_layout",
]


def is_uniform_stack(mats) -> bool:
    """True when ``mats`` are consecutive slices of one contiguous stack.

    This is the *direct* eligibility gate for the batch-interleaved
    execution path: every per-problem view must share the same base array,
    shape, dtype and strides, and sit at evenly spaced, non-overlapping
    offsets — exactly what ``list(stack)`` of a ``(batch, ldab, n)``
    strided-batch array produces.
    :class:`~repro.gpusim.memory.PointerArray` batches (matrices scattered
    through memory), aliased matrices and ragged (vbatch) inputs all
    return False; scattered same-shape batches can still vectorize via the
    gather/pack stage (:func:`~repro.gpusim.memory.is_packable_batch`),
    while aliased/overlapping batches keep the per-block path.
    """
    ptrs = _lane_pointers(mats)
    if ptrs is None:
        return False
    if len(mats) == 1:
        return True
    first = mats[0]
    extent = first.shape[0] * first.strides[0] if first.strides else 0
    return extent > 0 and all(p == ptrs[0] + k * extent
                              for k, p in enumerate(ptrs))


def is_interleaved_stack(mats) -> bool:
    """True when ``mats`` are lanes of one batch-interleaved (SoA) stack.

    This is the eligibility gate for the SoA-native execution path
    (``[vec+soa]`` in traces): every per-problem view must share the same
    base array, shape, dtype and strides, with data pointers at a
    constant positive delta ``d`` — lane ``k`` starts ``k*d`` bytes after
    lane 0, the lane-fastest layout of
    :func:`repro.band.layout.alloc_band_interleaved`.  Disjointness of
    the lanes is proven from the strides: every in-view stride is a
    multiple of some ``g`` with ``g >= nlanes * d``, so two lanes can
    never address the same element.  Consecutive sub-slices of an
    interleaved batch (as the chunked executor takes) stay detectable,
    which is what keeps governance, pipelining and resilience
    layout-native with zero extra conversions.
    """
    nlanes = len(mats)
    ptrs = _lane_pointers(mats) if nlanes >= 2 else None
    if ptrs is None:
        return False
    d = ptrs[1] - ptrs[0]
    if d <= 0 or any(q - p != d for p, q in zip(ptrs, ptrs[1:])):
        return False
    # Lane disjointness: strides along extents > 1 must share a common
    # divisor g that is a multiple of d and covers all nlanes offsets.
    first = mats[0]
    live = [abs(s) for s, e in zip(first.strides, first.shape) if e > 1]
    if not live:
        return d >= first.dtype.itemsize
    g = math.gcd(*live)
    return g % d == 0 and g // d >= nlanes


def _lane_pointers(mats):
    """Data pointers of lanes that are views of one base array with equal
    shape, dtype and strides; ``None`` when they are not."""
    if len(mats) == 0:
        return None
    first = mats[0]
    if not isinstance(first, np.ndarray) or first.base is None:
        return None
    for mk in mats[1:]:
        if (not isinstance(mk, np.ndarray) or mk.base is not first.base
                or mk.shape != first.shape or mk.dtype != first.dtype
                or mk.strides != first.strides):
            return None
    return [m.__array_interface__["data"][0] for m in mats]


def stack_view(mats) -> np.ndarray:
    """Writable ``(batch, ...)`` view over an interleaved lane list.

    Only valid when :func:`is_interleaved_stack` (or, for a lane-major
    stack, :func:`is_uniform_stack`) returned True: the view aliases
    exactly the per-lane views (lane ``k`` of the result *is*
    ``mats[k]``'s memory), so kernels can execute on it in place.
    """
    first = mats[0]
    d = (mats[1].__array_interface__["data"][0]
         - first.__array_interface__["data"][0])
    return np.lib.stride_tricks.as_strided(
        first, shape=(len(mats),) + first.shape,
        strides=(d,) + first.strides)


def stack_lanes(lanes, *, rows: int | None = None, copy: bool = True):
    """``(batch, ...)`` stack of per-lane operands (first ``rows`` rows).

    A stack, or lanes of one strided or interleaved stack, is sliced
    wholesale: one copy of the whole batch, or a view with ``copy=False``
    (for read-only use within the call).  Scattered lanes are stacked one
    by one; ragged ones (per-lane padding) are copied into a list.
    """
    if isinstance(lanes, np.ndarray):
        view = lanes
    elif len(lanes) > 1 and (is_uniform_stack(lanes)
                             or is_interleaved_stack(lanes)):
        view = stack_view(lanes)
    else:
        lanes = [x[:rows] for x in lanes]
        if len({x.shape for x in lanes}) > 1:
            return [x.copy() for x in lanes]
        return np.stack(lanes)
    view = view[:, :rows]
    return np.array(view, order="C") if copy else view  # never an alias


def stage_stack(lanes, *, rows: int | None = None):
    """Stage operand ``lanes`` as a ``(len(lanes), ...)`` stack.

    Returns ``(stack, inplace)``.  One lane, or the lanes of one
    interleaved stack, stage as a writable zero-copy view
    (``inplace=True`` — mutations land directly in the caller's storage,
    no write-back needed); anything else is gathered with
    :func:`numpy.stack` (``inplace=False`` — the kernel must scatter
    results back).  ``rows`` optionally trims each operand to its first
    ``rows`` rows (the factor-layout ``ldab`` slice).
    """
    lanes = list(lanes)
    if len(lanes) == 1:
        view = np.asarray(lanes[0])[None]
    elif is_interleaved_stack(lanes):
        view = stack_view(lanes)
    else:
        if rows is not None:
            lanes = [a[:rows] for a in lanes]
        return np.stack(lanes), False
    return (view if rows is None else view[:, :rows]), True


def soa_stageable(*seqs) -> bool:
    """SoA-route eligibility across several operand lists.

    True when every operand batch can be staged for the batch-interleaved
    body — interleaved lanes stage as zero-copy views, uniform lane-major
    stacks gather as before — and at least one of them is actually
    interleaved (otherwise the classic ``[vec]`` route already applies).
    """
    any_soa = False
    for seq in seqs:
        if is_interleaved_stack(seq):
            any_soa = True
        elif not is_uniform_stack(seq):
            return False
    return any_soa


class LaneStackKernel(Kernel):
    """A kernel with one functional body over a ``(lanes, ...)`` stack.

    Subclasses implement :meth:`run_lanes`, staging the operands that
    :meth:`pack_operands` names with :func:`stage_stack`; those operands
    also decide the direct and SoA eligibility.  :meth:`run_block` runs
    the body on one lane — a zero-copy one-lane view, no gather and no
    write-back — and :meth:`run_batch_vectorized` on the first
    ``nblocks`` lanes.  A body whose batched steps are slower on one lane
    picks its column step by lane count, once per column loop: one lane
    runs the scalar LAPACK-order steps that ``gbtf2`` and
    ``gbtrs_unblocked`` are built from, more lanes the ``*_batched`` steps
    (on one lane those cost up to 2.5x the scalar ones;
    docs/PERFORMANCE.md).
    """

    @abc.abstractmethod
    def run_lanes(self, lanes: slice, smem: SharedMemory) -> None:
        """The kernel body on lanes ``lanes`` of its operands."""

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        self.run_lanes(slice(block_id, block_id + 1), smem)

    def run_batch_vectorized(self, nblocks: int, smem: SharedMemory) -> None:
        self.run_lanes(slice(0, nblocks), smem)

    def can_batch_vectorize(self) -> bool:
        return all(is_uniform_stack(seq) for seq in self.pack_operands())

    def can_soa_vectorize(self) -> bool:
        return soa_stageable(*self.pack_operands())


def convert_batch_layout(layout: str, operands, *, batch: int,
                         outputs=None):
    """Stage batched operands into ``layout`` at the batch boundary.

    ``operands`` is a sequence of batched arguments (each a 3-D logical
    stack or a list of per-problem 2-D arrays); ``layout`` is a
    canonical name from :func:`repro.band.layout.normalize_layout`.
    Returns ``None`` when nothing needs converting (every operand is
    already in the requested layout), else ``(converted, writeback,
    nbytes)``: ``converted`` mirrors ``operands`` with working copies in
    the target layout, ``writeback()`` copies results back into the
    caller's storage, and ``nbytes`` is the total traffic of the
    round-trip (in + out, ``pack_bytes``-style) for trace attribution.

    ``outputs`` is an optional per-operand boolean mask: ``False`` marks
    a pure input (``gbtrs`` factors, for example) — it is staged into the
    working layout but never written back, so read-only inputs convert
    fine and the return copy is skipped (its traffic is counted one-way).

    This is the *one conversion per batch* of the layout contract
    (docs/LAYOUTS.md): drivers call it once, before governance splits
    the batch into chunks, so every downstream stage runs natively.
    """
    if outputs is None:
        outputs = (True,) * len(operands)
    originals, converted, moved = [], [], 0
    for op, is_output in zip(operands, outputs):
        if op is None:
            converted.append(None)
            continue
        if isinstance(op, np.ndarray) and op.ndim >= 2:
            mats = list(op)
        else:
            mats = [np.asarray(m) for m in op]
        check_arg(len(mats) == batch, 0,
                  f"operand has {len(mats)} entries, expected {batch}")
        if batch == 0:
            converted.append(op)
            continue
        shape = mats[0].shape
        if layout == INTERLEAVED and is_interleaved_stack(mats):
            converted.append(op)
            continue
        if layout == LANE_MAJOR and not is_interleaved_stack(mats):
            # Lane-major (or scattered/packable) input already runs the
            # classic path; nothing to stage.
            converted.append(op)
            continue
        check_arg(all(m.shape == shape for m in mats), 0,
                  "layout conversion requires uniform per-problem shapes "
                  f"(got {sorted({m.shape for m in mats})})")
        gathered = np.stack(mats)
        work = (to_interleaved(gathered) if layout == INTERLEAVED
                else to_lane_major(gathered))
        if is_output:
            originals.append((mats, work))
        converted.append(work)
        moved += (2 if is_output else 1) * int(gathered.nbytes)
    if not originals and moved == 0:
        return None

    def writeback() -> None:
        for mats, work in originals:
            for k, m in enumerate(mats):
                m[...] = work[k]

    return converted, writeback, moved


def stage_layout(layout: str | None, operands, *, batch: int, outputs=None,
                 run):
    """Layout layer: run ``run(*operands)`` in storage ``layout``.

    Stages the operands with :func:`convert_batch_layout` (``layout`` is a
    canonical name or ``None``; nothing to convert runs ``run`` on the
    operands as given), notes the round-trip traffic for the first launch
    that follows, runs, and writes the results back into the caller's
    storage.  When ``run`` raises, the noted traffic is withdrawn so it
    cannot land on an unrelated later launch.  Returns what ``run``
    returns.
    """
    conv = (None if layout is None else
            convert_batch_layout(layout, operands, batch=batch,
                                 outputs=outputs))
    if conv is None:
        return run(*operands)
    converted, writeback, moved = conv
    note_layout_conversion(moved)
    try:
        out = run(*converted)
    except BaseException:
        note_layout_conversion(-moved)
        raise
    writeback()
    return out


def as_matrix_list(a_array, batch: int, *, arg_pos: int) -> list[np.ndarray]:
    """Canonicalise a batched band-matrix argument to a list of 2-D views."""
    if isinstance(a_array, np.ndarray):
        check_arg(a_array.ndim == 3, arg_pos,
                  f"expected a (batch, ldab, n) stack, got ndim={a_array.ndim}")
        check_arg(a_array.shape[0] == batch, arg_pos,
                  f"stack has batch {a_array.shape[0]}, expected {batch}")
        return list(a_array)
    mats = list(a_array)
    check_arg(len(mats) == batch, arg_pos,
              f"pointer array has {len(mats)} entries, expected {batch}")
    out = []
    for k, m in enumerate(mats):
        m = np.asarray(m)
        check_arg(m.ndim == 2, arg_pos,
                  f"matrix {k} has ndim={m.ndim}, expected 2")
        out.append(m)
    return out


def as_rhs_list(b_array, batch: int, n: int, nrhs: int, *,
                arg_pos: int) -> list[np.ndarray]:
    """Canonicalise a batched RHS argument to a list of ``(n, nrhs)`` views.

    1-D per-problem arrays are accepted for ``nrhs == 1`` and reshaped.
    """
    if isinstance(b_array, np.ndarray):
        if b_array.ndim == 2 and nrhs == 1:
            b_array = b_array[:, :, None]
        check_arg(b_array.ndim == 3, arg_pos,
                  f"expected a (batch, n, nrhs) stack, got ndim={b_array.ndim}")
        check_arg(b_array.shape[0] == batch, arg_pos,
                  f"stack has batch {b_array.shape[0]}, expected {batch}")
        mats = list(b_array)
    else:
        mats = [np.asarray(b) for b in b_array]
        check_arg(len(mats) == batch, arg_pos,
                  f"pointer array has {len(mats)} entries, expected {batch}")
    out = []
    for k, b in enumerate(mats):
        if b.ndim == 1 and nrhs == 1:
            b = b[:, None]
        check_arg(b.ndim == 2, arg_pos,
                  f"RHS {k} has ndim={b.ndim}, expected 2")
        check_arg(b.shape == (n, nrhs), arg_pos,
                  f"RHS {k} has shape {b.shape}, expected {(n, nrhs)}")
        out.append(b)
    return out


def ensure_pivots(pv_array, batch: int, mn: int, *, arg_pos: int,
                  zero: bool = False) -> list[np.ndarray]:
    """Canonicalise/allocate the per-problem pivot vectors.

    ``zero=True`` is for routines that *produce* pivots (``gbtrf``,
    ``gbsv``): the caller-supplied storage is zeroed as soon as it
    validates, upholding the error-path guarantee documented on
    :func:`ensure_info`.  Routines that *consume* pivots (``gbtrs``,
    ``gbrfs``, ``gbcon``) leave it False.
    """
    if pv_array is None:
        return [np.zeros(mn, dtype=np.int64) for _ in range(batch)]
    if isinstance(pv_array, np.ndarray):
        check_arg(pv_array.ndim == 2 and pv_array.shape == (batch, mn), arg_pos,
                  f"pivot stack has shape {pv_array.shape}, "
                  f"expected {(batch, mn)}")
        check_arg(np.issubdtype(pv_array.dtype, np.integer), arg_pos,
                  f"pivot array must be integer, got {pv_array.dtype}")
        if zero:
            pv_array[...] = 0
        return list(pv_array)
    pivs = list(pv_array)
    check_arg(len(pivs) == batch, arg_pos,
              f"pivot pointer array has {len(pivs)} entries, expected {batch}")
    for k, p in enumerate(pivs):
        check_arg(p.shape == (mn,), arg_pos,
                  f"pivot vector {k} has shape {p.shape}, expected {(mn,)}")
        check_arg(np.issubdtype(p.dtype, np.integer), arg_pos,
                  f"pivot vector {k} must be integer, got {p.dtype}")
        if zero:
            p[...] = 0
    return pivs


def ensure_info(info, batch: int, *, arg_pos: int) -> np.ndarray:
    """Canonicalise/allocate the per-problem ``info`` output array.

    The array is **zeroed here**, at canonicalisation time, before any
    numerical work starts.  This is the batched drivers' error-path
    guarantee: if a driver raises after its outputs validated — a rejected
    kernel launch, a shared-memory failure, an injected fault — the
    caller's ``info`` (and, via ``ensure_pivots(..., zero=True)``, output
    pivots) hold zeros, never stale values from a previous call.  Status
    codes written before the exception (e.g. by a completed factorization
    stage) are preserved, since they are meaningful results.
    """
    if info is None:
        return np.zeros(batch, dtype=np.int64)
    info = np.asarray(info)
    check_arg(info.shape == (batch,), arg_pos,
              f"info has shape {info.shape}, expected {(batch,)}")
    check_arg(np.issubdtype(info.dtype, np.integer), arg_pos,
              f"info must be integer, got {info.dtype}")
    info[...] = 0
    return info


def check_gb_args(m: int, n: int, kl: int, ku: int,
                  mats: list[np.ndarray], *, batch: int,
                  ldab_pos: int = 6) -> None:
    """Validate dimensions against every matrix of the batch.

    Positions follow the paper's ``dgbtrf_batch`` signature:
    ``(m, n, kl, ku, A_array, ldab, ...)``.
    """
    check_arg(m >= 0, 1, f"m must be non-negative, got {m}")
    check_arg(n >= 0, 2, f"n must be non-negative, got {n}")
    check_arg(kl >= 0, 3, f"kl must be non-negative, got {kl}")
    check_arg(ku >= 0, 4, f"ku must be non-negative, got {ku}")
    check_arg(batch >= 0, 12, f"batch must be non-negative, got {batch}")
    need = ldab_for_factor(kl, ku)
    for k, a in enumerate(mats):
        if a.shape[0] < need or a.shape[1] != n:
            raise ArgumentError(
                ldab_pos,
                f"matrix {k} has shape {a.shape}; needs at least "
                f"({need}, {n}) for kl={kl}, ku={ku}")
