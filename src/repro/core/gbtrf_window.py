"""Sliding-window band LU factorization kernel (paper Section 5.3).

The key observation: during the factorization of column ``j`` the last
column that can be touched is ``ju = max(ju, min(j + ku + jp, n-1))``,
bounded by ``j + kv`` (worst case ``jp = kl``).  So a window of
``nb + kv + 1`` columns — ``nb`` "factor window" columns plus the widest
possible "update window" — is all that ever needs to live in shared
memory.  The window shifts through the matrix *inside one kernel* (the
paper found this faster than one kernel per block-column, which it keeps as
an ablation; see :mod:`repro.bench.figures`), giving a shared-memory
footprint that is constant in the matrix size:

    ``(kv + nb + 1) x (kv + kl + 1)`` elements.

Tuning parameters: the block size ``nb`` and the threads per matrix
(minimum ``kl + 1``); see :mod:`repro.tuning`.
"""

from __future__ import annotations

import numpy as np

from ..band.layout import BandLayout
from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import SharedMemory
from .batch_args import LaneStackKernel, stage_stack
from .costs import gbtrf_window_cost
from .gbtf2 import (
    init_fillin_batched,
    pivot_search,
    pivot_search_batched,
    rank_one_update,
    rank_one_update_batched,
    scale_column,
    scale_column_batched,
    set_fillin,
    set_fillin_batched,
    swap_right,
    swap_right_batched,
    update_bound,
    update_bound_batched,
)

__all__ = ["SlidingWindowGbtrfKernel", "window_factor_steps"]


def window_factor_steps(mn: int, nb: int) -> int:
    """Number of window iterations: ``ceil(min(m, n) / nb)``."""
    return -(-mn // nb) if mn > 0 else 0


class SlidingWindowGbtrfKernel(LaneStackKernel):
    """Batched band LU with a sliding shared-memory window."""

    name = "gbtrf_window"

    def __init__(self, m: int, n: int, kl: int, ku: int,
                 mats: list[np.ndarray], pivots: list[np.ndarray],
                 info: np.ndarray, *, nb: int, threads: int):
        if nb < 1:
            raise ValueError(f"window block size nb must be >= 1, got {nb}")
        if threads < kl + 1:
            raise ValueError(
                f"sliding-window gbtrf needs at least kl+1={kl + 1} threads, "
                f"got {threads}")
        self.m, self.n, self.kl, self.ku = m, n, kl, ku
        self.layout = BandLayout(m, n, kl, ku)
        self.mats = mats
        self.pivots = pivots
        self.info = info
        self.nb = nb
        self.nthreads = threads
        self.itemsize = mats[0].dtype.itemsize if mats else 8

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        return self.nthreads

    def smem_bytes(self) -> int:
        return self.layout.window_elems(self.nb) * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrf_window_cost(self.m, self.n, self.kl, self.ku, self.nb,
                                 self.nthreads, self.itemsize)

    def pack_operands(self) -> tuple:
        return (self.mats,)

    def run_lanes(self, lanes: slice, smem: SharedMemory) -> None:
        """The sliding-window factorization of ``lanes``, in place.

        A one-lane stack runs each window's columns through the scalar
        steps, a wider one through the ``*_batched`` steps; either way
        every lane gets the bits :func:`~repro.core.gbtf2.gbtf2` would
        give it.
        """
        m, n, kl, ku, nb = self.m, self.n, self.kl, self.ku, self.nb
        kv = kl + ku
        mn = min(m, n)
        ldab = self.layout.ldab_factor
        wcols = self.layout.window_cols(nb)
        mats = self.mats[lanes]
        info = self.info[lanes]
        nlanes = len(mats)
        bidx = np.arange(nlanes)
        # One lane and interleaved (SoA) batches stage as zero-copy
        # in-place views: no gather/scatter, and the global<->window
        # copies run lane-contiguous against the batch-minor window.
        abst, inplace = stage_stack(mats, rows=ldab)
        pivs = np.zeros((nlanes, mn), dtype=np.int64)

        # Stage the window batch-minor (lane axis innermost in memory):
        # every per-column block then runs its elementwise work with a
        # contiguous inner loop over the batch, which is where the
        # interleaved layout pays off.  The blocks are layout-agnostic
        # (they go through ``abst.strides``), and every elementwise op
        # used is correctly rounded independent of memory layout, so the
        # bits don't change.  A one-lane window is a plain C-ordered
        # ``(ldab, wcols)`` tile.
        win = np.moveaxis(
            smem.alloc((ldab, wcols, nlanes), dtype=abst.dtype), 2, 0)
        # Initial load: the first wcols columns (zero-padded past n), with
        # the up-front fill-in clearing of columns ku+1..kv-1 that the
        # full factorization would do (LAPACK DGBTF2's preamble).
        loaded = min(wcols, n)
        win[:, :, :loaded] = abst[:, :, :loaded]
        init_fillin_batched(win, n, kl, ku, ncols=loaded)

        c0 = 0          # global column of the window's first cached column
        ju = np.full(nlanes, -1, dtype=np.int64)
        info[...] = 0
        j = 0
        while j < mn:
            jend = min(j + nb, mn)
            if nlanes == 1:
                w, piv = win[0], pivs[0]
                lju, linfo = int(ju[0]), int(info[0])
                for jj in range(j, jend):
                    set_fillin(w, n, kl, ku, jj, col0=c0)
                    jp = pivot_search(w, m, kl, ku, jj, col0=c0)
                    piv[jj] = jj + jp
                    if w[kv + jp, jj - c0] != 0:
                        lju = update_bound(n, kl, ku, jj, jp, lju)
                        swap_right(w, kl, ku, jj, jp, lju, col0=c0)
                        scale_column(w, m, kl, ku, jj, col0=c0)
                        rank_one_update(w, m, kl, ku, jj, lju, col0=c0)
                    elif linfo == 0:
                        linfo = jj + 1
                ju[0], info[0] = lju, linfo
            else:
                for jj in range(j, jend):
                    set_fillin_batched(win, n, kl, ku, jj, col0=c0)
                    jp = pivot_search_batched(win, m, kl, ku, jj, col0=c0)
                    pivs[:, jj] = jj + jp
                    active = win[bidx, kv + jp, jj - c0] != 0
                    ju = update_bound_batched(n, kl, ku, jj, jp, ju, active)
                    swap_right_batched(win, kl, ku, jj, jp, ju, col0=c0,
                                       active=active)
                    scale_column_batched(win, m, kl, ku, jj, col0=c0,
                                         active=active)
                    rank_one_update_batched(win, m, kl, ku, jj, ju,
                                            col0=c0, active=active)
                    info[...] = np.where(~active & (info == 0), jj + 1,
                                         info)
            # Write the freshly factored columns back to global memory.
            abst[:, :, j:jend] = win[:, :, j - c0:jend - c0]
            if jend >= mn:
                # Trailing columns beyond min(m, n) (only when m < n) hold
                # live updates and must be flushed too.
                tail_hi = min(c0 + wcols, n)
                if tail_hi > jend:
                    abst[:, :, jend:tail_hi] = \
                        win[:, :, jend - c0:tail_hi - c0]
                break
            # Shift the window left by the columns just retired and
            # stream in the next ones.
            shift = jend - c0
            keep = wcols - shift
            win[:, :, :keep] = win[:, :, shift:].copy()
            win[:, :, keep:] = 0
            lo = c0 + wcols
            hi = min(lo + shift, n)
            if hi > lo:
                win[:, :, keep:keep + (hi - lo)] = abst[:, :, lo:hi]
            c0 = jend
            j = jend

        for k, piv in enumerate(self.pivots[lanes]):
            if not inplace:
                mats[k][:ldab, :] = abst[k]
            piv[:] = pivs[k]
