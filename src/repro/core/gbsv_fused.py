"""Fused factorize-and-solve kernel (paper Section 7).

For very small systems, a single kernel performs the band LU factorization
on the augmented matrix ``[A|B]`` held entirely in shared memory.  Applying
every (pivot swap, scale, rank-1 update) column step to the ``B`` columns
as well *implicitly performs the forward triangular solve*; after the
factorization, the backward solve runs in shared memory too, and the
factors, pivots and solution are written out once.  This maximises data
reuse and bandwidth utilisation for very small sizes — the paper enables it
for systems of order 64 or less with a single right-hand side.

Following LAPACK ``DGBSV`` semantics, if the factorization reports a
singular ``U`` the solution is not computed: the factors and pivots are
still written back but ``B`` is left unchanged in global memory.

Like every batched kernel here, it has one body over a lane stack
(:class:`~repro.core.batch_args.LaneStackKernel`): one lane takes the
scalar column steps, more lanes the batched ones, with per-lane ``active``
masks for singular problems (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import numpy as np

from ..band.layout import BandLayout
from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import SharedMemory
from .batch_args import LaneStackKernel, stage_stack
from .costs import gbsv_fused_cost
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
from .gbtrf_fused import default_fused_threads
from .solve_blocks import (
    backward_step,
    backward_step_batched,
    forward_swap,
    forward_swap_batched,
    forward_update,
    forward_update_batched,
)

__all__ = ["FusedGbsvKernel"]


class FusedGbsvKernel(LaneStackKernel):
    """Batched in-shared-memory factorize-and-solve on ``[A|B]``."""

    name = "gbsv_fused"

    def __init__(self, n: int, kl: int, ku: int, nrhs: int,
                 mats: list[np.ndarray], pivots: list[np.ndarray],
                 rhs: list[np.ndarray], info: np.ndarray, *,
                 threads: int | None = None):
        self.n, self.kl, self.ku, self.nrhs = n, kl, ku, nrhs
        self.layout = BandLayout(n, n, kl, ku)
        self.mats = mats
        self.pivots = pivots
        self.rhs = rhs
        self.info = info
        self.nthreads = threads or default_fused_threads(kl, ku)
        self.itemsize = mats[0].dtype.itemsize if mats else 8

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        return self.nthreads

    def smem_bytes(self) -> int:
        augmented = self.layout.fused_elems() + self.n * self.nrhs
        return augmented * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbsv_fused_cost(self.n, self.kl, self.ku, self.nrhs,
                               self.nthreads, self.itemsize)

    def pack_operands(self) -> tuple:
        return (self.mats, self.rhs)

    def run_lanes(self, lanes: slice, smem: SharedMemory) -> None:
        n, kl, ku = self.n, self.kl, self.ku
        kv = kl + ku
        ldab = self.layout.ldab_factor
        mats, rhs = self.mats[lanes], self.rhs[lanes]
        nlanes = len(mats)

        # One lane and interleaved operands stage as zero-copy views
        # (lane-contiguous copies into batch-minor tiles); lane-major
        # batches are gathered.
        abst, a_inplace = stage_stack(mats, rows=ldab)
        btst, b_inplace = stage_stack(rhs)
        if a_inplace or b_inplace:
            tiles = np.moveaxis(
                smem.alloc((ldab, n, nlanes), dtype=abst.dtype), 2, 0)
            bts = np.moveaxis(
                smem.alloc((n, self.nrhs, nlanes), dtype=btst.dtype), 2, 0)
        else:
            tiles = smem.alloc((nlanes, ldab, n), dtype=abst.dtype)
            bts = smem.alloc((nlanes, n, self.nrhs), dtype=btst.dtype)
        tiles[...] = abst
        bts[...] = btst

        # Band LU on the augmented [A|B]: every column step also swaps and
        # updates the RHS rows, which is the forward solve in disguise.
        pivs = np.zeros((nlanes, n), dtype=np.int64)
        info = np.zeros(nlanes, dtype=np.int64)
        init_fillin_batched(tiles, n, kl, ku)
        if nlanes == 1:
            tile, bt, piv = tiles[0], bts[0], pivs[0]
            ju = -1
            for j in range(n):
                set_fillin(tile, n, kl, ku, j)
                jp = pivot_search(tile, n, kl, ku, j)
                piv[j] = j + jp
                if tile[kv + jp, j] != 0:
                    ju = update_bound(n, kl, ku, j, jp, ju)
                    swap_right(tile, kl, ku, j, jp, ju)
                    forward_swap(bt, j, j + jp)
                    scale_column(tile, n, kl, ku, j)
                    rank_one_update(tile, n, kl, ku, j, ju)
                    forward_update(tile, n, kl, ku, j, bt)
                elif info[0] == 0:
                    info[0] = j + 1
        else:
            bidx = np.arange(nlanes)
            ju = np.full(nlanes, -1, dtype=np.int64)
            for j in range(n):
                set_fillin_batched(tiles, n, kl, ku, j)
                jp = pivot_search_batched(tiles, n, kl, ku, j)
                pivs[:, j] = j + jp
                active = tiles[bidx, kv + jp, j] != 0
                ju = update_bound_batched(n, kl, ku, j, jp, ju, active)
                swap_right_batched(tiles, kl, ku, j, jp, ju, active=active)
                forward_swap_batched(bts, j, np.where(active, j + jp, j))
                scale_column_batched(tiles, n, kl, ku, j, active=active)
                rank_one_update_batched(tiles, n, kl, ku, j, ju,
                                        active=active)
                forward_update_batched(tiles, n, kl, ku, j, bts,
                                       active=active)
                info[...] = np.where(~active & (info == 0), j + 1, info)

        if a_inplace:
            abst[...] = tiles
        for k, piv in enumerate(self.pivots[lanes]):
            if not a_inplace:
                mats[k][:ldab, :] = tiles[k]
            piv[:] = pivs[k]
        self.info[lanes] = info
        ok = info == 0
        if not ok.any():
            return  # LAPACK GBSV: leave B untouched on singularity
        # Backward solve, still in shared memory.  Several lanes solve on
        # the non-singular subset only (gathered copy, so no
        # divide-by-zero lanes; singular problems keep B untouched).
        if nlanes == 1:
            sub_b = bts
            for j in range(n - 1, -1, -1):
                backward_step(tile, n, kl, ku, j, bt)
        else:
            sub_t, sub_b = tiles[ok], bts[ok]
            for j in range(n - 1, -1, -1):
                backward_step_batched(sub_t, n, kl, ku, j, sub_b)
        if b_inplace and bool(ok.all()):
            btst[...] = sub_b
            return
        for i, k in enumerate(np.flatnonzero(ok)):
            rhs[k][...] = sub_b[i]
