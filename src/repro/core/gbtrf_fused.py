"""Fully fused band LU factorization kernel (paper Section 5.2).

One thread block per matrix; the whole factor-layout band array is staged
into shared memory, factorized one column at a time (no blocking needed —
shared memory is as fast as L1), and written back.  Global traffic is
optimal (each matrix read and written exactly once), but the shared-memory
footprint grows linearly with ``n``, so occupancy collapses in staircase
steps as matrices grow, and the kernel stops launching altogether once a
single matrix no longer fits — both effects visible in the paper's
Figure 3.
"""

from __future__ import annotations

import numpy as np

from ..band.layout import BandLayout
from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import SharedMemory
from .batch_args import LaneStackKernel, stage_stack
from .costs import gbtrf_fused_cost
from .gbtf2 import gbtf2, gbtf2_batched

__all__ = ["FusedGbtrfKernel", "default_fused_threads"]


def default_fused_threads(kl: int, ku: int) -> int:
    """Default thread count for the fused kernel.

    The design minimum is ``kl + 1`` (the pivot-search span, paper Section 5.2).
    We size the team so the rank-1 update of one column — ``kl`` rows by up
    to ``kv + 1`` columns — completes in at most two rounds, which keeps the
    serial dependency chain per column short even for wide bands.
    """
    work = max(kl * (kl + ku + 1), 1)
    return max(kl + 1, 16, min(-(-work // 2), 256))


class FusedGbtrfKernel(LaneStackKernel):
    """Batched in-shared-memory band LU (one block = one matrix)."""

    name = "gbtrf_fused"

    def __init__(self, m: int, n: int, kl: int, ku: int,
                 mats: list[np.ndarray], pivots: list[np.ndarray],
                 info: np.ndarray, *, threads: int | None = None):
        self.m, self.n, self.kl, self.ku = m, n, kl, ku
        self.layout = BandLayout(m, n, kl, ku)
        self.mats = mats
        self.pivots = pivots
        self.info = info
        self.nthreads = threads or default_fused_threads(kl, ku)
        if self.nthreads < kl + 1:
            raise ValueError(
                f"fused gbtrf needs at least kl+1={kl + 1} threads, "
                f"got {self.nthreads}")
        self.itemsize = mats[0].dtype.itemsize if mats else 8

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        return self.nthreads

    def smem_bytes(self) -> int:
        return self.layout.fused_elems() * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrf_fused_cost(self.m, self.n, self.kl, self.ku,
                                self.nthreads, self.itemsize)

    def pack_operands(self) -> tuple:
        return (self.mats,)

    def run_lanes(self, lanes: slice, smem: SharedMemory) -> None:
        ldab = self.layout.ldab_factor
        mats = self.mats[lanes]
        nlanes = len(mats)
        abst, inplace = stage_stack(mats, rows=ldab)
        if inplace:
            # One lane or an interleaved (SoA) batch: stage the shared
            # tile batch-minor so the global<->shared copies stay
            # lane-contiguous, and move them as single whole-stack
            # assignments back into the caller's storage.
            tiles = np.moveaxis(
                smem.alloc((ldab, self.n, nlanes), dtype=abst.dtype),
                2, 0)
        else:
            tiles = smem.alloc((nlanes, ldab, self.n), dtype=abst.dtype)
        tiles[...] = abst                             # global -> shared
        pivs = np.zeros((nlanes, min(self.m, self.n)), dtype=np.int64)
        info = self.info[lanes]
        if nlanes == 1:
            _, info[0] = gbtf2(self.m, self.n, self.kl, self.ku, tiles[0],
                               pivs[0])
        else:
            gbtf2_batched(self.m, self.n, self.kl, self.ku, tiles, pivs,
                          info)
        if inplace:
            abst[...] = tiles                         # shared -> global
        for k, piv in enumerate(self.pivots[lanes]):
            if not inplace:
                mats[k][:ldab, :] = tiles[k]          # shared -> global
            piv[:] = pivs[k]
