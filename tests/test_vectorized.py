"""Batch-interleaved execution path: bit-for-bit equivalence and dispatch.

The vectorized path must be indistinguishable from the per-block reference
path in everything except wall-clock: identical factor bits, pivots and
info across dtypes, singular matrices, non-square shapes and
pivot-divergent batches.  These tests compare the two paths with
``tobytes()`` (atol=0 would still admit -0.0 vs +0.0 and NaN mismatches).
Dispatch rules — uniform contiguous stacks vectorize directly, pointer
arrays and scattered views vectorize through the gather/pack stage,
aliased/overlapping batches fall back — are pinned here too (mixed-shape
and vbatch coverage lives in ``tests/test_vbatch_vectorized.py``).
"""

import numpy as np
import pytest

from repro.band.generate import random_band_batch, random_rhs
from repro.core import gbsv_batch, gbtrf_batch, gbtrs_batch
from repro.core.batch_args import is_uniform_stack
from repro.core.gbtf2 import gbtf2, gbtf2_batched
from repro.core.solve_blocks import gbtrs_unblocked
from repro.errors import DeviceError
from repro.gpusim import H100_PCIE, PointerArray, Stream, launch, summarize
from repro.gpusim.kernel import SharedMemory

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
DTYPE_IDS = [np.dtype(d).name for d in DTYPES]


def _bytes_equal(*pairs):
    for got, ref in pairs:
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _band_batch(batch, n, kl, ku, dtype, seed, m=None):
    """Random factor-layout batch; rows sized for the factor layout."""
    a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=seed)
    return a


# ---------------------------------------------------------------------------
# Building-block level: gbtf2_batched vs looped gbtf2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("m,n,kl,ku", [
    (16, 16, 2, 3),
    (20, 20, 8, 8),     # band wider than the matrix quarter
    (24, 16, 2, 3),     # m > n
    (16, 24, 2, 3),     # m < n (trailing update columns)
    (12, 12, 0, 2),     # no subdiagonals
    (12, 12, 2, 0),     # no superdiagonals
])
def test_gbtf2_batched_bitwise(dtype, m, n, kl, ku):
    batch = 7
    ldab = 2 * kl + ku + 1
    rng = np.random.default_rng(11)
    a = rng.standard_normal((batch, ldab, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((batch, ldab, n))
    a = a.astype(dtype)

    ref = a.copy()
    piv_ref = np.zeros((batch, min(m, n)), dtype=np.int64)
    info_ref = np.zeros(batch, dtype=np.int64)
    for k in range(batch):
        p, inf = gbtf2(m, n, kl, ku, ref[k])
        piv_ref[k], info_ref[k] = p, inf

    vec = a.copy()
    piv_v, info_v = gbtf2_batched(m, n, kl, ku, vec)
    _bytes_equal((vec, ref), (piv_v, piv_ref), (info_v, info_ref))


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_gbtf2_batched_singular_lanes(dtype):
    n, kl, ku = 14, 3, 2
    batch = 6
    ldab = 2 * kl + ku + 1
    rng = np.random.default_rng(12)
    a = rng.standard_normal((batch, ldab, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((batch, ldab, n))
    a = a.astype(dtype)
    # Zero whole band columns in a subset of lanes -> exact zero pivots.
    a[1, :, 4] = 0
    a[3, :, 0] = 0
    a[3, :, 9] = 0

    ref = a.copy()
    info_ref = np.zeros(batch, dtype=np.int64)
    piv_ref = np.zeros((batch, n), dtype=np.int64)
    for k in range(batch):
        piv_ref[k], info_ref[k] = gbtf2(n, n, kl, ku, ref[k])
    assert info_ref[1] != 0 and info_ref[3] != 0  # test is meaningful

    vec = a.copy()
    piv_v, info_v = gbtf2_batched(n, n, kl, ku, vec)
    _bytes_equal((vec, ref), (piv_v, piv_ref), (info_v, info_ref))


# ---------------------------------------------------------------------------
# Driver level: vectorize=None (auto) vs vectorize=False across methods
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("method,n,kl,ku", [
    ("fused", 24, 2, 3),
    ("window", 48, 3, 2),
    ("window", 64, 8, 8),
])
def test_gbtrf_paths_bitwise(dtype, method, n, kl, ku):
    batch = 9
    a = _band_batch(batch, n, kl, ku, dtype, seed=21)
    a_ref, a_vec = a.copy(), a.copy()
    piv_ref, info_ref = gbtrf_batch(n, n, kl, ku, a_ref, method=method,
                                    vectorize=False)
    piv_vec, info_vec = gbtrf_batch(n, n, kl, ku, a_vec, method=method)
    # Pivot-divergent batch: lanes must not all share one pivot sequence,
    # otherwise the per-lane masking logic is untested.
    assert len({tuple(np.asarray(p)) for p in piv_ref}) > 1
    _bytes_equal((a_vec, a_ref), (np.stack(piv_vec), np.stack(piv_ref)),
                 (info_vec, info_ref))


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("nrhs", [1, 3])
def test_gbtrs_paths_bitwise(dtype, nrhs):
    batch, n, kl, ku = 8, 40, 3, 2
    a = _band_batch(batch, n, kl, ku, dtype, seed=22)
    piv, info = gbtrf_batch(n, n, kl, ku, a)
    assert (info == 0).all()
    b = random_rhs(n, nrhs, batch=batch, dtype=dtype, seed=23)
    b_ref, b_vec = b.copy(), b.copy()
    gbtrs_batch("N", n, kl, ku, nrhs, a, np.stack(piv), b_ref,
                vectorize=False)
    gbtrs_batch("N", n, kl, ku, nrhs, a, np.stack(piv), b_vec)
    _bytes_equal((b_vec, b_ref))


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("method", ["fused", "standard"])
def test_gbsv_singular_paths_bitwise(dtype, method):
    """Singular lanes: factors/pivots written, B untouched, info nonzero —
    identically on both paths (the standard method exercises the scattered
    sub-batch fallback)."""
    batch, n, kl, ku = 8, 16, 2, 2
    a = _band_batch(batch, n, kl, ku, dtype, seed=24)
    a[2, :, 5] = 0
    a[5, :, 0] = 0
    b = random_rhs(n, 1, batch=batch, dtype=dtype, seed=25)
    a_ref, a_vec = a.copy(), a.copy()
    b_ref, b_vec = b.copy(), b.copy()
    piv_ref, info_ref = gbsv_batch(n, kl, ku, 1, a_ref, None, b_ref,
                                   method=method, vectorize=False)
    piv_vec, info_vec = gbsv_batch(n, kl, ku, 1, a_vec, None, b_vec,
                                   method=method)
    assert info_ref[2] != 0 and info_ref[5] != 0
    # Singular problems keep their RHS bits.
    _bytes_equal((b_ref[2], b[2]), (b_ref[5], b[5]))
    _bytes_equal((a_vec, a_ref), (b_vec, b_ref),
                 (np.stack(piv_vec), np.stack(piv_ref)),
                 (info_vec, info_ref))


def test_gbtrf_nonsquare_paths_bitwise():
    m, n, kl, ku, batch = 24, 32, 2, 3, 6
    ldab = 2 * kl + ku + 1
    rng = np.random.default_rng(26)
    a = rng.standard_normal((batch, ldab, n))
    a_ref, a_vec = a.copy(), a.copy()
    piv_ref, info_ref = gbtrf_batch(m, n, kl, ku, a_ref, method="window",
                                    vectorize=False)
    piv_vec, info_vec = gbtrf_batch(m, n, kl, ku, a_vec, method="window")
    _bytes_equal((a_vec, a_ref), (np.stack(piv_vec), np.stack(piv_ref)),
                 (info_vec, info_ref))


# ---------------------------------------------------------------------------
# One-lane route: a one-lane vectorized launch and every per-block launch
# run the kernel body on a one-lane view, which takes the scalar steps —
# both must reproduce the LAPACK-order reference bodies byte for byte
# ---------------------------------------------------------------------------

#: (batch, vectorize): one lane through run_batch_vectorized, and several
#: lanes through run_block.
ONE_LANE_ROUTES = [(1, True), (4, False)]
ONE_LANE_IDS = ["one-lane-vec", "per-block"]


def _gbtf2_lanes(a, n, kl, ku):
    """Factors, pivots and info of ``gbtf2`` run lane by lane on a copy."""
    fact = a.copy()
    runs = [gbtf2(n, n, kl, ku, lane) for lane in fact]
    return (fact, np.stack([piv for piv, _ in runs]),
            np.array([info for _, info in runs], dtype=np.int64))


def _route_records(stream, vectorize):
    assert stream.records
    assert all(r.vectorized == vectorize for r in stream.records)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("batch,vectorize", ONE_LANE_ROUTES, ids=ONE_LANE_IDS)
@pytest.mark.parametrize("method,nb", [("window", 8), ("fused", None)])
def test_gbtrf_one_lane_route_matches_gbtf2(dtype, batch, vectorize, method,
                                            nb):
    n, kl, ku = 40, 3, 2               # nb=8 < n: the window slides
    a = _band_batch(batch, n, kl, ku, dtype, seed=40)
    a[0, :, 11] = 0                    # a singular lane
    ref, piv_ref, info_ref = _gbtf2_lanes(a, n, kl, ku)
    assert info_ref[0] != 0
    stream = Stream(H100_PCIE)
    piv, info = gbtrf_batch(n, n, kl, ku, a, method=method, nb=nb,
                            vectorize=vectorize, stream=stream)
    _route_records(stream, vectorize)
    assert {r.kernel_name for r in stream.records} == {f"gbtrf_{method}"}
    _bytes_equal((a, ref), (np.stack(piv), piv_ref), (info, info_ref))


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("batch,vectorize", ONE_LANE_ROUTES, ids=ONE_LANE_IDS)
@pytest.mark.parametrize("singular", [False, True])
def test_fused_gbsv_one_lane_route_matches_reference(dtype, batch, vectorize,
                                                     singular):
    n, kl, ku = 24, 2, 2
    a = _band_batch(batch, n, kl, ku, dtype, seed=41)
    if singular:
        a[batch - 1, :, 7] = 0
    b = random_rhs(n, 1, batch=batch, dtype=dtype, seed=42)
    ref, piv_ref, info_ref = _gbtf2_lanes(a, n, kl, ku)
    x_ref = b.copy()
    for k in range(batch):
        if info_ref[k] == 0:           # LAPACK GBSV: B kept when singular
            gbtrs_unblocked("N", n, kl, ku, ref[k], piv_ref[k], x_ref[k])
    assert (info_ref[-1] != 0) == singular
    stream = Stream(H100_PCIE)
    piv, info = gbsv_batch(n, kl, ku, 1, a, None, b, method="fused",
                           vectorize=vectorize, stream=stream)
    _route_records(stream, vectorize)
    assert {r.kernel_name for r in stream.records} == {"gbsv_fused"}
    _bytes_equal((a, ref), (b, x_ref), (np.stack(piv), piv_ref),
                 (info, info_ref))


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("batch,vectorize", ONE_LANE_ROUTES, ids=ONE_LANE_IDS)
@pytest.mark.parametrize("trans", ["N", "T", "C"])
def test_blocked_gbtrs_one_lane_route_matches_unblocked(dtype, batch,
                                                        vectorize, trans):
    n, kl, ku, nrhs = 40, 3, 2, 2      # nb=8 < n: the RHS window slides
    fact, piv, info = _gbtf2_lanes(_band_batch(batch, n, kl, ku, dtype,
                                               seed=43), n, kl, ku)
    assert (info == 0).all()
    b = random_rhs(n, nrhs, batch=batch, dtype=dtype, seed=44)
    x_ref = b.copy()
    for k in range(batch):
        gbtrs_unblocked(trans, n, kl, ku, fact[k], piv[k], x_ref[k])
    stream = Stream(H100_PCIE)
    gbtrs_batch(trans, n, kl, ku, nrhs, fact, piv, b, nb=8,
                vectorize=vectorize, stream=stream)
    _route_records(stream, vectorize)
    assert all("blocked" in r.kernel_name for r in stream.records)
    _bytes_equal((b, x_ref))


# ---------------------------------------------------------------------------
# Dispatch rules
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_uniform_stack_detection(self):
        stack = np.zeros((4, 7, 9))
        assert is_uniform_stack(list(stack))
        assert is_uniform_stack([stack[0]])          # single view
        assert not is_uniform_stack([])
        assert not is_uniform_stack(list(stack[::2]))          # gaps
        assert not is_uniform_stack([stack[0]] * 4)            # aliased
        assert not is_uniform_stack([np.zeros((7, 9))          # no base
                                     for _ in range(3)])
        assert not is_uniform_stack([stack[0], stack[1][:, :8]])

    def test_stack_auto_vectorizes_and_is_traced(self):
        n, kl, ku, batch = 24, 2, 3, 5
        a = _band_batch(batch, n, kl, ku, np.float64, seed=30)
        stream = Stream(H100_PCIE)
        gbtrf_batch(n, n, kl, ku, a, method="window", stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized
        assert rec.executed_blocks == batch
        assert rec.display_name == "gbtrf_window[vec]"
        assert {s.name for s in summarize([stream])} == {"gbtrf_window[vec]"}

    def test_pointer_array_packs_and_vectorizes(self):
        n, kl, ku, batch = 24, 2, 3, 4
        a = _band_batch(batch, n, kl, ku, np.float64, seed=31)
        scattered = PointerArray([a[k].copy() for k in range(batch)])
        stream = Stream(H100_PCIE)
        piv, info = gbtrf_batch(n, n, kl, ku, scattered, method="window",
                                stream=stream)
        rec = stream.records[-1]
        assert rec.vectorized and rec.packed
        assert rec.display_name == "gbtrf_window[vec+pack]"
        # Gather + scatter of the matrix batch.
        assert rec.pack_bytes == 2 * sum(m.nbytes for m in scattered)
        # Same bits as the stack path.
        a2 = a.copy()
        piv2, info2 = gbtrf_batch(n, n, kl, ku, a2, method="window")
        _bytes_equal((np.stack([np.asarray(m) for m in scattered]), a2),
                     (np.stack(piv), np.stack(piv2)), (info, info2))

    def test_vectorize_true_rejects_aliased_batch(self):
        n, kl, ku, batch = 16, 1, 2, 3
        a = _band_batch(batch, n, kl, ku, np.float64, seed=32)
        aliased = [a[0]] * batch          # same storage three times over
        with pytest.raises(DeviceError, match="batch-vectorize"):
            gbtrf_batch(n, n, kl, ku, aliased, batch=batch,
                        method="window", vectorize=True)

    def test_aliased_batch_auto_falls_back(self):
        n, kl, ku, batch = 16, 1, 2, 3
        a = _band_batch(batch, n, kl, ku, np.float64, seed=32)
        aliased = [a[0].copy()] + [a[1]] * (batch - 1)
        stream = Stream(H100_PCIE)
        gbtrf_batch(n, n, kl, ku, aliased, batch=batch, method="window",
                    stream=stream)
        rec = stream.records[-1]
        assert not rec.vectorized and not rec.packed
        assert rec.display_name == "gbtrf_window"

    def test_vectorize_false_forces_per_block(self):
        n, kl, ku, batch = 24, 2, 3, 4
        a = _band_batch(batch, n, kl, ku, np.float64, seed=33)
        stream = Stream(H100_PCIE)
        gbtrf_batch(n, n, kl, ku, a, method="window", stream=stream,
                    vectorize=False)
        assert not stream.records[-1].vectorized

    def test_reference_method_rejects_vectorize_true(self):
        from repro.errors import ArgumentError
        a = _band_batch(3, 16, 1, 1, np.float64, seed=34)
        with pytest.raises(ArgumentError):
            gbtrf_batch(16, 16, 1, 1, a, method="reference", vectorize=True)

    def test_max_blocks_limits_vectorized_sample(self):
        n, kl, ku, batch = 24, 2, 3, 6
        a = _band_batch(batch, n, kl, ku, np.float64, seed=35)
        orig = a.copy()
        stream = Stream(H100_PCIE)
        piv, info = gbtrf_batch(n, n, kl, ku, a, method="window",
                                stream=stream, max_blocks=2)
        rec = stream.records[-1]
        assert rec.vectorized and rec.executed_blocks == 2
        assert rec.grid == batch                     # timing covers all
        # Only the sample was factored; the rest keeps its input bits.
        assert a[2:].tobytes() == orig[2:].tobytes()
        assert a[:2].tobytes() != orig[:2].tobytes()

    @pytest.mark.parametrize("trans", ["T", "C"])
    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_transposed_solve_vectorizes_bitwise(self, trans, dtype):
        batch, n, kl, ku = 6, 40, 2, 2
        a = _band_batch(batch, n, kl, ku, dtype, seed=36)
        piv, info = gbtrf_batch(n, n, kl, ku, a)
        assert (info == 0).all()
        b = random_rhs(n, 2, batch=batch, dtype=dtype, seed=37)
        b_ref, b_vec = b.copy(), b.copy()
        stream = Stream(H100_PCIE)
        gbtrs_batch(trans, n, kl, ku, 2, a, np.stack(piv), b_vec,
                    stream=stream, vectorize=True)
        assert all(r.vectorized for r in stream.records)
        assert {r.display_name for r in stream.records} == \
            {"gbtrs_transU_blocked[vec]", "gbtrs_transL_blocked[vec]"}
        gbtrs_batch(trans, n, kl, ku, 2, a, np.stack(piv), b_ref,
                    vectorize=False)
        _bytes_equal((b_vec, b_ref))

    def test_aggregate_smem_budget(self):
        """The vectorized path is charged the whole grid's footprint."""
        from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
        n, kl, ku, batch = 24, 2, 3, 4
        a = _band_batch(batch, n, kl, ku, np.float64, seed=38)
        pivots = [np.zeros(n, dtype=np.int64) for _ in range(batch)]
        info = np.zeros(batch, dtype=np.int64)
        kernel = SlidingWindowGbtrfKernel(n, n, kl, ku, list(a), pivots,
                                          info, nb=8, threads=kl + 1)
        from repro.errors import SharedMemoryError
        with pytest.raises(SharedMemoryError):
            kernel.run_batch_vectorized(
                batch, SharedMemory(kernel.smem_bytes()))  # 1-block budget
        kernel.run_batch_vectorized(
            batch, SharedMemory(kernel.smem_bytes() * batch))
        assert (info == 0).all()
