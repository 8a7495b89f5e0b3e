"""Core: the paper's batched band LU factorization and solve."""

from .batched import (
    cgbsv_batch, cgbtrf_batch, cgbtrs_batch,
    dgbsv_batch, dgbtrf_batch, dgbtrs_batch,
    gbsv_vbatch, gbtrf_vbatch,
    sgbsv_batch, sgbtrf_batch, sgbtrs_batch,
    zgbsv_batch, zgbtrf_batch, zgbtrs_batch,
)
from .gbcon import gbcon, gbcon_batch, onenorm_inv_estimate
from .gbequ import gbequ, gbequ_batch, laqgb, laqgb_batch
from .gbmv_batch import BatchedGbmvKernel, gbmv_batch
from .gbrfs import RefinementResult, gbrfs, gbrfs_batch, gbsv_refined_batch
from .gbsv import gbsv, gbsv_batch, select_gbsv_method
from .gbsv_fused import FusedGbsvKernel
from .gbtf2 import gbtf2
from .gbtrf import gbtrf, gbtrf_batch, select_gbtrf_method
from .gbtrf_fused import FusedGbtrfKernel
from .gbtrf_reference import gbtrf_reference_batch
from .gbtrf_vbatch_kernel import VbatchGbtrfKernel, VbatchProblem, gbtrf_vbatch_fused
from .gbtrf_window import SlidingWindowGbtrfKernel
from .gbtrs import gbtrs, gbtrs_batch
from .memory_plan import (
    MemoryPlan,
    estimate_footprint,
    estimate_vbatch_footprint,
    plan_batch,
)
from .pipeline import PipelineResult, last_pipeline_result
from .resilience import (
    BatchReport,
    ResiliencePolicy,
    merge_reports,
)
from .opcount import OpCount, gbtrf_gflops, gbtrf_opcount, gbtrf_opcount_batch, gbtrf_opcount_bounds
from .gbtrs_blocked import BlockedBackwardKernel, BlockedForwardKernel
from .gbtrs_reference import gbtrs_reference_batch
from .solve_blocks import gbtrs_unblocked
from .verify import VerifyPolicy, as_verify_policy
from .specialize import (
    BandSpecialization,
    clear_specialization_cache,
    create_specialization,
    destroy_specialization,
    specialization_cache_info,
)

__all__ = [
    "BandSpecialization", "BatchReport", "BlockedBackwardKernel",
    "BlockedForwardKernel", "MemoryPlan", "ResiliencePolicy",
    "estimate_footprint", "estimate_vbatch_footprint", "plan_batch",
    "FusedGbsvKernel", "FusedGbtrfKernel", "PipelineResult",
    "SlidingWindowGbtrfKernel", "last_pipeline_result",
    "cgbsv_batch", "cgbtrf_batch", "cgbtrs_batch",
    "clear_specialization_cache", "create_specialization",
    "destroy_specialization", "dgbsv_batch", "dgbtrf_batch", "dgbtrs_batch",
    "BatchedGbmvKernel", "OpCount", "RefinementResult", "gbcon",
    "gbcon_batch", "gbtrf_gflops", "gbtrf_opcount", "gbtrf_opcount_batch",
    "gbtrf_opcount_bounds",
    "gbequ", "gbequ_batch", "gbmv_batch",
    "gbrfs", "gbrfs_batch",
    "gbsv", "gbsv_batch", "gbsv_refined_batch", "gbsv_vbatch", "gbtf2",
    "gbtrf", "gbtrf_batch", "laqgb", "laqgb_batch", "onenorm_inv_estimate",
    "merge_reports",
    "gbtrf_reference_batch", "gbtrf_vbatch", "gbtrf_vbatch_fused",
    "VbatchGbtrfKernel", "VbatchProblem", "gbtrs", "gbtrs_batch",
    "gbtrs_reference_batch", "gbtrs_unblocked",
    "select_gbsv_method", "select_gbtrf_method",
    "sgbsv_batch", "sgbtrf_batch", "sgbtrs_batch",
    "specialization_cache_info",
    "VerifyPolicy", "as_verify_policy",
    "zgbsv_batch", "zgbtrf_batch", "zgbtrs_batch",
]
