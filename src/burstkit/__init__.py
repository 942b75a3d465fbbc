"""burstkit: exact certification toolkit for burst-error list decoding.

Finite fields with discrete-log tables, exact linear algebra, the
tau-burst model with closed-form counting, code constructions
(Reed-Solomon and the reference nonlinear codes), the complete burst
list decoder with exhaustive list-size certification, redundancy bounds
as exact integer predicates, and the generalized resultant identity.
"""

from ._caps import CapExceeded
from .bounds import (
    BOUND_IDS,
    BoundVerdict,
    all_verdicts,
    general_code_any_ell,
    general_code_ell2,
    lemma_Mell,
    no_detection_ell2,
    reiger_group,
    reiger_linear,
    reiger_linear_min_r,
    sphere_packing,
)
from .burst import (
    BurstPattern,
    BurstSpace,
    Word,
    count_bursts,
    count_bursts_phased,
    enumerate_bursts,
    is_burst,
)
from .codes import (
    CodeHandle,
    ExplicitCode,
    LinearCode,
    appendix_a_code,
    code_from_dict,
    code_to_dict,
    example_code_1,
    example_code_2,
    expand,
    is_group_code,
    rs_alpha,
    rs_code,
)
from .gf import (
    Fe,
    FieldCtx,
    field_from_dict,
    field_from_order,
    field_new,
)
from .listdec import (
    CertReport,
    ListDecodeResult,
    certify,
    decode,
    detects_single_burst,
    max_list_size,
    replay_witness,
)
from .matpoly import (
    Mat,
    Poly,
    determinant,
    mat_mul,
    mat_vec,
    null_space,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_mul,
    rank,
    rref,
    solve_affine,
    vandermonde,
)
from .resultant import (
    RelationWitness,
    ResultantInstance,
    boundary_instance,
    coeff_band,
    det_product_form,
    det_stacked,
    find_kernel_relation,
    find_ratio_collision,
    leading_constant,
    root_run_poly,
    sample_instance,
    stacked_matrix,
    verify_relation,
)

__version__ = "0.1.0"
