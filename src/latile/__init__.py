"""Lattice tilings of Z^n by the limited-magnitude error ball B(n,2,1,1).

The package constructs and verifies the dimension-11 tiling, proves
nonexistence for small dimensions by exhaustive symmetry-aware search, and
emits independently checkable modular nonexistence certificates for larger
dimensions.
"""

from .abelian import (
    GroupElement,
    GroupMismatchError,
    GroupSpec,
    add,
    element_at,
    element_order,
    enumerate_abelian_groups,
    identity,
    negate,
    rank_of,
    scalar_mul,
)
from .analysis import (
    code_beta,
    coefficient_partition,
    congruence_check,
    cube_multiplicity_check,
    spectrum_identity_checks,
)
from .ball import ErrorBall, ball_size, generate_ball
from .certify import (
    INFINITE,
    NonexistenceCertificate,
    admissible_primes,
    build_certificate,
    certificate_parameters,
    certify_nonexistence,
    representable,
    validate_certificate,
)
from .construct import (
    GOLAY11_CHECK_MATRIX,
    PdsParameters,
    check_pds,
    derive_check_matrix,
    golay11_tiling,
)
from .groupring import (
    GroupRingElement,
    OrderMismatchError,
    all_ones,
    as_code_set,
    check_tiling_conditions,
    from_multiset,
    linear_combine,
    multiply,
    power_map,
    reduce_mod,
    star,
)
from .search import (
    BudgetExceededError,
    SearchResult,
    inverse_pairs,
    search_tilings,
)
from .tiling import (
    TilingHomomorphism,
    VerificationReport,
    apply_homomorphism,
    induced_code_set,
    kernel_basis,
    kernel_determinant,
    verify_tiling,
)

__version__ = "0.1.0"
