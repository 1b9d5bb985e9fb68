"""Exact-arithmetic certificates for families of simple ACM bundles.

The pipeline: sample a matrix of linear forms over a large prime field,
certify that its kernel is a rank-na bundle on P^n, compute certified
cohomology tables, restrict to a complete intersection, check simplicity
through the stabilizer of the presentation, and package everything into
a machine-checkable wildness certificate for the re-embedding by
O_X(s), s >= 3.
"""

from .exactfield import (
    DEFAULT_PRIME,
    FieldSpec,
    SamplingError,
    SeededRng,
    kernel_basis,
    random_field_element,
    rank,
    rref,
)
from .polyspace import (
    ExactModeError,
    RegularityError,
    basis_dim,
    binom,
    chi_binom,
    hilbert_function,
    hilbert_polynomial,
    koszul_twists,
    map_rank,
    mult_map,
)
from .presentation import (
    GenericityError,
    KernelBundlePresentation,
    LinearFormMatrix,
    ShapeError,
    SurjectivityCertificate,
    build_kernel_bundle,
    sample_phi,
    sheaf_surjectivity_certificate,
)
from .cohomology import (
    PROV_CERTIFIED,
    PROV_EULER,
    PROV_EXACT,
    CohomologyTable,
    closed_form_cohomology,
    default_window,
    euler_characteristic,
    h_line,
)
from .restriction import (
    ACMVarietyDescriptor,
    AcmVerdict,
    DimensionError,
    VanishingChaseTrace,
    acm_with_respect_to_s,
    make_ci_variety,
    restricted_cohomology_table,
    vanishing_certificate,
)
from .moduli import (
    RefusalError,
    StabilizerReport,
    WildnessReport,
    embedding_dimension,
    family_dimension,
    intertwiner_system,
    kac_discriminant,
    stabilizer_dimension,
    veronese_bound,
    wildness_certificate,
)

__version__ = "0.1.0"
