"""Exact signatures of quadratic and hermitian forms over real number
fields and algebras with involution."""

from .errors import (
    AlgebraMismatchError,
    FieldMismatchError,
    HermsigError,
    InvariantError,
    NilOrderingError,
    UnsupportedError,
)
from .field import (
    QQ,
    FieldElement,
    NumberField,
    Ordering,
    enumerate_orderings,
    evaluate_poly,
    four_square_decomposition,
    sign_at,
)
from .quadforms import (
    Diagonalization,
    GramQuadraticForm,
    QuadraticForm,
    diagonalize,
    harrison_set,
    knebusch_identity_holds,
    pfister,
    signature_q,
    torsion_test_q,
    total_signature_q,
    transfer,
    witt_sum,
    witt_tensor,
)
from .algebras import (
    AlgebraElement,
    AlgebraWithInvolution,
    Entry,
    QuaternionAlgebra,
    is_invertible,
    nil_orderings,
    split_isomorphism,
    sym_basis,
)
from .hermitian import (
    HermitianForm,
    KnebuschReport,
    ReferenceForm,
    is_nondegenerate,
    witt_rank,
    SylvesterDecomposition,
    find_reference_form,
    going_up,
    knebusch_check,
    morita_collapse,
    morita_expand,
    raw_signature,
    reference_form,
    scale_by_quadratic,
    scharlau_transfer,
    signature,
    split_oracle_signature,
    sylvester_decompose,
    torsion_test_h,
    total_signature_h,
    transport_reference,
)
from .cones import (
    CertTerm,
    PositiveCone,
    strongly_anisotropic_flag,
    SquareCertificate,
    cone_membership,
    enumerate_positive_cones,
    eta_maximal,
    find_sos_certificate,
    formally_real,
    positivity_sets,
    prepositive_axiom_check,
    verify_certificate,
)
from .spectra import (
    ConeSpace,
    FundamentalDescriptor,
    PrimeIdealPair,
    SignatureMorphismPair,
    cone_space_topology,
    count_open_sets,
    ideal_membership,
    is_t0,
    morita_cone_maps,
    morphism_distinctness,
    prime_property_sample,
    topology_compare,
)
from .session import SessionDocument, SessionParseError, parse_session, render_session

__all__ = [name for name in dir() if not name.startswith("_")]
