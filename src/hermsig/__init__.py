"""Exact signatures of quadratic and hermitian forms over real number
fields and algebras with involution.

The public API is ``__all__``, the list the README states under "Public
API"; the CLI (``hermsig.cli``) imports the modules directly."""

from .errors import (
    AlgebraMismatchError,
    FieldMismatchError,
    HermsigError,
    InvariantError,
    NilOrderingError,
    ReducibleModulusError,
    UnsupportedError,
)
from .field import QQ, FieldElement, NumberField, Ordering, sign_at
from .quadforms import (
    Diagonalization,
    GramQuadraticForm,
    QuadraticForm,
    diagonalize,
    harrison_set,
    signature_q,
    total_signature_q,
)
from .algebras import AlgebraElement, AlgebraWithInvolution, Entry, is_invertible
from .hermitian import (
    HermitianForm,
    going_up,
    knebusch_check,
    raw_signature,
    reference_form,
    scale_by_quadratic,
    signature,
    sylvester_decompose,
    total_signature_h,
    witt_rank,
)
from .cones import (
    CertTerm,
    PositiveCone,
    SquareCertificate,
    enumerate_positive_cones,
    eta_maximal,
    find_sos_certificate,
    formally_real,
    positivity_sets,
    verify_certificate,
)
from .spectra import (
    ConeSpace,
    FundamentalDescriptor,
    PrimeIdealPair,
    cone_space_topology,
    count_open_sets,
    ideal_membership,
    is_t0,
    morita_cone_maps,
    morphism_distinctness,
    prime_property_sample,
    topology_compare,
)
from .session import SessionDocument, SessionParseError, parse_session

__all__ = [
    # errors
    "HermsigError", "AlgebraMismatchError", "FieldMismatchError", "InvariantError",
    "NilOrderingError", "ReducibleModulusError", "UnsupportedError",
    # fields and orderings
    "QQ", "NumberField", "FieldElement", "Ordering", "sign_at",
    # quadratic forms and the congruence kernel
    "QuadraticForm", "GramQuadraticForm", "Diagonalization", "diagonalize",
    "signature_q", "total_signature_q", "harrison_set",
    # algebras with involution
    "AlgebraWithInvolution", "AlgebraElement", "Entry", "is_invertible",
    # hermitian forms and signatures
    "HermitianForm", "reference_form", "raw_signature", "signature",
    "total_signature_h", "witt_rank", "scale_by_quadratic", "going_up",
    "knebusch_check", "sylvester_decompose",
    # positive cones and sums of hermitian squares
    "PositiveCone", "enumerate_positive_cones", "formally_real", "eta_maximal",
    "positivity_sets", "find_sos_certificate", "verify_certificate", "CertTerm",
    "SquareCertificate",
    # prime ideal pairs, signature morphisms and the cone-space topology
    "PrimeIdealPair", "FundamentalDescriptor", "ideal_membership",
    "prime_property_sample", "morphism_distinctness", "ConeSpace",
    "cone_space_topology", "topology_compare", "is_t0", "count_open_sets",
    "morita_cone_maps",
    # session documents
    "SessionDocument", "SessionParseError", "parse_session",
]
