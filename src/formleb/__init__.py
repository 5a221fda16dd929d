"""Lebesgue-type decompositions of sesquilinear forms and complex measures.

Forms on C^n are represented by matrices; relative to a non-negative reference
form the package computes the two-part split of a non-negative form into
absolutely continuous + singular parts and the three-part split of an
arbitrary dominated form into regular + mixed + strongly singular parts,
together with certificate checks and the induced decomposition of complex
measures on finite atomic spaces.
"""

from .errors import (
    DimensionMismatch,
    FormLebError,
    InconsistentRank,
    NegativeReference,
    NotDominating,
    NotHermitian,
    NotPSD,
    PreconditionViolation,
)
from .forms import (
    NonNegativeForm,
    RangeClass,
    SesquilinearForm,
    classify_range,
    construct_dominating,
    is_bounded_by,
    is_dominating,
    polarization_reconstruct,
)
from .lebesgue import (
    NonNegSplit,
    QuotientContext,
    TripleDecomposition,
    ac_extremal_check,
    build_context,
    decompose,
    decompose_nonneg,
    is_absolutely_continuous,
    is_mixed_certificate,
    is_regular,
    is_singular_nonneg,
    is_strongly_singular,
    singularity_sufficient,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    is_psd,
    kernel_basis,
    operator_norm,
    pinv_sqrt,
    psd_sqrt,
)
from .measures import (
    AtomicMeasureSpace,
    ComplexMeasure,
    MeasureSplit,
    decompose_via_forms,
    induced_form,
    is_ac_measure,
    is_singular_measure,
    lebesgue_decompose_measure,
    total_variation,
)
from .selftest import SelfTestReport, run_selftest

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasureSpace",
    "ComplexMeasure",
    "DEFAULT_TOL",
    "DimensionMismatch",
    "FormLebError",
    "InconsistentRank",
    "MeasureSplit",
    "NegativeReference",
    "NonNegSplit",
    "NonNegativeForm",
    "NotDominating",
    "NotHermitian",
    "NotPSD",
    "PreconditionViolation",
    "QuotientContext",
    "RangeClass",
    "SelfTestReport",
    "SesquilinearForm",
    "Tolerance",
    "TripleDecomposition",
    "ac_extremal_check",
    "build_context",
    "classify_range",
    "construct_dominating",
    "decompose",
    "decompose_nonneg",
    "decompose_via_forms",
    "induced_form",
    "is_absolutely_continuous",
    "is_ac_measure",
    "is_bounded_by",
    "is_dominating",
    "is_mixed_certificate",
    "is_psd",
    "is_regular",
    "is_singular_measure",
    "is_singular_nonneg",
    "is_strongly_singular",
    "kernel_basis",
    "lebesgue_decompose_measure",
    "operator_norm",
    "pinv_sqrt",
    "polarization_reconstruct",
    "psd_sqrt",
    "run_selftest",
    "singularity_sufficient",
    "total_variation",
]
