"""Exact coends and ends of finite matrix diagrams.

The package computes the coend of a linear functor presented by a finite
diagram of matrices as an explicit quotient, extracts the coalgebra of
the coend and the algebra of the end, verifies their duality, builds the
bialgebra induced by a strict tensor structure, and checks coalgebra
reconstruction round trips on comodule diagrams.  All arithmetic is
exact, over the rationals or a prime field.
"""

from .coend import (
    CoalgebraData,
    CoendStructure,
    coalgebra_structure,
    comatrix_coalgebra,
    compute_coend,
    grouplike_coalgebra,
    induced_coaction,
    is_coalgebra_map,
    relation_space,
    verify_coalgebra,
)
from .diagram import (
    DiagramPresentation,
    HomBasis,
    hom_basis,
    saturate_spans,
    validate_diagram,
)
from .end import (
    AlgebraData,
    EndStructure,
    compute_end,
    duality_isomorphism,
    end_algebra,
    verify_algebra,
)
from .errors import (
    CoendcalcError,
    FieldMismatchError,
    InputFormatError,
    InternalConsistencyError,
    ShapeError,
    WellDefinednessError,
)
from .fields import GF, QQ, Field, PrimeField, RationalField, Scalar
from .linalg import (
    Matrix,
    QuotientSplit,
    kernel_basis,
    kron,
    quotient_split,
    rref,
)
from .reconstruct import (
    ComodulePresentation,
    RoundtripReport,
    canonical_map,
    comodule_hom_span,
    diagram_from_comodules,
    roundtrip_verify,
    verify_comodule,
)
from .reports import Check, CheckReport
from .tensor import (
    BialgebraData,
    TensorData,
    coend_multiplication,
    unit_element,
    validate_tensor,
    verify_bialgebra,
)

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
