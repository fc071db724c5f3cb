"""Exact-arithmetic structure analysis for swapped supersymmetric
polynomial representations of orthosymplectic Lie superalgebras."""

from .superpoly import (
    SuperMonomial,
    SuperOperator,
    SuperPolynomial,
    VariableSignature,
    apply_operator,
    format_poly,
    mono_mul,
    theta_word,
)
from .osp import (
    MatrixElement,
    RepConfig,
    SubsetMarkers,
    Weight,
    aprime_normalize,
    config_a,
    config_aprime,
    delta_eta,
    markers,
    monomial_weight,
    osp_basis,
    rep_element,
    rep_matrix_unit,
    unit,
)

__version__ = "0.1.0"
