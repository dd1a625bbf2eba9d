"""Exact canonical forms of matrices over the rationals and GF(p).

The library computes, with field operations only (no factoring, no
eigenvalues): the rational normal form together with an explicit
conjugating matrix, minimal and characteristic polynomials, a complete
similarity test with witness, and the Jordan form of nilpotent
matrices.
"""

from .canonical import (
    JnfResult,
    RnfResult,
    char_poly,
    invariant_factors,
    is_similar,
    nilpotent_jnf,
    rnf,
)
from .errors import (
    DimensionError,
    InternalInvariantError,
    MatrixParseError,
    MixedFieldError,
    NotNilpotentError,
    RatformError,
    SingularMatrixError,
)
from .field import Field, PrimeField, Rationals
from .linalg import (
    Mat,
    block_diag,
    char_poly_oracle,
    companion,
    complete_to_basis,
    eval_poly,
    eval_poly_vec,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve,
)
from .matio import format_matrix, parse_matrix
from .minpoly import (
    LocalAnnihilator,
    combine_lcm_vector,
    local_min_poly,
    min_poly,
    min_poly_vector,
)
from .poly import Poly, poly_gcd, poly_lcm, split_gcd

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Rationals",
    "PrimeField",
    "Poly",
    "poly_gcd",
    "poly_lcm",
    "split_gcd",
    "Mat",
    "rref",
    "rank",
    "inverse",
    "kernel_basis",
    "solve",
    "complete_to_basis",
    "companion",
    "block_diag",
    "eval_poly",
    "eval_poly_vec",
    "char_poly_oracle",
    "LocalAnnihilator",
    "local_min_poly",
    "combine_lcm_vector",
    "min_poly_vector",
    "min_poly",
    "RnfResult",
    "JnfResult",
    "rnf",
    "invariant_factors",
    "char_poly",
    "is_similar",
    "nilpotent_jnf",
    "parse_matrix",
    "format_matrix",
    "RatformError",
    "MixedFieldError",
    "DimensionError",
    "SingularMatrixError",
    "NotNilpotentError",
    "MatrixParseError",
    "InternalInvariantError",
]
