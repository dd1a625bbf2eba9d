"""Exact canonical forms of matrices over the rationals and GF(p).

The library computes, with field operations only (no factoring, no
eigenvalues): the rational normal form together with an explicit
conjugating matrix, minimal and characteristic polynomials, a complete
similarity test with witness, and the Jordan form of nilpotent
matrices.

Each module declares its public names once, in its own `__all__`;
`ratform.__all__` joins them in the README's order.
"""

from . import canonical, errors, field, linalg, matio, minpoly, poly
from .canonical import *
from .errors import *
from .field import *
from .linalg import *
from .matio import *
from .minpoly import *
from .poly import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (field, poly, linalg, minpoly, canonical, matio, errors)
    for name in module.__all__
]
