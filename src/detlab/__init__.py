"""detlab: exact workbench for determinantal gradient ideals and polar maps."""

__version__ = "0.1.0"

from .polyring import (  # noqa: F401
    Ring, Polynomial, MonomialOrder, grevlex, block_order,
    xring, exact_divide, NOT_DIVISIBLE, parse_polynomial, format_polynomial,
)
from .config import Config, Budget, ComputationTimeout, DEFAULT_CONFIG  # noqa: F401
