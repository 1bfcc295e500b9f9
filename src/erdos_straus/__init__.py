"""Complete characterization of 4/p = 1/x + 1/y + 1/z over primes.

Witness search certifies solutions from a modular condition on
divisors of x*x; recovery maps any solution back to its unique
witness; an independent brute-force oracle cross-validates the
two-way correspondence; range scans verify that every prime admits
a solution and collect residue-class statistics; the report module
tabulates and plots the admissible offsets.

Each module's __all__ is its list of public names; the package
re-exports all of them.
"""

from . import arith, errors, oracle, recover, report, scan, witness
from .arith import *
from .errors import *
from .oracle import *
from .recover import *
from .report import *
from .scan import *
from .witness import *

__version__ = "1.0.0"

__all__ = [
    "__version__",
    *arith.__all__,
    *errors.__all__,
    *oracle.__all__,
    *recover.__all__,
    *report.__all__,
    *scan.__all__,
    *witness.__all__,
]
