"""Exact cohomology of equivariant vector bundles on rational homogeneous
spaces, with Koszul restriction chases and rigidity audit reports.

All arithmetic is exact: arbitrary-precision integers throughout, no
floating point anywhere. The package exports every name in each module's
``__all__``.
"""

from .root_system import *
from .bott import *
from .schur import *
from .koszul import *
from .scenarios import *

__version__ = "0.1.0"
