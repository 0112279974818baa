"""Collective-spin Lindblad dynamics.

Builds Markovian generators for spin ensembles damped by independent or
common baths, integrates the master equation, and evaluates the entropy
rates, variances, and stationary-subspace certificates that characterize
how entangled ensemble states decohere.

The package's names are its modules' ``__all__``, each declared once, in
the module that defines it.
"""

from . import config, diagnostics, generator, spin_algebra, states
from .config import *
from .diagnostics import *
from .generator import *
from .spin_algebra import *
from .states import *

__version__ = "0.1.0"

__all__ = ["__version__", *spin_algebra.__all__, *states.__all__, *generator.__all__,
           *diagnostics.__all__, *config.__all__]
