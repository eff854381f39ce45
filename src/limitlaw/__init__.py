"""Moment-sequence toolkit for the one-sided tree-destruction limit law.

The limit law is determined by a gamma-type moment sequence; this package
generates that sequence and the local-time / exponential-functional
sequences it coincides with, cross-checks the connecting identities,
reconstructs densities by numerical inverse Mellin transform, and validates
everything against seeded Monte Carlo samplers.
"""

__version__ = "0.1.0"

from . import identities, mellin, moments, montecarlo
from .gammakit import log_beta, log_gamma, log_gamma_complex
from .identities import *  # noqa: F403
from .mellin import *  # noqa: F403
from .moments import *  # noqa: F403
from .montecarlo import *  # noqa: F403

# each module's __all__ is the one list of its public names
__all__ = [
    "__version__", "log_gamma", "log_gamma_complex", "log_beta",
    *moments.__all__, *identities.__all__, *mellin.__all__, *montecarlo.__all__,
]
