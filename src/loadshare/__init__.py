"""Load-sharing reliability systems: closed-form MLEs, simulation, verification.

A k-component parallel system redistributes load as components fail; the
surviving components' hazards change stage by stage. This package fits the
two standard parameterizations of that process ("kim-kvam": constant stage
hazards; "ssk": hazards that switch to linear growth after the s-th
failure), simulates them, and cross-checks the closed-form estimates
against an independent likelihood-only maximizer.
"""

from .errors import *
from .estimate import *
from .model import *
from .oracle import *
from .simulate import *

# Importing a submodule binds it on this package, so each star-import above also binds
# its module's name here: every public name is declared once, in its module's __all__.
__all__ = errors.__all__ + estimate.__all__ + model.__all__ + oracle.__all__ + simulate.__all__

__version__ = "0.1.0"
