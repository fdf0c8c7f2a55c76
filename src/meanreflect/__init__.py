"""Numerics for backward SDEs whose reflection acts on the mean.

The package builds and verifies solutions of mean-field backward stochastic
differential equations constrained between two running mean-loss barriers:
discrete two-sided reflection maps (forward and terminal-anchored), a
fixed-point construction for general drivers, a penalization scheme, and a
diagnostics layer that turns the theory's quantitative estimates into
executable checks.
"""

from __future__ import annotations

from .bsde import *
from .constraints import *
from .core import *
from .diagnostics import *
from .errors import *
from .mrbsde import *
from .penalty import *
from .skorokhod import *
from .verify import *

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package re-exports all of them.
__all__ = ["__version__"]
__all__ += core.__all__
__all__ += constraints.__all__
__all__ += skorokhod.__all__
__all__ += bsde.__all__
__all__ += mrbsde.__all__
__all__ += penalty.__all__
__all__ += diagnostics.__all__
__all__ += verify.__all__
__all__ += errors.__all__
