"""mosqdyn: a discrete-time wild mosquito population model with distinct
birth and death rates, plus the machinery to certify its asymptotics.

The package simulates the two-stage (larvae, adults) map, classifies the
extinction state spectrally, verifies the extinction/escape dichotomy
along orbits with online monitors, excludes periodic behavior on the
population simplex, and cross-checks everything against the continuous
flow the map discretizes.  `battery` gathers those checks into the sweep
and certificate battery that the command line interface runs.

numpy is imported by the functions that build arrays, never at load, so
importing the package, or running a command that builds no array
(`classify`), does not load it.
"""

from . import battery, errors, model, ode, simplex, spectral, trajectory
from .battery import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .ode import *  # noqa: F403
from .simplex import *  # noqa: F403
from .spectral import *  # noqa: F403
from .trajectory import *  # noqa: F403

__version__ = "0.1.0"

# each module names its public API once, in its own __all__
__all__ = sorted(
    name for module in (battery, errors, model, ode, simplex, spectral, trajectory) for name in module.__all__
)
