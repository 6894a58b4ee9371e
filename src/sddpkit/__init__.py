"""Data-driven SDDP with kernel-conditioned weights and a distributionally robust variant.

The package exports every public name of its modules: each module's
``__all__`` is the one list of its names.
"""

__version__ = "0.1.0"

from . import approximations, driver, kernel, lp, robust, scenarios, stages
from .approximations import *  # noqa: F401,F403
from .driver import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .lp import *  # noqa: F401,F403
from .robust import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
from .stages import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (approximations, driver, kernel, lp, robust, scenarios, stages)
    for name in module.__all__
]
