"""Partial-transposition bounds on Bell-inequality violation.

The package builds key-correlated and PPT state families, assembles Bell
operators and boxes, lower-bounds quantum values by a measurement seesaw,
and checks the transposition-based upper bounds together with the
KL-divergence nonlocality measure and its relative-entropy chains.

Every name in a module's ``__all__`` is re-exported here.
"""

from . import bell, config, linalg, nonlocality, states
from .config import *  # noqa: F403
from .linalg import *  # noqa: F403
from .states import *  # noqa: F403
from .bell import *  # noqa: F403
from .nonlocality import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*config.__all__, *linalg.__all__, *states.__all__, *bell.__all__,
           *nonlocality.__all__, "__version__"]
