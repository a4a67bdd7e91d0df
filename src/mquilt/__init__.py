"""Pufferfish privacy for Markov-chain time series.

Releases Lipschitz queries over a trajectory with Laplace noise whose
scale comes from searching Markov quilts: node sets whose conditioning
bounds how far one protected node can push the rest of the chain. Also
ships a composition accountant for combining audited releases and a
brute-force oracle that verifies guarantees exactly on small instances.
"""

from . import chains, composition, fit, influence, mechanism, oracle, storage
from .chains import *
from .influence import *
from .mechanism import *
from .composition import *
from .oracle import *
from .fit import *
from .storage import *
from .errors import MquiltError

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    name
    for module in (chains, influence, mechanism, composition, oracle, fit, storage)
    for name in module.__all__
] + ["MquiltError", "__version__"]
