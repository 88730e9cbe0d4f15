"""Mechanical derivation, simulation and direct verification of
higher-order Lagrangian, Hamiltonian and unified dynamics.

Start from a k-th order Lagrangian written in a small expression
language; derive the momenta, Euler-Lagrange equations, Hessian and
Hamiltonian; integrate either the order-2k jet dynamics or the unified
jet-momentum dynamics; and check everything numerically: trajectories
against the equations they should satisfy, vector fields against the
two-form kernel equation, and paths against stationarity of the action.
"""

__version__ = "0.1.0"

from .errors import *
from .expressions import *
from .systems import *
from .legendre import *
from .unified import *
from .dynamics import *
from .variational import *

# the public names are each module's __all__, plus the modules themselves
__all__ = [name for name in dir() if not name.startswith("_")]
