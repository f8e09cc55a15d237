"""Exact symbolic kernel for modules over polynomial vector fields.

The package computes inside the Lie algebra of function # vector-field
pairs over a polynomial ring with exact rational arithmetic: annihilator
elements and their closed forms, bracket identities, finite modules given
by differential-operator action tensors, annihilation decisions, the
differential-operator order of the action (with an independent commutator
oracle), and the localized action with its finite series.  Everything is
checked with zero tolerance; there is no floating point anywhere.
The public names are those in the ``__all__`` of each submodule.
"""

__version__ = "0.1.0"

from . import localize, modules, poly, smash, suites
from .poly import *
from .smash import *
from .modules import *
from .localize import *
from .suites import *

__all__ = ["__version__", *poly.__all__, *smash.__all__, *modules.__all__,
           *localize.__all__, *suites.__all__]
