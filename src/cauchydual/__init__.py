"""Dirichlet-type spaces of finitely supported circle measures.

The package builds the reproducing kernel of the harmonically weighted
Dirichlet space of a finite sum of point masses on the unit circle,
identifies the space with a de Branges-Rovnyak space through a Schur
function, and tests whether the Cauchy dual of the shift is subnormal.

Public API re-exported here; see the ``docs/`` walkthrough for a tour.
"""

from . import cdsp, cpoly, debranges, dirichlet, errors, measure, report
from .cdsp import *
from .cpoly import *
from .debranges import *
from .dirichlet import *
from .errors import *
from .measure import *
from .report import *

__version__ = "0.1.0"

# Each layer's __all__ is the one declaration of its public names.
__all__ = [
    *cdsp.__all__,
    *cpoly.__all__,
    *debranges.__all__,
    *dirichlet.__all__,
    *errors.__all__,
    *measure.__all__,
    *report.__all__,
]
