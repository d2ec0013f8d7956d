"""Optimal transport between vector fields on connection graphs.

The package bundles the pipeline around the regularized Beckmann problem
on connection graphs: operator assembly and consistency analysis
(:mod:`conbeck.graph`), spectral feasibility and switching
(:mod:`conbeck.feasibility`), the dual-ascent transport solver
(:mod:`conbeck.solver`), point-cloud to connection-graph construction
(:mod:`conbeck.manifold`), field utilities, interpolation and clustering
(:mod:`conbeck.toolkit`), HURDAT2 ingestion (:mod:`conbeck.hurdat`) and
file codecs plus the command line front end (:mod:`conbeck.io`,
:mod:`conbeck.cli`).  The package re-exports the ``__all__`` of each of
these modules and of :mod:`conbeck.errors`, except ``io`` and ``cli``,
which stay namespaces.
"""

from . import errors, feasibility, graph, hurdat, manifold, solver, toolkit
from .errors import *
from .feasibility import *
from .graph import *
from .hurdat import *
from .manifold import *
from .solver import *
from .toolkit import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, graph, feasibility, solver, manifold, toolkit, hurdat)
    for name in module.__all__
] + ["__version__"]
