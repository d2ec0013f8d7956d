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
which stay namespaces.  Each module is imported on first use of one of
its names (PEP 562), so ``import conbeck`` loads none of them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The modules whose ``__all__`` the package re-exports, in listing order.
_REEXPORTED = ("errors", "graph", "feasibility", "solver", "manifold", "toolkit", "hurdat")


def _submodule(name):
    return _import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name == "__all__":
        modules = map(_submodule, _REEXPORTED)
        value = [export for module in modules for export in module.__all__] + ["__version__"]
    elif name.startswith("_"):  # private and dunder names are neither modules nor exports
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        try:
            value = _submodule(name)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            owner = next((m for m in map(_submodule, _REEXPORTED) if name in m.__all__), None)
            if owner is None:
                raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
            value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_REEXPORTED, *__getattr__("__all__")})
