"""Exact symbolic kernel for modules over polynomial vector fields.

The package computes inside the Lie algebra of function # vector-field
pairs over a polynomial ring with exact rational arithmetic: annihilator
elements and their closed forms, bracket identities, finite modules given
by differential-operator action tensors, annihilation decisions, the
differential-operator order of the action (with an independent commutator
oracle), and the localized action with its finite series.  Everything is
checked with zero tolerance; there is no floating point anywhere.

The public names are those in the ``__all__`` of each layer (``poly``,
``smash``, ``modules``, ``localize``, ``suites``).  ``import smashmod``
loads none of the layers: a layer is imported when one of its names, or
the layer itself, is first looked up on the package, so ``smashmod.Poly``
loads ``poly`` alone and ``from smashmod import *`` loads all five.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# in dependency order: looking a name up imports the layers up to its owner
_LAYERS = ("poly", "smash", "modules", "localize", "suites")


def __getattr__(name: str):
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        global __all__
        __all__ = ["__version__", *(n for layer in _LAYERS for n in __getattr__(layer).__all__)]
        return __all__
    if not name.startswith("_"):
        for layer in _LAYERS:
            module = __getattr__(layer)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__getattr__("__all__")})
