"""Load-sharing reliability systems: closed-form MLEs, simulation, verification.

A k-component parallel system redistributes load as components fail; the
surviving components' hazards change stage by stage. This package fits the
two standard parameterizations of that process ("kim-kvam": constant stage
hazards; "ssk": hazards that switch to linear growth after the s-th
failure), simulates them, and cross-checks the closed-form estimates
against an independent likelihood-only maximizer.

Importing the package loads none of its modules, so each command of
:mod:`loadshare.cli` loads only the layers it runs. The first public name
asked for loads the five layers and binds every public name (PEP 562).
"""

import os

__version__ = "0.1.0"


def __getattr__(name: str):
    # A module's name is left to the import system: ``from loadshare import cli`` asks first.
    if not os.path.isfile(os.path.join(__path__[0], f"{name}.py")):
        from importlib import import_module
        layers = [import_module(f"{__name__}.{layer}")
                  for layer in ("errors", "estimate", "model", "oracle", "simulate")]
        # Each public name is declared once, in its module's __all__; the package joins the lists.
        globals()["__all__"] = [attr for module in layers for attr in module.__all__]
        globals().update((attr, getattr(module, attr)) for module in layers for attr in module.__all__)
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
