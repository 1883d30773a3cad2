"""Collectivity and criticality diagnostics for coupled systems.

Measures how strongly a system of many coupled components moves as one:
time-resolved eigenspectra of empirical correlation matrices (including
lag-shifted cross-market merging), log-periodic power-law fitting of
critical dynamics, and two exactly solvable reference models (the
separable-coupling collective-state model and the Weierstrass random walk)
that anchor the numerics.

The submodules load on first use (PEP 562), so `import collectivity.cli`
loads neither numpy nor any of them; `collectivity.spectral` and
`from collectivity import spectral` both import it when needed.
"""

import importlib

from .errors import DataError, NumericError

__version__ = "0.1.0"

_SUBMODULES = ("corr", "lppl", "marketdata", "rpa", "spectral", "synthetic", "weierstrass")

__all__ = ["DataError", "NumericError", "__version__", *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # The import binds the submodule on the package, so this runs once per name.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
