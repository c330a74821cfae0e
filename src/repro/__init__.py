"""repro -- a pure-Python reproduction of "Hexagons are the Bestagons:
Design Automation for Silicon Dangling Bond Logic" (DAC 2022).

The stable public API lives in :mod:`repro.api`::

    from repro import api

    result = api.design("mux21")
    print(result.summary())

``repro.design`` is a shortcut for :func:`repro.api.design`; every
other public name is imported from :mod:`repro.api`.
"""

from __future__ import annotations

import importlib

__version__ = "2.0.0"

__all__ = [
    "api",
    "design",
    "package_version",
    "__version__",
]


def package_version() -> str:
    """The installed package version (``repro --version``, ``/v1/healthz``).

    Sourced from the installation metadata when the package is actually
    installed; running straight from a source tree (``PYTHONPATH=src``)
    falls back to :data:`__version__`.
    """
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        return __version__


def __getattr__(name: str):
    if name == "api":
        return importlib.import_module("repro.api")
    if name == "design":
        return importlib.import_module("repro.api").design
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
