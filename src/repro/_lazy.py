"""Re-exports a package hands out on first access (PEP 562).

``import repro`` is a fixed cost of every query, and a query runs one
algorithm on one backend: a D-SEQ run never touches
D-CAND, the NFA layer, the sequential miners, a dataset
generator or the service.  Every package ``__init__`` therefore lists what it
exports here instead of importing the defining modules: each name is written
once, stays in ``__all__`` and ``dir()`` and imports exactly as before
(``from repro import connect``), but its module loads when the first caller
asks.  A long-lived process that would rather pay up front calls
:func:`repro.api.session.preload_miners` (``repro serve`` does).
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package`` serving ``{module: names}``."""
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
        else:
            # A submodule nobody imported yet (``import repro; repro.core.mine``)
            # or no attribute at all.
            submodule = f"{package}.{name}"
            try:
                value = None if name.startswith("_") else import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
                value = None
            if value is None:
                raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)  # next access skips this hook
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *module_of})

    return __getattr__, __dir__, sorted(module_of)
