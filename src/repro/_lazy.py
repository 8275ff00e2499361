"""Re-exports a package hands out on first access (PEP 562).

``import repro`` is a fixed cost of every query, and most runs never touch the
blob store, the multihost backend or the service's client and server.  A
package ``__init__`` lists such names here instead of importing their modules:
they stay in ``__all__`` and import exactly as before (``from repro import
connect``), but the defining module loads when the first caller asks.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` for ``package`` serving ``{module: names}``."""
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)  # next access skips this hook
        return value

    return __getattr__
