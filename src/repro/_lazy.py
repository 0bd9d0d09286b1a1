"""Lazy package re-exports (PEP 562).

Each package ``__init__`` re-exports its public names without importing
a submodule: :func:`attach` gives the package a module ``__getattr__``
that imports a name's defining submodule at the first access, and a
``__dir__`` that lists every re-exported name.  So ``import repro`` loads
neither NumPy nor the DRAM and system stacks, and a command pays only
for the modules it uses.  The packages import the same names under
``TYPE_CHECKING`` for type checkers.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def attach(package: str, exports: Dict[str, Sequence[str]]
           ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazily re-exporting package.

    Args:
        package: the package's ``__name__``.
        exports: defining module -> the names the package re-exports
            from it.

    An unknown name raises ``AttributeError``, so ``from package import
    submodule`` still imports the submodule.
    """
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        return getattr(importlib.import_module(module), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
