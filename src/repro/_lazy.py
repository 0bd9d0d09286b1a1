"""Lazy package re-exports (PEP 562).

Each package ``__init__`` states its public names once, as the ``from
module import names`` statements of its ``if TYPE_CHECKING:`` block:
the list type checkers read.  :func:`attach` gives the package a module
``__getattr__`` and ``__dir__`` that read the same block from the
package's source, with ``ast``, at the first lookup the module's dict
cannot answer, and import a name's defining submodule at its first
access.  So ``import repro`` loads neither NumPy, nor the DRAM and
system stacks, nor ``ast``, and a command pays only for the modules it
uses.  This is the pattern of scientific-python SPEC 1's
``lazy_loader.attach_stub``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


@functools.lru_cache(maxsize=None)
def _read_exports(path: str) -> Dict[str, str]:
    """``{name: defining module}`` of the ``if TYPE_CHECKING:`` block of
    the package source at ``path``.

    Raises:
        ImportError: naming ``path``, if the source has no such block or
            the block holds anything but ``from module import names``
            statements of absolute modules and public names.
    """
    import ast

    with open(path, "rb") as source:
        tree = ast.parse(source.read(), path)
    blocks = [node.body for node in tree.body
              if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
              and node.test.id == "TYPE_CHECKING"]
    if not blocks:
        raise ImportError(f"{path}: no 'if TYPE_CHECKING:' block")
    where: Dict[str, str] = {}
    for statement in blocks[0]:
        if (not isinstance(statement, ast.ImportFrom)
                or statement.module is None or statement.level
                or any(alias.asname or alias.name[0] in "_*"
                       for alias in statement.names)):
            raise ImportError(
                f"{path}:{statement.lineno}: the TYPE_CHECKING block may "
                "hold only 'from module import names' statements")
        module = statement.module
        where.update((alias.name, module) for alias in statement.names)
    return where


def attach(package: str, path: str
           ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazily re-exporting package.

    Args:
        package: the package's ``__name__``.
        path: the package's ``__file__``, whose ``TYPE_CHECKING`` block
            names the re-exports.

    ``__getattr__`` also answers ``__all__``, so star imports bind every
    re-export.  An unknown name raises ``AttributeError``, so ``from
    package import submodule`` still imports the submodule; a name with
    a leading underscore is never a re-export, so the import system's
    probe for a private submodule does not read the block.
    """
    def __getattr__(name: str) -> Any:
        if name == "__all__":
            return list(_read_exports(path))
        module = None if name.startswith("_") else _read_exports(path).get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    def __dir__() -> List[str]:
        return sorted({"__all__", *vars(sys.modules[package]),
                       *_read_exports(path)})

    return __getattr__, __dir__
