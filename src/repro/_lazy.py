"""Public names that bind on first use (PEP 562).

Every ``repro`` package re-exports the names of its submodules, but a
process imports only the submodules it touches: the serving path never
loads the experiment suite, the oracle or the Ch. 4–7 layers.  A package
hands :func:`lazy_exports` one ``{submodule: names}`` table and gets back
its ``__all__``, ``__getattr__`` and ``__dir__``::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "routing": ("RoutingTable", "compute_routes"),
        "": ("kernels",),         # submodules exported as themselves
    })

``from pkg import Name``, ``pkg.Name`` and ``from pkg import *`` behave
as with eager imports; the first access imports the defining submodule
and stores the name in the package, so later reads are plain attribute
lookups.  Any other submodule resolves as an attribute too
(``pkg.routing``), as it did when the package imported them all.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, List, Tuple


def _import(name: str) -> object:
    """Import module ``name`` through ``__import__`` (unlike
    ``importlib.import_module``, ``python -X importtime`` reports it)."""
    __import__(name)
    return sys.modules[name]


def lazy_exports(
    package: str,
    table: Dict[str, Iterable[str]],
    own: Iterable[str] = (),
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule (relative to ``package``; ``""`` for
    submodules exported as themselves) to the names it provides;
    ``own`` lists names the package defines itself.
    """
    where = {name: sub for sub, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        sub = where.get(name)
        if sub == "":
            value = _import(f"{package}.{name}")
        elif sub is not None:
            value = getattr(_import(f"{package}.{sub}"), name)
        else:
            try:
                value = _import(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return [*own, *where], __getattr__, __dir__
