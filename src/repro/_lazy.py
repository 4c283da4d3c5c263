"""PEP 562 lazy package re-exports.

``__getattr__ = lazy_exports(__name__, {"HostService": "service"})`` in a
package's ``__init__`` keeps ``from package import HostService`` working
while ``package.service`` is imported on first use, not with the package.
"""

from importlib import import_module
from typing import Callable, Dict


def lazy_exports(package: str, submodule_of: Dict[str, str]) -> Callable:
    """A module ``__getattr__`` resolving each name in *submodule_of*
    from the submodule it maps to."""

    def __getattr__(name: str):
        if name not in submodule_of:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f".{submodule_of[name]}", package), name)

    return __getattr__
