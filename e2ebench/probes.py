"""Install and remove wrappers around the repository's functions.

A probe target is written ``"package.module:Qualified.name"``.  For a
module-level function, every loaded ``repro`` module that bound the same
function object (``from x import f``) is patched too, so callers that
imported the name before the probe went in still reach the wrapper.
A method is patched on the class that defines it.

:class:`Patches` records every replacement and :meth:`Patches.restore`
puts each original back, so a process can probe, run, and leave the
program exactly as it found it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable

#: Modules scanned for re-bound copies of a patched module function.
SCANNED_PREFIX = "repro"


class ProbeError(LookupError):
    """A probe target does not name a function of the program."""


def resolve(target: str) -> tuple[Any, str, Callable]:
    """Return ``(owner, attribute, function)`` for a probe target."""
    module_name, sep, qualname = target.partition(":")
    if not sep or not qualname:
        raise ProbeError(f"probe target {target!r} is not 'module:name'")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise ProbeError(f"cannot import {module_name!r}: {error}") from error
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise ProbeError(f"{target!r}: no attribute {part!r}")
    if isinstance(owner, type):
        function = owner.__dict__.get(name)
    else:
        function = getattr(owner, name, None)
    if not callable(function):
        raise ProbeError(f"{target!r} is not a function")
    return owner, name, function


class Patches:
    """The set of wrappers one process installed, for exact restoration."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def install(
        self, target: str, make_wrapper: Callable[[Callable], Callable]
    ) -> int:
        """Wrap ``target``; returns how many bindings were replaced."""
        owner, name, original = resolve(target)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._replace(owner, name, original, wrapper)
        replaced = 1
        if not isinstance(owner, type):
            for module_name, module in list(sys.modules.items()):
                if module is owner or not module_name.startswith(SCANNED_PREFIX):
                    continue
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attribute, original, wrapper)
                        replaced += 1
        return replaced

    def _replace(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Put every original binding back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
