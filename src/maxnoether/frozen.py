"""The base of the library's immutable value classes.

Each value class writes its own ``__init__``, ``__eq__`` and ``__hash__``:
one ``object.__setattr__`` per field, one tuple compare of the compared
fields and one tuple hash of them.  This base adds what they share: a repr
of ``Name(field=value, ...)`` over the fields named in ``_shown``, and a
:class:`FrozenInstanceError` on any assignment or deletion.  It has no
slots of its own, so a subclass without ``__slots__`` keeps its
``__dict__``, and ``functools.cached_property`` works there.
"""

from __future__ import annotations

from .errors import FrozenInstanceError


class Frozen:
    __slots__ = ()
    _shown: tuple[str, ...] = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
