"""The base of the library's immutable value classes.

A value class names its fields once, in ``_shown``, in constructor order.
This base builds the object from them: its one constructor stores the
``_shown`` fields, by position or by keyword, with one
``object.__setattr__`` each, and refuses a field that is missing, extra,
repeated or unknown with :class:`TypeError`.  A class with derived fields,
defaults or input checks writes its own ``__init__`` instead.  The base
also compares, hashes and prints over the ``_shown`` fields: equality is one
tuple compare of them against an object of the same class, the hash is the
hash of their tuple, and the repr is ``Name(field=value, ...)``.  A field
set in ``__init__`` but not named in ``_shown`` (a cache, a derived table)
stays out of all three.  :func:`shown_json` is the JSON form of the
``_shown`` fields, which a class takes only by naming it as its
``to_json``.  Any assignment or deletion raises
:class:`FrozenInstanceError`; copy and pickle restore state past that guard.
The base has no slots of its own, so a subclass without ``__slots__`` keeps
its ``__dict__``, and ``functools.cached_property`` works there.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import FrozenInstanceError

# bound once: the constructor calls it once per field of every record made
_set = object.__setattr__


class Frozen:
    __slots__ = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls._shown
        if len(names) > 1:
            values = attrgetter(*names)
        else:
            # attrgetter of one name returns the bare value, not its 1-tuple
            def values(obj):
                return tuple(getattr(obj, name) for name in names)
        cls._shown_values = staticmethod(values)

    def __init__(self, *args, **kwargs) -> None:
        names = self._shown
        if kwargs or len(args) != len(names):
            args = self._fields(args, kwargs)
        # an index, not zip, which allocates an iterator per call
        i = 0
        for name in names:
            _set(self, name, args[i])
            i += 1

    @classmethod
    def _fields(cls, args: tuple, kwargs: dict) -> tuple:
        """The ``_shown`` fields, in order, from positional and keyword arguments."""
        names = cls._shown
        rest = names[len(args):]
        # the keywords must name exactly the fields after the positional ones
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(
                f"{cls.__qualname__}() takes the fields ({', '.join(names)}), not"
                f" {len(args)} by position and ({', '.join(kwargs)}) by keyword"
            )
        return (*args, *(kwargs[name] for name in rest))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._shown_values(self) == self._shown_values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._shown_values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # copy and pickle restore (dict, slots) state, or a dict alone
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


def shown_json(record: Frozen) -> dict:
    """The ``_shown`` fields of a record by name, in order, each tuple written as a list."""
    out = {}
    for name in record._shown:
        value = getattr(record, name)
        out[name] = list(value) if type(value) is tuple else value
    return out
