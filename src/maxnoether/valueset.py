"""Co-finite-above integer sets with exact sumset and quotient arithmetic.

A :class:`ValueSet` is the set of valuations attained by a fractional ideal
or by a space of sections at a unibranch point: finitely many exceptional
values below a threshold, plus the full ray above it.  Purely finite sets
(no ray) also occur, as value sets of finite dimensional section spaces, and
the empty set is representable but rejected by the arithmetic operations.

The normal form (sorted exceptional values, minimal threshold) is unique, so
structural equality doubles as set equality and serialized value sets are
equality certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptySet, NotARing, NotNested
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class ValueSet:
    """Normalized integer set: ``exceptional`` values plus ``[threshold, oo)``.

    ``threshold is None`` means the set is finite (possibly empty).
    """

    exceptional: tuple[int, ...] = ()
    threshold: int | None = None

    def __post_init__(self) -> None:
        exc = sorted(set(self.exceptional))
        t = self.threshold
        if t is not None:
            exc = [e for e in exc if e < t]
            while exc and exc[-1] == t - 1:
                t -= 1
                exc.pop()
        object.__setattr__(self, "exceptional", tuple(exc))
        object.__setattr__(self, "threshold", t)

    @classmethod
    def finite(cls, values: Iterable[int]) -> "ValueSet":
        return cls(tuple(values), None)

    @classmethod
    def above(cls, t: int) -> "ValueSet":
        """The ray [t, oo)."""
        return cls((), t)

    @classmethod
    def naturals(cls) -> "ValueSet":
        return cls((), 0)

    @classmethod
    def from_semigroup(cls, s: NumericalSemigroup) -> "ValueSet":
        return cls(tuple(s.elements_below(s.conductor)), s.conductor)

    @property
    def is_empty(self) -> bool:
        return not self.exceptional and self.threshold is None

    @property
    def min(self) -> int | None:
        if self.exceptional:
            return self.exceptional[0]
        return self.threshold

    def contains(self, x: int) -> bool:
        if self.threshold is not None and x >= self.threshold:
            return True
        return x in self.exceptional

    __contains__ = contains

    def elements_below(self, bound: int) -> list[int]:
        """Sorted members strictly below ``bound``."""
        out = [e for e in self.exceptional if e < bound]
        if self.threshold is not None and self.threshold < bound:
            out.extend(range(self.threshold, bound))
        return out

    def shift(self, e: int) -> "ValueSet":
        """Translate every element by ``e``."""
        t = None if self.threshold is None else self.threshold + e
        return ValueSet(tuple(x + e for x in self.exceptional), t)

    def is_subset(self, other: "ValueSet") -> bool:
        if self.threshold is not None:
            # After normalization other.threshold - 1 is not in other, so the
            # ray fits iff other's ray starts at or below ours.
            if other.threshold is None or other.threshold > self.threshold:
                return False
        return all(e in other for e in self.exceptional)

    def __le__(self, other: "ValueSet") -> bool:
        return self.is_subset(other)

    def to_json(self) -> dict:
        return {"exceptional": list(self.exceptional), "threshold": self.threshold}

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        parts = []
        if self.exceptional:
            parts.append("{" + ",".join(str(e) for e in self.exceptional) + "}")
        if self.threshold is not None:
            parts.append(f"[{self.threshold},oo)")
        return " u ".join(parts)


def canonical_ideal(s: NumericalSemigroup) -> ValueSet:
    """Value set of the canonical ideal: `{d : alpha - d - 1 not in S}`.

    Contains S, with equality exactly when S is symmetric; its minimum is 0
    and its threshold is at most the conductor.
    """
    a = s.conductor
    exc = tuple(d for d in range(a) if not s.contains(a - d - 1))
    return ValueSet(exc, a)


def dualizing_values(s: NumericalSemigroup) -> ValueSet:
    """Values of the dualizing stalk before normalization: `{d : -d-1 not in S}`.

    Equals the naturals together with -1-gap for every gap; shifting by the
    conductor gives :func:`canonical_ideal`.
    """
    return ValueSet(tuple(-1 - h for h in s.gaps), 0)


def sumset(a: ValueSet, b: ValueSet) -> ValueSet:
    """Exact sumset {x + y : x in a, y in b}."""
    if a.is_empty or b.is_empty:
        raise EmptySet("sumset of an empty value set")
    if a.threshold is None and b.threshold is None:
        return ValueSet.finite(x + y for x in a.exceptional for y in b.exceptional)
    tails = []
    if a.threshold is not None:
        tails.append(a.threshold + b.min)
    if b.threshold is not None:
        tails.append(b.threshold + a.min)
    tail = min(tails)
    finite = {
        x + y
        for x in a.elements_below(tail - b.min)
        for y in b.elements_below(tail - a.min)
        if x + y < tail
    }
    return ValueSet(tuple(finite), tail)


def n_fold(a: ValueSet, n: int) -> ValueSet:
    """n-fold sumset; n_fold(a, 1) is a itself."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    acc = a
    for _ in range(n - 1):
        acc = sumset(acc, a)
    return acc


def ring_closure(a: ValueSet) -> ValueSet:
    """Smallest additively closed set containing ``a`` (a numerical semigroup).

    Requires 0 in ``a`` and no negative members.
    """
    if a.is_empty or a.min != 0:
        raise NotARing("additive closure needs 0 as the least element")
    if a.threshold is None:
        gens = [e for e in a.exceptional if e > 0]
        if not gens:
            return a
        if math.gcd(*gens) != 1:
            raise NotARing(f"closure of {a} is not co-finite above")
        closed = NumericalSemigroup.from_generators(gens)
        return ValueSet.from_semigroup(closed)
    cur = a
    while True:
        nxt = sumset(cur, cur)
        if nxt == cur:
            return cur
        cur = nxt


def quotient_dim(a: ValueSet, b: ValueSet) -> int:
    """Cardinality of a - b for nested co-finite sets; the monomial quotient dimension."""
    if not b.is_subset(a):
        raise NotNested(f"{b} is not contained in {a}")
    if a.threshold is None:
        return len(a.exceptional) - len(b.exceptional)
    if b.threshold is None:
        raise NotNested(f"{a} minus the finite set {b} is infinite")
    top = max(a.threshold, b.threshold)
    return sum(1 for x in a.elements_below(top) if x not in b)
