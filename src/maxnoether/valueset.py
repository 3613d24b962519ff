"""Co-finite-above integer sets with exact sumset and quotient arithmetic.

A :class:`ValueSet` is the set of valuations attained by a fractional ideal
or by a space of sections at a unibranch point: finitely many exceptional
values below a threshold, plus the full ray above it.  Purely finite sets
(no ray) also occur, as value sets of finite dimensional section spaces, and
the empty set is representable but rejected by the arithmetic operations.

A set is stored as an int bitmask of its exceptional values, offset by the
least of them (dualizing values are negative), and the minimal threshold:
bit i is set iff ``min + i`` is an exceptional member, and the ray is not in
the mask.  That normal form is unique, and so is the sorted tuple
``exceptional`` that the constructor keeps, so serialized value sets are
equality certificates.  Equality compares a form both sets hold, and hashing
reads the least and largest exceptional value, their count and the threshold,
which either form gives without deriving the other.  The tuple is derived
only when something reads it.  Membership is a bit test, and a sumset is a
shift-OR of one operand's mask over the other operand's members, cut at the
new threshold.

A numerical semigroup's members are one of these sets
(``NumericalSemigroup.values``), closed and decomposed by the functions here;
this module imports nothing from ``semigroup``.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress
from typing import Iterable

from .errors import ConductorTooLarge, EmptySet, NotARing, NotNested
from .frozen import Frozen

# Largest conductor :func:`ring_closure` computes.  The closure window, and
# every value set made from a semigroup, grow with it.
MAX_CONDUCTOR = 10_000


class ValueSet(Frozen):
    """Normalized integer set: ``exceptional`` values plus ``[threshold, oo)``.

    ``threshold is None`` means the set is finite (possibly empty).  The
    stored form is ``_lo``, the least exceptional value (``None`` when there
    is none), the mask of the exceptional values from ``_lo`` and the
    threshold; ``exceptional`` is derived from the mask when read.  The
    constructor keeps the sorted tuple it was given and derives the mask when
    read, so a sparse set with a huge member costs no huge mask unless the
    arithmetic needs it.
    """

    def __init__(self, exceptional: Iterable[int] = (), threshold: int | None = None):
        exc = sorted(set(exceptional))
        t = threshold
        if t is not None:
            exc = [e for e in exc if e < t]
            while exc and exc[-1] == t - 1:
                t -= 1
                exc.pop()
        state = self.__dict__
        state["exceptional"] = tuple(exc)
        state["_lo"] = exc[0] if exc else None
        state["threshold"] = t

    @cached_property
    def exceptional(self) -> tuple[int, ...]:
        """Sorted members below the threshold that are not on the ray."""
        return () if self._lo is None else tuple(_bit_values(self._lo, self._mask))

    @cached_property
    def _mask(self) -> int:
        """Bit i is set iff ``_lo + i`` is an exceptional member."""
        exc = self.exceptional
        mask = 0
        for e in exc:
            mask |= 1 << (e - exc[0])
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueSet):
            return NotImplemented
        if self._shape() != other._shape():
            return False
        mine, theirs = self.__dict__, other.__dict__
        if "exceptional" in mine and "exceptional" in theirs:
            return mine["exceptional"] == theirs["exceptional"]
        # one of them holds a mask as wide as the other's would be
        return self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._shape())

    def _shape(self) -> tuple[int | None, int | None, int, int | None]:
        """Least and largest exceptional value, their count and the threshold.

        Read from whichever form the set holds, without deriving the other.
        """
        lo, t = self._lo, self.threshold
        if lo is None:
            return None, None, 0, t
        state = self.__dict__
        if "_mask" in state:
            mask = state["_mask"]
            return lo, lo + mask.bit_length() - 1, mask.bit_count(), t
        exc = state["exceptional"]
        return lo, exc[-1], len(exc), t

    def __repr__(self) -> str:
        return f"ValueSet(exceptional={self.exceptional!r}, threshold={self.threshold!r})"

    @classmethod
    def _from_mask(cls, lo: int, mask: int, threshold: int | None) -> "ValueSet":
        """The set ``{lo + i : bit i of mask} u [threshold, oo)``, built in normal form.

        ``threshold`` must be at least ``lo``; mask bits at or above it are dropped.
        """
        if threshold is not None:
            # the run of members just below the threshold joins the ray
            top = (~mask & ((1 << (threshold - lo)) - 1)).bit_length()
            threshold = lo + top
            mask &= (1 << top) - 1
        if mask:
            low = (mask & -mask).bit_length() - 1
            lo += low
            mask >>= low
        return cls._stored(lo if mask else None, mask, threshold)

    @classmethod
    def _stored(cls, lo: int | None, mask: int, threshold: int | None) -> "ValueSet":
        """The set with the stored form ``(lo, mask, threshold)``, already normal."""
        vs = object.__new__(cls)
        state = vs.__dict__
        state["_lo"] = lo
        state["_mask"] = mask
        state["threshold"] = threshold
        return vs

    @classmethod
    def finite(cls, values: Iterable[int]) -> "ValueSet":
        return cls(tuple(values), None)

    @classmethod
    def above(cls, t: int) -> "ValueSet":
        """The ray [t, oo)."""
        return cls._stored(None, 0, t)

    @classmethod
    def naturals(cls) -> "ValueSet":
        return cls._stored(None, 0, 0)

    @property
    def is_empty(self) -> bool:
        return self._lo is None and self.threshold is None

    @property
    def min(self) -> int | None:
        return self.threshold if self._lo is None else self._lo

    def contains(self, x: int) -> bool:
        t = self.threshold
        if t is not None and x >= t:
            return True
        lo = self._lo
        return lo is not None and x >= lo and (self._mask >> (x - lo)) & 1 == 1

    __contains__ = contains

    def elements_below(self, bound: int) -> list[int]:
        """Sorted members strictly below ``bound``."""
        lo = self.min
        return [] if lo is None else _bit_values(lo, self._bits_below(lo, bound))

    def below(self, bound: int) -> "ValueSet":
        """The finite set of members strictly below ``bound``."""
        lo = self.min
        if lo is None:
            return self
        return ValueSet._from_mask(lo, self._bits_below(lo, bound), None)

    def _bits_below(self, lo: int, bound: int) -> int:
        """Members in ``[lo, bound)`` as a mask whose bit i stands for ``lo + i``."""
        if bound <= lo:
            return 0
        window = (1 << (bound - lo)) - 1
        bits = 0
        if self._lo is not None:
            d = self._lo - lo
            bits = self._mask << d if d >= 0 else self._mask >> -d
        if self.threshold is not None:
            bits |= window & ~((1 << max(self.threshold - lo, 0)) - 1)
        return bits & window

    def shift(self, e: int) -> "ValueSet":
        """Translate every element by ``e``."""
        t = None if self.threshold is None else self.threshold + e
        return ValueSet._stored(None if self._lo is None else self._lo + e, self._mask, t)

    def is_subset(self, other: "ValueSet") -> bool:
        if self.threshold is not None:
            # After normalization other.threshold - 1 is not in other, so the
            # ray fits iff other's ray starts at or below ours.
            if other.threshold is None or other.threshold > self.threshold:
                return False
        lo, t = self._lo, other.threshold
        if lo is None or (t is not None and lo >= t):
            return True
        mask = self._mask
        if t is not None:
            # members at or above t lie on other's ray
            mask &= (1 << (t - lo)) - 1
        other_lo = other._lo
        if other_lo is None or lo < other_lo:
            return False
        return (mask << (lo - other_lo)) & ~other._mask == 0

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


# bin() digits "0" and "1" as the bytes 0 and 1, so they can select values
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_values(lo: int, mask: int) -> list[int]:
    """The values ``lo + i`` for the set bits i of ``mask``, in increasing order."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)  # bit i at index i
    return list(compress(range(lo, lo + len(bits)), bits))


def canonical_ideal(s: "NumericalSemigroup") -> ValueSet:
    """Value set of the canonical ideal: `{d : alpha - d - 1 not in S}`.

    Equals [alpha, oo) together with alpha - 1 - gap for every gap.  Contains
    S, with equality exactly when S is symmetric; its minimum is 0.
    """
    a = s.conductor
    # bit d stands for the value d = a - 1 - h of the gap h
    return ValueSet._from_mask(0, sum(1 << (a - 1 - h) for h in s.gaps), a)


def dualizing_values(s: "NumericalSemigroup") -> ValueSet:
    """Values of the dualizing stalk before normalization: `{d : -d-1 not in S}`.

    Equals the naturals together with -1-gap for every gap; shifting by the
    conductor gives :func:`canonical_ideal`.
    """
    return canonical_ideal(s).shift(-s.conductor)


def sumset(a: ValueSet, b: ValueSet) -> ValueSet:
    """Exact sumset {x + y : x in a, y in b}."""
    if a.is_empty or b.is_empty:
        raise EmptySet("sumset of an empty value set")
    tail = None
    if a.threshold is not None:
        tail = a.threshold + b.min
    if b.threshold is not None:
        tail = b.threshold + a.min if tail is None else min(tail, b.threshold + a.min)
    # A sum with a summand on a ray is at least the tail, so below the tail
    # only exceptional members add up; _from_mask drops the sums past it.
    if a._lo is None or b._lo is None:
        return ValueSet.above(tail)
    if a._mask.bit_count() > b._mask.bit_count():
        a, b = b, a  # shift the larger mask over the fewer members
    lo, mask = a._lo, b._mask
    acc = 0
    for x in a.exceptional:
        acc |= mask << (x - lo)
    return ValueSet._from_mask(a._lo + b._lo, acc, tail)


class PowerChain:
    """The sumset powers a, a + a, a + a + a, ... of one value set, each built once.

    ``power(n)`` extends the chain by the same ``sumset(previous, a)`` steps
    as :func:`n_fold` and keeps every power it made, so asking for the powers
    1..n of one set costs n - 1 sumsets in all.
    """

    def __init__(self, base: ValueSet):
        self._powers = [base]

    def power(self, n: int) -> ValueSet:
        if n < 1:
            raise ValueError("n must be a positive integer")
        powers = self._powers
        while len(powers) < n:
            powers.append(sumset(powers[-1], powers[0]))
        return powers[n - 1]


def n_fold(a: ValueSet, n: int) -> ValueSet:
    """n-fold sumset; n_fold(a, 1) is a itself."""
    return PowerChain(a).power(n)


def missing_bits(a: ValueSet, b: ValueSet, bound: int) -> tuple[int, int]:
    """Members of ``a`` below ``bound`` that are not in ``b``, as ``(lo, mask)``.

    Bit i of the mask stands for ``lo + i``; ``lo`` is the least member of ``a``.
    """
    lo = a.min
    if lo is None:
        return 0, 0
    return lo, a._bits_below(lo, bound) & ~b._bits_below(lo, bound)


def missing_below(a: ValueSet, b: ValueSet, bound: int) -> list[int]:
    """Sorted members of ``a`` below ``bound`` that are not in ``b``."""
    return _bit_values(*missing_bits(a, b, bound))


def ring_closure(a: ValueSet) -> ValueSet:
    """Smallest additively closed set containing ``a`` (a numerical semigroup).

    Requires 0 in ``a`` and no negative members; a finite ``a`` also needs
    nonzero members of gcd 1.  Nonzero exceptional members of gcd 1 close to
    every integer from (min - 1)(max - 1) on (Schur's bound; Brauer, Amer. J.
    Math. 64, 1942), so the closure starts from that ray when it is lower.
    A closure whose conductor is above :data:`MAX_CONDUCTOR` raises
    :class:`ConductorTooLarge`: at once when a lower bound on the conductor is
    past the cap, else after closing at most ``MAX_CONDUCTOR + min`` values when
    Schur's bound applies.
    """
    if a.is_empty or a.min != 0:
        raise NotARing("additive closure needs 0 as the least element")
    gens, t = a.exceptional[1:], a.threshold
    coprime = bool(gens) and math.gcd(*gens) == 1
    if t is None and not coprime:
        if gens:
            raise NotARing(f"closure of {a} is not co-finite above")
        return a
    # The values 1, ..., least - 1 are gaps, so the conductor is at least the
    # least nonzero member.  Without coprime members every value below t is a
    # multiple of their gcd, so t - 1 or t - 2 is a gap.  Past the cap no
    # window is built.
    least = gens[0] if gens else t
    if least > MAX_CONDUCTOR or (not coprime and t - 1 > MAX_CONDUCTOR):
        raise _conductor_too_large(a)
    cur = a
    if coprime:
        # Past the cap, close a window of MAX_CONDUCTOR + min values instead:
        # below its end it closes as ``a`` does, and a conductor past the cap
        # leaves one of the gaps F, F - min, ... (F the Frobenius number) in
        # [MAX_CONDUCTOR, MAX_CONDUCTOR + min).
        ray = min((gens[0] - 1) * (gens[-1] - 1), MAX_CONDUCTOR + gens[0])
        cur = ValueSet(a.exceptional, ray if t is None else min(t, ray))
    while True:
        nxt = sumset(cur, cur)
        if nxt == cur:
            break
        cur = nxt
    if cur.threshold > MAX_CONDUCTOR:
        raise _conductor_too_large(a)
    return cur


def _conductor_too_large(a: ValueSet) -> ConductorTooLarge:
    return ConductorTooLarge(
        f"the additive closure of {a} has its conductor above the limit "
        f"MAX_CONDUCTOR = {MAX_CONDUCTOR}"
    )


def quotient_dim(a: ValueSet, b: ValueSet) -> int:
    """Cardinality of a - b for nested co-finite sets; the monomial quotient dimension."""
    if not b.is_subset(a):
        raise NotNested(f"{b} is not contained in {a}")
    size_a, size_b = a._mask.bit_count(), b._mask.bit_count()
    if a.threshold is None:
        return size_a - size_b
    if b.threshold is None:
        raise NotNested(f"{a} minus the finite set {b} is infinite")
    # b inside a puts a's threshold at or below b's, so below b's threshold a
    # has its exceptional values and the run [a.threshold, b.threshold).
    return size_a + b.threshold - a.threshold - size_b
