"""Co-finite-above integer sets with exact sumset and quotient arithmetic.

A :class:`ValueSet` is the set of valuations attained by a fractional ideal
or by a space of sections at a unibranch point: finitely many exceptional
values below a threshold, plus the full ray above it.  Purely finite sets
(no ray) also occur, as value sets of finite dimensional section spaces, and
the empty set is representable but rejected by the arithmetic operations.

The normal form (sorted exceptional values, minimal threshold) is unique, so
structural equality doubles as set equality and serialized value sets are
equality certificates.

For arithmetic each set also carries an int bitmask of its exceptional
values, offset by the minimum (dualizing values are negative): bit i is set
iff ``min + i`` is an exceptional member.  The ray is not in the mask.  The
mask is derived from the normal form once per object and is never compared,
hashed or serialized; membership is a bit test, and a sumset is a shift-OR
of one operand's mask over the other operand's members, cut at the new
threshold.

A numerical semigroup's members are one of these sets
(``NumericalSemigroup.values``), closed and decomposed by the functions here;
this module imports nothing from ``semigroup``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable

from .errors import ConductorTooLarge, EmptySet, NotARing, NotNested

# Largest conductor :func:`ring_closure` computes.  The closure window, and
# every value set made from a semigroup, grow with it.
MAX_CONDUCTOR = 10_000


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

    @cached_property
    def _mask(self) -> int:
        """Bit i is set iff ``min + i`` is an exceptional member."""
        exc = self.exceptional
        mask = 0
        for e in exc:
            mask |= 1 << (e - exc[0])
        return mask

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
        vs = object.__new__(cls)
        object.__setattr__(vs, "exceptional", tuple(_bit_values(lo, mask)))
        object.__setattr__(vs, "threshold", threshold)
        vs.__dict__["_mask"] = mask
        return vs

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

    @property
    def is_empty(self) -> bool:
        return not self.exceptional and self.threshold is None

    @property
    def min(self) -> int | None:
        if self.exceptional:
            return self.exceptional[0]
        return self.threshold

    def contains(self, x: int) -> bool:
        t = self.threshold
        if t is not None and x >= t:
            return True
        exc = self.exceptional
        return bool(exc) and x >= exc[0] and (self._mask >> (x - exc[0])) & 1 == 1

    __contains__ = contains

    def elements_below(self, bound: int) -> list[int]:
        """Sorted members strictly below ``bound``."""
        out = [e for e in self.exceptional if e < bound]
        if self.threshold is not None and self.threshold < bound:
            out.extend(range(self.threshold, bound))
        return out

    def _bits_below(self, lo: int, bound: int) -> int:
        """Members in ``[lo, bound)`` as a mask whose bit i stands for ``lo + i``."""
        if bound <= lo:
            return 0
        window = (1 << (bound - lo)) - 1
        bits = 0
        if self.exceptional:
            d = self.exceptional[0] - lo
            bits = self._mask << d if d >= 0 else self._mask >> -d
        if self.threshold is not None:
            bits |= window & ~((1 << max(self.threshold - lo, 0)) - 1)
        return bits & window

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
        exc, t = self.exceptional, other.threshold
        if not exc or (t is not None and exc[0] >= t):
            return True
        mask = self._mask
        if t is not None:
            # members at or above t lie on other's ray
            mask &= (1 << (t - exc[0])) - 1
        other_exc = other.exceptional
        if not other_exc or exc[0] < other_exc[0]:
            return False
        return (mask << (exc[0] - other_exc[0])) & ~other._mask == 0

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
    return ValueSet(tuple(a - 1 - h for h in s.gaps), a)


def dualizing_values(s: "NumericalSemigroup") -> ValueSet:
    """Values of the dualizing stalk before normalization: `{d : -d-1 not in S}`.

    Equals the naturals together with -1-gap for every gap; shifting by the
    conductor gives :func:`canonical_ideal`.
    """
    return ValueSet(tuple(-1 - h for h in s.gaps), 0)


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
    if not a.exceptional or not b.exceptional:
        return ValueSet.above(tail)
    if len(a.exceptional) > len(b.exceptional):
        a, b = b, a  # shift the larger mask over the fewer members
    lo = a.exceptional[0]
    mask = b._mask
    acc = 0
    for x in a.exceptional:
        acc |= mask << (x - lo)
    return ValueSet._from_mask(lo + b.exceptional[0], acc, tail)


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


def missing_below(a: ValueSet, b: ValueSet, bound: int) -> list[int]:
    """Sorted members of ``a`` below ``bound`` that are not in ``b``."""
    lo = a.min
    if lo is None:
        return []
    return _bit_values(lo, a._bits_below(lo, bound) & ~b._bits_below(lo, bound))


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
    if a.threshold is None:
        return len(a.exceptional) - len(b.exceptional)
    if b.threshold is None:
        raise NotNested(f"{a} minus the finite set {b} is infinite")
    # b inside a puts a's threshold at or below b's, so below b's threshold a
    # has its exceptional values and the run [a.threshold, b.threshold).
    return len(a.exceptional) + b.threshold - a.threshold - len(b.exceptional)
