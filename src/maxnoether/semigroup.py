"""Numerical semigroups and their classical invariants.

A numerical semigroup is an additively closed subset of the natural numbers
that contains 0 and has finite complement (the gap set).  It records the
valuations of a unibranch curve singularity: the number of gaps is the local
delta invariant, the least positive element is the multiplicity of the point,
and symmetry of the gap set characterizes Gorenstein points.

Semigroups are value objects: immutable, hashable, with all invariants
derived from the gap list.  Membership is a bit test on the semigroup's value
set :attr:`NumericalSemigroup.values`, and every construction is value-set
arithmetic: a generating set is closed with :func:`ring_closure`, and one
sumset of the nonzero members gives both the closure check of a gap set and
the minimal generators.  The genus-tree walk :func:`enumerate_semigroups`
builds each child from its parent's member mask and generators instead.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator

from .errors import EmptyGenerators, NoSingularity, NotCofinite
from .frozen import Frozen
from .valueset import (
    ValueSet,
    _bit_values,
    canonical_ideal,
    missing_below,
    ring_closure,
    sumset,
)


class NumericalSemigroup(Frozen):
    """A numerical semigroup, stored as its minimal generators and its gaps."""

    _shown = ("generators", "gaps")

    @cached_property
    def _hash(self) -> int:
        # taken once, on first use: the caches keyed by a semigroup hash it
        # on every lookup, and its two tuples are rehashed item by item
        return hash(self._shown_values(self))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def values(self) -> ValueSet:
        """The members below the conductor, then the ray; the constructors store theirs."""
        return ring_closure(ValueSet.finite((0, *self.generators)))

    @property
    def conductor(self) -> int:
        """Least c with [c, oo) contained in the semigroup."""
        return self.gaps[-1] + 1 if self.gaps else 0

    @property
    def frobenius(self) -> int:
        """Largest gap, or -1 for the full semigroup."""
        return self.conductor - 1

    @cached_property
    def multiplicity(self) -> int:
        """Least positive element."""
        # the lowest member in [1, conductor]; the conductor itself is one
        bits = self.values._bits_below(1, self.conductor + 1)
        return (bits & -bits).bit_length() or 1

    @property
    def genus(self) -> int:
        """Number of gaps; the delta invariant of the singularity."""
        return len(self.gaps)

    def contains(self, m: int) -> bool:
        return self.values.contains(m)

    __contains__ = contains

    def elements_below(self, bound: int) -> list[int]:
        """Sorted members of the semigroup in [0, bound)."""
        return self.values.elements_below(bound)

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "NumericalSemigroup":
        """Build the semigroup generated by ``gens``.

        The stored generating set is re-minimalized, so redundant input
        generators are dropped.  A conductor above
        :data:`maxnoether.valueset.MAX_CONDUCTOR`
        raises :class:`ConductorTooLarge`.
        """
        uniq = sorted({int(g) for g in gens})
        if not uniq:
            raise EmptyGenerators("at least one generator is required")
        if uniq[0] <= 0:
            raise EmptyGenerators("generators must be positive integers")
        if math.gcd(*uniq) != 1:
            raise NotCofinite(f"gcd({uniq}) != 1, complement would be infinite")
        closed = ring_closure(ValueSet.finite((0, *uniq)))
        gaps = missing_below(ValueSet.naturals(), closed, closed.threshold)
        return cls._from_values(closed, tuple(gaps))

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> "NumericalSemigroup":
        """Build a semigroup from its gap set, validating additive closure."""
        gap_tuple = tuple(sorted({int(h) for h in gaps}))
        if gap_tuple and gap_tuple[0] <= 0:
            raise ValueError("gaps must be positive integers")
        conductor = gap_tuple[-1] + 1 if gap_tuple else 0
        gapmask = sum(1 << h for h in gap_tuple)
        members = ValueSet._from_mask(0, ~gapmask & ((1 << conductor) - 1), conductor)
        return cls._from_values(members, gap_tuple)

    @classmethod
    def _from_values(cls, values: ValueSet, gaps: tuple[int, ...]) -> "NumericalSemigroup":
        """The semigroup with members ``values`` and the ``gaps`` they leave.

        One sumset P + P of the nonzero members P decides it: a sum that is a
        gap is a :class:`ValueError`, and the minimal generators are the
        members of P below conductor + multiplicity that are no sum.
        """
        conductor = values.threshold
        nonzero = ValueSet._from_mask(1, values._bits_below(1, conductor), max(conductor, 1))
        sums = sumset(nonzero, nonzero)
        if not sums.is_subset(values):
            x = missing_below(sums, values, conductor)[0]
            a = next(a for a in nonzero.elements_below(x) if nonzero.contains(x - a))
            raise ValueError(
                f"complement of {gaps} is not additively closed: {a} + {x - a} = {x} is a gap"
            )
        gens = missing_below(nonzero, sums, conductor + nonzero.min + 1)
        s = cls(tuple(gens), gaps)
        s.__dict__["values"] = values
        return s

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps x with x + s in S for every nonzero s in S; sorted.

        Their count is the Cohen-Macaulay type of the local ring.  The
        Frobenius number is always a member.
        """
        if not self.gaps:
            raise NoSingularity("the full semigroup has no pseudo-Frobenius numbers")
        # x + s lands in S for all s iff it does for every minimal generator:
        # bit x of the members shifted right by g says whether x + g is one.
        c = self.conductor
        members = self.values._bits_below(0, c + max(self.generators))
        pf = ~members & ((1 << c) - 1)  # the gaps
        for g in self.generators:
            pf &= members >> g
        return tuple(_bit_values(0, pf))

    def is_symmetric(self) -> bool:
        """True iff x in S exactly when F - x is a gap, for every integer x.

        Symmetry of the gap set characterizes Gorenstein unibranch points.
        x -> F - x maps the members below the conductor into the gaps, so
        g >= c/2, with equality exactly when S is symmetric.
        """
        return 2 * self.genus == self.conductor

    def is_almost_gorenstein(self) -> bool:
        """Barucci-Froeberg count: genus == |S below conductor| + type - 1."""
        if not self.gaps:
            return True
        n_below = self.conductor - self.genus
        return self.genus == n_below + len(self.pseudo_frobenius()) - 1

    def is_nearly_gorenstein(self) -> bool:
        """Trace reading (Herzog-Hibi-Stamate): M lies in K + (S - K).

        M is the nonzero members, K the canonical ideal and S - K the x with
        x + K inside S.  Every x from the conductor c on is in S - K, and so
        is every member of K + [c, oo) (0 is in K), so only values below c
        are tested: S - K there is the AND of the member mask shifted down
        by each value of K below c.  Symmetric semigroups (K = S) hold it.
        The almost Gorenstein property (:meth:`is_almost_gorenstein`) implies
        it.
        """
        if not self.gaps:
            return True
        c = self.conductor
        k = canonical_ideal(self)
        members = self.values._bits_below(0, 2 * c)
        dual = (1 << c) - 1
        for d in k.elements_below(c):
            dual &= members >> d
        trace = sumset(k, ValueSet._from_mask(0, dual, c))
        return ValueSet._from_mask(1, members >> 1, c).is_subset(trace)

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "gaps": list(self.gaps),
            "alpha": self.conductor,
            "beta": self.multiplicity,
            "genus": self.genus,
        }

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.generators) + ">"


def enumerate_semigroups(max_genus: int, min_multiplicity: int = 1) -> Iterator[NumericalSemigroup]:
    """Yield every numerical semigroup with genus <= max_genus, exactly once.

    Order is canonical: by genus, then lexicographically by gap list.  The
    walk is the genus tree (Bras-Amoros, Semigroup Forum 76, 2008), where the
    children of S are S' = S minus m for each minimal generator m larger than
    the Frobenius number, taken in ascending m.  All gap lists of a level
    have one length, so the children of parents in lexicographic order come
    out in lexicographic order, and no level is sorted.

    Each child is built from its parent, with no closure check and no
    sumset.  Let c, mu and G be the conductor, multiplicity and minimal
    generators of S.  S' keeps the members of S below m, its conductor is
    m + 1 and its gaps are S.gaps + (m,).  Its minimal generators are
    G minus m and those m + g, g in G, below m + 1 + mu(S') that are no sum
    of two nonzero members of S':

    - g in G other than m is no sum in S, so none in the smaller S';
    - a new generator x is a sum in S, and every way of writing it uses m,
      so x = m + b with b nonzero in S.  If b = b1 + b2 with b1, b2 nonzero,
      then x = (m + b1) + b2 with m + b1 > m in S', which forces b2 = m,
      and likewise b1 = m: x = 3m.  For m >= 2, 3m >= c(S') + mu(S'), and a
      value from there on is mu(S') plus a member, so a sum.  So b is in G.

    If m = mu, S is {0} u [m, oo), S' is {0} u [m + 1, oo), and the rule
    gives the generators m + 1, ..., 2m + 1; this holds for <1> too, whose
    child <2,3> has the 3m = 3 that the rule alone would drop.  Otherwise
    mu(S') = mu, g <= mu leaves g = mu, and x = m + mu is a sum iff x - h is
    a nonzero member of S' for some h in G minus m: a sum of two nonzero
    members is a minimal generator plus a nonzero member, and every minimal
    generator of S' below x is an old one.  Since mu <= h < c + mu <= x,
    x - h lies in [1, m], read on the member mask.

    Semigroups with multiplicity below ``min_multiplicity`` are skipped (not
    their descendants, whose multiplicity can only grow).  A genus-g
    semigroup has multiplicity at most g + 1, so a ``min_multiplicity``
    above ``max_genus + 1`` yields nothing and walks nothing.
    """
    if max_genus < 0 or min_multiplicity > max_genus + 1:
        return
    level = [NumericalSemigroup.from_generators([1])]
    for genus in range(max_genus + 1):
        for s in level:
            if s.multiplicity >= min_multiplicity:
                yield s
        if genus == max_genus:
            break
        children = []
        for s in level:
            gens, gaps, mu = s.generators, s.gaps, s.multiplicity
            c, mask = s.conductor, s.values._mask
            for m in gens:
                if m < c:
                    continue
                # the members of S below m: the parent's, then the run [c, m)
                child_mask = mask | ((1 << m) - (1 << c))
                if m == mu:
                    child_gens = tuple(range(m + 1, 2 * m + 2))
                else:
                    x = m + mu
                    child_gens = tuple(h for h in gens if h != m)
                    if not any(child_mask >> (x - h) & 1 for h in child_gens):
                        child_gens += (x,)
                child = NumericalSemigroup(child_gens, gaps + (m,))
                # values, then multiplicity: the order in which a from_gaps instance gains
                # them, so the instance dicts share one key table
                child.__dict__["values"] = ValueSet._stored(0, child_mask, m + 1)
                child.__dict__["multiplicity"] = m + 1 if m == mu else mu
                children.append(child)
        level = children
