"""Numerical semigroups and their classical invariants.

A numerical semigroup is an additively closed subset of the natural numbers
that contains 0 and has finite complement (the gap set).  It records the
valuations of a unibranch curve singularity: the number of gaps is the local
delta invariant, the least positive element is the multiplicity of the point,
and symmetry of the gap set characterizes Gorenstein points.

Semigroups are value objects: immutable, hashable, with all invariants
derived from the gap list.  Membership is O(1) after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ConductorTooLarge, EmptyGenerators, NoSingularity, NotCofinite

# Largest conductor :meth:`NumericalSemigroup.from_generators` computes.  The
# membership sieve, and every value set made from the semigroup, grow with it.
MAX_CONDUCTOR = 10_000


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup, stored as its minimal generators and its gaps."""

    generators: tuple[int, ...]
    gaps: tuple[int, ...]

    @cached_property
    def _gapset(self) -> frozenset[int]:
        return frozenset(self.gaps)

    @property
    def conductor(self) -> int:
        """Least c with [c, oo) contained in the semigroup."""
        return self.gaps[-1] + 1 if self.gaps else 0

    @property
    def frobenius(self) -> int:
        """Largest gap, or -1 for the full semigroup."""
        return self.conductor - 1

    @property
    def multiplicity(self) -> int:
        """Least positive element."""
        m = 1
        while m in self._gapset:
            m += 1
        return m

    @property
    def genus(self) -> int:
        """Number of gaps; the delta invariant of the singularity."""
        return len(self.gaps)

    def contains(self, m: int) -> bool:
        if m < 0:
            return False
        if m >= self.conductor:
            return True
        return m not in self._gapset

    __contains__ = contains

    def elements_below(self, bound: int) -> list[int]:
        """Sorted members of the semigroup in [0, bound)."""
        return [m for m in range(max(bound, 0)) if self.contains(m)]

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "NumericalSemigroup":
        """Build the semigroup generated by ``gens``.

        The stored generating set is re-minimalized, so redundant input
        generators are dropped.  A conductor above :data:`MAX_CONDUCTOR`
        raises :class:`ConductorTooLarge`.
        """
        uniq = sorted({int(g) for g in gens})
        if not uniq:
            raise EmptyGenerators("at least one generator is required")
        if uniq[0] <= 0:
            raise EmptyGenerators("generators must be positive integers")
        if math.gcd(*uniq) != 1:
            raise NotCofinite(f"gcd({uniq}) != 1, complement would be infinite")
        beta = uniq[0]
        too_large = ConductorTooLarge(
            f"the conductor of the semigroup generated by {uniq} exceeds the limit "
            f"MAX_CONDUCTOR = {MAX_CONDUCTOR}"
        )
        if beta > MAX_CONDUCTOR:  # 1, ..., beta - 1 are gaps
            raise too_large
        # a run of beta members starting at the limit ends below this bound
        limit = MAX_CONDUCTOR + beta
        bound = min(2 * uniq[-1] + 2, limit)
        while True:
            member = [False] * (bound + 1)
            member[0] = True
            for i in range(1, bound + 1):
                member[i] = any(i >= g and member[i - g] for g in uniq)
            run_start = _consecutive_run(member, beta)
            if run_start is not None or bound == limit:
                break
            bound = min(2 * bound, limit)
        if run_start is None or run_start > MAX_CONDUCTOR:
            raise too_large
        gaps = tuple(i for i in range(1, run_start) if not member[i])
        return cls._from_gap_tuple(gaps)

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> "NumericalSemigroup":
        """Build a semigroup from its gap set, validating additive closure."""
        gap_tuple = tuple(sorted({int(h) for h in gaps}))
        if gap_tuple and gap_tuple[0] <= 0:
            raise ValueError("gaps must be positive integers")
        gapset = set(gap_tuple)
        conductor = gap_tuple[-1] + 1 if gap_tuple else 0
        members = [m for m in range(1, conductor) if m not in gapset]
        for i, a in enumerate(members):
            for b in members[i:]:
                if a + b < conductor and (a + b) in gapset:
                    raise ValueError(
                        f"complement of {gap_tuple} is not additively closed: "
                        f"{a} + {b} = {a + b} is a gap"
                    )
        return cls._from_gap_tuple(gap_tuple)

    @classmethod
    def _from_gap_tuple(cls, gaps: tuple[int, ...]) -> "NumericalSemigroup":
        gapset = frozenset(gaps)
        conductor = gaps[-1] + 1 if gaps else 0

        def member(m: int) -> bool:
            return m >= conductor or (m > 0 and m not in gapset) or m == 0

        multiplicity = 1
        while multiplicity in gapset:
            multiplicity += 1
        gens = _minimal_generators(member, conductor, multiplicity)
        return cls(gens, gaps)

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps x with x + s in S for every nonzero s in S; sorted.

        Their count is the Cohen-Macaulay type of the local ring.  The
        Frobenius number is always a member.
        """
        if not self.gaps:
            raise NoSingularity("the full semigroup has no pseudo-Frobenius numbers")
        # x + s lands in S for all s iff it does for every minimal generator.
        return tuple(
            x for x in self.gaps if all(self.contains(x + g) for g in self.generators)
        )

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


def _consecutive_run(member: list[bool], length: int) -> int | None:
    """Start index of the first run of ``length`` consecutive members, if any.

    Once ``length`` consecutive elements are in the semigroup, everything
    beyond the run start is (add the multiplicity repeatedly), so a found run
    certifies the sieve bound was large enough.
    """
    run = 0
    for i, ok in enumerate(member):
        run = run + 1 if ok else 0
        if run == length:
            return i - length + 1
    return None


def _minimal_generators(member, conductor: int, multiplicity: int) -> tuple[int, ...]:
    # Minimal generators all lie below conductor + multiplicity: anything
    # larger splits off one multiplicity and stays in the semigroup.
    top = max(conductor + multiplicity, multiplicity + 1)
    gens = []
    for s in range(multiplicity, top):
        if not member(s):
            continue
        decomposable = any(
            member(t) and member(s - t) for t in range(multiplicity, s - multiplicity + 1)
        )
        if not decomposable:
            gens.append(s)
    return tuple(gens)


def enumerate_semigroups(max_genus: int, min_multiplicity: int = 1) -> Iterator[NumericalSemigroup]:
    """Yield every numerical semigroup with genus <= max_genus, exactly once.

    Order is canonical: by genus, then lexicographically by gap list.  The
    walk is the standard genus tree, where the children of S are S minus a
    minimal generator larger than the Frobenius number.  Semigroups with
    multiplicity below ``min_multiplicity`` are skipped (not their
    descendants, whose multiplicity can only grow).
    """
    if max_genus < 0:
        return
    level = [NumericalSemigroup.from_generators([1])]
    for genus in range(max_genus + 1):
        level.sort(key=lambda s: s.gaps)
        for s in level:
            if s.multiplicity >= min_multiplicity:
                yield s
        if genus == max_genus:
            break
        children = []
        for s in level:
            frob = s.frobenius
            for m in s.generators:
                if m > frob:
                    children.append(NumericalSemigroup.from_gaps(s.gaps + (m,)))
        level = children
