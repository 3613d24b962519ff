"""Blowup of a unibranch point along the dualizing module, at the value level.

Powers of the canonical ideal K form an ascending chain that stabilizes to
the additive closure of K, the value semigroup of the blowup ring.  The
stabilized data detects the almost Gorenstein property: the blowup exceeds
K by exactly one value precisely in that case, and then already the square
of K fills the blowup.  As 0 is in K, the blowup is also the module K
generates over the blowup ring.

"Nearly Gorenstein" has two readings in the literature.  The checks here
test the almost Gorenstein one (Barucci-Froeberg, J. Algebra 188 (1997);
:meth:`NumericalSemigroup.is_almost_gorenstein`).  The trace reading, M in
K + (S - K) (Herzog-Hibi-Stamate, Israel J. Math. 233 (2019)), is
:meth:`NumericalSemigroup.is_nearly_gorenstein`; it is weaker, and <4,5,11>
has it without being almost Gorenstein.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotApplicable
from .semigroup import NumericalSemigroup
from .valueset import PowerChain, ValueSet, canonical_ideal, quotient_dim, sumset


@dataclass(frozen=True)
class BlowupAnalysis:
    """Stabilization data of the canonical-ideal powers of one semigroup.

    ``powers`` is the chain K, K^2, ..., K^index walked to find the blowup;
    the checks below read it instead of building powers again.
    """

    semigroup: NumericalSemigroup
    canonical: ValueSet
    blowup_values: ValueSet
    stabilization_index: int
    eta: int
    blowup_genus: int
    powers: tuple[ValueSet, ...] = field(repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "semigroup": self.semigroup.to_json(),
            "canonical": self.canonical.to_json(),
            "blowup": self.blowup_values.to_json(),
            "stabilization_index": self.stabilization_index,
            "eta": self.eta,
            "blowup_genus": self.blowup_genus,
        }

    def power(self, m: int) -> ValueSet:
        """K^m; from the stabilization index on, every power is the blowup."""
        return self.powers[min(m, self.stabilization_index) - 1]

    def almost_gorenstein_checks(self) -> "AlmostGorensteinChecks":
        """Blowup-side reflections of the almost Gorenstein property (Barucci-Froeberg).

        This is one reading of "nearly Gorenstein"; the trace reading
        (Herzog-Hibi-Stamate) is :meth:`NumericalSemigroup.is_nearly_gorenstein`.

        ``gap_one`` asks whether the blowup, which is also the module K
        generates over the blowup ring, exceeds K by a single value.
        ``powers_collapse`` asks whether every power K^2, ..., K^index is
        already a module over the blowup ring; the powers past the
        stabilization index are the blowup itself.
        """
        s = self._non_gorenstein()
        ohat = self.blowup_values
        gap_one = quotient_dim(ohat, self.canonical) == 1
        square = self.power(2) == ohat
        collapse = all(sumset(power, ohat) == power for power in self.powers[1:])
        return AlmostGorensteinChecks(s.is_almost_gorenstein(), gap_one, square, collapse)

    def genus_drop(self) -> int:
        """Genus lost when passing to the blowup; at least 2 at a non-Gorenstein point."""
        return self._non_gorenstein().genus - self.blowup_genus

    def _non_gorenstein(self) -> NumericalSemigroup:
        if self.semigroup.is_symmetric():
            raise NotApplicable("symmetric semigroup: the point is Gorenstein")
        return self.semigroup


def analyze(s: NumericalSemigroup) -> BlowupAnalysis:
    """Compute the blowup value data of a semigroup (symmetric ones included).

    The powers of K ascend, as 0 is in K.  The first power that K no longer
    enlarges is closed under addition, so it is the additive closure of K.
    """
    k = canonical_ideal(s)
    chain = PowerChain(k)
    index = 1
    while chain.power(index + 1) != chain.power(index):
        index += 1
    powers = tuple(chain.power(m) for m in range(1, index + 1))
    eta = quotient_dim(k, s.values)
    ghat = quotient_dim(ValueSet.naturals(), powers[-1])
    return BlowupAnalysis(s, k, powers[-1], index, eta, ghat, powers)


@dataclass(frozen=True)
class AlmostGorensteinChecks:
    """Booleans tying the almost Gorenstein count to the blowup picture."""

    almost_gorenstein: bool
    gap_one: bool
    square_is_blowup: bool
    powers_collapse: bool

    @property
    def consistent(self) -> bool:
        """The predicted equivalences: ag iff gap_one, and ag forces the rest."""
        if self.almost_gorenstein != self.gap_one:
            return False
        if self.almost_gorenstein:
            return self.square_is_blowup and self.powers_collapse
        return True

    def to_json(self) -> dict:
        return {
            "almost_gorenstein": self.almost_gorenstein,
            "gap_one": self.gap_one,
            "square_is_blowup": self.square_is_blowup,
            "powers_collapse": self.powers_collapse,
            "consistent": self.consistent,
        }

