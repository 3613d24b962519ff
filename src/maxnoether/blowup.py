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

from .errors import NotApplicable
from .frozen import Frozen
from .semigroup import NumericalSemigroup
from .valueset import PowerChain, ValueSet, canonical_ideal, quotient_dim


class BlowupAnalysis(Frozen):
    """Stabilization data of the canonical-ideal powers of one semigroup.

    Everything is read from the semigroup: ``canonical`` is K, ``powers``
    the chain K, K^2, ..., K^index walked to find the blowup, whose last
    power is ``blowup_values`` and whose length is ``stabilization_index``;
    ``eta`` is |K minus S| and ``blowup_genus`` the number of gaps of the
    blowup.  The checks below read the chain instead of building powers
    again.  Only the semigroup is compared, hashed and shown.

    The powers of K ascend, as 0 is in K.  The first power that K no longer
    enlarges is closed under addition, so it is the additive closure of K.
    """

    _shown = ("semigroup",)

    def __init__(self, semigroup: NumericalSemigroup) -> None:
        k = canonical_ideal(semigroup)
        chain = PowerChain(k)
        index = 1
        while chain.power(index + 1) != chain.power(index):
            index += 1
        powers = tuple(chain.power(m) for m in range(1, index + 1))
        object.__setattr__(self, "semigroup", semigroup)
        object.__setattr__(self, "canonical", k)
        object.__setattr__(self, "blowup_values", powers[-1])
        object.__setattr__(self, "stabilization_index", index)
        object.__setattr__(self, "eta", quotient_dim(k, semigroup.values))
        object.__setattr__(self, "blowup_genus", quotient_dim(ValueSet.naturals(), powers[-1]))
        object.__setattr__(self, "powers", powers)

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

        That second question needs no sumset (the chain of powers of K, as in
        Barucci-Froeberg, J. Algebra 188 (1997)).  With O^ = K^index, K^m +
        O^ = K^(m + index) = O^, and K^m + O^ contains K^m as 0 lies in O^,
        so K^m is an O^-module iff K^m = O^.  The powers ascend, K^2 <= K^m
        <= O^, so K^2, ..., K^index all collapse iff K^2 = O^, which is
        ``square_is_blowup``; at index 1 both hold, as K = K^2 = O^.  The
        field stays, so that a failing witness keeps its shape.
        """
        s = self._non_gorenstein()
        ohat = self.blowup_values
        gap_one = quotient_dim(ohat, self.canonical) == 1
        square = self.power(2) == ohat
        return AlmostGorensteinChecks(s.is_almost_gorenstein(), gap_one, square, square)

    def genus_drop(self) -> int:
        """Genus lost when passing to the blowup; at least 2 at a non-Gorenstein point."""
        return self._non_gorenstein().genus - self.blowup_genus

    def _non_gorenstein(self) -> NumericalSemigroup:
        if self.semigroup.is_symmetric():
            raise NotApplicable("symmetric semigroup: the point is Gorenstein")
        return self.semigroup


def analyze(s: NumericalSemigroup) -> BlowupAnalysis:
    """Compute the blowup value data of a semigroup (symmetric ones included)."""
    return BlowupAnalysis(s)


class AlmostGorensteinChecks(Frozen):
    """Booleans tying the almost Gorenstein count to the blowup picture."""

    _shown = ("almost_gorenstein", "gap_one", "square_is_blowup", "powers_collapse")

    def __init__(
        self, almost_gorenstein: bool, gap_one: bool, square_is_blowup: bool, powers_collapse: bool
    ) -> None:
        object.__setattr__(self, "almost_gorenstein", almost_gorenstein)
        object.__setattr__(self, "gap_one", gap_one)
        object.__setattr__(self, "square_is_blowup", square_is_blowup)
        object.__setattr__(self, "powers_collapse", powers_collapse)

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

