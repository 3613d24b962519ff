"""Blowup of a unibranch point along the dualizing module, at the value level.

Powers of the canonical ideal K form an ascending chain that stabilizes to
the additive closure of K, the value semigroup of the blowup ring.  The
stabilized data detects the almost Gorenstein property: the overmodule
generated by K exceeds K by exactly one value precisely in that case, and
then already the square of K fills the blowup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotApplicable
from .semigroup import NumericalSemigroup
from .valueset import ValueSet, canonical_ideal, quotient_dim, sumset


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
    omega_blowup_values: ValueSet
    eta: int
    blowup_genus: int
    powers: tuple[ValueSet, ...] = field(repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "semigroup": self.semigroup.to_json(),
            "canonical": self.canonical.to_json(),
            "blowup": self.blowup_values.to_json(),
            "stabilization_index": self.stabilization_index,
            "omega_blowup": self.omega_blowup_values.to_json(),
            "eta": self.eta,
            "blowup_genus": self.blowup_genus,
        }

    def power(self, m: int) -> ValueSet:
        """K^m; from the stabilization index on, every power is the blowup."""
        return self.powers[min(m, self.stabilization_index) - 1]

    def nearly_gorenstein_checks(self, power_bound: int = 4) -> "NearlyGorensteinChecks":
        """Blowup-side reflections of the almost Gorenstein property.

        ``gap_one`` asks whether the blowup module generated by K exceeds K by
        a single value.  ``powers_collapse`` asks whether the powers of K from
        2 up to ``power_bound`` are already modules over the blowup ring.
        """
        s = self._non_gorenstein()
        ohat = self.blowup_values
        gap_one = quotient_dim(self.omega_blowup_values, self.canonical) == 1
        square = self.power(2) == ohat
        top = max(power_bound, self.stabilization_index)
        # powers past the index repeat the blowup, so each distinct one is tested once
        distinct = {min(m, self.stabilization_index) for m in range(2, top + 1)}
        collapse = all(
            sumset(self.powers[i - 1], ohat) == self.powers[i - 1] for i in sorted(distinct)
        )
        return NearlyGorensteinChecks(s.is_almost_gorenstein(), gap_one, square, collapse)

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
    enlarges is closed under addition, so it is the additive closure of K,
    and the sumset that showed it, K^index + K, is the module K generates
    over the blowup ring.
    """
    k = canonical_ideal(s)
    powers = [k]
    nxt = sumset(k, k)
    while nxt != powers[-1]:
        powers.append(nxt)
        nxt = sumset(nxt, k)
    ohat = powers[-1]
    eta = quotient_dim(k, ValueSet.from_semigroup(s))
    ghat = quotient_dim(ValueSet.naturals(), ohat)
    return BlowupAnalysis(s, k, ohat, len(powers), nxt, eta, ghat, tuple(powers))


@dataclass(frozen=True)
class NearlyGorensteinChecks:
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


def nearly_gorenstein_local_checks(
    s: NumericalSemigroup, power_bound: int = 4
) -> NearlyGorensteinChecks:
    """:meth:`BlowupAnalysis.nearly_gorenstein_checks` of a fresh analysis of ``s``."""
    return analyze(s).nearly_gorenstein_checks(power_bound)


def genus_drop(s: NumericalSemigroup) -> int:
    """:meth:`BlowupAnalysis.genus_drop` of a fresh analysis of ``s``."""
    return analyze(s).genus_drop()
