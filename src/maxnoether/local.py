"""Local surjectivity at a unibranch non-Gorenstein point, at the value level.

At such a point the canonical ideal K strictly contains the value semigroup
S, and the sections of the dualizing sheaf, divided by a fixed differential
of minimal local value, realize the values W with W + [alpha, oo) = K.  The
question whether n-fold products of sections cover the n-th power of the
dualizing stalk modulo a shifted conductor power reduces to sumset coverage,
and the covering is certified by explicit product tables whose values are
pairwise distinct, so linear independence is free in the monomial model.

Three cases govern the admissible shift epsilon of the conductor power:

* case (i): no section of value 0 at the point, epsilon = 2n - 1;
* case (ii): a section of value 0 exists, epsilon = 1;
* case (iii): sections of value 0 and of value 1 or 2 exist, epsilon = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import HypothesisGap, NotApplicable
from .semigroup import NumericalSemigroup
from .valueset import PowerChain, ValueSet, canonical_ideal, missing_below, quotient_dim


@dataclass(frozen=True)
class EpsilonCase:
    """Which conductor shift the covering statement is entitled to."""

    tag: str  # "i", "ii" or "iii"

    def epsilon(self, n: int) -> int:
        if self.tag == "i":
            return 2 * n - 1
        return 1 if self.tag == "ii" else 0


def epsilon_case(attained: ValueSet | Iterable[int]) -> EpsilonCase:
    """Classify a point by the section values attained there."""
    values = set(attained.exceptional) if isinstance(attained, ValueSet) else set(attained)
    has_zero = 0 in values or _ray_contains(attained, 0)
    has_low = any(v in values for v in (1, 2)) or any(
        _ray_contains(attained, v) for v in (1, 2)
    )
    if has_zero and has_low:
        return EpsilonCase("iii")
    if has_zero:
        return EpsilonCase("ii")
    return EpsilonCase("i")


def _ray_contains(attained, v: int) -> bool:
    return (
        isinstance(attained, ValueSet)
        and attained.threshold is not None
        and v >= attained.threshold
    )


@dataclass(frozen=True)
class LocalContext:
    """Frozen value data of one unibranch point.

    ``section_values`` is the value set of the available sections divided by
    the minimal-value differential; for the one-singularity model this is
    exactly K below the conductor.  ``d1``/``d2`` form a complementary pair
    in K minus S with d1 + d2 = alpha - 1; they exist iff the semigroup is
    non-symmetric and are ``None`` otherwise.  ``canonical_powers`` and
    ``section_powers`` hold the sumset powers of K and of the section values
    made so far for this context, so every weight reuses the lower ones.
    """

    semigroup: NumericalSemigroup
    canonical: ValueSet
    section_values: ValueSet
    alpha: int
    beta: int
    d1: int | None
    d2: int | None
    r: int
    p: int
    canonical_powers: PowerChain = field(init=False, repr=False, compare=False)
    section_powers: PowerChain = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical_powers", PowerChain(self.canonical))
        object.__setattr__(self, "section_powers", PowerChain(self.section_values))

    @classmethod
    def for_semigroup(
        cls,
        s: NumericalSemigroup,
        section_values: ValueSet | None = None,
        d1: int | None = None,
    ) -> "LocalContext":
        if not s.gaps:
            raise NotApplicable("the full semigroup has no singular point")
        alpha, beta = s.conductor, s.multiplicity
        k = canonical_ideal(s)
        if section_values is None:
            section_values = ValueSet.finite(k.elements_below(alpha))
        else:
            if not section_values.is_subset(k):
                raise HypothesisGap("section values must lie in the canonical ideal")
            if ValueSet(tuple(section_values.elements_below(alpha)), alpha) != k:
                raise HypothesisGap(
                    "section values plus the conductor ray must equal the canonical ideal"
                )
        pool = [d for d in k.elements_below(alpha) if not s.contains(d)]
        if d1 is None:
            d1 = pool[0] if pool else None
        elif d1 not in pool:
            raise HypothesisGap(f"{d1} is not in K minus S below the conductor")
        d2 = alpha - d1 - 1 if d1 is not None else None
        r = alpha // beta - 1
        return cls(s, k, section_values, alpha, beta, d1, d2, r, alpha - (r + 1) * beta)


@dataclass(frozen=True)
class QDecomposition:
    """Splittings i = q_i1 + q_i2 keeping q_ij * beta + d_j below the conductor."""

    pairs: tuple[tuple[int, int], ...]
    d1: int
    d2: int
    swapped: bool

    def inequalities(self, alpha: int, beta: int) -> list[tuple[int, int]]:
        """(left side, alpha) for every strict inequality the splitting claims."""
        out = []
        for q1, q2 in self.pairs:
            out.append((q1 * beta + self.d1, alpha))
            out.append((q2 * beta + self.d2, alpha))
        return out

    def all_strict(self, alpha: int, beta: int) -> bool:
        return all(lhs < rhs for lhs, rhs in self.inequalities(alpha, beta))


def q_decomposition(ctx: LocalContext) -> QDecomposition:
    """Split each i = 1..r so both scaled summands stay below the conductor.

    Rule: q_r2 is the largest q with q*beta <= d1 (after sorting the pair so
    d1 <= d2), q_r1 = r - q_r2, and for i < r take q_i1 = min(i, q_r1).
    """
    if ctx.d1 is None:
        raise NotApplicable("symmetric semigroup: no complementary gap pair")
    if ctx.r < 1:
        raise NotApplicable("conductor below twice the multiplicity (r = 0)")
    d1, d2 = ctx.d1, ctx.d2
    swapped = d1 > d2
    if swapped:
        d1, d2 = d2, d1
    qr2 = d1 // ctx.beta
    qr1 = ctx.r - qr2
    pairs = []
    for i in range(1, ctx.r + 1):
        q1 = min(i, qr1)
        pairs.append((q1, i - q1))
    return QDecomposition(tuple(pairs), d1, d2, swapped)


@dataclass(frozen=True)
class CertEntry:
    """One product of available sections: label, value, and factor values."""

    label: str
    value: int
    factors: tuple[int, ...]


@dataclass(frozen=True)
class BasisCertificate:
    """Products of sections spanning one quotient step of the conductor chain.

    Validity means: as many entries as the quotient dimension, pairwise
    distinct values (hence independent in the monomial model), every value in
    the larger set but not the smaller, every factor an available section
    value summing to the entry value.
    """

    name: str
    larger: ValueSet
    smaller: ValueSet
    entries: tuple[CertEntry, ...]

    def values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.entries)

    def check(self, section_values: ValueSet) -> list[str]:
        """Return human-readable defects; empty list means the certificate holds."""
        defects = []
        vals = self.values()
        if len(set(vals)) != len(vals):
            defects.append("duplicate values")
        want = quotient_dim(self.larger, self.smaller)
        if len(vals) != want:
            defects.append(f"size {len(vals)} != quotient dimension {want}")
        for e in self.entries:
            if e.value not in self.larger or e.value in self.smaller:
                defects.append(f"{e.label}: value {e.value} outside the quotient window")
            if sum(e.factors) != e.value:
                defects.append(f"{e.label}: factor values do not sum to {e.value}")
            for f in e.factors:
                if f not in section_values:
                    defects.append(f"{e.label}: factor value {f} is not a section value")
        return defects


def _require(value: int, ctx: LocalContext, what: str) -> int:
    if value not in ctx.section_values:
        raise HypothesisGap(f"required section value {value} ({what}) is unavailable")
    return value


def build_certificates(ctx: LocalContext, n: int, case: EpsilonCase | str) -> list[BasisCertificate]:
    """Product tables spanning the conductor chain used for weight n covering.

    For n = 1 no chain is needed and the list is empty.  For n >= 2 the chain
    starts with the conductor step (dimension alpha - beta), continues with a
    square step depending on the case, and for n >= 3 adds the power step
    obtained by multiplying the seed table with powers of the largest
    available below-conductor value (case i) or of the value-zero section
    (cases ii/iii).
    """
    tag = case.tag if isinstance(case, EpsilonCase) else str(case)
    if tag not in ("i", "ii", "iii"):
        raise ValueError(f"unknown case tag {tag!r}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if ctx.d1 is None:
        raise NotApplicable("certificates target a non-Gorenstein point; semigroup is symmetric")
    if n == 1:
        return []
    a, b, r, p = ctx.alpha, ctx.beta, ctx.r, ctx.p

    def b_val(j: int) -> int:
        return _require(j + a - b - 1, ctx, f"b{j}")

    conductor_entries: list[CertEntry] = []
    if r >= 1:
        qd = q_decomposition(ctx)
        for i in range(1, r + 1):
            m_i = _require(i * b, ctx, f"m{i}")
            for j in range(1, b):
                conductor_entries.append(CertEntry(f"m{i}*b{j}", m_i + b_val(j), (m_i, b_val(j))))
            q1, q2 = qd.pairs[i - 1]
            f1 = _require(q1 * b + qd.d1, ctx, "q-split summand")
            f2 = _require(q2 * b + qd.d2, ctx, "q-split summand")
            conductor_entries.append(CertEntry(f"f{i}", f1 + f2, (f1, f2)))
    if p > 0:
        m_top = _require((r + 1) * b, ctx, f"m{r + 1}")
        for j in range(1, p + 1):
            conductor_entries.append(CertEntry(f"m{r + 1}*b{j}", m_top + b_val(j), (m_top, b_val(j))))
    certs = [
        BasisCertificate(
            "conductor-step",
            ValueSet.above(a),
            ValueSet.above(2 * a - b),
            tuple(conductor_entries),
        )
    ]

    if tag == "i":
        square_entries = [
            CertEntry(f"b{b - 1}*b{j}", b_val(b - 1) + b_val(j), (b_val(b - 1), b_val(j)))
            for j in range(3, b)
        ]
        certs.append(
            BasisCertificate(
                "square-step",
                ValueSet.above(2 * a - b),
                ValueSet.above(2 * a - 3),
                tuple(square_entries),
            )
        )
        seed_extra = [_pair_entry(ctx)]
        power_multiplier = ("b%d" % (b - 1), b_val(b - 1))
        power_target = (ValueSet.above(2 * a - 3), lambda m: ValueSet.above(m * a - 2 * m + 1))
    elif tag == "ii":
        h0 = _require(a, ctx, "h0")
        square_entries = [
            CertEntry(f"h0*b{j}", h0 + b_val(j), (h0, b_val(j))) for j in range(1, b)
        ]
        certs.append(
            BasisCertificate(
                "square-step",
                ValueSet.above(2 * a - b),
                ValueSet.above(2 * a - 1),
                tuple(square_entries),
            )
        )
        seed_extra = [_pair_entry(ctx)]
        power_multiplier = ("h0", h0)
        power_target = (ValueSet.above(2 * a - 1), lambda m: ValueSet.above(m * a - 1))
    else:
        h0 = _require(a, ctx, "h0")
        square_entries = [
            CertEntry(f"h0*b{j}", h0 + b_val(j), (h0, b_val(j))) for j in range(1, b)
        ]
        if a + 1 in ctx.section_values:
            h1, partner = a + 1, b - 1
        elif a + 2 in ctx.section_values:
            h1, partner = a + 2, b - 2
        else:
            raise HypothesisGap("case iii needs a section of value 1 or 2 at the point")
        square_entries.append(
            CertEntry(f"h1*b{partner}", h1 + b_val(partner), (h1, b_val(partner)))
        )
        certs.append(
            BasisCertificate(
                "square-step",
                ValueSet.above(2 * a - b),
                ValueSet.above(2 * a),
                tuple(square_entries),
            )
        )
        seed_extra = []
        power_multiplier = ("h0", h0)
        power_target = (ValueSet.above(2 * a), lambda m: ValueSet.above(m * a))

    if n >= 3:
        seed = list(conductor_entries) + list(square_entries) + seed_extra
        mul_label, mul_value = power_multiplier
        power_entries = []
        for i in range(1, n - 1):
            for e in seed:
                power_entries.append(
                    CertEntry(
                        f"{mul_label}^{i}*{e.label}",
                        e.value + i * mul_value,
                        e.factors + (mul_value,) * i,
                    )
                )
        larger, smaller_of = power_target
        certs.append(
            BasisCertificate("power-step", larger, smaller_of(n), tuple(power_entries))
        )
    return certs


def _pair_entry(ctx: LocalContext) -> CertEntry:
    """Product of the complementary gap pair; its value is alpha - 1."""
    if ctx.d1 is None:
        raise NotApplicable("symmetric semigroup: no complementary gap pair")
    d1 = _require(ctx.d1, ctx, "gap-pair factor")
    d2 = _require(ctx.d2, ctx, "gap-pair factor")
    return CertEntry("f0", d1 + d2, (d1, d2))


@dataclass(frozen=True)
class SurjectivityCheck:
    """Outcome of the value-level covering test, with explicit witnesses."""

    ok: bool
    n: int
    epsilon: int
    required: tuple[int, ...]
    uncovered: tuple[int, ...]


def verify_local_surjectivity(ctx: LocalContext, n: int, epsilon: int) -> SurjectivityCheck:
    """Do n-fold section values cover the n-th canonical power mod the shifted conductor?

    Coverage is the value-set inclusion: every element of the n-fold sumset of
    K below n*alpha - epsilon must be an n-fold sum of section values.
    """
    kn = ctx.canonical_powers.power(n)
    wn = ctx.section_powers.power(n)
    required = tuple(kn.elements_below(n * ctx.alpha - epsilon))
    uncovered = tuple(missing_below(kn, wn, n * ctx.alpha - epsilon))
    return SurjectivityCheck(not uncovered, n, epsilon, required, uncovered)


def minimal_epsilon(ctx: LocalContext, n: int) -> int:
    """Least epsilon >= 0 for which the covering of weight n holds.

    Reported for comparison with the case bound 2n - 1; nothing is claimed
    about sharpness.
    """
    uncovered = missing_below(
        ctx.canonical_powers.power(n), ctx.section_powers.power(n), n * ctx.alpha
    )
    if not uncovered:
        return 0
    return n * ctx.alpha - min(uncovered)
