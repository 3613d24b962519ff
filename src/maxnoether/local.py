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

A case is its tag "i", "ii" or "iii"; :func:`case_epsilon` gives its shift,
and a covering check reports beside it the least shift that would suffice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import HypothesisGap, NotApplicable
from .semigroup import NumericalSemigroup
from .valueset import PowerChain, ValueSet, _bit_values, canonical_ideal, missing_bits


def case_epsilon(case: str, n: int) -> int:
    """The conductor shift epsilon(n) that case ``case`` is entitled to."""
    if case == "i":
        return 2 * n - 1
    if case == "ii":
        return 1
    if case == "iii":
        return 0
    raise ValueError(f"unknown case tag {case!r}")


def epsilon_case(attained: Iterable[int]) -> str:
    """Classify a point by the section values attained there: "i", "ii" or "iii"."""
    values = set(attained)
    if 0 not in values:
        return "i"
    return "iii" if 1 in values or 2 in values else "ii"


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
    ``q_split`` is the :func:`q_decomposition` of the context, made once,
    and ``None`` where it does not apply (symmetric, or r = 0).
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
    q_split: QDecomposition | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical_powers", PowerChain(self.canonical))
        object.__setattr__(self, "section_powers", PowerChain(self.section_values))
        split = q_decomposition(self) if self.d1 is not None and self.r >= 1 else None
        object.__setattr__(self, "q_split", split)

    @classmethod
    def for_semigroup(
        cls, s: NumericalSemigroup, section_values: ValueSet | None = None
    ) -> "LocalContext":
        if not s.gaps:
            raise NotApplicable("the full semigroup has no singular point")
        alpha, beta = s.conductor, s.multiplicity
        k = canonical_ideal(s)
        if section_values is None:
            section_values = k.below(alpha)
        else:
            if not section_values.is_subset(k):
                raise HypothesisGap("section values must lie in the canonical ideal")
            if section_values.below(alpha) != k.below(alpha):
                raise HypothesisGap(
                    "section values plus the conductor ray must equal the canonical ideal"
                )
        lo, off_ring = missing_bits(k, s.values, alpha)
        d1 = lo + (off_ring & -off_ring).bit_length() - 1 if off_ring else None
        d2 = alpha - d1 - 1 if d1 is not None else None
        r = alpha // beta - 1
        return cls(s, k, section_values, alpha, beta, d1, d2, r, alpha - (r + 1) * beta)


@dataclass(frozen=True)
class QDecomposition:
    """Splittings i = q_i1 + q_i2 keeping q_ij * beta + d_j below the conductor."""

    pairs: tuple[tuple[int, int], ...]
    d1: int
    d2: int
    beta: int

    def inequalities(self, alpha: int) -> list[tuple[int, int]]:
        """(left side, alpha) for every strict inequality the splitting claims."""
        out = []
        for q1, q2 in self.pairs:
            out.append((q1 * self.beta + self.d1, alpha))
            out.append((q2 * self.beta + self.d2, alpha))
        return out

    def all_strict(self, alpha: int) -> bool:
        return all(lhs < rhs for lhs, rhs in self.inequalities(alpha))


def q_decomposition(ctx: LocalContext) -> QDecomposition:
    """Split each i = 1..r so both scaled summands stay below the conductor.

    Rule: q_r2 is the largest q with q*beta <= d1 (after sorting the pair so
    d1 <= d2), q_r1 = r - q_r2, and for i < r take q_i1 = min(i, q_r1).
    """
    if ctx.d1 is None:
        raise NotApplicable("symmetric semigroup: no complementary gap pair")
    if ctx.r < 1:
        raise NotApplicable("conductor below twice the multiplicity (r = 0)")
    d1, d2 = sorted((ctx.d1, ctx.d2))
    qr1 = ctx.r - d1 // ctx.beta
    pairs = tuple((min(i, qr1), i - min(i, qr1)) for i in range(1, ctx.r + 1))
    return QDecomposition(pairs, d1, d2, ctx.beta)


class CertEntry(NamedTuple):
    """One product of available sections: label, value, and factor values."""

    label: str
    value: int
    factors: tuple[int, ...]


def _value_bits(values: Sequence[int]) -> tuple[int | None, int]:
    """(least, mask) of some integers, bit j set for least + j; (None, 0) for none."""
    least = min(values, default=None)
    mask = 0
    for value in values:
        mask |= 1 << (value - least)
    return least, mask


class Columns(tuple):
    """The (label, value) column factors that the rows of one grid share.

    A plain tuple of pairs.  ``bits``, the (least value, mask) of the column
    values ((None, 0) when there are none), is made with it, once however
    many rows and steps read it.
    """

    bits: tuple[int | None, int]

    def __new__(cls, pairs: Iterable[tuple[str, int]] = ()) -> "Columns":
        self = super().__new__(cls, pairs)
        self.bits = _value_bits([value for _, value in self])
        return self


class GridRow(NamedTuple):
    """One section value times each of a run of others: a row of a factor grid.

    Column (c, v) of ``cols`` stands for the entry ``CertEntry(f"{label}*{c}",
    value + v, (value, v))``: a row stores only factors, and each value is
    their sum.  The rows of one grid share their :class:`Columns`.
    """

    label: str
    value: int
    cols: Columns


def _flat_entries(base: Iterable[CertEntry | GridRow]) -> list[CertEntry]:
    """The entries of a base table, each grid row expanded into its products."""
    out = []
    for item in base:
        if type(item) is GridRow:
            label, value, cols = item
            out.extend(CertEntry(f"{label}*{c}", value + v, (value, v)) for c, v in cols)
        else:
            out.append(item)
    return out


@dataclass(frozen=True)
class BasisCertificate:
    """Products of sections spanning the value window [lo, hi) of the conductor chain.

    The window is one quotient step: the values of the larger conductor power
    that the smaller one misses.  The ``base`` table lists flat entries
    (:class:`CertEntry`, whose value is stored beside its factors) and grid
    rows (:class:`GridRow`, one row factor times shared column factors,
    standing for their products).  The entries are that base times the
    powers m^i of one section value m = ``mul``, for i in ``exponents``: base
    entry e at power i is labelled ``f"{mul_label}^{i}*" + e.label`` (just
    e.label at i = 0), has value e.value + i*m and the factors of e followed
    by i copies of m.  The default exponents, only 0, give the base itself.

    Validity means: hi - lo entries, pairwise distinct values (hence
    independent in the monomial model), every value in [lo, hi), every
    factor an available section value summing to the entry value.  A
    certificate reads its value and factor masks once, when it is made, with
    work linear in its rows, columns and powers, not in their products: a
    column mask is shifted once per row value, the base mask once per
    power, and every distinct factor is one bit of the factor mask.
    :meth:`check` decides every rule from these masks, and ``size``,
    ``value_bits`` and :meth:`sorted_values` read them.  Labelled entries
    are built only when they are read (``entries``, :meth:`labelled_values`,
    :meth:`values`: ``verify local`` and tests) and when a check fails, to
    name its defects as a flat table would.
    """

    name: str
    lo: int
    hi: int
    base: tuple[CertEntry | GridRow, ...]
    mul_label: str = ""
    mul: int = 0
    exponents: range = range(1)
    _scan: tuple[tuple[int | None, int], int, int | None, bool] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_scan", self._read_masks())

    def _read_masks(self) -> tuple[tuple[int | None, int], int, int | None, bool]:
        """(value bits, entry count, factor mask, factor sums hold) over every entry.

        The values are read as a mask from the window's low end: a flat entry
        is one bit, a grid row its column mask at the row value, and the base
        mask is shifted once per power.  The mask keeps one bit per entry iff
        no value repeats.  Should a value fall below the window, the bits are
        read from the listed values instead.  Bit f of the factor mask stands
        for the factor f: the flat entries' factors, the row values and
        columns of non-empty rows, and m where a power uses it.  It is None
        when a factor is negative.
        """
        exps, mul, lo = self.exponents, self.mul, self.lo
        low_shift = min(exps[0] * mul, exps[-1] * mul) if exps else 0
        origin = lo - low_shift  # bit 0 of the base mask
        base_mask = factors = count = 0
        below = negative = False
        sums = True
        for item in self.base:
            if type(item) is GridRow:
                row, cols = item.value, item.cols
                if not cols:
                    continue
                least, mask = cols.bits
                at = row + least - origin
                if at < 0:
                    below = True
                else:
                    base_mask |= mask << at
                if least < 0 or row < 0:
                    negative = True
                else:
                    factors |= mask << least | 1 << row
                count += len(cols)
            else:
                _, value, item_factors = item
                if value < origin:
                    below = True
                else:
                    base_mask |= 1 << (value - origin)
                for f in item_factors:
                    if f < 0:
                        negative = True
                    else:
                        factors |= 1 << f
                count += 1
                sums = sums and sum(item_factors) == value
        if not (count and exps):
            return (None, 0), 0, 0, sums
        if any(exps):
            if mul < 0:
                negative = True
            else:
                factors |= 1 << mul
        mask = 0
        for i in exps:
            mask |= base_mask << (i * mul - low_shift)
        if below:
            bits = _value_bits(self.values())
        else:
            low = (mask & -mask).bit_length() - 1
            bits = lo + low, mask >> low
        return bits, count * len(exps), None if negative else factors, sums

    @property
    def size(self) -> int:
        """Number of entries."""
        return self._scan[1]

    def _powers(self):
        """(label prefix, value shift, extra factors) of each power, in entry order."""
        for i in self.exponents:
            prefix = f"{self.mul_label}^{i}*" if i else ""
            yield prefix, i * self.mul, (self.mul,) * i

    @property
    def entries(self) -> tuple[CertEntry, ...]:
        """Every product, base entries within each power, powers in order."""
        base = _flat_entries(self.base)
        return tuple(
            CertEntry(prefix + label, value + shift, factors + extra)
            for prefix, shift, extra in self._powers()
            for label, value, factors in base
        )

    def labelled_values(self) -> list[tuple[str, int]]:
        """(label, value) of every entry in entry order, without the factor tuples."""
        base = _flat_entries(self.base)
        return [
            (prefix + label, value + shift)
            for prefix, shift, _ in self._powers()
            for label, value, _ in base
        ]

    def values(self) -> tuple[int, ...]:
        base = [value for _, value, _ in _flat_entries(self.base)]
        return tuple(value + i * self.mul for i in self.exponents for value in base)

    def sorted_values(self) -> list[int]:
        """The entry values in increasing order, read from the mask when none repeats."""
        least, mask = self.value_bits
        if mask.bit_count() == self.size:
            return _bit_values(least, mask) if mask else []
        return sorted(self.values())

    @property
    def value_bits(self) -> tuple[int | None, int]:
        """(least value, mask), bit j set iff least + j is an entry value; (None, 0) if none."""
        return self._scan[0]

    def check(self, section_values: ValueSet) -> list[str]:
        """Return human-readable defects; empty list means the certificate holds.

        Validity is decided from the masks: the least and largest value lie
        in the window, the value mask has one bit per entry (so no two values
        are equal) and hi - lo of them, each flat entry's factors sum to its
        value (a grid row's do by definition), and the factor mask lies in
        the section values.  Only a certificate that fails is expanded into
        labelled entries, to name its defects in the words of a flat table.
        """
        (least, mask), size, factors, sums = self._scan
        # a value outside the window or a repeated one fails the window or count test
        if (
            (least is None or (self.lo <= least and least + mask.bit_length() <= self.hi))
            and mask.bit_count() == size == self.hi - self.lo
            and sums
            and factors is not None
            and factors & ~section_values._bits_below(0, factors.bit_length()) == 0
        ):
            return []
        return self._defects(section_values)

    def _defects(self, section_values: ValueSet) -> list[str]:
        defects = []
        entries = self.entries
        vals = [e.value for e in entries]
        if len(set(vals)) != len(vals):
            defects.append("duplicate values")
        want = self.hi - self.lo
        if len(vals) != want:
            defects.append(f"size {len(vals)} != quotient dimension {want}")
        # entries share a few factor values; test each distinct one once
        factors = {f for e in entries for f in e.factors}
        unavailable = {f for f in factors if f not in section_values}
        for e in entries:
            if not self.lo <= e.value < self.hi:
                defects.append(f"{e.label}: value {e.value} outside the quotient window")
            if sum(e.factors) != e.value:
                defects.append(f"{e.label}: factor values do not sum to {e.value}")
            for f in e.factors:
                if f in unavailable:
                    defects.append(f"{e.label}: factor value {f} is not a section value")
        return defects


def _require(value: int, ctx: LocalContext, what: str) -> int:
    if value not in ctx.section_values:
        raise HypothesisGap(f"required section value {value} ({what}) is unavailable")
    return value


def build_certificates(ctx: LocalContext, n: int, case: str) -> list[BasisCertificate]:
    """Product tables spanning the conductor chain used for weight n covering.

    With eps = case_epsilon(case, .), the chain is the windows

    * conductor step [alpha, 2 alpha - beta),
    * square step [2 alpha - beta, 2 alpha - eps(2)),
    * power step [2 alpha - eps(2), n alpha - eps(n)), for n >= 3,

    which tile [alpha, n alpha - eps(n)).  For n = 1 the list is empty.

    Each step is a few factor grids over the column table b_j = j + alpha -
    beta - 1 (:class:`GridRow`), with flat two-factor entries between them.
    The conductor step is the rows m_i = i beta times b_1 .. b_(beta-1) for
    i = 1..r, each followed by its q-split pair f_i, then the top row
    m_(r+1) times b_1 .. b_p.  The square step is the row of one section m
    times b_first .. b_(beta-1): m = b_(beta-1) from b_3 on in case i, the
    value-zero section h0 from b_1 on in cases ii and iii, where case iii
    adds the product h1*b_partner of its value-1 or value-2 section.  The
    power step is the rows and entries of both, plus the gap-pair product f0
    of value alpha - 1 in cases i and ii, times the powers m^1 .. m^(n-2).
    Building them requires each factor once, the column table first and
    then the rest in entry order, so a missing one raises
    :class:`HypothesisGap` naming the first met.  Each step reads its masks
    as it is made; no entry is labelled until it is read.
    """
    eps2 = case_epsilon(case, 2)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if ctx.d1 is None:
        raise NotApplicable("certificates target a non-Gorenstein point; semigroup is symmetric")
    if n == 1:
        return []
    a, b, r, p = ctx.alpha, ctx.beta, ctx.r, ctx.p

    # the column table b_j = j + alpha - beta - 1, j = 1 .. beta-1, required
    # whole: a missing b_j is named as requiring each in turn would name it
    missing = ~ctx.section_values._bits_below(a - b, a - 1) & ((1 << (b - 1)) - 1)
    if missing:
        j = (missing & -missing).bit_length()
        _require(j + a - b - 1, ctx, f"b{j}")
    b_cols = Columns((f"b{j}", j + a - b - 1) for j in range(1, b))

    conductor: list[CertEntry | GridRow] = []
    if r >= 1:
        qd = ctx.q_split
        for i in range(1, r + 1):
            conductor.append(GridRow(f"m{i}", _require(i * b, ctx, f"m{i}"), b_cols))
            q1, q2 = qd.pairs[i - 1]
            f1 = _require(q1 * b + qd.d1, ctx, "q-split summand")
            f2 = _require(q2 * b + qd.d2, ctx, "q-split summand")
            conductor.append(CertEntry(f"f{i}", f1 + f2, (f1, f2)))
    if p > 0:
        m_top = _require((r + 1) * b, ctx, f"m{r + 1}")
        conductor.append(GridRow(f"m{r + 1}", m_top, Columns(b_cols[:p])))

    if case == "i":
        mul_label, mul, first = f"b{b - 1}", b_cols[-1][1], 3
    else:
        mul_label, mul, first = "h0", _require(a, ctx, "h0"), 1
    square: list[CertEntry | GridRow] = [GridRow(mul_label, mul, Columns(b_cols[first - 1:]))]
    if case == "iii":
        h1 = next((v for v in (a + 1, a + 2) if v in ctx.section_values), None)
        if h1 is None:
            raise HypothesisGap("case iii needs a section of value 1 or 2 at the point")
        partner = a + b - h1
        bj = b_cols[partner - 1][1]
        square.append(CertEntry(f"h1*b{partner}", h1 + bj, (h1, bj)))
        pair = []
    else:
        d1 = _require(ctx.d1, ctx, "gap-pair factor")
        d2 = _require(ctx.d2, ctx, "gap-pair factor")
        pair = [CertEntry("f0", d1 + d2, (d1, d2))]
    certs = [
        BasisCertificate("conductor-step", a, 2 * a - b, tuple(conductor)),
        BasisCertificate("square-step", 2 * a - b, 2 * a - eps2, tuple(square)),
    ]
    if n >= 3:
        hi = n * a - case_epsilon(case, n)
        base = tuple(conductor + square + pair)
        certs.append(
            BasisCertificate("power-step", 2 * a - eps2, hi, base, mul_label, mul, range(1, n - 1))
        )
    return certs


@dataclass(frozen=True)
class SurjectivityCheck:
    """Outcome of the value-level covering test, with explicit witnesses.

    ``minimal_epsilon`` is the least shift >= 0 that leaves nothing uncovered.
    """

    ok: bool
    n: int
    epsilon: int
    uncovered: tuple[int, ...]
    minimal_epsilon: int


def verify_local_surjectivity(ctx: LocalContext, n: int, epsilon: int) -> SurjectivityCheck:
    """Do n-fold section values cover the n-th canonical power mod the shifted conductor?

    Coverage is the value-set inclusion: every element of the n-fold sumset of
    K below n*alpha - epsilon must be an n-fold sum of section values.  The
    bit difference of the two powers below n*alpha gives the verdict and the
    least shift at once; its values are listed only when it is not empty.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    top = n * ctx.alpha
    lo, missing = missing_bits(ctx.canonical_powers.power(n), ctx.section_powers.power(n), top)
    if not missing:
        return SurjectivityCheck(True, n, epsilon, (), 0)
    least = lo + (missing & -missing).bit_length() - 1
    cut = top - epsilon - lo
    kept = missing & ((1 << cut) - 1) if cut > 0 else 0
    uncovered = tuple(_bit_values(lo, kept)) if kept else ()
    return SurjectivityCheck(not uncovered, n, epsilon, uncovered, top - least)
