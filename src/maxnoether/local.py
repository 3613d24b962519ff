"""Local surjectivity at a unibranch non-Gorenstein point, at the value level.

At such a point the canonical ideal K strictly contains the value semigroup
S, and the sections of the dualizing sheaf, divided by a fixed differential
of minimal local value, realize the values W with W + [alpha, oo) = K.  The
question whether n-fold products of sections cover the n-th power of the
dualizing stalk modulo a shifted conductor power reduces to sumset coverage,
and the covering is certified by explicit product tables whose values are
pairwise distinct, so linear independence is free in the monomial model.
Since 0 lies in K, K^n is (K below alpha)^n together with [alpha, oo), and
the first part is in W^n, so a covering is one window test: the values of
[alpha, n alpha) that W^n misses.

Three cases govern the admissible shift epsilon of the conductor power:

* case (i): no section of value 0 at the point, epsilon = 2n - 1;
* case (ii): a section of value 0 exists, epsilon = 1;
* case (iii): sections of value 0 and of value 1 or 2 exist, epsilon = 0.

The case is read from the context (:attr:`LocalContext.case`, a tag "i",
"ii" or "iii", counting values from alpha); :func:`case_epsilon` gives its
shift, and a covering check reports beside it the least shift that would
suffice.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .errors import HypothesisGap, NotApplicable
from .frozen import Frozen
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


class LocalContext(Frozen):
    """Frozen value data of one unibranch point: its semigroup and section values.

    ``section_values`` W is the value set of the available sections divided
    by the minimal-value differential; it defaults to K below the conductor,
    which is what the one-singularity model attains.  The rest is read from
    the two.  ``alpha`` and ``beta`` are the conductor and multiplicity.
    ``d1`` is the least value of K minus S below alpha and d2 = alpha - 1 -
    d1 its complement, also in K minus S, so d1 <= d2; both are ``None`` on
    a symmetric semigroup.  r = alpha // beta - 1 and p = alpha - (r+1) beta.
    ``case`` is the epsilon-case of W: "i" when alpha is not in W, "iii" when
    alpha and alpha + 1 or alpha + 2 are, "ii" otherwise.  ``section_powers``
    holds the sumset powers of W made so far for this context, so every
    weight reuses the lower ones.  Only the semigroup and W are compared,
    hashed and shown.

    ``q_pairs`` splits each i = 1..r as q_i1 + q_i2 so that both scaled
    summands q_i1*beta + d1 and q_i2*beta + d2 stay below alpha; ``q_sums``
    lists those 2r summands in pair order.  Rule: q_r2 = d1 // beta, the
    largest q with q*beta <= d1, q_r1 = r - q_r2, and for i < r take q_i1 =
    min(i, q_r1).  ``q_pairs`` is ``None`` and ``q_sums`` empty where the
    split does not apply (symmetric, or r = 0).  Every summand is below
    alpha: at i = r, q_r2*beta + d2 <= d1 + d2 = alpha - 1, and q_r1*beta +
    d1 = r*beta + (d1 mod beta) < (r+1)*beta <= alpha.  For i < r, q_i1 <=
    q_r1 and q_i2 <= q_r2, so those pairs lie below these two.  Each summand
    is a value of S plus d_j in K, so it lies in K below alpha, where the
    premise below makes W equal K: the certificates need no test of them.

    W must agree with K = ``canonical_ideal(semigroup)`` below alpha, that is
    W u [alpha, oo) = K.  K has least value 0 and holds [alpha, oo), so K^n =
    (K below alpha)^n u [alpha, oo): a sum of n values of K is at least 0
    and lies below alpha only if every summand does, and any v >= alpha is
    v + 0 + ... + 0.  The first part is a sumset of values of W, so it lies in
    W^n, and K^n minus W^n is [alpha, oo) minus W^n.  A W breaking this
    premise raises :class:`HypothesisGap`.
    """

    _shown = ("semigroup", "section_values")

    def __init__(
        self, semigroup: NumericalSemigroup, section_values: ValueSet | None = None
    ) -> None:
        if not semigroup.gaps:
            raise NotApplicable("the full semigroup has no singular point")
        a, b = semigroup.conductor, semigroup.multiplicity
        k = canonical_ideal(semigroup)
        w = k.below(a) if section_values is None else section_values
        # W agrees with K below alpha iff W starts at 0 and their masks there match
        if w.min != 0 or w._bits_below(0, a) != k._bits_below(0, a):
            raise HypothesisGap(
                "section values plus the conductor ray must equal the canonical ideal"
            )
        lo, off_ring = missing_bits(k, semigroup.values, a)
        d1 = lo + (off_ring & -off_ring).bit_length() - 1 if off_ring else None
        d2 = None if d1 is None else a - 1 - d1
        r = a // b - 1
        object.__setattr__(self, "semigroup", semigroup)
        object.__setattr__(self, "section_values", w)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", a - (r + 1) * b)
        case = "i" if a not in w else "iii" if a + 1 in w or a + 2 in w else "ii"
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "section_powers", PowerChain(w))
        pairs, sums = None, ()
        if d1 is not None and r >= 1:
            qr1 = r - d1 // b
            pairs = tuple((min(i, qr1), i - min(i, qr1)) for i in range(1, r + 1))
            sums = tuple(v for q1, q2 in pairs for v in (q1 * b + d1, q2 * b + d2))
        object.__setattr__(self, "q_pairs", pairs)
        object.__setattr__(self, "q_sums", sums)


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


class Columns(Frozen):
    """A run of the column table b_j = j + alpha - beta - 1 that the rows of one grid share.

    Held as (first j, count, least value): the columns b_first ..
    b_(first + count - 1), of values least .. least + count - 1.  ``bits``,
    the (least value, mask) of the column values ((None, 0) when there are
    none), is read from these three numbers.  Iterated, it gives the
    (label, value) pairs (f"b{j}", value) in column order; a pair and its
    label are made only when read, by ``entries`` (so by ``verify local``
    and a failing check).
    """

    __slots__ = ("first", "count", "least")
    _shown = __slots__

    def __init__(self, first: int, count: int, least: int) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "least", least)

    @property
    def bits(self) -> tuple[int | None, int]:
        return (self.least, (1 << self.count) - 1) if self.count else (None, 0)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        first, least = self.first, self.least
        return ((f"b{first + k}", least + k) for k in range(self.count))


class GridRow(NamedTuple):
    """One section value times each of a run of column values: a row of a factor grid.

    Column (c, v) of ``cols`` stands for the entry ``CertEntry(f"{label}*{c}",
    value + v, (value, v))``: a row stores only factors, and each value is
    their sum.  The rows of one grid share their :class:`Columns` run, so a
    row is three fields however many columns it has.
    """

    label: str
    value: int
    cols: Columns


class BasisCertificate(Frozen):
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
    certificate reads its value and factor masks once, when it is made, in
    one scan of its rows and flat entries, with work linear in its rows and
    powers, not in their columns or products: a column run's mask is
    (1 << count) - 1, shifted once per row value, the base mask is shifted
    once per power, and every distinct factor is one bit of the factor mask.
    :meth:`check` decides every rule from these masks, and ``size``,
    ``value_bits`` and :meth:`sorted_values` read them.  ``entries`` is the
    one expansion of the table into labelled products; it runs only when
    read (:meth:`labelled_values` and :meth:`values`: ``verify local`` and
    tests) and when a check fails, to name its defects as a flat table would.
    """

    _shown = ("name", "lo", "hi", "base", "mul_label", "mul", "exponents")

    def __init__(
        self,
        name: str,
        lo: int,
        hi: int,
        base: tuple[CertEntry | GridRow, ...],
        mul_label: str = "",
        mul: int = 0,
        exponents: range = range(1),
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mul_label", mul_label)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "exponents", exponents)
        # (value bits, entry count, factor mask, factor sums hold); left out
        # of equality, hash and repr
        object.__setattr__(self, "_scan", self._read_masks())

    def _read_masks(self) -> tuple[tuple[int | None, int], int, int | None, bool]:
        """(value bits, entry count, factor mask, factor sums hold) over every entry.

        The values are read as a mask from the window's low end: a flat entry
        is one bit, a grid row the bits of its column run, ``count`` ones
        from the run's least value, at the row value, and the base mask is
        shifted once per power.  The mask keeps one bit per entry iff
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
                _, row, cols = item
                least, mask = cols.bits
                if not mask:
                    continue
                at = row + least - origin
                if at < 0:
                    below = True
                else:
                    base_mask |= mask << at
                if least < 0 or row < 0:
                    negative = True
                else:
                    factors |= mask << least | 1 << row
                count += cols.count
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

    @property
    def entries(self) -> tuple[CertEntry, ...]:
        """Every product, base entries within each power, powers in order."""
        base = []
        for item in self.base:
            if type(item) is GridRow:
                label, value, cols = item
                base.extend(CertEntry(f"{label}*{c}", value + v, (value, v)) for c, v in cols)
            else:
                base.append(item)
        mul = self.mul
        powers = [
            (f"{self.mul_label}^{i}*" if i else "", i * mul, (mul,) * i) for i in self.exponents
        ]
        return tuple(
            CertEntry(prefix + label, value + shift, factors + extra)
            for prefix, shift, extra in powers
            for label, value, factors in base
        )

    def labelled_values(self) -> list[tuple[str, int]]:
        """(label, value) of every entry in entry order."""
        return [(e.label, e.value) for e in self.entries]

    def values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.entries)

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


def build_certificates(ctx: LocalContext, n: int) -> list[BasisCertificate]:
    """Product tables spanning the conductor chain used for weight n covering.

    With eps = case_epsilon(ctx.case, .), the chain is the windows

    * conductor step [alpha, 2 alpha - beta),
    * square step [2 alpha - beta, 2 alpha - eps(2)),
    * power step [2 alpha - eps(2), n alpha - eps(n)), for n >= 3,

    which tile [alpha, n alpha - eps(n)).  For n = 1 the list is empty.

    Each step is a few factor grids (:class:`GridRow`) whose columns are
    runs (:class:`Columns`) of the column table b_j = j + alpha - beta - 1,
    j = 1 .. beta-1, the values alpha - beta .. alpha - 2, with flat
    two-factor entries between them.
    The conductor step is the rows m_i = i beta times b_1 .. b_(beta-1) for
    i = 1..r, each followed by its q-split pair f_i, then the top row
    m_(r+1) times b_1 .. b_p.  The square step is the row of one section m
    times b_first .. b_(beta-1): m = b_(beta-1) from b_3 on in case i, the
    value-zero section h0 from b_1 on in cases ii and iii, where case iii
    adds the product h1*b_partner of its value-1 or value-2 section.  The
    power step is the rows and entries of both, plus the gap-pair product f0
    of value alpha - 1 in cases i and ii, times the powers m^1 .. m^(n-2).
    The column table, the rows m_i = i beta (values of S), the q-split
    summands (see :class:`LocalContext`) and the gap pair d1, d2 all lie
    in K below alpha, so every context holds them, and the context's case
    holds h0 and h1, of value alpha and up.  Each step reads its masks as it
    is made, a run's bits from its three numbers; no column pair and no
    entry is labelled until it is read.
    """
    # bool is an int subclass; True is not weight 1
    if type(n) is not int:
        raise TypeError(f"a weight must be an int, not {type(n).__name__}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if ctx.d1 is None:
        raise NotApplicable("certificates target a non-Gorenstein point; semigroup is symmetric")
    if n == 1:
        return []
    a, b, r, p, case = ctx.alpha, ctx.beta, ctx.r, ctx.p, ctx.case
    eps2 = case_epsilon(case, 2)

    # the column table b_j = j + alpha - beta - 1, j = 1 .. beta-1, is the run
    # alpha - beta .. alpha - 2 and needs no test: alpha - b_j - 1 = beta - j
    # is a gap, so b_j is in K below alpha, where the context's premise puts
    # it in the section values
    shift = a - b - 1  # b_j = j + shift
    b_cols = Columns(1, b - 1, 1 + shift)

    conductor: list[CertEntry | GridRow] = []
    if r >= 1:
        d1, d2 = ctx.d1, ctx.d2
        for i, (q1, q2) in enumerate(ctx.q_pairs, 1):
            conductor.append(GridRow(f"m{i}", i * b, b_cols))
            f1, f2 = q1 * b + d1, q2 * b + d2
            conductor.append(CertEntry(f"f{i}", f1 + f2, (f1, f2)))
    if p > 0:
        conductor.append(GridRow(f"m{r + 1}", (r + 1) * b, Columns(1, p, 1 + shift)))

    if case == "i":
        mul_label, mul, first = f"b{b - 1}", b - 1 + shift, 3
    else:
        mul_label, mul, first = "h0", a, 1
    square: list[CertEntry | GridRow] = [
        GridRow(mul_label, mul, Columns(first, max(b - first, 0), first + shift))
    ]
    if case == "iii":
        h1 = a + 1 if a + 1 in ctx.section_values else a + 2
        partner = a + b - h1
        bj = partner + shift
        square.append(CertEntry(f"h1*b{partner}", h1 + bj, (h1, bj)))
        pair = []
    else:
        pair = [CertEntry("f0", ctx.d1 + ctx.d2, (ctx.d1, ctx.d2))]
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


class SurjectivityCheck(Frozen):
    """Outcome of the value-level covering test, with explicit witnesses.

    ``minimal_epsilon`` is the least shift >= 0 that leaves nothing uncovered.
    """

    _shown = ("ok", "n", "epsilon", "uncovered", "minimal_epsilon")

    def __init__(
        self, ok: bool, n: int, epsilon: int, uncovered: tuple[int, ...], minimal_epsilon: int
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "uncovered", uncovered)
        object.__setattr__(self, "minimal_epsilon", minimal_epsilon)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.n,
            "epsilon": self.epsilon,
            "uncovered": list(self.uncovered),
            "minimal_epsilon": self.minimal_epsilon,
        }


def verify_local_surjectivity(ctx: LocalContext, n: int, epsilon: int) -> SurjectivityCheck:
    """Do n-fold section values cover the n-th canonical power mod the shifted conductor?

    Coverage is the value-set inclusion: every element of the n-fold sumset of
    K below n*alpha - epsilon must be an n-fold sum of section values.  By the
    context's premise (see :class:`LocalContext`), the part of K^n below alpha
    is (K below alpha)^n, inside W^n, and K^n holds all of [alpha, oo).  So the
    values K^n misses in W^n below n*alpha are the window [alpha, n*alpha)
    less W^n, and that one mask gives the verdict and the least shift at once;
    its values are listed only when it is not empty.  No power of K is built.
    """
    # bool is an int subclass; True is not weight 1
    if type(n) is not int:
        raise TypeError(f"a weight must be an int, not {type(n).__name__}")
    if type(epsilon) is not int:
        raise TypeError(f"epsilon must be an int, not {type(epsilon).__name__}")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    power = ctx.section_powers.power(n)
    a = ctx.alpha
    top = n * a
    # bit i stands for alpha + i
    missing = ~power._bits_below(a, top) & ((1 << (top - a)) - 1)
    if not missing:
        return SurjectivityCheck(True, n, epsilon, (), 0)
    least = a + (missing & -missing).bit_length() - 1
    cut = top - epsilon - a
    kept = missing & ((1 << cut) - 1) if cut > 0 else 0
    uncovered = tuple(_bit_values(a, kept)) if kept else ()
    return SurjectivityCheck(not uncovered, n, epsilon, uncovered, top - least)
