"""Rational curve models with unibranch monomial singularities.

The model is the projective line over the rationals in which the local ring
at finitely many rational centers is replaced by the monomial subring whose
valuations form a prescribed numerical semigroup.  A global n-fold
differential is a numerator polynomial over the fixed denominator
``prod (t - c_i)^(n * alpha_i)``, regular at infinity iff the numerator
degree stays below the fixed bound, and regular at the centers iff the
numerator's order at each center lies in K^n, the n-th power of that
branch's canonical ideal: in the monomial model its expansion there has no
term on the finitely many gaps of K^n.  Spaces of sections are therefore
exact nullspaces, and surjectivity of multiplication maps is a canonical
subspace comparison.  Each semigroup keeps one cached chain of the powers
K, K^2, ..., which the constraint rows of every weight and the value route
of ``suites`` both read, so the weights 1..n cost n - 1 sumsets per
semigroup.

Every row and vector handed to ``linalg`` has integer entries.  At a center
p/q each row is a coefficient of the numerator's local expansion, times the
other branches' unit factors, scaled by a nonzero constant (powers of q and
of the center differences), which leaves every nullspace and pivot alone.
``_constraint_rows`` writes them by column: the column of t^d is its jet at
the center, and each jet is the one before it times one linear factor.

Section spaces are term rows, ``linalg.Terms``, from the constraints to the
canonical basis.  The constraint matrix is held by column, and
``global_sections`` reads its term rows off the columns for the sparse
``linalg.nullspace``, so building H^0(omega^n) costs the nonzeros of the
constraints.  A lone branch at center 0 has no other branch's unit factor,
and the jet of t^d is w^d, so each of its constraints is one unit entry, on
an excluded order: ``_constraint_rows`` writes those columns straight from
``excluded_orders``, and ``nullspace`` takes the unit rows of the other
columns as the basis, with no elimination.  A ``Subspace`` holds its basis
as term rows too.

The product span P of weight n is S_1 . S_1^(n-1), certified against the
section space S before anything is eliminated over Q.  Its rows are term
rows from the moment they are formed until a verdict is reached: every
product multiplies the term rows of a basis vector of S_1 and of S_1^(n-1)
into one, and coefficients that cancel are dropped, so equal products hash
equal.  At center 0 nearly every basis vector is a monomial, and so is
nearly every product.  Deduplication, the modular rank and the membership
test all read the terms, and so does the exact fallback.  ``modular_rank``
keeps a row that opens its lead column as its terms, unless a later row
reduces by it.  One-term rows take a short path: two monomials multiply
into one term without a list, and ``_in_sections`` passes a monomial in a
column no constraint reads without summing C v.

The certificate reads only as many products as it needs.  ``modular_rank``
reads the product rows as ``_ordered_products`` forms them, lazily, and
stops once its rank modulo one fixed prime reaches dim S; let R be the rows
it read.  With C the constraint matrix of S, each v in R is shown at run
time to satisfy C v = 0 exactly (C is held by column, so C v costs the
nonzeros of C in the columns where v has terms).  Then rank_p(R) <=
dim span R <= dim S, so rank_p(R) = dim S proves span R = S, and since R
lies in P, S lies in P: surjectivity is certified from the rows read alone,
and S itself is returned; its canonical basis is the one an exact span
would give.  The other inclusion, P in S for the products never formed,
is not checked at run time.  It is the model's lemma that products of
sections are sections: at each center the support of a product lies in
K^a + K^b, which lies in K^(a+b); the degree bound at infinity is additive
in the weight; and the other branches' factors, units at the center, are
powers with exponents additive in the weight, so they multiply.  The test
suite checks the lemma on every product it forms.  Any mismatch, from a
real failure or an unlucky prime, forms the remaining products, each once,
and falls back to exact integer elimination of them all, which also
supplies the failure witness.  Nothing is probabilistic: the prime costs
time, never an answer.

The resolution quotient adds to P the sections of the curve with branch r
resolved, each numerator N embedded as f N, f = (q_r t - p_r)^m with
m = n * alpha_r.  Where P = S, the quotient is full iff every f N lies in S,
and that is read from jets with no f N formed: at each branch b, the jet
that C reads from N, sum_d N_d q_b^(A-1-d) jet_d, comes from a table of the
column jets cached per curve and weight (``_scaled_jets``), and its product
with the jet of f, truncated, is q_b^m times the jet of f N; C (f N) = 0 iff
that product vanishes at every excluded order, at every branch.  Only where
P differs from S, or a jet test refuses, are the embedded rows formed and
spanned with P exactly.

Everything is exact: ranks and subspace equalities over the rationals are
stable under field extension, so nothing is lost against an algebraically
closed ground field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb, lcm
from typing import Iterable, Iterator, Sequence

from .errors import (
    AmbientTooLarge,
    BranchIndexError,
    CurveSpecError,
    MaxNoetherError,
    NotApplicable,
    WeightTooLarge,
)
from .linalg import Subspace, Terms, _terms, modular_rank, nullspace
from .semigroup import NumericalSemigroup
from .valueset import PowerChain, ValueSet, canonical_ideal, missing_below

# Entries kept by each subspace cache.  A check reuses a curve's spaces a few
# entries later at most, so this keeps every hit while bounding memory over a
# long corpus run.
_CACHE_SIZE = 256

# Frames kept by ``_branch_frames``.  A frame is read again only by a
# resolution check of its curve and weight, a few weights after the
# constraint rows first read it; on the ``multi-branch`` benchmark 32
# entries keep every such hit, and 256 held ~0.1 MB more at peak for none more.
_FRAMES_CACHE_SIZE = 32

# Largest weight of a section or product space: products of weight n recurse
# through every lower weight, and the cap keeps that inside the recursion limit.
MAX_WEIGHT = 256

# Most numerator coefficients of a weight-n space, checked before any row is
# built.  At the cap a one-branch check at center 0 takes about 0.3 s on a
# 2-core Xeon VM (0.3 s for <2,1149> at n = 2, 0.2 s for <3,575>, under
# 0.01 s for the ordinary semigroup of multiplicity 1,150), since its
# constraint and product rows are monomials; branches at nonzero centers
# make dense rows and cost far more.
MAX_AMBIENT = 2300

# Most decimal digits in the numerator or denominator of a branch center.  The
# constraint columns raise the denominator to the ambient's power, and a center
# far past this could not even be printed (Python converts at most 4,300
# digits of an int to a string).
MAX_CENTER_DIGITS = 1000


@dataclass(frozen=True)
class Branch:
    """One unibranch singular point: a rational center and its value semigroup."""

    center: Fraction
    semigroup: NumericalSemigroup


@dataclass(frozen=True)
class RationalCurveModel:
    """Rational curve with unibranch monomial singularities at distinct centers."""

    branches: tuple[Branch, ...]
    # hash(branches), taken once: every cache lookup hashes the curve, and
    # hashing a Fraction center runs in Python
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        centers = [b.center for b in self.branches]
        if len(set(centers)) != len(centers):
            raise CurveSpecError("branch centers must be pairwise distinct")
        for b in self.branches:
            if not b.semigroup.gaps:
                raise CurveSpecError("every branch must carry a proper semigroup")
        object.__setattr__(self, "_hash", hash(self.branches))

    def __hash__(self) -> int:
        return self._hash

    @property
    def genus(self) -> int:
        return sum(b.semigroup.genus for b in self.branches)

    @classmethod
    def from_semigroups(cls, semigroups: Iterable[NumericalSemigroup]) -> "RationalCurveModel":
        """Place the given singularities at the default centers 0, 1, 2, ..."""
        return cls(
            tuple(Branch(Fraction(i), s) for i, s in enumerate(semigroups))
        )

    def to_json(self) -> dict:
        return {
            "branches": [
                {"center": str(b.center), "generators": list(b.semigroup.generators)}
                for b in self.branches
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalCurveModel":
        if not isinstance(obj, dict) or not isinstance(obj.get("branches"), list):
            raise CurveSpecError('curve spec must be an object with a "branches" list')
        if not obj["branches"]:
            raise CurveSpecError("curve spec has no branches: nothing to check")
        branches = []
        for i, raw in enumerate(obj["branches"]):
            try:
                center = raw["center"]
                # any other JSON number has been rounded to a float already; true is not 1
                if type(center) not in (str, int):
                    raise TypeError(f'center {center!r} must be a string such as "7/3" or an integer')
                center = _parse_center(center)
                gens = raw["generators"]
                # bool is an int subclass; a JSON true is not a generator
                if not isinstance(gens, list) or any(type(g) is not int for g in gens):
                    raise TypeError(f"generators must be a list of integers, got {gens!r}")
                sg = NumericalSemigroup.from_generators(gens)
            except (KeyError, ValueError, TypeError, ZeroDivisionError, MaxNoetherError) as exc:
                raise CurveSpecError(f"branch {i}: {exc}") from exc
            branches.append(Branch(center, sg))
        return cls(tuple(branches))

    @classmethod
    def from_file(cls, path: str) -> "RationalCurveModel":
        try:
            with open(path, "r", encoding="utf-8") as fp:
                text = fp.read()
        except OSError as exc:
            raise CurveSpecError(f"cannot read curve spec: {exc}") from exc
        try:
            obj = json.loads(text, parse_int=_parse_json_int)
        except json.JSONDecodeError as exc:
            raise CurveSpecError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # an integer literal past MAX_CENTER_DIGITS
            raise CurveSpecError(f"{path}: {exc}") from exc
        return cls.from_json(obj)

    def __str__(self) -> str:
        return " ".join(f"{b.semigroup}@{b.center}" for b in self.branches) or "smooth"


def _parse_json_int(literal: str) -> int:
    """A JSON integer literal, refused past ``MAX_CENTER_DIGITS`` digits before ``int`` reads it."""
    digits = len(literal.lstrip("-"))
    if digits > MAX_CENTER_DIGITS:
        raise ValueError(
            f"an integer of {digits} digits is above MAX_CENTER_DIGITS = "
            f"{MAX_CENTER_DIGITS}, the most digits any number in a curve spec may have"
        )
    return int(literal)


def _parse_center(raw: str | int) -> Fraction:
    """A branch center read exactly, within ``MAX_CENTER_DIGITS``."""
    too_large = ValueError(
        f"center numerator and denominator must have at most MAX_CENTER_DIGITS = "
        f"{MAX_CENTER_DIGITS} digits"
    )
    if isinstance(raw, str):
        # Fraction builds 10**exponent before its size can be read, and reads
        # no integer of more than 4,300 digits: count the digits as written
        # (leading zeros too) in the numerator and the denominator first
        mantissa, e, exponent = raw.lower().rpartition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdigit() and len(digits) > len(str(MAX_CENTER_DIGITS)):
            raise too_large
        for part in (mantissa if e else raw).split("/"):
            if sum(map(str.isdigit, part)) > MAX_CENTER_DIGITS:
                raise too_large
    center = Fraction(raw)
    if max(abs(center.numerator), center.denominator) >= 10**MAX_CENTER_DIGITS:
        raise too_large
    return center


def numerator_degree_bound(curve: RationalCurveModel, n: int) -> int:
    """Largest numerator degree regular at infinity; negative means no sections."""
    return sum(n * b.semigroup.conductor for b in curve.branches) - 2 * n


def numerator_ambient(curve: RationalCurveModel, n: int) -> int:
    return max(numerator_degree_bound(curve, n) + 1, 0)


@lru_cache(maxsize=_CACHE_SIZE)
def _canonical_powers(s: NumericalSemigroup) -> PowerChain:
    """The powers K, K^2, ... of the canonical ideal of ``s``, shared by every weight."""
    return PowerChain(canonical_ideal(s))


@lru_cache(maxsize=_CACHE_SIZE)
def _excluded(s: NumericalSemigroup, n: int) -> tuple[int, ...]:
    """``excluded_orders`` as a tuple, read once per semigroup and weight."""
    power = _canonical_powers(s).power(n)
    return tuple(missing_below(ValueSet.naturals(), power, power.threshold))


def excluded_orders(s: NumericalSemigroup, n: int) -> list[int]:
    """Numerator orders a weight-n section must avoid at a branch with semigroup ``s``.

    These are the gaps of K^n, sorted: the numerator's order at the center
    lies in K^n, which contains every order from its threshold on.  K^n is
    read from the semigroup's one cached chain of powers, so the weights
    1..n cost n - 1 sumsets in all, and each (semigroup, weight) is read
    once; every call returns a list of its own.
    """
    return list(_excluded(s, n))


# -- integer series helpers --------------------------------------------------


def _poly_mul(a: Terms, b: Terms, width: int) -> Terms:
    """The terms below index ``width`` of the product of two polynomials given by terms.

    Both factors list their indices in increasing order, as ``_terms`` does.
    A monomial factor shifts and scales the other one, and nothing cancels;
    two monomials give one term, or none at or past ``width``.
    Otherwise the product accumulates into a list over its own span of
    indices only, from the sum of the lowest indices to the sum of the
    highest, and the coefficients that cancel are dropped.
    """
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((i, x),) = a
        if len(b) == 1:
            ((j, y),) = b
            return ((i + j, x * y),) if i + j < width else ()
        return tuple([(i + j, x * y) for j, y in b if i + j < width])
    if not a or not b:
        return ()
    lo = a[0][0] + b[0][0]
    hi = a[-1][0] + b[-1][0] + 1
    size = (hi if hi < width else width) - lo
    out = [0] * size
    for i, x in a:
        for j, y in b:
            k = i + j - lo
            if k >= size:
                break
            out[k] += x * y
    return tuple([(lo + k, x) for k, x in enumerate(out) if x])


# -- section spaces ----------------------------------------------------------


# A constraint matrix by column: entry d is None when column d is zero, and
# otherwise the rows with a nonzero entry there, in increasing order, and those
# entries.
Columns = tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, ...]


# Per branch with excluded orders: the branch, those orders, its scale and its unit series.
Frames = tuple[tuple[Branch, tuple[int, ...], int, tuple[int, ...]], ...]


@lru_cache(maxsize=_FRAMES_CACHE_SIZE)
def _branch_frames(curve: RationalCurveModel, n: int) -> Frames:
    """Each branch with excluded orders at weight n, with its local frame.

    Gives the branch, its excluded orders, the integer ``scale`` of the
    local coordinate w, t = center + scale * w, and the unit series: the
    product, truncated past the largest excluded order, of the other
    branches' factors.  With u = t - center = scale * w, each other branch's
    factor (u + delta)^(-m) is delta^(-m) (1 + beta * w)^(-m) for an integer
    beta; the constants scale each row, which leaves the nullspace alone.
    Cached, so ``_constraint_rows`` and ``_scaled_jets`` share one frame
    per curve and weight; a frame holds a series only as long as the largest
    excluded order.
    """
    frames = []
    for br in curve.branches:
        excluded = _excluded(br.semigroup, n)
        if not excluded:
            continue
        order = excluded[-1]
        others = [
            (br.center - o.center, n * o.semigroup.conductor) for o in curve.branches if o is not br
        ]
        scale = lcm(*(abs(delta.numerator) for delta, _ in others))
        unit = [1] + [0] * order
        for delta, m in others:
            beta = delta.denominator * scale // delta.numerator
            series = [comb(m + k - 1, k) * (-beta) ** k for k in range(order + 1)]
            unit = [sum(x * y for x, y in zip(unit, series[k::-1])) for k in range(order + 1)]
        frames.append((br, excluded, scale, tuple(unit)))
    return tuple(frames)


def _jets(
    center: Fraction, scale: int, unit: tuple[int, ...], ambient: int
) -> Iterator[tuple[Sequence[int], int]]:
    """The jet of column t^d at a branch, for d = 0, 1, ..., as (jet_d, q^(A-1-d)).

    At the center p/q, jet_d is the jet of (p + q scale w)^d times the unit
    series, so q^(A-1-d) jet_d is the jet of q^(A-1) t^d times it: jet_0 is
    the unit series, and jet_d is jet_(d-1) (p + q scale w), truncated as
    the unit series is.  It stops at the ambient A, or once a jet vanishes,
    which at p = 0 happens when d passes the truncation order.
    """
    p, q = center.numerator, center.denominator
    step, power = q * scale, q ** (ambient - 1)
    jet = unit
    for _ in range(ambient):
        yield jet, power
        jet = [p * x + step * y for x, y in zip(jet, [0, *jet])]
        if not any(jet):
            return
        power //= q


@lru_cache(maxsize=_CACHE_SIZE)
def _constraint_rows(curve: RationalCurveModel, n: int) -> tuple[Columns, int]:
    """The integer matrix C, by column, and its row count: H^0(omega^n) solves C v = 0.

    There is one entry per numerator coefficient, so C v reads only the
    columns where v has terms.  At each branch, with A the ambient, column d
    holds q^(A-1-d) jet_d (``_jets``), the jet of q^(A-1) t^d times the other
    branches' unit series (``_branch_frames``), read at each excluded order.
    At p = 0 the jets run out once d passes the largest excluded order, and
    the columns past it are zero there.  A lone branch at center 0 gives row
    i the one unit entry at its i-th excluded order, or none at or past the
    ambient.
    Cached, so the columns are tuples that no caller can change.
    """
    ambient = numerator_ambient(curve, n)
    columns: list = [None] * ambient  # each column is two lists until it is frozen
    if len(curve.branches) == 1 and not curve.branches[0].center:
        # no other branch gives a unit factor, and each jet is one power of w,
        # so the columns below reduce to unit entries
        excluded = _excluded(curve.branches[0].semigroup, n)
        for i, k in enumerate(excluded):
            if k >= ambient:
                break
            columns[k] = ((i,), (1,))
        return tuple(columns), len(excluded)
    nrows = 0
    for br, excluded, scale, unit in _branch_frames(curve, n):
        for d, (jet, power) in enumerate(_jets(br.center, scale, unit, ambient)):
            for i, k in enumerate(excluded, nrows):
                if jet[k]:
                    if columns[d] is None:
                        columns[d] = ([], [])
                    indices, entries = columns[d]
                    indices.append(i)
                    entries.append(jet[k] * power)
        nrows += len(excluded)
    for d in compress(range(ambient), columns):
        indices, entries = columns[d]
        columns[d] = (tuple(indices), tuple(entries))
    return tuple(columns), nrows


@lru_cache(maxsize=_CACHE_SIZE)
def global_sections(curve: RationalCurveModel, n: int) -> Subspace:
    """Exact basis of the weight-n global differentials, as numerator coefficients.

    A numerator qualifies iff its degree respects the bound at infinity and,
    at every center, its expansion has zero coefficient on each gap of K^n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_WEIGHT:
        raise WeightTooLarge(f"weight {n} is above MAX_WEIGHT = {MAX_WEIGHT}")
    ambient = numerator_ambient(curve, n)
    if ambient > MAX_AMBIENT:
        raise AmbientTooLarge(
            f"numerator ambient {ambient} at weight {n} is above MAX_AMBIENT = {MAX_AMBIENT}"
        )
    columns, nrows = _constraint_rows(curve, n)
    # the term rows of C, read off its columns in increasing order
    rows: list[list[tuple[int, int]]] = [[] for _ in range(nrows)]
    for d in compress(range(ambient), columns):
        indices, entries = columns[d]
        for i, x in zip(indices, entries):
            rows[i].append((d, x))
    return nullspace(map(tuple, rows), ambient)


@lru_cache(maxsize=_CACHE_SIZE)
def products_span(curve: RationalCurveModel, n: int) -> Subspace:
    """Span of all n-fold products of weight-1 global differentials.

    Rows are the distinct products of the weight-1 basis with the basis of the
    weight n - 1 span, since S_1^n = S_1 . S_1^(n-1), formed lazily in the
    order of ``_ordered_products``.  ``modular_rank`` reads them until its
    rank reaches dim S, so only those rows are formed.  When it does and
    ``_in_sections`` passes each of them, they span S, so S lies in P, and
    the sections themselves are returned; P lies in S by the model's lemma
    (see the module docstring).  Otherwise the remaining products are formed
    too, each once, and all of them are eliminated exactly.
    """
    # first, so a weight out of range fails before any recursion
    sections = global_sections(curve, n)
    if n == 1:
        return sections
    lower = products_span(curve, n - 1).rows
    basis = global_sections(curve, 1).rows
    formed: dict[Terms, None] = {}
    products = _ordered_products(basis, lower, sections.ambient, formed)
    if modular_rank(products, sections.dim) == sections.dim and _in_sections(curve, n, formed):
        return sections
    # a miss: the rows not formed yet join the ones modular_rank read
    for _ in products:
        pass
    return Subspace.span(formed, sections.ambient)


def _ordered_products(
    basis: tuple[Terms, ...], lower: tuple[Terms, ...], width: int, formed: dict[Terms, None]
) -> Iterator[Terms]:
    """The distinct products of rows of ``basis`` and ``lower``, each recorded in ``formed``.

    Repeated products (frequent among sparse rows) are formed but neither
    recorded nor yielded again.  The order lets the rank close early: the
    first basis row, of the lowest pivot, times every lower row gives rows of
    distinct leading orders; the last basis row, of the highest pivot, times
    the lower rows from the last one down reaches the top orders next; the
    other basis rows follow.  Taken from the first lower row up, the rows of
    the second batch would lead at orders the first batch holds already and
    mostly reduce to zero.
    """
    batches = [(basis[0], lower)] if basis else []
    if len(basis) > 1:
        batches.append((basis[-1], lower[::-1]))
        batches.extend((b, lower) for b in basis[1:-1])
    for b, rows in batches:
        for p in rows:
            row = _poly_mul(b, p, width)
            if row not in formed:
                formed[row] = None
                yield row


def _in_sections(curve: RationalCurveModel, n: int, rows: Iterable[Terms]) -> bool:
    """Does every term row lie in H^0(omega^n)?  Exact: C v = 0 over the integers.

    C v sums, column by column over the terms of v, the entries C holds in
    that column, so a monomial costs one multiplication per nonzero entry of
    its column, and passes at once in a column no constraint reads.  When
    no branch excludes an order at weight n, C has no rows, and every row
    passes unread.
    """
    columns, nrows = _constraint_rows(curve, n)
    if not nrows:
        return True
    for row in rows:
        if len(row) == 1 and columns[row[0][0]] is None:
            continue
        acc = [0] * nrows
        for d, x in row:
            if columns[d] is not None:
                indices, entries = columns[d]
                for i, c in zip(indices, entries):
                    acc[i] += c * x
        if any(acc):
            return False
    return True


def _subspace_orders(space, curve: RationalCurveModel, n: int, point: Fraction) -> tuple[int, ...]:
    """Vanishing orders at ``point`` attained by nonzero numerators in ``space(curve, n)``.

    ``space`` is ``global_sections`` or ``products_span``.  Translation
    u = t - point fixes infinity, so in u the curve is the same curve with every
    center moved by -point, and each numerator N(t) becomes N(u + point).  The
    canonical echelon basis of that curve's space starts each row at its order
    at u = 0, so the orders are its pivots.
    """
    moved = RationalCurveModel(tuple(Branch(b.center - point, b.semigroup) for b in curve.branches))
    return space(moved, n).pivots


def section_valuations(curve: RationalCurveModel, point, n: int = 1) -> tuple[int, ...]:
    """All valuations attained at a point by nonzero weight-n sections.

    ``point`` is a rational parameter value; when it coincides with a branch
    center the valuation is shifted by the local pole order of the fixed
    denominator.
    """
    point = Fraction(point)
    shift = 0
    for br in curve.branches:
        if br.center == point:
            shift = n * br.semigroup.conductor
            break
    return tuple(k - shift for k in _subspace_orders(global_sections, curve, n, point))


# -- the surjectivity checks -------------------------------------------------


@dataclass(frozen=True)
class NoetherCheck:
    """Outcome of comparing product spans with full section spaces."""

    n: int
    holds: bool
    products_dim: int
    sections_dim: int
    missing_values: tuple[int, ...] | None

    @property
    def dimension_gap(self) -> int:
        return self.sections_dim - self.products_dim

    def describe(self) -> str:
        if self.holds:
            return f"surjective, dimension {self.sections_dim}"
        msg = f"dimension {self.products_dim} < {self.sections_dim}"
        if self.missing_values:
            label = "value" if len(self.missing_values) == 1 else "values"
            msg += f", missing {label} " + ", ".join(str(v) for v in self.missing_values)
        return msg

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "holds": self.holds,
            "products_dim": self.products_dim,
            "sections_dim": self.sections_dim,
            "missing_values": list(self.missing_values) if self.missing_values else None,
        }


def max_noether_holds(curve: RationalCurveModel, n: int) -> NoetherCheck:
    """Does every weight-n section come from n-fold products of weight-1 sections?

    For single-branch curves a failure also reports the normalized local
    values present in the section space but not in the product span.
    """
    sections = global_sections(curve, n)
    prods = products_span(curve, n)
    holds = prods == sections
    missing: tuple[int, ...] | None = None
    if not holds and len(curve.branches) == 1:
        center = curve.branches[0].center
        attained = set(_subspace_orders(global_sections, curve, n, center))
        missing = tuple(sorted(attained - set(_subspace_orders(products_span, curve, n, center))))
    return NoetherCheck(n, holds, prods.dim, sections.dim, missing)


def _branch(curve: RationalCurveModel, index: int) -> Branch:
    """Branch ``index`` of the curve; any other index is refused, not wrapped around."""
    # bool is an int subclass; True does not name branch 1
    if type(index) is not int or not 0 <= index < len(curve.branches):
        count = len(curve.branches)
        raise BranchIndexError(
            f"branch index {index!r} names no branch: the curve has {count} "
            f"branch{'' if count == 1 else 'es'}, indexed from 0"
        )
    return curve.branches[index]


def resolve(curve: RationalCurveModel, index: int) -> RationalCurveModel:
    """The curve with branch ``index`` resolved (its local ring made regular)."""
    _branch(curve, index)
    branches = list(curve.branches)
    del branches[index]
    return RationalCurveModel(tuple(branches))


@lru_cache(maxsize=_CACHE_SIZE)
def _embedded_resolved_sections(curve: RationalCurveModel, index: int, n: int) -> tuple[Terms, ...]:
    """Basis of the resolved curve's sections, embedded in the ambient of the full one, as terms.

    The embedding multiplies numerators by the removed branch's denominator
    factor, so the numerator's order at that center is at least n * alpha and
    lies in K^n, which holds every order from alpha on.  Nothing is
    eliminated: multiplying by a nonzero polynomial is injective on Q[t], so
    the images of a basis stay independent, and deg <= bound(resolved) +
    n * alpha = bound(curve), so each image has exactly the length of the
    full ambient.  Only the span path of ``check_resolution_quotient`` forms
    these rows; where the products are the sections, ``_resolved_in_sections``
    decides from jets without them.
    """
    br = curve.branches[index]
    sections = global_sections(resolve(curve, index), n)
    m = n * br.semigroup.conductor
    # (q t - p)^m is the factor (t - p/q)^m times the constant q^m
    p, q = br.center.numerator, br.center.denominator
    factor = _terms([comb(m, k) * q**k * (-p) ** (m - k) for k in range(m + 1)])
    width = sections.ambient + m
    return tuple(_poly_mul(vec, factor, width) for vec in sections.rows)


# Per branch: the branch, its excluded orders, its scale and its scaled jets.
ScaledJets = tuple[tuple[Branch, tuple[int, ...], int, tuple[tuple[int, ...], ...]], ...]


@lru_cache(maxsize=_CACHE_SIZE)
def _scaled_jets(curve: RationalCurveModel, n: int) -> ScaledJets:
    """Per branch with excluded orders at weight n: the branch, those orders, its scale and jets.

    Entry d of the jets is q^(A-1-d) jet_d (``_jets``), the column of t^d
    that ``_constraint_rows`` writes, at every order up to the largest
    excluded one instead of at the excluded orders alone.  Past the last
    entry every column is zero at the branch.  Only the jet certificate of
    ``_resolved_in_sections`` reads it.
    """
    ambient = numerator_ambient(curve, n)
    table = []
    for br, excluded, scale, unit in _branch_frames(curve, n):
        jets = _jets(br.center, scale, unit, ambient)
        scaled = tuple([tuple([x * power for x in jet]) for jet, power in jets])
        table.append((br, excluded, scale, scaled))
    return tuple(table)


def _resolved_in_sections(
    curve: RationalCurveModel, index: int, n: int, rows: Iterable[Terms]
) -> bool:
    """Does f N lie in H^0(omega^n) for every resolved section row N?  Exact, from jets.

    Here f = (q_r t - p_r)^m, m = n * alpha_r, is the factor of
    ``_embedded_resolved_sections`` for branch r = ``index``, and the rows
    are numerators of the resolved curve's weight-n sections.  C (f N) = 0 is
    decided without forming f N: at each branch b, row by row,

    - J_b(N) = sum_d N_d q_b^(A-1-d) jet_d is the jet C reads from N;
    - J_b(f) = (u0 + u1 w)^m, with u0 = q_r p_b - p_r q_b and
      u1 = q_r q_b scale_b, is the jet of f times q_b^m;

    so J_b(N) J_b(f), truncated, is q_b^m times the jet of f N, and its
    coefficients at the excluded orders are q_b^m times those rows of C (f N).
    At the resolved branch u0 = 0 and m is past every excluded order, so
    J_r(f) vanishes there.
    """
    rows = tuple(rows)
    resolved = curve.branches[index]
    p_r, q_r = resolved.center.numerator, resolved.center.denominator
    m = n * resolved.semigroup.conductor
    for br, excluded, scale, jets in _scaled_jets(curve, n):
        order = excluded[-1]
        p, q = br.center.numerator, br.center.denominator
        u0, u1 = q_r * p - p_r * q, q_r * q * scale
        top = min(m, order)
        f_jet = [comb(m, j) * u0 ** (m - j) * u1**j for j in range(top + 1)] + [0] * (order - top)
        if not any(f_jet):
            continue
        reach = len(jets)
        for row in rows:
            acc = [0] * (order + 1)
            for d, x in row:
                if d < reach:
                    acc = [a + x * y for a, y in zip(acc, jets[d])]
            for k in excluded:
                if sum(x * y for x, y in zip(acc, f_jet[k::-1])):
                    return False
    return True


@dataclass(frozen=True)
class ResolutionCheck:
    """Do products plus resolved sections fill the full section space?"""

    ok: bool
    n: int
    sections_dim: int
    products_dim: int
    resolved_dim: int
    combined_dim: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.n,
            "sections_dim": self.sections_dim,
            "products_dim": self.products_dim,
            "resolved_dim": self.resolved_dim,
            "combined_dim": self.combined_dim,
        }


def check_resolution_quotient(curve: RationalCurveModel, index: int, n: int) -> ResolutionCheck:
    """Surjectivity of products onto the quotient by the resolved-curve sections.

    The resolved sections N embed as f N (``_embedded_resolved_sections``),
    and the embedding is injective, so their dimension is dim H^0 of the
    resolved curve.  Where the products are the sections, the embedded rows
    are absorbed iff each lies in the sections, which the jets of the
    resolved rows decide (``_resolved_in_sections``) with no f N formed.
    Otherwise, or when a jet test refuses, the embedded rows are formed and
    the products and they are spanned exactly.
    """
    resolved_curve = resolve(curve, index)  # a bad index is refused before any row is built
    sections = global_sections(curve, n)
    prods = products_span(curve, n)
    resolved = global_sections(resolved_curve, n)
    # products equal to the sections absorb embedded vectors that lie in them
    if prods == sections and _resolved_in_sections(curve, index, n, resolved.rows):
        combined = sections
    else:
        embedded = _embedded_resolved_sections(curve, index, n)
        combined = Subspace.span(prods.rows + embedded, sections.ambient)
    return ResolutionCheck(
        combined == sections, n, sections.dim, prods.dim, resolved.dim, combined.dim
    )


def is_certified_hyperelliptic(curve: RationalCurveModel) -> bool:
    """The documented family with an explicit degree-2 map: one branch of multiplicity 2.

    For a single branch with multiplicity 2 the square of the local parameter
    is a global function of pole degree 2, so the model is hyperelliptic.  No
    general gonality computation is attempted.
    """
    return (
        len(curve.branches) == 1
        and curve.branches[0].semigroup.multiplicity == 2
        and curve.genus >= 2
    )


def check_hyperelliptic_resolution(curve: RationalCurveModel, index: int, n: int) -> bool:
    """Are the resolved curve's sections inside the product span of the full curve?

    Meaningful when the resolved branch has multiplicity at least 3 and the
    resolved curve is hyperelliptic of genus at least 2.  Hyperellipticity is
    accepted only from the certified family of ``is_certified_hyperelliptic``.
    Decided by :func:`check_resolution_quotient`: the embedded resolved
    sections lie in the product span P iff adding them leaves dim P unchanged.
    """
    br = _branch(curve, index)
    if br.semigroup.multiplicity < 3:
        raise NotApplicable("the resolved branch must have multiplicity at least 3")
    resolved = resolve(curve, index)
    if resolved.genus < 2:
        raise NotApplicable("the resolved curve must have genus at least 2")
    if not is_certified_hyperelliptic(resolved):
        raise NotApplicable("hyperellipticity of the resolved curve is not certified")
    res = check_resolution_quotient(curve, index, n)
    return res.combined_dim == res.products_dim
