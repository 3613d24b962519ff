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
m = n * alpha_r.  P = S is decided once; where it holds, the quotient is
full iff every f N lies in S, and that is read from jets with no f N formed.
Every test of a numerator at a branch reads it the same way: a branch
condition is a term row on the jet window w^0..w^order, and ``_read`` reads
it against the jet C reads from the numerator (``_row_jet``, summed from the
column jets ``_jets`` yields).  The rows of C are the unit conditions at the
excluded orders, which ``_constraint_rows`` writes by column; the resolution
test shifts them by the jet of f, since the truncated product of the two
jets is q_b^m times the jet of f N.  Only where P differs from S, or the jet
test refuses, are the embedded rows formed and spanned with P exactly.

The verdicts are read in one affine frame of the curve, ``_affine_frame``.
Substituting t = lambda s + mu, lambda != 0, fixes infinity and sends each
center c to c' = (c - mu) / lambda.  The local parameter t - c becomes
lambda (s - c'), so every branch stays monomial with the same semigroup.
A weight-n section N(t) dt^n / prod (t - c_i)^(n alpha_i) becomes
N(lambda s + mu) ds^n / prod (s - c'_i)^(n alpha_i) times lambda^(n - sum n
alpha_i), one constant per weight; the numerator keeps its degree and its
order at each corresponding point.  So sections map onto sections, products
onto the products of the images, and the dimensions, verdicts and missing
values are the same in every frame.  The frame sends the branch with the
most excluded orders at weight 1 to 0, where its columns stop at its largest
excluded order, and the next such branch to 1, where q = 1 and no column
entry carries a power of q; a lone branch goes to 0 and takes the unit-row
path above.

Past a small weight N0 a base-point-free pencil decides every weight at once
(Castelnuovo's pencil trick: Mumford, *Varieties defined by quadratic
equations*, 1970; Eisenbud, *The Geometry of Syzygies*, GTM 229).  Let
h1, h2 in S_1 span a pencil that generates an invertible L inside omega.  If
H^1(omega^n L^-1) = 0, then V (x) H^0(omega^n) -> H^0(L omega^n) is onto, and
L omega^n = omega^(n+1) once K_P^(n+1) = K_P^n at every branch, that is, from
r_P on (``power_index``; the blowup's stabilization index).  Then
S_(n+1) = h1 S_n + h2 S_n, so P_N0 = S_N0 gives P_n = S_n for every n >= N0.
N0 is read from value data alone, before any row is built (``pencil_weight``):
deg omega^n = n(2g - 2) - sum_P e_P(n), with e_P from ``power_defect``, and
deg L = 2g - 2 - sum_P |K_P - S_P|; H^1 vanishes once deg omega^n - deg L >
2g - 2 (``degree_margin``), and N0 is the least n >= max(2, max_P r_P)
where it does.

The pencil is certified by four exact conditions (``pencil_refusal``):

- no base point at infinity: one of h1, h2 has the full degree
  ``numerator_degree_bound(curve, 1)``, read off its terms;
- a value-0 factor at each center, so that L is omega at a Gorenstein
  point and has the degree above: the constant term of h's weight-1 jet,
  zero iff h(c) = 0 (every branch has a weight-1 frame, ``_pencil_jets``);
- h2 / h1 in O_P at each branch with K != S, so L is invertible there: the
  ratio of the weight-1 jets has no term on a gap of S.  It is one integer
  condition per value of K - S (``_ratio_rows``), fraction-free, since on
  a gap of K the coefficient vanishes once it does below: the ratio then
  agrees with an element of O_P, whose product with h1 has support in
  S + K, inside K, where h, a section, has no term.  This is the lemma
  l(J/I) = |v(J) - v(I)| for fractional ideals I in J of a monomial
  branch.  A symmetric branch imposes no condition;
- no common root: gcd(h1, h2) = 1, shown as a gcd of 1 modulo
  ``linalg.MODULUS`` with p not dividing a leading coefficient.  That is
  sound, since the primitive gcd g over Q divides both in Z[t] and keeps
  its degree mod p, so deg gcd_p >= deg gcd_Q.  A gcd of 1 also leaves a
  value-0 factor at every center.

``find_pencil`` forms each branch's weight-1 column jets once
(``_pencil_jets``), and W = {h in S_1 : h / h1 in O_P where K_P != S_P}, a
nullspace of those conditions, and every certificate read them.  Its
candidates are one stream, h1 the lowest-pivot row of S_1 and then the
highest, each with the rows of W's basis as h2, every pair checked on all
four conditions with h2's jets summed from its own terms, so the
certificate does not rest on how W was built; the first certified pair is
the pencil, else the first refusal in the stream is named.  Past N0
``max_noether_holds`` forms no S_n and no product: P_N0 = S_N0 is the
exact check of weight N0, cached, and dim S_n = A - rows is exact once the
nonzero rows of C_n have full rank mod p.  ``check_resolution_quotient``
takes P = S from the same path and keeps its jet test.  The path is taken
only where it pays, a curve of two or more branches at a weight n > N0 at
which some branch excludes an order (``pencil_dim`` says why); wherever a
condition fails the exact path runs as before.

Everything is exact: ranks and subspace equalities over the rationals are
stable under field extension, so nothing is lost against an algebraically
closed ground field.
"""

from __future__ import annotations

import json
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
from .frozen import Frozen
from .linalg import MODULUS, Subspace, Terms, _terms, modular_rank, nullspace
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


class Branch(Frozen):
    """One unibranch singular point: a rational center and its value semigroup."""

    _shown = ("center", "semigroup")

    def __init__(self, center: Fraction, semigroup: NumericalSemigroup) -> None:
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "semigroup", semigroup)


class RationalCurveModel(Frozen):
    """Rational curve with unibranch monomial singularities at distinct centers."""

    _shown = ("branches",)

    def __init__(self, branches: tuple[Branch, ...]) -> None:
        object.__setattr__(self, "branches", branches)
        centers = [b.center for b in branches]
        if len(set(centers)) != len(centers):
            raise CurveSpecError("branch centers must be pairwise distinct")
        for b in branches:
            if not b.semigroup.gaps:
                raise CurveSpecError("every branch must carry a proper semigroup")
        # hash(branches), taken once: every cache lookup hashes the curve, and
        # hashing a Fraction center runs in Python; equality leaves it out
        object.__setattr__(self, "_hash", hash(branches))

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
        extra = [key for key in obj if key != "branches"]
        if extra:
            raise CurveSpecError(f'unknown key {extra[0]!r}: a curve spec reads only "branches"')
        if not obj["branches"]:
            raise CurveSpecError("curve spec has no branches: nothing to check")
        branches = []
        for i, raw in enumerate(obj["branches"]):
            try:
                if not isinstance(raw, dict):
                    raise TypeError(f"a branch must be an object, not {type(raw).__name__}")
                extra = [key for key in raw if key not in ("center", "generators")]
                if extra:
                    raise ValueError(
                        f'unknown key {extra[0]!r}: a branch reads only "center" and "generators"'
                    )
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
        except UnicodeDecodeError as exc:
            raise CurveSpecError(f"{path}: not UTF-8 text: {exc}") from exc
        try:
            obj = json.loads(text, parse_int=_parse_json_int, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise CurveSpecError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # an integer past MAX_CENTER_DIGITS, or a repeated key
            raise CurveSpecError(f"{path}: {exc}") from exc
        except RecursionError:
            raise CurveSpecError(f"{path}: JSON nested too deeply to read") from None
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a key written twice is refused, not read as its last value."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"key {key!r} is repeated in one object")
        seen.add(key)
    return dict(pairs)


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


def power_defect(s: NumericalSemigroup, n: int) -> int:
    """Degree lost by the n-th dualizing power at one branch: n|K - S| - |K^n - S|.

    Writing omega = lambda * K locally, the n-th power inside the
    n-differentials is lambda^n * K^n, so deg omega^n is n deg omega less
    this defect.  Zero on a symmetric (Gorenstein) branch, where K = S.  As
    S lies in K^n, |K^n - S| is the genus less the gaps of K^n, which are the
    excluded orders: no section space or matrix is built.
    """
    g = s.genus
    return n * (g - len(_excluded(s, 1))) - (g - len(_excluded(s, n)))


def power_index(s: NumericalSemigroup) -> int:
    """r_P: the first n with K^(n+1) = K^n, read from the excluded orders.

    The powers of K ascend, and once two agree every later one is the
    blowup, so this is ``blowup.analyze(s).stabilization_index``.
    """
    n = 1
    while _excluded(s, n) != _excluded(s, n + 1):
        n += 1
    return n


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
ColumnMatrix = tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, ...]


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
    Cached, so ``_constraint_rows`` and ``_resolved_in_sections`` share one
    frame per curve and weight; a frame holds a series only as long as the
    largest excluded order.
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


def _row_jet(row: Terms, jets: Sequence[tuple[Sequence[int], int]]) -> list[int]:
    """sum_d N_d q^(A-1-d) jet_d over the terms of a numerator row N: the jet C reads from N.

    ``jets`` holds the pairs ``_jets`` yields at one branch; a column past
    the last of them has a zero jet there.
    """
    acc = [0] * len(jets[0][0])
    reach = len(jets)
    for d, x in row:
        if d < reach:
            jet, power = jets[d]
            x *= power
            acc = [a + x * y for a, y in zip(acc, jet)]
    return acc


def _read(condition: Terms, jet: Sequence[int]) -> int:
    """A branch condition, terms (j, c_j) on the jet window w^0..w^order, read against a row's jet.

    The row passes iff sum_j c_j jet[j] is 0.  C's row at an excluded order k
    is the unit condition ((k, 1),), which ``_constraint_rows`` writes as
    the entries jet_d[k]; the resolution test shifts it by the jet of f.
    """
    return sum([c * jet[j] for j, c in condition])


@lru_cache(maxsize=_CACHE_SIZE)
def _constraint_rows(curve: RationalCurveModel, n: int) -> tuple[ColumnMatrix, int]:
    """The integer matrix C, by column, and its row count: H^0(omega^n) solves C v = 0.

    There is one entry per numerator coefficient, so C v reads only the
    columns where v has terms.  At each branch, with A the ambient, column d
    holds q^(A-1-d) jet_d (``_jets``), the jet of q^(A-1) t^d times the other
    branches' unit series (``_branch_frames``), read at each excluded order.
    At p = 0 the jets run out once d passes the largest excluded order, and
    the columns past it are zero there.  A lone branch at center 0 gives row
    i the one unit entry at its i-th excluded order, or none at or past the
    ambient.  Each row is the unit condition at its order (``_read``), read
    as the one entry jet[k].  Cached, so the columns are tuples that no
    caller can change.
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


def _weight_ambient(curve: RationalCurveModel, n: int) -> int:
    """The numerator ambient at weight n; a weight or an ambient past its cap is refused."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_WEIGHT:
        raise WeightTooLarge(f"weight {n} is above MAX_WEIGHT = {MAX_WEIGHT}")
    ambient = numerator_ambient(curve, n)
    if ambient > MAX_AMBIENT:
        raise AmbientTooLarge(
            f"numerator ambient {ambient} at weight {n} is above MAX_AMBIENT = {MAX_AMBIENT}"
        )
    return ambient


def _constraint_term_rows(curve: RationalCurveModel, n: int, ambient: int) -> list[Terms]:
    """The term rows of C, read off its columns in increasing order; a zero row is ()."""
    columns, nrows = _constraint_rows(curve, n)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(nrows)]
    for d in compress(range(ambient), columns):
        indices, entries = columns[d]
        for i, x in zip(indices, entries):
            rows[i].append((d, x))
    return [tuple(row) for row in rows]


@lru_cache(maxsize=_CACHE_SIZE)
def global_sections(curve: RationalCurveModel, n: int) -> Subspace:
    """Exact basis of the weight-n global differentials, as numerator coefficients.

    A numerator qualifies iff its degree respects the bound at infinity and,
    at every center, its expansion has zero coefficient on each gap of K^n.
    """
    ambient = _weight_ambient(curve, n)
    return nullspace(_constraint_term_rows(curve, n, ambient), ambient)


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


def section_valuations(
    curve: RationalCurveModel, point: int | Fraction, n: int = 1
) -> tuple[int, ...]:
    """All valuations attained at a point by nonzero weight-n sections.

    ``point`` is a rational parameter value; when it coincides with a branch
    center the valuation is shifted by the local pole order of the fixed
    denominator.  Any other point, or a weight that is not an int, is refused,
    not coerced: a float is not read as its binary fraction, nor a bool as 1.
    """
    # bool is an int subclass; True does not name the point 1
    if type(point) is not int and not isinstance(point, Fraction):
        raise TypeError(f"a point must be an int or a Fraction, not {type(point).__name__}")
    if type(n) is not int:
        raise TypeError(f"a weight must be an int, not {type(n).__name__}")
    point = Fraction(point)
    shift = 0
    for br in curve.branches:
        if br.center == point:
            shift = n * br.semigroup.conductor
            break
    return tuple(k - shift for k in _subspace_orders(global_sections, curve, n, point))


# -- the surjectivity checks -------------------------------------------------


class NoetherCheck(Frozen):
    """Outcome of comparing product spans with full section spaces."""

    _shown = ("n", "holds", "products_dim", "sections_dim", "missing_values")

    def __init__(
        self,
        n: int,
        holds: bool,
        products_dim: int,
        sections_dim: int,
        missing_values: tuple[int, ...] | None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "products_dim", products_dim)
        object.__setattr__(self, "sections_dim", sections_dim)
        object.__setattr__(self, "missing_values", missing_values)

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


@lru_cache(maxsize=_CACHE_SIZE)
def _affine_frame(curve: RationalCurveModel) -> RationalCurveModel:
    """The curve moved by t -> (t - c_a) / (c_b - c_a), which sends c_a to 0 and c_b to 1.

    Branch a has the most excluded orders at weight 1, and branch b the
    next most, ties going to the lower index; a lone branch only moves to 0.
    The branch order and semigroups are kept, so an index names the same
    branch, and every dimension, verdict and vanishing order is the same (see
    the module docstring).  A curve already in its frame, or with no
    branches, is returned as it is.  Cached, so each curve is moved once.
    """
    branches = curve.branches
    if not branches:
        return curve
    ranked = sorted(range(len(branches)), key=lambda i: -len(_excluded(branches[i].semigroup, 1)))
    origin = branches[ranked[0]].center
    unit = branches[ranked[1]].center - origin if len(branches) > 1 else 1
    if not origin and unit == 1:
        return curve
    return RationalCurveModel(
        tuple(Branch((br.center - origin) / unit, br.semigroup) for br in branches)
    )


def max_noether_holds(curve: RationalCurveModel, n: int) -> NoetherCheck:
    """Does every weight-n section come from n-fold products of weight-1 sections?

    For single-branch curves a failure also reports the normalized local
    values present in the section space but not in the product span.  The
    check runs in the curve's ``_affine_frame``; everything it returns is
    the same in any affine frame.  Past N0, where a certified pencil decides
    the weight (``pencil_dim``, see the module docstring), it holds with
    both dimensions A - rows(C_n), and no space of weight n is formed.
    """
    # bool is an int subclass; True is not weight 1
    if type(n) is not int:
        raise TypeError(f"a weight must be an int, not {type(n).__name__}")
    curve = _affine_frame(curve)
    dim = pencil_dim(curve, n)
    if dim is not None:
        return NoetherCheck(n, True, dim, dim, None)
    sections = global_sections(curve, n)
    prods = products_span(curve, n)
    holds = prods == sections
    missing: tuple[int, ...] | None = None
    if not holds and len(curve.branches) == 1:
        # the frame put the branch at 0, where the orders are the pivots
        missing = tuple(sorted(set(sections.pivots) - set(prods.pivots)))
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


def _resolved_in_sections(
    curve: RationalCurveModel, index: int, n: int, rows: Iterable[Terms]
) -> bool:
    """Does f N lie in H^0(omega^n) for every resolved section row N?  Exact, from jets.

    Here f = (q_r t - p_r)^m, m = n * alpha_r, is the factor of
    ``_embedded_resolved_sections`` for branch r = ``index``, and the rows
    are numerators of the resolved curve's weight-n sections.  C (f N) = 0 is
    decided without forming f N: at each branch b, row by row,

    - J_b(N) = sum_d N_d q_b^(A-1-d) jet_d is the jet C reads from N,
      summed from the pairs ``_jets`` yields (``_row_jet``);
    - J_b(f) = (u0 + u1 w)^m, with u0 = q_r p_b - p_r q_b and
      u1 = q_r q_b scale_b, is the jet of f times q_b^m;

    so J_b(N) J_b(f), truncated, is q_b^m times the jet of f N, and its
    coefficient at an excluded order k, q_b^m times that row of C (f N), is
    the condition with terms (j, J_b(f)_(k-j)) read against J_b(N)
    (``_read``).  At the resolved branch u0 = 0 and m is past every
    excluded order, so J_r(f) vanishes there, and that branch's jets are
    never built.  The jets of the other branches are held for the call only.
    """
    rows = tuple(rows)
    resolved = curve.branches[index]
    p_r, q_r = resolved.center.numerator, resolved.center.denominator
    m = n * resolved.semigroup.conductor
    ambient = numerator_ambient(curve, n)
    for br, excluded, scale, unit in _branch_frames(curve, n):
        order = excluded[-1]
        p, q = br.center.numerator, br.center.denominator
        u0, u1 = q_r * p - p_r * q, q_r * q * scale
        top = min(m, order)
        f_jet = [comb(m, j) * u0 ** (m - j) * u1**j for j in range(top + 1)] + [0] * (order - top)
        if not any(f_jet):
            continue
        conditions = [_terms(f_jet[k::-1]) for k in excluded]
        jets = list(_jets(br.center, scale, unit, ambient))
        for row in rows:
            jet = _row_jet(row, jets)
            for condition in conditions:
                if _read(condition, jet):
                    return False
    return True


class ResolutionCheck(Frozen):
    """Do products plus resolved sections fill the full section space?"""

    _shown = ("ok", "n", "sections_dim", "products_dim", "resolved_dim", "combined_dim")

    def __init__(
        self,
        ok: bool,
        n: int,
        sections_dim: int,
        products_dim: int,
        resolved_dim: int,
        combined_dim: int,
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sections_dim", sections_dim)
        object.__setattr__(self, "products_dim", products_dim)
        object.__setattr__(self, "resolved_dim", resolved_dim)
        object.__setattr__(self, "combined_dim", combined_dim)

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
    resolved curve.  P = S is decided once: past N0 by a certified pencil,
    with no space of weight n formed (``pencil_dim``), and otherwise by
    comparing the spaces.  Where it holds, the embedded rows are absorbed
    iff each lies in the sections, which the jets of the resolved rows
    decide (``_resolved_in_sections``) with no f N formed.  Otherwise, or
    when the jet test refuses, the embedded rows are formed and the products
    and they are spanned exactly.  Like ``max_noether_holds``, it runs in
    the curve's ``_affine_frame``, which keeps the branch order.
    """
    # bool is an int subclass; True is not weight 1
    if type(n) is not int:
        raise TypeError(f"a weight must be an int, not {type(n).__name__}")
    _branch(curve, index)  # a bad index is refused before the curve is moved
    curve = _affine_frame(curve)
    dim = pencil_dim(curve, n)
    if dim is None:
        sections, prods = global_sections(curve, n), products_span(curve, n)
        if prods == sections:
            dim = sections.dim
    resolved = global_sections(resolve(curve, index), n)
    if dim is not None:
        # products equal to the sections absorb embedded vectors that lie in them
        if _resolved_in_sections(curve, index, n, resolved.rows):
            return ResolutionCheck(True, n, dim, dim, resolved.dim, dim)
        sections = prods = global_sections(curve, n)  # formed now on the pencil path
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


# -- the pencil past N0 ------------------------------------------------------


def degree_margin(curve: RationalCurveModel, n: int) -> int:
    """deg omega^n - deg L - (2g - 2), with L the invertible sheaf of a certified pencil.

    deg omega^n = n(2g - 2) - sum_P e_P(n) (``power_defect``) and
    deg L = 2g - 2 - sum_P |K_P - S_P|, so H^1(omega^n L^-1) = 0 once this
    is positive.  Value data only.
    """
    total = (n - 2) * (2 * curve.genus - 2)
    for br in curve.branches:
        s = br.semigroup
        total += s.genus - len(_excluded(s, 1)) - power_defect(s, n)
    return total


@lru_cache(maxsize=_CACHE_SIZE)
def pencil_weight(curve: RationalCurveModel) -> int | None:
    """N0: the least n >= max(2, max_P r_P) with a positive ``degree_margin``, or None.

    From max_P r_P on, each weight adds deg L to the margin, so no weight
    meets the bound when deg L <= 0 there (genus at most 1).
    """
    n = max([2, *(power_index(br.semigroup) for br in curve.branches)])
    step = degree_margin(curve, n + 1) - degree_margin(curve, n)
    while degree_margin(curve, n) <= 0:
        if step <= 0:
            return None
        n += 1
    return n


# The condition row that reads a jet's constant term.
_VALUE_ZERO: Terms = ((0, 1),)


# Per branch: K - S and the weight-1 column jets, as ``_pencil_jets`` gives them.
PencilJets = list[tuple[list[int], list[tuple[Sequence[int], int]]]]


def _pencil_jets(curve: RationalCurveModel) -> PencilJets:
    """Per branch, K - S and the weight-1 column jets (``_jets``) that every pencil condition reads.

    K - S is the gaps of S that are not gaps of K, empty iff S is symmetric.
    Every branch excludes its Frobenius number F at weight 1, so each has a
    weight-1 frame, whose unit series runs through F, past every value of
    K - S; the jets are cut after the last order a condition reads, the
    largest value, or the constant term where K = S.  The row jets
    (``_row_jet``) at one branch share the factor q^(A-1) times the unit
    series, so a ratio of two is the ratio of the numerators, and a row
    jet's constant term is nonzero iff its numerator has value 0 there.
    """
    ambient = numerator_ambient(curve, 1)
    branches = []
    for br, excluded, scale, unit in _branch_frames(curve, 1):
        values = sorted(set(br.semigroup.gaps).difference(excluded))
        window = unit[: values[-1] + 1 if values else 1]
        branches.append((values, list(_jets(br.center, scale, window, ambient))))
    return branches


def _ratio_rows(den: Sequence[int], orders: Sequence[int]) -> list[Terms]:
    """Per order k, the condition that reads y0^(k+1) times the coefficient of w^k in num / den.

    ``den`` is a jet y with y0 = y[0] != 0, and ``orders`` increase.  The
    series z with z_0 = 1 and z_m = -sum_(i=1..m) y_i y0^(i-1) z_(m-i) is
    y0^(m+1) / y coefficient by coefficient, so the coefficient is
    sum_i num_i y0^i z_(k-i), the row of terms (i, y0^i z_(k-i)) read
    against num: an integer, zero iff the ratio's coefficient is.
    """
    y0 = den[0]
    powers = [1]  # y0^i
    z = [1]
    for m in range(1, orders[-1] + 1 if orders else 1):
        powers.append(powers[-1] * y0)
        z.append(-sum(den[i] * powers[i - 1] * z[m - i] for i in range(1, m + 1)))
    return [_terms([powers[i] * z[k - i] for i in range(k + 1)]) for k in orders]


def _ratio_kernel(branches: PencilJets, rows: Sequence[Terms]) -> Subspace | None:
    """W, in coordinates on ``rows``: the combinations h with h / h1 in O_P at every branch, h1 = rows[0].

    h / h1 lies in O_P iff its jet vanishes on every gap of S.  On a gap k of
    K it vanishes once it does on the gaps below k: then x = h / h1 agrees
    below k with an element of O_P, whose product with the jet of h1 has
    support in S + K, inside K, so the coefficient of w^k in h = x h1 is
    x_k y0, and it is 0 since h is a section.  So there is one condition per
    value of K - S, and a symmetric branch imposes none.  None when h1 has
    a positive value at a branch with K != S.
    """
    conditions: list[list[int]] = []
    for values, jets in branches:
        if values:
            nums = [_row_jet(row, jets) for row in rows]
            if not _read(_VALUE_ZERO, nums[0]):
                return None
            ratios = _ratio_rows(nums[0], values)
            conditions.extend([_read(row, num) for num in nums] for row in ratios)
    return nullspace(map(_terms, conditions), len(rows))


def _proportional(a: Terms, b: Terms) -> bool:
    """Are two nonzero term rows multiples of one another?"""
    x0, y0 = a[0][1], b[0][1]
    return len(a) == len(b) and all(
        i == j and x * y0 == y * x0 for (i, x), (j, y) in zip(a, b)
    )


def _dense_mod_p(row: Terms) -> list[int]:
    """A numerator modulo ``MODULUS``, low degree first, with no zero leading coefficient."""
    out = [0] * (row[-1][0] + 1) if row else []
    for d, x in row:
        out[d] = x % MODULUS
    while out and not out[-1]:
        out.pop()
    return out


def _coprime(a: Terms, b: Terms) -> bool:
    """gcd(a, b) = 1 over Q, shown by a gcd of 1 modulo ``MODULUS``.

    Let p not divide the leading coefficient of a, and g be the primitive
    gcd over Q.  By Gauss's lemma g divides a and b in Z[t], and g mod p
    keeps its degree, since its leading coefficient divides a's; so g mod p
    divides the gcd mod p, and deg gcd_p >= deg g.  A gcd of 1 mod p proves
    one over Q.  Refused, never wrongly passed, when p divides both leading
    coefficients.
    """
    p = MODULUS
    if not a[-1][1] % p:
        a, b = b, a
    if not a[-1][1] % p:
        return False
    f, g = _dense_mod_p(a), _dense_mod_p(b)
    while g:
        inv = pow(g[-1], -1, p)
        g = [x * inv % p for x in g]  # monic
        top = len(g) - 1
        while len(f) > top:
            c = f.pop()
            shift = len(f) - top
            f[shift:] = [(x - c * y) % p for x, y in zip(f[shift:], g)]
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) == 1


def pencil_refusal(curve: RationalCurveModel, h1: Terms, h2: Terms) -> str | None:
    """The first condition on which two weight-1 numerators fail as a pencil, or None.

    None certifies that h1 and h2 span a base-point-free pencil generating an
    invertible L with deg L = 2g - 2 - sum_P |K_P - S_P|.  The names, in the
    order they are checked:

    - ``dependent``: h1 and h2 are not independent;
    - ``base-point-at-infinity``: neither has the full degree
      ``numerator_degree_bound(curve, 1)``, so both vanish at infinity;
    - ``no-value-zero-factor``: at some center neither has value 0, so L
      is not omega there and its degree is smaller;
    - ``ratio-outside-local-ring``: at a branch with K != S the ratio of the
      other to the one of value 0 has a term on a value of K - S, so it does
      not lie in O_P and L is not invertible there (``_ratio_kernel``);
    - ``common-root``: the numerators are not coprime mod ``MODULUS``
      (``_coprime``), as when they share a root off the centers.
    """
    return _refusal(curve, _pencil_jets(curve), h1, h2)


def _refusal(curve: RationalCurveModel, branches: PencilJets, h1: Terms, h2: Terms) -> str | None:
    """``pencil_refusal`` on the curve's ``_pencil_jets``; each row jet is summed from its own terms."""
    if not (h1 and h2) or _proportional(h1, h2):
        return "dependent"
    if numerator_degree_bound(curve, 1) not in (h1[-1][0], h2[-1][0]):
        return "base-point-at-infinity"
    pairs = [(values, _row_jet(h1, jets), _row_jet(h2, jets)) for values, jets in branches]
    if any(not (_read(_VALUE_ZERO, a) or _read(_VALUE_ZERO, b)) for _, a, b in pairs):
        return "no-value-zero-factor"
    for values, a, b in pairs:
        den, num = (a, b) if _read(_VALUE_ZERO, a) else (b, a)
        if any(_read(row, num) for row in _ratio_rows(den, values)):
            return "ratio-outside-local-ring"
    if not _coprime(h1, h2):
        return "common-root"
    return None


def _combination(coords: Terms, rows: Sequence[Terms]) -> Terms:
    """sum_j c_j rows[j] over the terms (j, c_j), as a term row."""
    acc: dict[int, int] = {}
    for j, c in coords:
        for d, x in rows[j]:
            acc[d] = acc.get(d, 0) + c * x
    return tuple(sorted((d, x) for d, x in acc.items() if x))


def find_pencil(curve: RationalCurveModel) -> tuple[Terms, Terms] | str:
    """A certified pencil (h1, h2) in the curve's ``_affine_frame``, or the condition that failed.

    One stream of candidates on jets formed once (``_pencil_jets``): h1 is
    the lowest-pivot row of S_1, then the highest, the two rows
    ``_ordered_products`` puts first, and h2 each row of W's basis
    (``_ratio_kernel``) not a multiple of h1, each pair checked on every
    condition of ``pencil_refusal``.  The first certified pair is returned,
    else the first refusal in the stream: an h1 with a positive value at a
    branch with K != S refuses as ``no-value-zero-factor``, and one with no
    certified h2 closes with ``ratio-outside-local-ring``.
    """
    curve = _affine_frame(curve)
    basis = global_sections(curve, 1).rows
    if len(basis) < 2:
        return "dependent"
    branches = _pencil_jets(curve)
    named = None
    for rows in (basis, basis[-1:] + basis[:-1]):  # h1 = rows[0]
        kernel = _ratio_kernel(branches, rows)
        for coords in kernel.rows if kernel else ():
            h2 = _combination(coords, rows)
            refusal = _refusal(curve, branches, rows[0], h2)
            if refusal is None:
                return rows[0], h2
            if refusal != "dependent":
                named = named or refusal
        named = named or ("ratio-outside-local-ring" if kernel else "no-value-zero-factor")
    return named


@lru_cache(maxsize=_CACHE_SIZE)
def _pencil_holds(curve: RationalCurveModel) -> bool:
    """P_N0 = S_N0 by the exact path, and a certified pencil: then P_n = S_n for n > N0.

    Cached per framed curve, so the search runs once, on the first weight
    past N0 asked for.
    """
    n0 = pencil_weight(curve)
    return products_span(curve, n0) == global_sections(curve, n0) and not isinstance(
        find_pencil(curve), str
    )


@lru_cache(maxsize=_CACHE_SIZE)
def pencil_dim(curve: RationalCurveModel, n: int) -> int | None:
    """dim S_n = dim P_n where a certified pencil decides weight n, else None.

    Only a framed curve of two or more branches, one of which excludes an
    order at weight n, takes this path at n > N0.  Where no branch excludes
    one, S_n is every numerator of bounded degree, and the exact path
    certifies it from products with no constraint to test, for less than
    the search costs.  With a certified pencil, dim S_n = A - rows(C_n) once
    the nonzero rows of C_n have full rank mod p, since rank_Q >= rank_p.
    A weight or an ambient past its cap is refused as ``global_sections``
    refuses it, before any row is built.  Cached for the resolution check.
    """
    # N0 >= 2, and a lone branch never takes the path: neither reads value data
    if n <= 2 or len(curve.branches) < 2:
        return None
    ambient = _weight_ambient(curve, n)  # before K^n is built
    if not any(_excluded(br.semigroup, n) for br in curve.branches):
        return None
    n0 = pencil_weight(curve)
    if n0 is None or n <= n0 or not _pencil_holds(curve):
        return None
    live = [row for row in _constraint_term_rows(curve, n, ambient) if row]
    if modular_rank(live, len(live)) != len(live):
        return None
    return ambient - len(live)
