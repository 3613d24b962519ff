"""Rational curve models with unibranch monomial singularities.

The model is the projective line over the rationals in which the local ring
at finitely many rational centers is replaced by the monomial subring whose
valuations form a prescribed numerical semigroup.  A global n-fold
differential is a numerator polynomial over the fixed denominator
``prod (t - c_i)^(n * alpha_i)``, regular at infinity iff the numerator
degree stays below the fixed bound, and regular at a center iff its Laurent
support there avoids finitely many forbidden exponents.  Spaces of sections
are therefore exact nullspaces, and surjectivity of multiplication maps is a
canonical subspace comparison.

Everything is exact: ranks and subspace equalities over the rationals are
stable under field extension, so nothing is lost against an algebraically
closed ground field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from .errors import CurveSpecError, MaxNoetherError, NotApplicable
from .linalg import Subspace, nullspace
from .semigroup import NumericalSemigroup
from .valueset import ValueSet, dualizing_values, n_fold

# Entries kept by each subspace cache.  A check reuses a curve's spaces a few
# entries later at most, so this keeps every hit while bounding memory over a
# long corpus run.
_CACHE_SIZE = 256


@dataclass(frozen=True)
class Branch:
    """One unibranch singular point: a rational center and its value semigroup."""

    center: Fraction
    semigroup: NumericalSemigroup


@dataclass(frozen=True)
class RationalCurveModel:
    """Rational curve with unibranch monomial singularities at distinct centers."""

    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        centers = [b.center for b in self.branches]
        if len(set(centers)) != len(centers):
            raise CurveSpecError("branch centers must be pairwise distinct")
        for b in self.branches:
            if not b.semigroup.gaps:
                raise CurveSpecError("every branch must carry a proper semigroup")

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
        if not isinstance(obj, dict) or "branches" not in obj:
            raise CurveSpecError('curve spec must be an object with a "branches" list')
        branches = []
        for i, raw in enumerate(obj["branches"]):
            try:
                center = Fraction(str(raw["center"]))
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
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CurveSpecError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        return cls.from_json(obj)

    def __str__(self) -> str:
        return " ".join(f"{b.semigroup}@{b.center}" for b in self.branches) or "smooth"


def numerator_degree_bound(curve: RationalCurveModel, n: int) -> int:
    """Largest numerator degree regular at infinity; negative means no sections."""
    return sum(n * b.semigroup.conductor for b in curve.branches) - 2 * n


def numerator_ambient(curve: RationalCurveModel, n: int) -> int:
    return max(numerator_degree_bound(curve, n) + 1, 0)


def local_support_set(s: NumericalSemigroup, n: int) -> ValueSet:
    """Allowed Laurent exponents of a weight-n differential in the local stalk."""
    return n_fold(dualizing_values(s), n)


def excluded_exponents(s: NumericalSemigroup, n: int) -> list[int]:
    """Laurent exponents a weight-n section must avoid at a branch with semigroup ``s``.

    These are the exponents in ``[-n * alpha, threshold)`` outside the local
    support set: below ``-n * alpha`` the fixed denominator allows no terms,
    and from the threshold on every exponent is allowed.
    """
    support = local_support_set(s, n)
    return [e for e in range(-n * s.conductor, support.threshold) if e not in support]


# -- truncated power series helpers (all exact) -----------------------------


def _poly_mul(a: Sequence, b: Sequence) -> list:
    """Product of two coefficient lists, exact over the integers or the rationals."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _inverse_power_series(delta: Fraction, m: int, order: int) -> list[Fraction]:
    """Series of (u + delta)^(-m) around u = 0, for delta != 0, up to u^order."""
    inv = 1 / Fraction(delta)
    coeffs = [inv**m]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * (-(m + k - 1)) * inv / k)
    return coeffs


def _taylor_coefficients(vec: Sequence[Fraction], center: Fraction, order: int) -> list[Fraction]:
    """Coefficients of N(center + u) up to u^order for N given by ``vec``."""
    out = []
    for k in range(order + 1):
        acc = Fraction(0)
        for d in range(k, len(vec)):
            if vec[d]:
                acc += vec[d] * comb(d, k) * center ** (d - k)
        out.append(acc)
    return out


# -- section spaces ----------------------------------------------------------


def _constraint_rows(curve: RationalCurveModel, n: int) -> tuple[list[list], int]:
    ambient = numerator_ambient(curve, n)
    rows: list[list] = []
    for br in curve.branches:
        alpha = br.semigroup.conductor
        excluded = excluded_exponents(br.semigroup, n)
        if not excluded:
            continue
        order = max(excluded) + n * alpha
        unit = [1] + [0] * order
        for other in curve.branches:
            if other.center == br.center:
                continue
            factor = _inverse_power_series(
                br.center - other.center, n * other.semigroup.conductor, order
            )
            unit = _series_mul(unit, factor, order)
        # Taylor transform of the numerator basis, one column per coefficient;
        # an integral center keeps it in integers
        c = br.center.numerator if br.center.denominator == 1 else br.center
        powers = [c**d for d in range(ambient)]
        for e in excluded:
            k = e + n * alpha
            row = [0] * ambient
            for t in range(min(k, ambient - 1) + 1):
                h = unit[k - t]
                if h:
                    for d in range(t, ambient):
                        if powers[d - t]:
                            row[d] += comb(d, t) * powers[d - t] * h
            rows.append(row)
    return rows, ambient


@lru_cache(maxsize=_CACHE_SIZE)
def global_sections(curve: RationalCurveModel, n: int) -> Subspace:
    """Exact basis of the weight-n global differentials, as numerator coefficients.

    A numerator qualifies iff its degree respects the bound at infinity and,
    at every center, its Laurent expansion has zero coefficient on each
    exponent forbidden by the local support set.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    rows, ambient = _constraint_rows(curve, n)
    return nullspace(rows, ambient)


@lru_cache(maxsize=_CACHE_SIZE)
def products_span(curve: RationalCurveModel, n: int) -> Subspace:
    """Span of all n-fold products of weight-1 global differentials."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return global_sections(curve, 1)
    basis = global_sections(curve, 1).basis
    ambient = numerator_ambient(curve, n)
    # each product extends one of degree n - 1 by a basis row of index no smaller
    level = list(enumerate(basis))
    for _ in range(n - 1):
        level = [(j, _poly_mul(prod, basis[j])) for i, prod in level for j in range(i, len(basis))]
    return Subspace.span([prod + [0] * (ambient - len(prod)) for _, prod in level], ambient)


def _subspace_orders(space: Subspace, center: Fraction) -> tuple[int, ...]:
    """Vanishing orders at ``center`` attained by nonzero numerators in the space.

    Jet elimination: express the basis in powers of u = t - center and read
    off the echelon pivots.  At center 0, u = t, so the echelon basis already
    is the jet basis.
    """
    if center == 0:
        return tuple(space.pivots())
    order = space.ambient - 1
    shifted = [_taylor_coefficients(v, center, order) for v in space.basis]
    reduced = Subspace.span(shifted, space.ambient)
    return tuple(reduced.pivots())


def section_valuations(curve: RationalCurveModel, point, n: int = 1) -> tuple[int, ...]:
    """All valuations attained at a point by nonzero weight-n sections.

    ``point`` is a rational parameter value; when it coincides with a branch
    center the valuation is shifted by the local pole order of the fixed
    denominator.
    """
    point = Fraction(point)
    space = global_sections(curve, n)
    shift = 0
    for br in curve.branches:
        if br.center == point:
            shift = n * br.semigroup.conductor
            break
    return tuple(k - shift for k in _subspace_orders(space, point))


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
        missing = tuple(
            sorted(set(_subspace_orders(sections, center)) - set(_subspace_orders(prods, center)))
        )
    return NoetherCheck(n, holds, prods.dim, sections.dim, missing)


def resolve(curve: RationalCurveModel, index: int) -> RationalCurveModel:
    """The curve with branch ``index`` resolved (its local ring made regular)."""
    branches = list(curve.branches)
    del branches[index]
    return RationalCurveModel(tuple(branches))


@lru_cache(maxsize=_CACHE_SIZE)
def _embedded_resolved_sections(curve: RationalCurveModel, index: int, n: int) -> Subspace:
    """Sections of the resolved curve, embedded in the ambient of the full one.

    The embedding multiplies numerators by the removed branch's denominator
    factor; the result is supported in the natural numbers at that center,
    hence inside the local support set.
    """
    br = curve.branches[index]
    resolved = resolve(curve, index)
    sections = global_sections(resolved, n)
    ambient = numerator_ambient(curve, n)
    m = n * br.semigroup.conductor
    factor = [comb(m, k) * (-br.center) ** (m - k) for k in range(m + 1)]
    vectors = []
    for vec in sections.basis:
        prod = _poly_mul(vec, factor)
        vectors.append(list(prod) + [Fraction(0)] * (ambient - len(prod)))
    return Subspace.span(vectors, ambient)


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
    """Surjectivity of products onto the quotient by the resolved-curve sections."""
    sections = global_sections(curve, n)
    prods = products_span(curve, n)
    embedded = _embedded_resolved_sections(curve, index, n)
    combined = prods + embedded
    return ResolutionCheck(
        combined == sections, n, sections.dim, prods.dim, embedded.dim, combined.dim
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


def check_hyperelliptic_resolution(
    curve: RationalCurveModel,
    index: int,
    n: int,
    assume_hyperelliptic: bool = False,
) -> bool:
    """Are the resolved curve's sections inside the product span of the full curve?

    Meaningful when the resolved branch has multiplicity at least 3 and the
    resolved curve is hyperelliptic of genus at least 2.  Hyperellipticity is
    accepted from the certified family or asserted by the caller.
    """
    br = curve.branches[index]
    if br.semigroup.multiplicity < 3:
        raise NotApplicable("the resolved branch must have multiplicity at least 3")
    resolved = resolve(curve, index)
    if resolved.genus < 2:
        raise NotApplicable("the resolved curve must have genus at least 2")
    if not assume_hyperelliptic and not is_certified_hyperelliptic(resolved):
        raise NotApplicable(
            "hyperellipticity of the resolved curve is neither certified nor asserted"
        )
    embedded = _embedded_resolved_sections(curve, index, n)
    return products_span(curve, n).contains(embedded)
