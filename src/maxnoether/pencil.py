"""The pencil path: weights past N0 decided by a certified base-point-free pencil.

``curves`` hands a framed curve of two or more branches, at a weight n > N0
where some branch excludes an order, to ``pencil_dim``; everything else
takes the exact path there.  The theorem, N0, the four conditions and how
each is certified are set out in the ``curves`` module docstring.  N0 is
read from value data alone (``pencil_weight``).  ``find_pencil`` searches
once per framed curve, on the first weight past N0 asked for, and certifies
each candidate through ``pencil_refusal``, which names the first condition
a pair fails; both read weight-1 jets through ``curves._read``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .curves import (
    _CACHE_SIZE,
    RationalCurveModel,
    _affine_frame,
    _branch_frames,
    _constraint_term_rows,
    _excluded,
    _jets,
    _read,
    _row_jet,
    _weight_ambient,
    global_sections,
    numerator_ambient,
    numerator_degree_bound,
    power_defect,
    power_index,
    products_span,
)
from .linalg import MODULUS, Subspace, Terms, _terms, modular_rank, nullspace
from .semigroup import NumericalSemigroup


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


def _non_gorenstein_values(s: NumericalSemigroup) -> list[int]:
    """K - S: the gaps of S that are not gaps of K; empty iff S is symmetric."""
    excluded = set(_excluded(s, 1))
    return [k for k in s.gaps if k not in excluded]


# The condition row that reads a jet's constant term.
_VALUE_ZERO: Terms = ((0, 1),)


def _weight_one_jets(
    curve: RationalCurveModel, rows: Sequence[Terms]
) -> Iterator[tuple[list[int], list[list[int]]]]:
    """Per branch, K - S and the weight-1 jet (``_row_jet``) of each numerator row.

    Every branch excludes its Frobenius number F at weight 1, so each has a
    weight-1 frame, whose unit series runs through F, past every value of
    K - S; the jets are cut after the last order a condition reads, the
    largest value, or the constant term where K = S.  The jets at one branch
    share the factor q^(A-1) times the unit series, so a ratio of two is the
    ratio of the numerators, and a jet's constant term is nonzero iff its
    numerator has value 0 there.
    """
    ambient = numerator_ambient(curve, 1)
    for br, _, scale, unit in _branch_frames(curve, 1):
        values = _non_gorenstein_values(br.semigroup)
        jets = list(_jets(br.center, scale, unit[: values[-1] + 1 if values else 1], ambient))
        yield values, [_row_jet(row, jets) for row in rows]


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


def _ratio_kernel(curve: RationalCurveModel, rows: Sequence[Terms]) -> Subspace | None:
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
    for values, nums in _weight_one_jets(curve, rows):
        if values:
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
    if not (h1 and h2) or _proportional(h1, h2):
        return "dependent"
    if numerator_degree_bound(curve, 1) not in (h1[-1][0], h2[-1][0]):
        return "base-point-at-infinity"
    branches = list(_weight_one_jets(curve, (h1, h2)))
    if any(not (_read(_VALUE_ZERO, a) or _read(_VALUE_ZERO, b)) for _, (a, b) in branches):
        return "no-value-zero-factor"
    for values, (a, b) in branches:
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

    h1 is the lowest-pivot row of S_1, or, where no h2 goes with it, the
    highest: the two rows ``_ordered_products`` puts first.  h2 is the first
    row of W's basis (``_ratio_kernel``) that ``pencil_refusal`` certifies
    with h1.  The failure named is the lowest-pivot row's:
    ``no-value-zero-factor`` when it has a positive value at a branch with
    K != S, else that of its first candidate independent of it, or
    ``ratio-outside-local-ring`` when W holds only its multiples.
    """
    curve = _affine_frame(curve)
    basis = global_sections(curve, 1).rows
    if len(basis) < 2:
        return "dependent"
    failed = []
    for rows in (basis, basis[-1:] + basis[:-1]):  # h1 = rows[0]
        kernel = _ratio_kernel(curve, rows)
        if kernel is None:
            failed.append("no-value-zero-factor")
            continue
        for coords in kernel.rows:
            h2 = _combination(coords, rows)
            refusal = pencil_refusal(curve, rows[0], h2)
            if refusal is None:
                return rows[0], h2
            if refusal != "dependent":
                failed.append(refusal)
        failed.append("ratio-outside-local-ring")
    return failed[0]


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


def pencil_dim(curve: RationalCurveModel, n: int) -> int | None:
    """dim S_n = dim P_n where a certified pencil decides weight n, else None.

    Only a framed curve of two or more branches, one of which excludes an
    order at weight n, takes this path at n > N0.  Where no branch excludes
    one, S_n is every numerator of bounded degree, and the exact path
    certifies it from products with no constraint to test, for less than
    the search costs.  A weight or an ambient past its cap is refused as
    ``global_sections`` refuses it, before any row is built.
    """
    # N0 >= 2, and a lone branch never takes the path: neither reads value data
    if n <= 2 or len(curve.branches) < 2:
        return None
    return _decided_dim(curve, n)


@lru_cache(maxsize=_CACHE_SIZE)
def _decided_dim(curve: RationalCurveModel, n: int) -> int | None:
    """``pencil_dim`` past its first two tests, cached: a resolution check reads it again.

    With a certified pencil, dim S_n = A - rows(C_n) once rank_p of the
    nonzero rows of C_n is their count: rank_Q >= rank_p, and no more than
    the nonzero rows.  None when the rank mod p falls short.
    """
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
