"""Exact dense linear algebra over the rationals.

Rational scalars are stdlib ``fractions.Fraction``.  Elimination is
fraction-free: rows are scaled to integers, pivoting uses integer
cross-multiplication with gcd reduction, and pivots are normalized to 1 only
at the end.  Reduced row echelon form is canonical, so subspace equality is
structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AmbientMismatch

Vector = tuple[Fraction, ...]


def _integer_row(row: Sequence) -> list[int]:
    fracs = [Fraction(x) for x in row]
    den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*ints) if ints else 0
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _reduce_row(row: list[int]) -> list[int]:
    g = math.gcd(*row) if row else 0
    if g > 1:
        return [v // g for v in row]
    return row


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], int]:
    """Canonical reduced row echelon form and rank.

    Keeps the shape of the input; zero rows sink to the bottom.
    """
    mat = [_integer_row(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        src = next((r for r in range(prow, nrows) if mat[r][col]), None)
        if src is None:
            continue
        mat[prow], mat[src] = mat[src], mat[prow]
        p = mat[prow][col]
        for r in range(prow + 1, nrows):
            q = mat[r][col]
            if q:
                mat[r] = _reduce_row([mat[r][j] * p - mat[prow][j] * q for j in range(ncols)])
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    # back-substitute, still over the integers
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        p = mat[i][col]
        for r in range(i):
            q = mat[r][col]
            if q:
                mat[r] = _reduce_row([mat[r][j] * p - mat[i][j] * q for j in range(ncols)])
    out: list[list[Fraction]] = []
    for i in range(nrows):
        if i < len(pivots):
            p = Fraction(mat[i][pivots[i]])
            out.append([Fraction(v) / p for v in mat[i]])
        else:
            out.append([Fraction(0)] * ncols)
    return out, len(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient with a canonical reduced-echelon basis."""

    ambient: int
    basis: tuple[Vector, ...]

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient: int) -> "Subspace":
        vecs = [tuple(Fraction(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise AmbientMismatch(f"vector of length {len(v)} in ambient {ambient}")
        if not vecs:
            return cls(ambient, ())
        reduced, rank = rref(vecs)
        return cls(ambient, tuple(tuple(row) for row in reduced[:rank]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> list[int]:
        """Pivot column of each basis row; the attained leading positions."""
        return [next(j for j, x in enumerate(row) if x) for row in self.basis]

    def contains_vector(self, vector: Sequence) -> bool:
        v = [Fraction(x) for x in vector]
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient {self.ambient}")
        for row, piv in zip(self.basis, self.pivots()):
            c = v[piv]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatch(f"ambients {self.ambient} and {other.ambient} differ")
        return all(self.contains_vector(v) for v in other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise AmbientMismatch(f"ambients {self.ambient} and {other.ambient} differ")
        return Subspace.span(self.basis + other.basis, self.ambient)


def nullspace(rows: Iterable[Sequence], ncols: int) -> Subspace:
    """Canonical basis of the solution space of the homogeneous system."""
    mat = [list(r) for r in rows]
    if not mat:
        return Subspace.span(_standard_basis(ncols), ncols)
    if any(len(r) != ncols for r in mat):
        raise AmbientMismatch("constraint rows of mixed width")
    reduced, rank = rref(mat)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced[:rank]]
    free = [j for j in range(ncols) if j not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, piv in enumerate(pivots):
            v[piv] = -reduced[i][f]
        vectors.append(v)
    return Subspace.span(vectors, ncols)


def _standard_basis(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
