"""Exact dense linear algebra over the rationals, on integer rows.

A subspace is stored as its canonical integer echelon basis: the reduced row
echelon rows scaled to coprime integers with positive pivots.  That basis is
unique for the row space, so subspace equality is structural.  Elimination
is fraction-free in the sense of Bareiss (Math. Comp. 22, 1968): integer
cross-multiplication by the smallest available pivot, with every row kept
primitive by gcd reduction.

``modular_rank`` gives a cheap lower bound on the rank, modulo one fixed prime.
It reads term rows, ``Terms``: the nonzero entries of a row as (index,
coefficient) pairs in increasing index order, so its cost follows the
nonzeros and not the width.  A row is reduced in one ordered pass over the
echelon pivots that fall inside its own span of columns, which fill-in can
only extend to the right.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import AmbientMismatch

Vector = tuple[int, ...]

# A row given by its nonzero entries, (index, coefficient) in increasing index order.
Terms = tuple[tuple[int, int], ...]


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _pivot(row: Sequence[int]) -> int:
    return next(compress(count(), row))


def _eliminate(row: list[int], pivot_row: Sequence[int], col: int) -> list[int]:
    """``row`` with its entry in ``col`` cleared by ``pivot_row``, kept primitive."""
    p, q = pivot_row[col], row[col]
    g = math.gcd(p, q)
    p, q = p // g, q // g
    return _primitive([a * p - b * q for a, b in zip(row, pivot_row)])


def rref(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Canonical integer echelon form and rank.

    Each nonzero row is the reduced row echelon row scaled to coprime
    integers with a positive pivot.  Keeps the shape of the input; zero rows
    sink to the bottom.
    """
    mat = [_primitive(list(r)) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for col in range(ncols):
        prow = len(pivots)
        live = [r for r in range(prow, nrows) if mat[r][col]]
        if not live:
            continue
        # the smallest pivot keeps the multipliers, and so the entries, small
        src = min(live, key=lambda r: abs(mat[r][col]))
        mat[prow], mat[src] = mat[src], mat[prow]
        for r in range(prow + 1, nrows):
            if mat[r][col]:
                mat[r] = _eliminate(mat[r], mat[prow], col)
        pivots.append(col)
    # back-substitute, still over the integers
    for i in range(len(pivots) - 1, -1, -1):
        for r in range(i):
            if mat[r][pivots[i]]:
                mat[r] = _eliminate(mat[r], mat[i], pivots[i])
    for i, col in enumerate(pivots):
        if mat[i][col] < 0:
            mat[i] = [-v for v in mat[i]]
    return mat, len(pivots)


# The fixed prime of ``modular_rank``, so every run does the same arithmetic.
MODULUS = (1 << 61) - 1


def modular_rank(rows: Iterable[Terms], limit: int) -> int:
    """Rank of integer term rows modulo ``MODULUS``, stopping once it reaches ``limit``.

    Never above the rank r over Q: a nonzero minor mod p is a nonzero integer
    minor.  It falls short only when p divides every r x r minor, so a caller
    can use it as a certified lower bound and nothing more.
    """
    p = MODULUS
    if limit <= 0:
        return 0
    # pivot column j -> the echelon row from column j to its last nonzero, pivot 1
    echelon: dict[int, list[int]] = {}
    pivots: list[int] = []  # the keys of ``echelon``, sorted
    for row in rows:
        if not row:
            continue
        # the row, dense over its own span of columns only: lead .. lead + len(r) - 1
        lead = row[0][0]
        r = [0] * (row[-1][0] - lead + 1)
        for i, x in row:
            r[i - lead] = x
        for k in range(bisect_left(pivots, lead), len(pivots)):
            j = pivots[k] - lead
            if j >= len(r):
                break
            x = r[j] % p
            if not x:
                continue
            tail = echelon[pivots[k]]
            end = j + len(tail)
            if end > len(r):
                r.extend([0] * (end - len(r)))
            # entries grow by less than p^2 a step; they are reduced when read
            r[j:end] = [a - x * b for a, b in zip(r[j:end], tail)]
        for first, x in enumerate(r):
            x %= p
            if x:
                break
        else:
            continue
        inv = pow(x, -1, p)
        tail = [v * inv % p for v in r[first:]]
        while not tail[-1]:
            tail.pop()
        echelon[lead + first] = tail
        insort(pivots, lead + first)
        if len(pivots) == limit:
            break
    return len(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient with its canonical integer echelon basis."""

    ambient: int
    basis: tuple[Vector, ...]

    @classmethod
    def span(cls, vectors: Iterable[Sequence[int]], ambient: int) -> "Subspace":
        # repeated vectors (frequent among products of sparse rows) add nothing
        vecs = list(dict.fromkeys(map(tuple, vectors)))
        for v in vecs:
            if len(v) != ambient:
                raise AmbientMismatch(f"vector of length {len(v)} in ambient {ambient}")
        reduced, rank = rref(vecs)
        return cls(ambient, tuple(tuple(row) for row in reduced[:rank]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row; the attained leading positions."""
        return tuple(_pivot(row) for row in self.basis)

    def contains_vector(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(vector)} in ambient {self.ambient}")
        v = _primitive(list(vector))
        for row, piv in zip(self.basis, self.pivots):
            if v[piv]:
                v = _eliminate(v, row, piv)
        return not any(v)


def nullspace(rows: Iterable[Sequence[int]], ncols: int) -> Subspace:
    """Canonical basis of the solution space of the homogeneous system.

    One elimination, columns reversed: each solution read off then leads at its
    free column and is zero on the others, so it is the canonical basis already.
    """
    mat = list(rows)
    if any(len(r) != ncols for r in mat):
        raise AmbientMismatch("constraint rows of mixed width")
    reduced, rank = rref(row[::-1] for row in mat)
    echelon = [row[::-1] for row in reduced[:rank]]
    pivots = [ncols - 1 - _pivot(row) for row in reduced[:rank]]
    # one solution per free column, scaled so every entry is an integer
    scale = math.lcm(*(row[piv] for row, piv in zip(echelon, pivots)))
    vectors = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = scale
        for row, piv in zip(echelon, pivots):
            v[piv] = -row[f] * (scale // row[piv])
        vectors.append(tuple(_primitive(v)))
    return Subspace(ncols, tuple(vectors))
