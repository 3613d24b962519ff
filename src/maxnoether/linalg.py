"""Exact linear algebra over the rationals, on integer term rows.

Rows are term rows, ``Terms``: the nonzero entries of a row as (index,
coefficient) pairs in increasing index order, so the cost of the work on
them follows the nonzeros and not the width.

A subspace is stored as its canonical integer echelon basis, as term rows:
the reduced row echelon rows scaled to coprime integers with positive
pivots.  That basis is unique for the row space, so subspace equality is
structural.  ``nullspace`` builds it from term rows by a sparse,
fraction-free Gauss-Jordan elimination that keeps every row primitive by gcd
reduction and dense only over its own span of columns.  ``rref``, a dense
elimination by integer cross-multiplication in the manner of Bareiss
(Math. Comp. 22, 1968), remains only for ``Subspace.span``, the exact
fallback.

``modular_rank`` gives a cheap lower bound on the rank, modulo one fixed
prime.  A row is reduced in one ordered pass over the echelon pivots that
fall inside its own span of columns, which fill-in can only extend to the
right.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import AmbientMismatch

Vector = tuple[int, ...]

# A row given by its nonzero entries, (index, coefficient) in increasing index order.
Terms = tuple[tuple[int, int], ...]


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _terms(v: Sequence[int]) -> Terms:
    """The nonzero entries of a coefficient list, as (index, coefficient) pairs."""
    return tuple([(i, x) for i, x in enumerate(v) if x])


def _dense(row: Terms, width: int) -> list[int]:
    """The coefficient list of width ``width`` that a term row gives."""
    out = [0] * width
    for i, x in row:
        out[i] = x
    return out


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
    """A subspace of Q^ambient with its canonical integer echelon basis, as term rows."""

    ambient: int
    rows: tuple[Terms, ...]

    @classmethod
    def span(cls, vectors: Iterable[Sequence[int]], ambient: int) -> "Subspace":
        # repeated vectors (frequent among products of sparse rows) add nothing
        vecs = list(dict.fromkeys(map(tuple, vectors)))
        for v in vecs:
            if len(v) != ambient:
                raise AmbientMismatch(f"vector of length {len(v)} in ambient {ambient}")
        reduced, rank = rref(vecs)
        return cls(ambient, tuple(_terms(row) for row in reduced[:rank]))

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The basis rows written out over the whole ambient; built anew on each read."""
        return tuple(tuple(_dense(row, self.ambient)) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row; the attained leading positions."""
        return tuple(row[0][0] for row in self.rows)

    def contains_vector(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(vector)} in ambient {self.ambient}")
        v = _primitive(list(vector))
        for row in self.rows:
            piv, p = row[0]
            q = v[piv]
            if q:
                g = math.gcd(p, q)
                p, q = p // g, q // g
                v = [x * p for x in v]
                for i, x in row:
                    v[i] -= q * x
                v = _primitive(v)
        return not any(v)


def _clear(row: list[int], lo: int, pivot_row: list[int], pivot_lo: int) -> tuple[list[int], int]:
    """``row``, dense from column ``lo``, with the pivot of ``pivot_row`` cleared, kept primitive.

    The pivot is the last entry of ``pivot_row``, which is dense from column
    ``pivot_lo``, and lies inside the span of ``row``.  Returns the row and
    its first column, which moves left when ``pivot_row`` starts further left.
    """
    p = pivot_row[-1]
    q = row[pivot_lo + len(pivot_row) - 1 - lo]
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if pivot_lo < lo:
        row = [0] * (lo - pivot_lo) + row
        lo = pivot_lo
    start = pivot_lo - lo
    end = start + len(pivot_row)
    out = [x * p for x in row]
    out[start:end] = [x * p - y * q for x, y in zip(row[start:end], pivot_row)]
    return _primitive(out), lo


def nullspace(rows: Iterable[Terms], ncols: int) -> Subspace:
    """Canonical basis of the solution space of the homogeneous system given by term rows.

    Sparse, fraction-free Gauss-Jordan elimination, one row at a time.  Each
    echelon row is held dense over its own span of columns, ends at its
    pivot, its rightmost column, with a positive entry there, and is
    primitive and zero at every other pivot.  An incoming row is reduced by
    the pivots it holds; the fill-in from such reduced rows adds no pivot
    column.  Its own pivot is then cleared from the older rows.  Each
    solution, read off one free column, leads there and is zero on the other
    free columns, so it is a row of the canonical basis.
    """
    # pivot column -> the echelon row from its first column through the pivot, and that first column
    echelon: dict[int, tuple[list[int], int]] = {}
    pivots: list[int] = []  # the keys of ``echelon``, sorted
    for terms in rows:
        if not terms:
            continue
        lo, hi = terms[0][0], terms[-1][0]
        if lo < 0 or hi >= ncols:
            raise AmbientMismatch(f"term row over columns {lo}..{hi} in ambient {ncols}")
        row = [0] * (hi - lo + 1)
        for i, x in terms:
            row[i - lo] = x
        for col in pivots[bisect_left(pivots, lo) : bisect_right(pivots, hi)]:
            if row[col - lo]:
                row, lo = _clear(row, lo, *echelon[col])
        while row and not row[-1]:
            row.pop()
        if not row:
            continue
        first = next(compress(count(), row))
        row = _primitive(row[first:])
        lo += first
        if row[-1] < 0:
            row = [-x for x in row]
        col = lo + len(row) - 1
        # only rows that end past the new pivot can hold it
        for older in pivots[bisect_right(pivots, col) :]:
            orow, olo = echelon[older]
            if olo <= col and orow[col - olo]:
                echelon[older] = _clear(orow, olo, row, lo)
        echelon[col] = (row, lo)
        insort(pivots, col)
    # free column -> the echelon rows with an entry there: (pivot, entry, pivot entry)
    touching: dict[int, list[tuple[int, int, int]]] = {}
    for col in pivots:
        row, lo = echelon[col]
        d = row[-1]
        for j, x in enumerate(row[:-1], lo):
            if x:
                touching.setdefault(j, []).append((col, x, d))
    basis = []
    for f in range(ncols):
        if f in echelon:
            continue
        entries = touching.get(f)
        if entries is None:
            basis.append(((f, 1),))
            continue
        # v[f] = scale and v[pivot] = -entry * scale / pivot entry solve every row
        scale = math.lcm(*(d for _, _, d in entries))
        v = _primitive([scale] + [-x * (scale // d) for _, x, d in entries])
        basis.append(tuple(zip([f] + [col for col, _, _ in entries], v)))
    return Subspace(ncols, tuple(basis))
