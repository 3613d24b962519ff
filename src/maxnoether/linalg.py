"""Exact linear algebra over the rationals, on integer term rows.

Rows are term rows, ``Terms``: the nonzero entries of a row as (index,
coefficient) pairs in increasing index order, so the cost of the work on
them follows the nonzeros and not the width.

A subspace is stored as its canonical integer echelon basis, as term rows:
the reduced row echelon rows scaled to coprime integers with positive
pivots.  That basis is unique for the row space, so subspace equality is
structural.  One elimination builds it: ``_echelon``, a sparse,
fraction-free Gauss-Jordan elimination that keeps every row primitive by gcd
reduction and dense only over its own span of columns.  ``nullspace`` reads
the solutions off its echelon rows, and ``rref``, which ``Subspace.span``
runs, reads the echelon rows themselves, with the columns mirrored.  A
system of rows of one term at most needs no elimination: each row pins its
column, and the unit rows of the other columns are the canonical basis of
its solutions.

``modular_rank`` gives a cheap lower bound on the rank, modulo one fixed
prime.  It eliminates forward only, and a row stops at its first nonzero
column that holds no pivot.  A row that opens its lead column is kept as its
terms until a later row reduces by it: only then is it laid out mod p and
scaled to pivot 1, so rows of distinct leads cost no elimination at all.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import AmbientMismatch
from .frozen import Frozen

# A row given by its nonzero entries, (index, coefficient) in increasing index order.
Terms = tuple[tuple[int, int], ...]


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _terms(v: Sequence[int]) -> Terms:
    """The nonzero entries of a coefficient list, as (index, coefficient) pairs."""
    return tuple([(i, x) for i, x in enumerate(v) if x])


# The fixed prime of ``modular_rank``, so every run does the same arithmetic.
MODULUS = (1 << 61) - 1


def _monic(r: list[int], j: int) -> list[int]:
    """The echelon row ``r[j:]`` mod p, scaled to pivot 1, with its trailing zeros dropped.

    ``r`` is a row dense over its own span of columns, and ``r[j]`` is
    nonzero mod p.
    """
    p = MODULUS
    inv = pow(r[j], -1, p)
    tail = [v * inv % p for v in r[j:]]
    while not tail[-1]:
        tail.pop()
    return tail


def _laid_out(row: Terms) -> list[int]:
    """The row mod p, dense over its own span of columns only: lead .. its last column."""
    p = MODULUS
    lead = row[0][0]
    r = [0] * (row[-1][0] - lead + 1)
    for i, x in row:
        r[i - lead] = x % p
    return r


def modular_rank(rows: Iterable[Terms], limit: int) -> int:
    """Rank of integer term rows modulo ``MODULUS``, stopping once it reaches ``limit``.

    Never above the rank r over Q: a nonzero minor mod p is a nonzero integer
    minor.  It falls short only when p divides every r x r minor, so a caller
    can use it as a certified lower bound and nothing more.  It reads no row
    past the one that reaches ``limit``, so a lazy iterable is formed only
    that far.

    The elimination runs forward only.  A row is reduced from its first
    column on by the echelon rows of the pivots it meets, and it stops at
    its first nonzero column that holds no pivot: that column becomes its
    pivot, and the rest of the row is kept unreduced, since a rank needs no
    reduced form.  The rows kept lead at distinct columns, so they stay
    independent.  A row whose lead coefficient is nonzero mod p, at a column
    that holds no pivot, opens that column as it stands: it is kept as its
    terms until a later row reduces by it, and only then laid out mod p and
    scaled to pivot 1 (``_monic``), into the same echelon row as if that were
    done at once.  A one-term row that meets a one-term echelon row, kept as
    terms or scaled, reduces to zero without either being laid out.
    """
    if limit <= 0:
        return 0
    # pivot column j -> the row that opened it, as its terms, until a later row
    # reduces by it; then its echelon row from column j to its last nonzero, pivot 1
    echelon: dict[int, Terms | list[int]] = {}
    for row in rows:
        if not row:
            continue
        lead, x = row[0]
        if x % MODULUS:
            held = echelon.get(lead)
            if held is None:
                echelon[lead] = row
                if len(echelon) == limit:
                    break
                continue
            if len(row) == 1 and len(held) == 1:
                continue
        r = _laid_out(row)
        j = 0
        while j < len(r):
            x = r[j] % MODULUS
            if x:
                tail = echelon.get(lead + j)
                if tail is None:
                    break
                if tail[0] != 1:
                    # still the terms that opened the column: an echelon row starts with 1
                    tail = echelon[lead + j] = _monic(_laid_out(tail), 0)
                end = j + len(tail)
                if end > len(r):
                    r.extend([0] * (end - len(r)))
                # entries grow by less than p^2 a step; they are reduced when read
                r[j:end] = [a - x * b for a, b in zip(r[j:end], tail)]
            j += 1
        else:
            continue
        echelon[lead + j] = _monic(r, j)
        if len(echelon) == limit:
            break
    return len(echelon)


class Subspace(Frozen):
    """A subspace of Q^ambient with its canonical integer echelon basis, as term rows."""

    _shown = ("ambient", "rows")

    @classmethod
    def span(cls, rows: Iterable[Terms], ambient: int) -> "Subspace":
        # repeated rows (frequent among products of sparse rows) add nothing
        reduced, rank = rref(dict.fromkeys(rows), ambient)
        return cls(ambient, tuple(reduced[:rank]))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row; the attained leading positions."""
        return tuple(row[0][0] for row in self.rows)


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


def _echelon(rows: Iterable[Terms], ncols: int) -> tuple[dict[int, tuple[list[int], int]], list[int]]:
    """Sparse, fraction-free Gauss-Jordan elimination of term rows, one row at a time.

    Each echelon row is held dense over its own span of columns, ends at its
    pivot, its rightmost column, with a positive entry there, and is
    primitive and zero at every other pivot.  An incoming row is reduced by
    the pivots it holds; the fill-in from such reduced rows adds no pivot
    column.  Its own pivot is then cleared from the older rows.  Returns
    pivot column -> (the echelon row from its first column through the
    pivot, that first column), and the pivot columns, sorted.
    """
    echelon: dict[int, tuple[list[int], int]] = {}
    pivots: list[int] = []  # the keys of ``echelon``, sorted
    for terms in rows:
        if not terms:
            continue
        lo, hi = terms[0][0], terms[-1][0]
        if lo < 0 or hi >= ncols:
            raise AmbientMismatch(f"a term row reaches outside ambient {ncols}")
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
    return echelon, pivots


def rref(rows: Iterable[Terms], ncols: int) -> tuple[list[Terms], int]:
    """Canonical integer echelon form and rank of term rows.

    Each nonzero row is the reduced row echelon row scaled to coprime
    integers, with a positive pivot as its first term; they come in pivot
    order, and one ``()`` for each zero row follows, so the rows keep their
    number.  ``_echelon`` runs with the columns mirrored, j -> ncols - 1 - j,
    so that its pivots, the rows' last columns, become their first.
    """
    last = ncols - 1
    rows = [tuple([(last - i, x) for i, x in reversed(terms)]) for terms in rows]
    echelon, pivots = _echelon(rows, ncols)
    reduced: list[Terms] = []
    for col in reversed(pivots):
        row, lo = echelon[col]
        start = last - col
        reduced.append(tuple([(start + k, x) for k, x in enumerate(reversed(row)) if x]))
    return reduced + [()] * (len(rows) - len(pivots)), len(pivots)


def nullspace(rows: Iterable[Terms], ncols: int) -> Subspace:
    """Canonical basis of the solution space of the homogeneous system given by term rows.

    ``_echelon`` reduces the rows.  Each solution, read off one free column,
    leads there and is zero on the other free columns, so it is a row of the
    canonical basis.  When no row has two terms, the solutions are the unit
    rows of the columns no row pins, and nothing is eliminated.
    """
    rows = list(rows)
    if all(len(terms) < 2 for terms in rows):
        pinned: set[int] = set()
        for terms in rows:
            if terms:
                ((i, x),) = terms
                if not 0 <= i < ncols:
                    raise AmbientMismatch(f"a term row reaches outside ambient {ncols}")
                if x:
                    pinned.add(i)
        return Subspace(ncols, tuple([((f, 1),) for f in range(ncols) if f not in pinned]))
    echelon, pivots = _echelon(rows, ncols)
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
