"""Exact rational scalars and sparse labeled matrices.

Every numeric quantity in the pipeline is an arbitrary-precision rational
(``fractions.Fraction``), so all downstream equalities are exact.  Matrices
carry opaque basis labels on both axes; minors are addressed by label so
torsion bookkeeping never depends on positional conventions.  A matrix
stores only its nonzeros, one ``{column position: Fraction}`` mapping per
row; this module is the only one that knows that layout, the others build
from such rows and read ``rows``, ``entry``, ``submatrix`` and ``minor``.

One elimination serves every rank, row basis and determinant: a sparse
Markowitz elimination over Q (``_eliminate``).  Each step pivots the
shortest remaining row on its sparsest column, ties going to the earlier
row and then the lower column, and updates only the rows that hold that
column, found through a column -> rows index.  Short rows and sparse
columns keep the fill-in of the sparse maps small.  A step records the
pivot row, the pivot column and the pivot; rows that reduce to zero are
dependent and never pivot.

The pivot rows, listed in pivot order, form a block whose columns the
pivots cover; after the updates (each adds multiples of earlier pivot
rows) it is triangular up to the order of its columns.  So its minor on
the pivot columns in column order is the sign of the pivot permutation,
counted by cycles (``permutation_sign``), times the product of the
pivots.  ``rank`` counts the steps, ``independent_rows`` returns the pivot
rows and that minor, and ``det`` (with ``minor``, which calls it) takes
the same product with the rows in the matrix's own order.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm, prod
from typing import Hashable, Iterable, Sequence

Rational = Fraction
Label = Hashable


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``p`` for integers, ``p/q`` otherwise."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RatMatrix:
    """Immutable sparse matrix of rationals with labeled rows and columns.

    ``rows`` holds one ``{column position: nonzero Fraction}`` mapping per
    row, keys in ascending order.  A constructor row may be such a mapping
    or a dense sequence of length ``ncols``; zeros are dropped either way.
    ``entries`` is the dense view.
    """

    __slots__ = ("rows", "row_labels", "col_labels", "_rindex", "_cindex")

    def __init__(self, rows, row_labels=None, col_labels=None):
        rows = list(rows)
        if row_labels is None:
            row_labels = tuple(f"r{i}" for i in range(len(rows)))
        row_labels = tuple(row_labels)
        if len(row_labels) != len(rows):
            raise ValueError("row label count does not match row count")
        if col_labels is None:
            width = next((len(r) for r in rows if not isinstance(r, Mapping)), 0)
            col_labels = tuple(f"c{j}" for j in range(width))
        col_labels = tuple(col_labels)
        self.rows = tuple(_sparse_row(row, len(col_labels)) for row in rows)
        self.row_labels = row_labels
        self.col_labels = col_labels
        self._rindex = {lab: i for i, lab in enumerate(row_labels)}
        self._cindex = {lab: j for j, lab in enumerate(col_labels)}
        if len(self._rindex) != len(row_labels) or len(self._cindex) != len(col_labels):
            raise ValueError("duplicate basis labels")

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        zero = Fraction(0)
        return tuple(tuple(row.get(j, zero) for j in range(self.ncols)) for row in self.rows)

    def entry(self, row_label: Label, col_label: Label) -> Fraction:
        return self.rows[self._rindex[row_label]].get(self._cindex[col_label], Fraction(0))

    def submatrix(self, row_labels: Sequence[Label], col_labels: Sequence[Label]) -> "RatMatrix":
        """Submatrix with rows/columns in the order given."""
        ci = {self._cindex[c]: k for k, c in enumerate(col_labels)}
        rows = [
            {ci[j]: v for j, v in self.rows[self._rindex[r]].items() if j in ci}
            for r in row_labels
        ]
        return RatMatrix(rows, tuple(row_labels), tuple(col_labels))

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        )

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols})"


def clear_denominators(values: Mapping) -> tuple[int, dict]:
    """Integer form of a mapping of rationals: ``(D, numerators)`` with D
    the lcm of the denominators and ``values[k] == numerators[k] / D``."""
    d = lcm(*(v.denominator for v in values.values()))
    return d, {k: v.numerator * (d // v.denominator) for k, v in values.items()}


def _sparse_row(row, width: int) -> dict[int, Fraction]:
    """``{column: nonzero Fraction}`` in column order from a mapping or a
    dense row of length ``width``."""
    if isinstance(row, Mapping):
        items = sorted(row.items())
        if items and not (0 <= items[0][0] and items[-1][0] < width):
            raise ValueError(f"column key outside 0..{width - 1}")
    elif len(row) != width:
        raise ValueError(f"dense row of length {len(row)} in a matrix with {width} columns")
    else:
        items = enumerate(row)
    return {j: v if type(v) is Fraction else Fraction(v) for j, v in items if v}


Step = tuple[int, int, Fraction]  # (row position, column, pivot)


def _eliminate(rows: Sequence[Mapping[int, Fraction]], ncols: int) -> list[Step]:
    """Sparse Markowitz elimination on copies of ``rows``: one (row
    position, column, pivot) per step, in pivot order, stopping when
    every column has a pivot or no nonzero row is left.

    Each step takes the shortest remaining row and pivots on its sparsest
    column, then updates only the rows holding that column.  Ties go to
    the earlier row and the lower column, so the steps depend only on the
    rows and their order.
    """
    rows = [dict(row) for row in rows]
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    # (length, position) of every row; entries left stale by an update or
    # a pivot are skipped when they come up
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapify(queue)
    steps: list[Step] = []
    while queue and len(steps) < ncols:
        length, r = heappop(queue)
        pivot_row = rows[r]
        if pivot_row is None or len(pivot_row) != length or not length:
            continue
        j = min(pivot_row, key=lambda k: (len(holders[k]), k))
        rows[r] = None
        for k in pivot_row:
            holders[k].discard(r)
        piv = pivot_row.pop(j)
        for i in holders.pop(j):
            row_i = rows[i]
            f = row_i.pop(j)
            if pivot_row:  # a pivot alone in its row only clears its column
                f /= piv
            for k, v in pivot_row.items():
                if x := row_i.get(k, 0) - f * v:
                    if k not in row_i:
                        holders[k].add(i)
                    row_i[k] = x
                else:
                    del row_i[k]
                    holders[k].discard(i)
            heappush(queue, (len(row_i), i))
        steps.append((r, j, piv))
    return steps


def _minor(steps: Sequence[Step]) -> Fraction:
    """Minor of a full set of steps: the sign of their column permutation
    times the product of their pivots, the rows taken in the order of
    ``steps`` and the columns in column order."""
    sign = permutation_sign([j for _, j, _ in steps])
    return sign * prod((p for _, _, p in steps), start=Fraction(1))


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of 0..n-1, from its cycles: (-1)^(n - cycles)."""
    seen = [False] * len(perm)
    transpositions = 0
    for start in range(len(perm)):
        if not seen[start]:
            # a cycle of length L is a product of L - 1 transpositions
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                transpositions += 1
            transpositions -= 1
    return -1 if transpositions & 1 else 1


def rank(m: RatMatrix) -> int:
    return len(_eliminate(m.rows, m.ncols))


def det(m: RatMatrix) -> Fraction:
    """Exact determinant; the empty matrix has determinant 1."""
    if m.nrows != m.ncols:
        raise ValueError(f"determinant of non-square {m.nrows}x{m.ncols} matrix")
    steps = _eliminate(m.rows, m.ncols)
    # a row left without a pivot reduced to zero
    return _minor(sorted(steps)) if len(steps) == m.nrows else Fraction(0)


def minor(m: RatMatrix, row_labels: Iterable[Label], col_labels: Iterable[Label]) -> Fraction:
    """Determinant of the square submatrix selected by label sets.

    Selections are normalized to the matrix's own label order, so the result
    is well defined for unordered label sets; an empty selection yields 1.
    """
    rset = set(row_labels)
    cset = set(col_labels)
    for lab in rset:
        if lab not in m._rindex:
            raise KeyError(f"unknown row label {lab!r}")
    for lab in cset:
        if lab not in m._cindex:
            raise KeyError(f"unknown column label {lab!r}")
    if len(rset) != len(cset):
        raise ValueError(f"minor needs equal selection sizes, got {len(rset)} rows, {len(cset)} cols")
    rows = [lab for lab in m.row_labels if lab in rset]
    cols = [lab for lab in m.col_labels if lab in cset]
    return det(m.submatrix(rows, cols))


def independent_rows(m: RatMatrix) -> tuple[list[Label], Fraction]:
    """A maximal independent set of rows and the minor they give on all
    columns; ties of the pivot rule go to the earlier row of ``m``, so
    reordering the rows (``submatrix``) can pick a different set.

    The rows come in pivot order and form a full-rank submatrix on the pivot
    columns.  The minor is ``det(m.submatrix(rows, m.col_labels))``, read
    off the same elimination; it is 0 when fewer than ``m.ncols`` rows are
    independent (and 1 for a matrix with no columns).
    """
    steps = _eliminate(m.rows, m.ncols)
    picked = [m.row_labels[i] for i, _, _ in steps]
    return picked, _minor(steps) if len(steps) == m.ncols else Fraction(0)
