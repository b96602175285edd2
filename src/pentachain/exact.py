"""Exact rational scalars and sparse labeled matrices.

Every numeric quantity in the pipeline is an arbitrary-precision rational
(``fractions.Fraction``), so all downstream equalities are exact.  Matrices
carry opaque basis labels on both axes; minors are addressed by label so
torsion bookkeeping never depends on positional conventions.  A matrix
stores only its nonzeros, one ``{column position: Fraction}`` mapping per
row; this module is the only one that knows that layout, the others build
from such rows and read ``rows``, ``entry``, ``submatrix`` and ``minor``.

Rank and pivot selection run fraction-free (Bareiss) over integer-scaled
sparse rows: intermediate entries are minors of the scaled input, which
keeps their size polynomially bounded.  ``independent_rows`` returns the
greedy pivot rows together with their minor, the last pivot of that same
elimination.

Over GF(p), ``modular_row_basis`` picks a row basis by sparse Markowitz
elimination: each step pivots the shortest remaining row on its sparsest
column and updates only the rows that hold that column.  Short rows and
sparse columns keep the fill-in small, and the rows it picks are not
those of the column scan.  Rows chosen mod p span a block whose minor is nonzero mod p,
hence nonzero over Q; but a matrix can lose rank mod p, which is why the
torsion's partition pass (``torsion.select_partition``) takes the modular
rows only as a proposal, decides with exact minors and falls back to the
exact column scan.

``det`` (and ``minor``, which calls it) eliminates copies of the sparse
rows with Markowitz pivoting: each step takes the pivot minimizing (row
nonzeros - 1) * (column nonzeros - 1), which keeps the fill-in of the
sparse maps small, and the sign comes from the row-to-column pivot
permutation, counted by cycles (``permutation_sign``).
"""

from __future__ import annotations

from collections import Counter
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


def _echelon(rows: list[dict[int, int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free row echelon of sparse integer rows, destructive on
    ``rows``.

    Pivot rule: scan columns left to right, within a column take the first
    remaining row with a nonzero entry.  Returns original positions of pivot
    rows (in pivot order) and the last pivot.  When every column has a
    pivot, the last pivot is the determinant of the (scaled) pivot rows
    taken in pivot order.
    """
    m = len(rows)
    where = list(range(m))
    piv_rows: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if c in rows[i]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            where[r], where[pr] = where[pr], where[r]
        row_r = rows[r]
        piv = row_r.pop(c)
        for i in range(r + 1, m):
            row_i = rows[i]
            ric = row_i.pop(c, 0)
            if ric:
                get_i, get_r = row_i.get, row_r.get
                rows[i] = {
                    j: x
                    for j in row_i.keys() | row_r.keys()
                    if (x := (piv * get_i(j, 0) - ric * get_r(j, 0)) // prev)
                }
            elif prev != piv:
                # Bareiss update applies to every remaining row, not only
                # those with a nonzero entry in the pivot column.
                rows[i] = {j: piv * v // prev for j, v in row_i.items()}
        piv_rows.append(where[r])
        prev = piv
        r += 1
        if r == m:
            break
    return piv_rows, prev


def modular_row_basis(m: RatMatrix, modulus: int) -> list[Label]:
    """Labels of rows of ``m`` that form a basis of its row space over
    GF(modulus), a prime, in pivot order; no rows when the modulus divides
    a denominator.

    Sparse Markowitz elimination: take the shortest remaining row and pivot
    on its sparsest column, then update only the rows holding that column,
    found through a column -> rows index.  Ties go to the earlier row of
    ``m`` and the lower column, so the rows depend only on ``m``'s row
    order.  Rows that reduce to zero are dependent and dropped.
    """
    rows = []
    for row in m.rows:
        # clearing denominators scales the row by a unit mod p, which
        # changes none of the elimination's choices
        d, ints = clear_denominators(row)
        if not d % modulus:  # the modulus divides a denominator
            return []
        rows.append({j: x for j, v in ints.items() if (x := v % modulus)})
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    # (length, position) of every row; entries left stale by an update or
    # a pivot are skipped when they come up
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapify(queue)
    picked: list[int] = []
    while queue and len(picked) < m.ncols:
        length, r = heappop(queue)
        pivot_row = rows[r]
        if pivot_row is None or len(pivot_row) != length or not length:
            continue
        j = min(pivot_row, key=lambda k: (len(holders[k]), k))
        rows[r] = None
        for k in pivot_row:
            holders[k].discard(r)
        inv = pow(pivot_row.pop(j), -1, modulus)
        for i in holders.pop(j):
            row_i = rows[i]
            f = row_i.pop(j) * inv % modulus
            for k, v in pivot_row.items():
                if x := (row_i.get(k, 0) - f * v) % modulus:
                    if k not in row_i:
                        holders[k].add(i)
                    row_i[k] = x
                else:
                    del row_i[k]
                    holders[k].discard(i)
            heappush(queue, (len(row_i), i))
        picked.append(r)
    return [m.row_labels[i] for i in picked]


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
    return len(independent_rows(m)[0])


def det(m: RatMatrix) -> Fraction:
    """Exact determinant by sparse Markowitz elimination; the empty matrix
    has determinant 1."""
    if m.nrows != m.ncols:
        raise ValueError(f"determinant of non-square {m.nrows}x{m.ncols} matrix")
    rows = {i: dict(row) for i, row in enumerate(m.rows)}
    counts = Counter(j for row in rows.values() for j in row)
    perm = [0] * m.nrows
    value = Fraction(1)
    while rows:
        best = None
        for i, row in rows.items():
            if not row:
                return Fraction(0)
            others = len(row) - 1
            for j in row:
                cost = others * (counts[j] - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
            if best[0] == 0:
                break
        _, i, j = best
        pivot_row = rows.pop(i)
        counts.subtract(pivot_row.keys())
        piv = pivot_row.pop(j)
        perm[i] = j
        value *= piv
        for row in rows.values():
            if j in row:
                factor = row.pop(j) / piv
                for k, v in pivot_row.items():
                    new = row.get(k, 0) - factor * v
                    if new:
                        counts[k] += k not in row
                        row[k] = new
                    else:
                        counts[k] -= 1
                        del row[k]
    # sign of the row -> column pivot permutation
    return permutation_sign(perm) * value


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


def independent_rows(
    m: RatMatrix, row_order: Sequence[Label] | None = None
) -> tuple[list[Label], Fraction]:
    """Greedy maximal independent set of rows, scanned in the given order,
    and the minor they give on all columns.

    The rows come in pivot order and form a full-rank submatrix on the pivot
    columns.  The minor is ``det(m.submatrix(rows, m.col_labels))``, the last
    pivot of the same elimination; it is 0 when fewer than ``m.ncols`` rows
    are independent (and 1 for a matrix with no columns).
    """
    order = list(row_order) if row_order is not None else list(m.row_labels)
    rows = [m.rows[m._rindex[lab]] for lab in order]
    scaled = [clear_denominators(row) for row in rows]
    piv_rows, last = _echelon([ints for _, ints in scaled], m.ncols)
    picked = [order[i] for i in piv_rows]
    if len(picked) < m.ncols:
        return picked, Fraction(0)
    return picked, Fraction(last, prod(scaled[i][0] for i in piv_rows))
