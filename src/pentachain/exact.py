"""Exact rational scalars and dense labeled matrices.

Every numeric quantity in the pipeline is an arbitrary-precision rational
(``fractions.Fraction``), so all downstream equalities are exact.  Matrices
carry opaque basis labels on both axes; minors are addressed by label so
torsion bookkeeping never depends on positional conventions.

Rank and pivot selection run fraction-free (Bareiss) over integer-scaled
rows: intermediate entries are minors of the scaled input, which keeps
their size polynomially bounded.  ``independent_rows`` returns the greedy
pivot rows together with their minor, the last pivot of that same
elimination.

The same kernel ``_echelon`` also runs over GF(p) when given a modulus: a
row is then replaced by ``piv * row - ric * pivot_row`` mod p, with no
Bareiss division.  Multiplying a row by a pivot that is nonzero mod p does
not change its zero pattern, so the column scan and the row swaps are the
exact ones, and the rows chosen mod p differ from the exact choice only
where a reduced pivot candidate is divisible by p.  Rows chosen mod p
span a block whose minor is nonzero mod p, hence nonzero over Q; but a
matrix can lose rank mod p, which is why the torsion's partition pass
(``torsion.select_partition``) takes the modular rows only as a proposal,
decides with exact minors and falls back to the exact kernel.

``det`` (and ``minor``, which calls it) eliminates sparse rows
``{column: Fraction}`` with Markowitz pivoting: each step takes the pivot
minimizing (row nonzeros - 1) * (column nonzeros - 1), which keeps the
fill-in of the sparse maps small, and the sign comes from the
row-to-column pivot permutation.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
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
    """Immutable dense matrix of rationals with labeled rows and columns."""

    __slots__ = ("entries", "row_labels", "col_labels", "_rindex", "_cindex")

    def __init__(self, entries, row_labels=None, col_labels=None):
        rows = tuple(tuple(e if type(e) is Fraction else Fraction(e) for e in row) for row in entries)
        if row_labels is None:
            row_labels = tuple(f"r{i}" for i in range(len(rows)))
        row_labels = tuple(row_labels)
        if len(row_labels) != len(rows):
            raise ValueError("row label count does not match row count")
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
        else:
            width = 0 if col_labels is None else len(tuple(col_labels))
        if col_labels is None:
            col_labels = tuple(f"c{j}" for j in range(width))
        col_labels = tuple(col_labels)
        if rows and len(col_labels) != len(rows[0]):
            raise ValueError("column label count does not match column count")
        self.entries = rows
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

    def entry(self, row_label: Label, col_label: Label) -> Fraction:
        return self.entries[self._rindex[row_label]][self._cindex[col_label]]

    def row_position(self, label: Label) -> int:
        return self._rindex[label]

    def col_position(self, label: Label) -> int:
        return self._cindex[label]

    def submatrix(self, row_labels: Sequence[Label], col_labels: Sequence[Label]) -> "RatMatrix":
        """Submatrix with rows/columns in the order given."""
        ri = [self._rindex[r] for r in row_labels]
        ci = [self._cindex[c] for c in col_labels]
        ents = [[self.entries[i][j] for j in ci] for i in ri]
        return RatMatrix(ents, tuple(row_labels), tuple(col_labels))

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.entries == other.entries
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        )

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols})"


def _echelon(
    rows: list[list[int]], ncols: int, modulus: int | None = None
) -> tuple[list[int], int]:
    """Fraction-free row echelon, destructive on ``rows``; over GF(modulus)
    when a modulus is given (entries reduced to 0..modulus-1).

    Pivot rule: scan columns left to right, within a column take the first
    remaining row with a nonzero entry.  Returns original positions of pivot
    rows (in pivot order) and the last pivot.  When every column has a
    pivot, the pivot rows sit in positions 0..ncols-1 after the swaps, so
    without a modulus the last pivot is the determinant of those (scaled)
    rows taken in pivot order.
    """
    m = len(rows)
    where = list(range(m))
    piv_rows: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            where[r], where[pr] = where[pr], where[r]
        piv = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, m):
            row_i = rows[i]
            ric = row_i[c]
            if ric and modulus:
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j] - ric * row_r[j]) % modulus
                row_i[c] = 0
            elif ric:
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j] - ric * row_r[j]) // prev
                row_i[c] = 0
            elif prev != piv and not modulus:
                # Bareiss update applies to every remaining row, not only
                # those with a nonzero entry in the pivot column.
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j]) // prev
        piv_rows.append(where[r])
        prev = piv
        r += 1
        if r == m:
            break
    return piv_rows, prev


def rank(m: RatMatrix) -> int:
    return len(independent_rows(m)[0])


def det(m: RatMatrix) -> Fraction:
    """Exact determinant by sparse Markowitz elimination; the empty matrix
    has determinant 1."""
    if m.nrows != m.ncols:
        raise ValueError(f"determinant of non-square {m.nrows}x{m.ncols} matrix")
    rows = {i: {j: e for j, e in enumerate(row) if e} for i, row in enumerate(m.entries)}
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
    return (-1) ** sum(perm[a] > perm[b] for a, b in combinations(range(m.nrows), 2)) * value


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
    entries = [m.entries[m._rindex[lab]] for lab in order]
    # scale each row to integers by the lcm of its denominators
    mults = [lcm(*(e.denominator for e in row)) for row in entries]
    piv_rows, last = _echelon([[int(e * k) for e in row] for row, k in zip(entries, mults)], m.ncols)
    picked = [order[i] for i in piv_rows]
    if len(picked) < m.ncols:
        return picked, Fraction(0)
    return picked, Fraction(last, prod(mults[i] for i in piv_rows))
