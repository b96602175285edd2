"""Exact rational scalars and sparse integer matrices.

Every numeric quantity in the pipeline is an exact rational, so all
downstream equalities are exact.  A based torsion depends only on the
order of each space's basis, and that order is the row or column
position: rows, columns, row bases and minors are all addressed by
position, and a matrix holds no names.  The names that reports and error
texts print belong to the chain (``chain.basis_label``).

A matrix stores each row as integer numerators over one positive row
denominator: ``numerators[i]`` maps column positions, in ascending order,
to nonzero ints, and row i is that mapping divided by
``denominators[i]``.  Every row is reduced, gcd(denominator, numerators)
= 1, so the stored pair is unique and equal matrices store equal pairs.
The one constructor takes the rows in integers, as ``chain.build_chain``
assembles them: a numerator mapping and a nonzero denominator per row,
and the column count.  It reduces each row, and ``rows`` and
``entries`` are derived ``Fraction`` views.  ``block``
slices rows and columns by position straight from the stored integers
into a ``Block``: unreduced rows, which ``rank``, ``det`` and
``independent_rows`` take as they take a matrix.  A caller may build a
``Block`` of its own integer rows too, as the partition pass does for
its Schur fallback.

One elimination serves every rank, row basis and determinant: a sparse
Markowitz elimination over the integers (``_eliminate``).  Each step
pivots the shortest remaining row on its sparsest column, ties going to
the earlier row and then the lower column, and updates only the rows that
hold that column, found through a column -> rows index.  Short rows and
sparse columns keep the fill-in of the sparse maps small.  The update is
fraction-free and cross-cancelled: with piv the pivot row's numerator in
the pivot column, f row i's and g = gcd(piv, f),

    row_i <- (|piv|/g) * row_i - sgn(piv) * (f/g) * pivot_row,
    den_i <- (|piv|/g) * den_i,

so den_i stays positive.  This leaves row i's rational values what the
update over Q would leave (the pivot row's own denominator cancels), and
then row i's gcd content is divided out.  A reduced row over a positive
denominator is unique, so the updated row does not depend on the multiple
that scales it; dividing g out first only keeps the intermediate integers
small.  Equal values give equal zero patterns, so the steps are those
of the same pivot rule over Q.  A step records the pivot row, the pivot
column, piv and the pivot row's denominator; rows that reduce to zero are
dependent and never pivot.

The pivot rows, listed in pivot order, form a block whose columns the
pivots cover; after the updates (each adds multiples of earlier pivot
rows) it is triangular up to the order of its columns.  So its minor on
the pivot columns in column order is the sign of the pivot permutation,
counted by cycles (``permutation_sign``), times the product of the
pivots: one ``Fraction(sign * prod(piv), prod(den))``, each product
taken by a balanced tree (``tree_product``).  ``rank`` counts the steps,
``independent_rows`` returns the pivot rows' positions and that minor,
and ``det`` takes the same product with the rows in the matrix's own
order.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import NamedTuple, Sequence

from .errors import PentachainError

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_NEGATIVE = re.compile(r"-0*[1-9][0-9]*")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (an optional sign, ASCII digits) into an
    exact rational.  Decimals, exponents and ``_`` are refused, so a
    token such as ``1e9999999`` cannot ask for a ten-million-digit
    integer.  The digit strings go through Decimal, as ``format_ratio``'s
    long ints do, since ``Fraction`` of a string stops at the
    interpreter's digit limit (4300 by default) and so would refuse a
    literal that ``format_rational`` prints."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValueError(f"bad rational literal {text!r}")
    num, _, den = text.strip().partition("/")
    try:
        return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
    except ZeroDivisionError as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def parse_integer(text: str) -> int:
    """Parse an integer field of an input file: ASCII digits, with a minus
    only before a nonzero value.  So every value has one spelling up to
    leading zeros, and a negative one still reaches the range check that
    names it, while ``+``, ``_``, ``-0`` and other decimal digits, which
    ``int`` takes, are refused."""
    if not (text.isascii() and text.isdigit()) and not _NEGATIVE.fullmatch(text):
        raise ValueError(f"bad integer literal {text!r}")
    return int(text)


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``p`` for integers, ``p/q`` otherwise.

    A minor grows with the triangulation and the denominators of the
    geometry, so p and q may have any number of digits.  ``str`` of an int
    stops at the interpreter's digit limit (4300 by default); a Decimal
    holds the int exactly and prints every digit, leaving the limit alone.
    """
    value = Fraction(value)
    return format_ratio(value.numerator, value.denominator)


def format_ratio(p: int, q: int) -> str:
    """``format_rational`` of p/q for coprime p and q > 0.  An int under
    2000 bits has fewer than 640 digits, the least limit the interpreter
    allows, so ``str`` prints it; a longer one goes through Decimal."""
    text = str(p) if p.bit_length() < 2000 else str(Decimal(p))
    if q == 1:
        return text
    return f"{text}/{q}" if q.bit_length() < 2000 else f"{text}/{Decimal(q)}"


class RatMatrix:
    """Immutable sparse matrix of rationals, ``ncols`` columns wide.

    Row i is ``numerators[i]``, a ``{column position: nonzero int}``
    mapping with keys in ascending order, over ``denominators[i] > 0``,
    reduced so that the two share no factor.  The constructor takes row i
    as ``numerators[i] / denominators[i]``: a ``{column position: int}``
    mapping, in any key order and zeros allowed, over a nonzero int.
    ``rows`` (one ``{column: Fraction}`` per row) and ``entries`` (dense)
    are ``Fraction`` views.  Errors name a row by its position.
    """

    __slots__ = ("numerators", "denominators", "ncols")

    def __init__(self, numerators, denominators, ncols):
        rows, dens = [], []
        for i, (row, d) in enumerate(zip(numerators, denominators, strict=True)):
            if not d:
                raise ValueError(f"row {i} has denominator zero")
            try:
                g = gcd(d, *row.values())
            except TypeError as exc:  # gcd takes integers only
                raise TypeError(f"row {i} of an integer matrix holds a non-integer: {exc}") from None
            if d < 0:
                g = -g
            items = sorted(row.items())
            if items and not (0 <= items[0][0] and items[-1][0] < ncols):
                raise ValueError(f"row {i} has a column key outside 0..{ncols - 1}")
            rows.append({j: v for j, v in items if v} if g == 1 else {j: v // g for j, v in items if v})
            dens.append(d // g)
        self.numerators = tuple(rows)
        self.denominators = tuple(dens)
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.numerators)

    @property
    def rows(self) -> tuple[dict[int, Fraction], ...]:
        return tuple(
            {j: Fraction(v, d) for j, v in row.items()}
            for row, d in zip(self.numerators, self.denominators)
        )

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        zero = Fraction(0)
        return tuple(tuple(row.get(j, zero) for j in range(self.ncols)) for row in self.rows)

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> "Block":
        """The block on row positions ``rows`` and column positions
        ``cols``, in the order given."""
        at = {j: k for k, j in enumerate(cols)}
        numerators = [{at[j]: v for j, v in self.numerators[i].items() if j in at} for i in rows]
        return Block(numerators, [self.denominators[i] for i in rows], len(at))

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.ncols == other.ncols
            and self.numerators == other.numerators
            and self.denominators == other.denominators
        )

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols})"


class Block(NamedTuple):
    """A block of a matrix as ``RatMatrix.block`` slices it: integer rows
    over positive denominators, not necessarily reduced.
    ``rank``, ``det`` and ``independent_rows`` take a block as they take a
    ``RatMatrix``; it skips the reduction that a matrix stores."""

    numerators: list
    denominators: list
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.numerators)


def clear_denominators(values: Mapping) -> tuple[int, dict]:
    """Integer form of a mapping of rationals: ``(D, numerators)`` with D
    the lcm of the denominators and ``values[k] == numerators[k] / D``."""
    d = lcm(*(v.denominator for v in values.values()))
    return d, {k: v.numerator * (d // v.denominator) for k, v in values.items()}


Step = tuple[int, int, int, int]  # (row position, column, pivot numerator, pivot row's denominator)


def _eliminate(numerators: Sequence[Mapping[int, int]], denominators: Sequence[int], ncols: int) -> list[Step]:
    """Fraction-free sparse Markowitz elimination on copies of the rows
    ``numerators[i] / denominators[i]``: one (row position, column, pivot
    numerator, pivot row denominator) per step, in pivot order, stopping
    when every column has a pivot or no nonzero row is left.

    Each step takes the shortest remaining row and pivots on its sparsest
    column, then updates only the rows holding that column, each scaled by
    |piv| / gcd(piv, f) before the pivot row's multiple is taken off (see
    the module docstring) and then reduced.  Ties go to the earlier row and
    the lower column, so the steps depend only on the rows and their order.
    The rows need not be reduced; the denominators must be positive.
    """
    rows = [dict(row) for row in numerators]
    dens = list(denominators)
    if any(d <= 0 for d in dens):
        raise PentachainError("internal error: elimination needs positive row denominators")
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
        j = best = None
        for k in pivot_row:
            count = len(holders[k])
            if best is None or count < best or (count == best and k < j):
                j, best = k, count
        rows[r] = None
        for k in pivot_row:
            holders[k].discard(r)
        piv = pivot_row.pop(j)
        pivot_items = tuple(pivot_row.items())
        # row_i <- (|piv|/g) row_i - sgn(piv) (f/g) pivot_row, g = gcd(piv, f),
        # keeps den_i positive
        scale, sign = (piv, 1) if piv > 0 else (-piv, -1)
        for i in holders.pop(j):
            row_i = rows[i]
            f = sign * row_i.pop(j)
            if pivot_items:  # a pivot alone in its row only clears its column
                g = gcd(scale, f)
                a, f = scale // g, f // g
                if a != 1:
                    for k in row_i:
                        row_i[k] *= a
                    dens[i] *= a
                for k, v in pivot_items:
                    if x := row_i.get(k, 0) - f * v:
                        if k not in row_i:
                            holders[k].add(i)
                        row_i[k] = x
                    else:
                        del row_i[k]
                        holders[k].discard(i)
            g = gcd(dens[i], *row_i.values())
            if g != 1:
                for k in row_i:
                    row_i[k] //= g
                dens[i] //= g
            heappush(queue, (len(row_i), i))
        steps.append((r, j, piv, dens[r]))
    return steps


def _minor(steps: Sequence[Step]) -> Fraction:
    """Minor of a full set of steps: the sign of their column permutation
    times the product of their pivots, the rows taken in the order of
    ``steps`` and the columns in column order."""
    sign = permutation_sign([j for _, j, _, _ in steps])
    return Fraction(sign * tree_product([p for _, _, p, _ in steps]), tree_product([d for *_, d in steps]))


def tree_product(values: Sequence[int]) -> int:
    """The product of integers by a balanced tree: neighbors multiplied in
    pairs, level by level, so that each product joins two of like size; a
    running product over thousands of factors takes quadratic time."""
    values = list(values)
    while len(values) > 1:
        values = [a * b for a, b in zip(values[::2], values[1::2])] + values[len(values) & ~1:]
    return prod(values)


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


def rank(m: "RatMatrix | Block") -> int:
    return len(_eliminate(m.numerators, m.denominators, m.ncols))


def det(m: "RatMatrix | Block") -> Fraction:
    """Exact determinant; the empty matrix has determinant 1."""
    if m.nrows != m.ncols:
        raise ValueError(f"determinant of non-square {m.nrows}x{m.ncols} matrix")
    steps = _eliminate(m.numerators, m.denominators, m.ncols)
    # a row left without a pivot reduced to zero
    return _minor(sorted(steps)) if len(steps) == m.nrows else Fraction(0)


def independent_rows(m: "RatMatrix | Block") -> tuple[list[int], Fraction]:
    """A maximal independent set of rows, as their positions in ``m``, and
    the minor they give on all columns; ties of the pivot rule go to the
    earlier row of ``m``, so reordering the rows can pick a different set.

    The positions come in pivot order, and their rows form a full-rank
    block on the pivot columns.  The minor is ``det`` of the block on those
    rows, in that order, and all columns, read off the same elimination; it
    is 0 when fewer than ``m.ncols`` rows are independent (and 1 for a
    matrix with no columns).
    """
    steps = _eliminate(m.numerators, m.denominators, m.ncols)
    return [i for i, *_ in steps], _minor(steps) if len(steps) == m.ncols else Fraction(0)
