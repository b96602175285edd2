import math
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, strategies as st

from pentachain.exact import (
    RatMatrix,
    _eliminate,
    det,
    format_rational,
    independent_rows,
    parse_rational,
    permutation_sign,
    rank,
)
from reference import entry, fraction_det, rat_matrix

F = Fraction


def cofactor_det(rows):
    """Independent oracle: expansion by minors along the first row."""
    n = len(rows)
    if n == 0:
        return F(1)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        if rows[0][j]:
            sub = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(sub)
    return total


def random_matrix(rng, n, m):
    return [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)] for _ in range(n)]


def test_row_reduce_identity():
    m = rat_matrix([[1, 0], [0, 1]])
    assert rank(m) == 2
    assert independent_rows(m) == ([0, 1], 1)


def test_row_reduce_zero_matrix():
    m = rat_matrix([[0] * 4 for _ in range(3)])
    assert rank(m) == 0
    assert independent_rows(m) == ([], 0)


def test_row_reduce_rank_one():
    m = rat_matrix([[1, 2], [2, 4]])
    assert cofactor_det([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert rank(m) == 1
    assert independent_rows(m) == ([0], 0)


def test_minor_conventions():
    # a minor is the det of the block on its positions, in the order given
    m = rat_matrix([[F(1), F(2)], [F(3), F(4)]])
    assert det(m.block((), ())) == 1
    assert det(m.block((0, 1), (0, 1))) == F(1) * 4 - F(2) * 3
    assert det(m.block((1, 0), (0, 1))) == F(2) * 3 - F(1) * 4
    one = rat_matrix([[F(3, 7)]])
    assert det(one.block((0,), (0,))) == F(3, 7)


def test_minor_errors():
    m = rat_matrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        m.block((7,), (0,))
    with pytest.raises(ValueError):
        det(m.block((0, 1), (0,)))
    # a repeated column leaves a key past the block's width
    with pytest.raises(ValueError, match=r"^row 0 has a column key outside 0\.\.0$"):
        m.block((0,), (0, 0))


def test_det_identity_and_repeated_row():
    assert det(rat_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    # pivots off the diagonal: a transposition and a 3-cycle
    assert det(rat_matrix([[0, F(1, 2)], [3, 0]])) == F(-3, 2)
    assert det(rat_matrix([[0, 0, 2], [3, 0, 0], [0, 5, 0]])) == 30
    assert det(rat_matrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])) == 0
    with pytest.raises(ValueError):
        det(rat_matrix([[1, 2]]))


def test_det_against_cofactor_oracle():
    import random

    rng = random.Random(5)
    for n in range(6):
        for _ in range(8):
            rows = random_matrix(rng, n, n)
            assert det(rat_matrix(rows)) == cofactor_det(rows)


def test_det_equals_full_minor():
    import random

    rng = random.Random(6)
    rows = random_matrix(rng, 4, 4)
    m = rat_matrix(rows)
    assert det(m) == det(m.block(range(4), range(4))) == cofactor_det(rows)


def test_rank_is_largest_nonvanishing_minor():
    import random

    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, n, n)
        if rng.random() < 0.5 and n > 1:
            # force rank deficiency
            k = rng.randrange(n - 1)
            rows[k + 1] = [2 * v for v in rows[k]]
        m = rat_matrix(rows)
        largest = 0
        for size in range(1, n + 1):
            for rs in combinations(range(n), size):
                for cs in combinations(range(n), size):
                    sub = [[rows[i][j] for j in cs] for i in rs]
                    if cofactor_det(sub) != 0:
                        largest = max(largest, size)
        assert rank(m) == largest


def test_independent_rows_selects_invertible_block():
    import random

    rng = random.Random(8)
    for trial in range(24):
        ncols = rng.randint(0, 4)
        rows = random_matrix(rng, rng.randint(0, 7), ncols)
        if rows and trial % 3 == 0:
            # force rank deficiency: every row a multiple of the first
            rows = [[F(rng.randint(-3, 3), rng.randint(1, 4)) * v for v in rows[0]] for _ in rows]
        m = rat_matrix(rows, ncols)
        dense, order = m.entries, list(range(m.nrows))
        sparse_rng = random.Random(trial)
        for _ in range(3):
            picked, value = independent_rows(m.block(order, range(ncols)))
            # positions in the block, mapped through the scan to m's rows
            picked = [order[i] for i in picked]
            assert len(picked) == rank(m)
            if len(picked) == ncols:
                # the minor read off the row choice is the det of the picked block
                assert value == det(m.block(picked, range(ncols))) != 0
                assert value == cofactor_det([dense[r] for r in picked])
            else:
                assert value == 0
            # the first ncols rows in scan order: singular when rank-deficient
            # (result 0), and a sparsified copy that moves pivots off the
            # diagonal, so the sign comes from the pivot permutation
            block = [list(dense[r]) for r in order[:ncols]]
            if len(block) == ncols:
                holes = [[v if sparse_rng.random() < 0.4 else F(0) for v in row] for row in block]
                for square in (block, holes):
                    assert det(rat_matrix(square, ncols)) == cofactor_det(square)
            rng.shuffle(order)
    # no columns: the empty minor is 1
    assert independent_rows(rat_matrix([[], []], 0)) == ([], 1)


def test_row_order_changes_selection_deterministically():
    rows = [[1, 0], [1, 0], [0, 1]]
    m = rat_matrix(rows)
    # positions in the block, whose rows are m's r1, r0 and r2
    assert independent_rows(m.block((1, 0, 2), range(2)))[0] == [0, 2]
    assert independent_rows(m)[0] == [0, 2]


def test_independent_rows_pivot_rule():
    # the shortest row goes first and eliminates its column from the
    # others; ties go to the earlier row, so the scan order picks among
    # equally short rows, and then to the lower of equally sparse columns
    m = rat_matrix([[1, 1, 1], [1, 0, 2], [0, 2, 0], [0, 3, 0]])
    assert independent_rows(m)[0] == [2, 0, 1]
    # the block lists m's rows in reverse, so its positions 0, 2, 3 are r3, r1, r0
    assert independent_rows(m.block((3, 2, 1, 0), range(3)))[0] == [0, 2, 3]
    # r0 ties on all three columns and pivots on the lowest, c0, which
    # leaves r2 = (0, 0, 1) shorter than r1 = (0, 3, 3)
    assert independent_rows(rat_matrix([[1, 2, 1], [-1, 1, 2], [1, 2, 2]]))[0] == [0, 2, 1]
    # exact arithmetic keeps a rank that a small prime would drop
    # (r1 = r0 + 3 (0, 1)) and takes any denominator
    assert independent_rows(rat_matrix([[1, 1], [1, 4]])) == ([0, 1], 3)
    # the shorter r1 pivots first, so the minor is that of the rows in
    # pivot order: det [[0, 1/3], [1, 1/6]] = -1/3
    assert independent_rows(rat_matrix([[1, F(1, 6)], [0, F(1, 3)]])) == ([1, 0], F(-1, 3))


def test_permutation_sign_counts_inversions():
    for n in range(7):
        for perm in permutations(range(n)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
            assert permutation_sign(perm) == (-1) ** inversions


def test_row_and_denominator_counts_must_match():
    # the rows and their denominators are zipped strictly
    with pytest.raises(ValueError, match="zip"):
        RatMatrix([{0: 1}], [1, 1], 1)
    with pytest.raises(ValueError, match="zip"):
        RatMatrix([{0: 1}, {0: 2}], [1], 1)


def test_mapping_rows_and_dense_view():
    m = RatMatrix([{2: 1, 0: 2, 1: 0}, {}], [2, 5], 3)
    # the dense view has every entry, zeros included, as a Fraction
    assert m.entries == ((1, 0, F(1, 2)), (0, 0, 0))
    assert all(type(v) is Fraction for row in m.entries for v in row)
    # the sparse view keeps nonzeros only, in column order
    assert m.rows == ({0: 1, 2: F(1, 2)}, {})
    assert list(m.rows[0]) == [0, 2]
    assert entry(m, 0, 1) == 0
    assert m.block((0,), (2, 0)) == RatMatrix([{0: 1, 1: 2}], [2], 2)
    assert rat_matrix([[1, 0, F(1, 2)], [0, 0, 0]]) == m
    # equal rows in a wider matrix are a different matrix
    assert rat_matrix(m.rows, 4) != m


@pytest.mark.parametrize("rows", [[{3: 1}], [{-1: 1}]], ids=["key-past-last-column", "negative-key"])
def test_malformed_rows_rejected(rows):
    with pytest.raises(ValueError, match=r"row 0 has a column key outside 0\.\.2"):
        RatMatrix(rows, [1], 3)


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("text", ["1e3", "1e10000000", "0.5", "1_0", "+-1", "3/-4", "1/", "\u0661", ""])
def test_parse_rational_refuses_other_forms(text):
    # Fraction would take the first four; only p and p/q are documented
    with pytest.raises(ValueError, match="bad rational literal"):
        parse_rational(text)


def test_parse_rational_reads_past_the_digit_limit():
    # 5000 digits is past the interpreter's int <-> str limit, and
    # format_rational prints such a value in full
    sevens = (10**5000 - 1) // 9 * 7
    q = parse_rational(f"-1/{'7' * 5000}")
    assert q == F(-1, sevens)
    assert parse_rational(format_rational(F(sevens, 3))) == F(sevens, 3)


@given(st.integers(-50, 50), st.integers(1, 30))
def test_parse_canonical_form(num, den):
    q = parse_rational(f"{num}/{den}")
    assert q == F(num, den)
    assert format_rational(q) == format_rational(F(num, den))


def test_non_rational_entries_rejected():
    # the rows are integers over integers; a Fraction, a float or a string
    # is refused, and the error names the row by its position
    for bad in (F(1, 2), 0.5, 2.0, "1/3"):
        with pytest.raises(TypeError, match="row 1 of an integer matrix holds a non-integer"):
            RatMatrix([{0: 1}, {1: bad}], [1, 1], 2)
    with pytest.raises(TypeError, match="row 0 of an integer matrix holds a non-integer"):
        RatMatrix([{0: 1}], [F(1, 2)], 1)


def test_integer_rows_are_stored_reduced():
    m = RatMatrix([{2: 6, 0: -4, 1: 0}, {}, {1: 3}], [-10, 7, 3], 3)
    assert m.numerators == ({0: 2, 2: -3}, {}, {1: 1})
    assert m.denominators == (5, 1, 1)
    assert list(m.numerators[0]) == [0, 2]
    assert m == rat_matrix([[F(2, 5), 0, F(-3, 5)], [0, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="row 1 has denominator zero"):
        RatMatrix([{0: 1}, {0: 1}], [1, 0], 1)


def fraction_eliminate(rows, ncols):
    """The Markowitz elimination over Q, updating in Fractions: the oracle
    for ``exact._eliminate``.  One (row position, column, pivot) per step."""
    rows = [dict(row) for row in rows]
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapify(queue)
    steps = []
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
            if pivot_row:
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


# primes far beyond any sampled denominator, pairwise coprime
LARGE_PRIMES = (1000000007, 998244353, 2**61 - 1, 2**89 - 1)
small = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 6))
large = st.builds(F, st.integers(-(2**64), 2**64).filter(bool), st.sampled_from(LARGE_PRIMES))


@st.composite
def sparse_rational_matrices(draw):
    """Rows of a sparse rational matrix as {column: nonzero Fraction} maps,
    with zero rows and with duplicate, scaled and summed copies of others."""
    ncols = draw(st.integers(0, 6))
    columns = st.integers(0, ncols - 1) if ncols else st.nothing()
    entry = st.one_of(small, large)
    rows = draw(st.lists(st.dictionaries(columns, entry, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(("duplicate", "multiple", "sum", "zero")))
        if kind == "duplicate":
            rows.append(dict(a))
        elif kind == "multiple":
            c = draw(entry)
            rows.append({k: c * v for k, v in a.items()})
        elif kind == "sum":
            total = {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}
            rows.append({k: v for k, v in total.items() if v})
        else:
            rows.append({})
    return draw(st.permutations(rows)), ncols


@given(sparse_rational_matrices())
@example(([], 0))
@example(([{}, {}], 3))
@example(([{0: F(-3), 1: F(1)}, {0: F(1)}, {1: F(-2, 7)}], 2))
@example(([{0: F(1, 1000000007), 1: F(2, 998244353)}, {0: F(3, 2**61 - 1), 1: F(-5, 2**89 - 1)}], 2))
@example(([{0: F(1), 1: F(2)}, {0: F(1), 1: F(2)}, {0: F(-2), 1: F(-4)}, {}], 2))
def test_fraction_free_kernel_matches_fraction_oracle(case):
    rows, ncols = case
    m = rat_matrix(rows, ncols)
    steps = _eliminate(m)
    oracle = fraction_eliminate(m.rows, m.ncols)
    assert [(r, j) for r, j, *_ in steps] == [(r, j) for r, j, _ in oracle]
    assert [F(piv, den) for *_, piv, den in steps] == [piv for *_, piv in oracle]
    # every stored row is reduced over a positive denominator
    for row, den in zip(m.numerators, m.denominators):
        assert den > 0 and math.gcd(den, *row.values()) == 1
    if len(steps) == ncols:
        sign = permutation_sign([j for _, j, _ in oracle])
        expected = sign * math.prod((piv for *_, piv in oracle), start=F(1))
        assert independent_rows(m) == ([r for r, *_ in oracle], expected)


@st.composite
def sliced_matrices(draw):
    """A matrix from ``sparse_rational_matrices``, with distinct row and
    column positions to slice it on, each in a drawn order; half the time
    as many rows as columns."""
    rows, ncols = draw(sparse_rational_matrices())
    order, cols = draw(st.permutations(range(len(rows)))), draw(st.permutations(range(ncols)))
    nr, nc = draw(st.integers(0, len(rows))), draw(st.integers(0, ncols))
    if draw(st.booleans()):
        nr = nc = min(nr, nc)
    return rows, ncols, order[:nr], cols[:nc]


@given(sliced_matrices())
# 3/6 and 1/6 share the row denominator 6; alone, 3/6 is stored as 1/2
@example(([{0: F(1, 2), 1: F(1, 6)}], 2, [0], [0]))
@example(([{0: F(1), 1: F(2)}, {0: F(3), 1: F(4)}], 2, [1, 0], [1, 0]))
def test_block_is_the_reduced_slice(case):
    rows, ncols, picked, cols = case
    m = rat_matrix(rows, ncols)
    block = m.block(picked, cols)
    dense = [[entry(m, i, j) for j in cols] for i in picked]
    assert type(block) is RatMatrix and block == rat_matrix(dense, len(cols))
    if len(picked) == len(cols):
        assert det(block) == fraction_det(dense)
    oracle = fraction_eliminate([{k: v for k, v in enumerate(row) if v} for row in dense], len(cols))
    assert independent_rows(block)[0] == [r for r, *_ in oracle]


def test_format_rational_prints_any_number_of_digits():
    # past the interpreter's limit on int -> str conversion (4300 digits by
    # default), which stays as it was
    limit = sys.get_int_max_str_digits()
    big = 10 ** 5000 + 1
    digits = "1" + "0" * 4999 + "1"
    assert format_rational(F(-big, 3)) == f"-{digits}/3"
    assert format_rational(F(7, big)) == f"7/{digits}"
    assert format_rational(big) == digits
    assert sys.get_int_max_str_digits() == limit
