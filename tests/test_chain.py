import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from pentachain import (
    DegenerateGeometryError,
    GeometryAssignment,
    NotAcyclicError,
    PentachainError,
    assign_geometry,
    build_chain,
    check_acyclic,
    dump_chain,
    load_builtin,
    parse_geometry,
    random_walk,
    select_partition,
    verify_chain,
)
from pentachain.chain import C0_LABELS, C5_LABELS, ChainComplex, certify_chain, expected_ranks
from pentachain.triangulation import Triangulation
from reference import fraction_holonomy_generator, lambda_of, rat_matrix
from test_geometry import fraction_curvature_oracle, lookup_angles

F = Fraction


def test_sphere_f3_is_zero(s3, sphere_geometry, certified_chain):
    c = certified_chain(s3, sphere_geometry)
    assert all(v == 0 for row in c.f3.entries for v in row)


def test_sphere_chain_property(s3, sphere_geometry, certified_chain):
    c = certified_chain(s3, sphere_geometry)
    ok, witness = verify_chain(c)
    assert ok and witness is None


def test_chain_property_random_seeds(s3, rp3):
    for tri in (s3, rp3):
        for seed in range(6):
            c = build_chain(tri, assign_geometry(tri, seed))
            ok, _ = verify_chain(c)
            assert ok


def test_dimensions_and_labels(rp3, rp3_geometry, certified_chain):
    c = certified_chain(rp3, rp3_geometry)
    v, e = c.vertex_count, c.edge_count
    dims = (len(c.f1.col_labels), *(len(f.row_labels) for f in c.maps))
    assert dims == (6, 3 * v, e, e, 3 * v, 6)
    assert sum(dims[::2]) == sum(dims[1::2])  # alternating sum vanishes
    assert c.f1.col_labels == C0_LABELS
    assert c.f5.row_labels == C5_LABELS
    assert c.f2.col_labels == c.f1.row_labels
    assert c.f3.col_labels == c.f2.row_labels
    assert c.f4.col_labels == c.f3.row_labels
    assert c.f5.col_labels == c.f4.row_labels
    # every differential symbol appears as exactly one basis label
    all_labels = set(C0_LABELS) | set(c.f1.row_labels) | set(c.f2.row_labels) | set(c.f3.row_labels) | set(c.f4.row_labels) | set(C5_LABELS)
    assert len(all_labels) == 12 + 6 * v + 2 * e


def test_mutated_entry_is_detected(s3, sphere_geometry, certified_chain):
    c = certified_chain(s3, sphere_geometry)
    rows = [list(r) for r in c.f2.entries]
    rows[2][5] += 1
    broken = type(c)(
        f1=c.f1,
        f2=rat_matrix(rows, c.f2.row_labels, c.f2.col_labels),
        f3=c.f3,
        f4=c.f4,
        f5=c.f5,
        vertex_count=c.vertex_count,
        edge_count=c.edge_count,
    )
    ok, witness = verify_chain(broken)
    assert not ok
    stage, row_label, col_label = witness
    assert stage in (1, 2)
    assert row_label in c.f2.row_labels or row_label in c.f3.row_labels
    assert col_label in C0_LABELS or col_label in c.f2.col_labels


def test_acyclicity_reports(s3, rp3, sphere_geometry, rp3_geometry, certified_chain):
    assert check_acyclic(certified_chain(s3, sphere_geometry)) == (6, 6, 0, 6, 6)
    assert check_acyclic(certified_chain(rp3, rp3_geometry)) == (6, 6, 6, 6, 6)
    assert expected_ranks(4, 12) == (6, 6, 6, 6, 6)


def test_zeroed_f3_breaks_acyclicity(rp3, rp3_geometry, certified_chain):
    c = certified_chain(rp3, rp3_geometry)
    zero = rat_matrix(
        [[F(0)] * len(c.f3.col_labels) for _ in c.f3.row_labels],
        c.f3.row_labels,
        c.f3.col_labels,
    )
    broken = type(c)(
        f1=c.f1, f2=c.f2, f3=zero, f4=c.f4, f5=c.f5,
        vertex_count=c.vertex_count, edge_count=c.edge_count,
    )
    with pytest.raises(NotAcyclicError) as reported:
        check_acyclic(broken)
    assert (reported.value.ranks, reported.value.expected) == ((6, 6, 0, 6, 6), (6, 6, 6, 6, 6))
    with pytest.raises(NotAcyclicError) as caught:
        select_partition(broken)
    assert str(caught.value) == str(reported.value)


def test_f4_endpoint_triples_cancel(rp3, rp3_geometry, certified_chain):
    # rows db1..db3 of f5 sum each vertex block with weight one, so the
    # block of f5*f4 they span vanishes edge by edge
    c = certified_chain(rp3, rp3_geometry)
    for r in range(3):
        for j in range(len(c.f4.col_labels)):
            total = sum(
                c.f5.entries[r][k] * c.f4.entries[k][j]
                for k in range(len(c.f4.row_labels))
            )
            assert total == 0


@pytest.mark.parametrize("source", ["rp3", "rp3_t20.tri"])
def test_f4_columns_are_holonomy_generators(source, rp3, certified_chain):
    # each edge's f4 column is (m01, m11, -m10) of the holonomy generator of
    # its vector head - tail at domega = 1 in the tail block, negated in the
    # head block
    fixtures = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
    tri = rp3 if source == "rp3" else Triangulation.from_file(fixtures / source)
    g = assign_geometry(tri, 1)
    c = certified_chain(tri, g)
    for e in tri.edges:
        p, q = e.tail, e.head
        (_, m01), (m10, m11) = fraction_holonomy_generator((g.x[q] - g.x[p], g.y[q] - g.y[p]), F(1))
        expected = [0] * len(c.f4.row_labels)
        expected[3 * p: 3 * p + 3] = m01, m11, -m10
        expected[3 * q: 3 * q + 3] = -m01, -m11, m10
        assert [row[e.id] for row in c.f4.entries] == expected


def test_dump_format(s3, sphere_geometry, certified_chain):
    c = certified_chain(s3, sphere_geometry)
    dump = dump_chain(c)
    lines = dump.strip().splitlines()
    assert lines, "dump should not be empty"
    for line in lines:
        tag, row, col, value = line.split()
        assert tag in {"f1", "f2", "f3", "f4", "f5"}
        assert "/" in value or value.lstrip("-").isdigit()
    assert not any(line.startswith("f3") for line in lines)  # f3 is zero here
    assert dump == dump_chain(certified_chain(s3, sphere_geometry))


def fraction_witness_oracle(c):
    """First nonzero entry of some f_{k+1} * f_k by dense Fraction products."""
    pairs = ((c.f2, c.f1), (c.f3, c.f2), (c.f4, c.f3), (c.f5, c.f4))
    for k, (left, right) in enumerate(pairs, start=1):
        a, b = left.entries, right.entries
        for i in range(left.nrows):
            for col in range(right.ncols):
                if sum(a[i][j] * b[j][col] for j in range(right.nrows)) != 0:
                    return False, (k, left.row_labels[i], right.col_labels[col])
    return True, None


def perturbed(c, name, i, j, delta):
    m = getattr(c, name)
    rows = [list(r) for r in m.entries]
    rows[i][j] += delta
    return replace(c, **{name: rat_matrix(rows, m.row_labels, m.col_labels)})


@pytest.mark.parametrize("name, stage", [("f3", 2), ("f4", 3)])
def test_perturbed_entry_gives_oracle_witness(rp3, name, stage, certified_chain):
    c = certified_chain(rp3, assign_geometry(rp3, 1))
    m = getattr(c, name)
    for i, j in ((0, 0), (m.nrows // 2, m.ncols - 1), (m.nrows - 1, 3)):
        broken = perturbed(c, name, i, j, F(1, 7919))
        ok, witness = verify_chain(broken)
        assert not ok and witness[0] == stage
        assert (ok, witness) == fraction_witness_oracle(broken)


def test_free_column_certificate_agrees_with_full_check(s3, rp3, certified_chain):
    """Seeded single-entry perturbations of f1..f5, at columns inside and
    outside the free columns of the composition the entry enters from the
    right: wherever the pass still succeeds, the free-column certificate
    rejects exactly when the full check does, naming the full check's
    witness as ``certify_chain`` does.  Where the pass falls short, it
    reports the ranks only when they break the acyclic pattern, and
    otherwise the full check's witness."""
    rng = random.Random(18)
    fixture = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / "rp3_t20.tri"
    walked = [random_walk(load_builtin(name), 8, seed, 12) for name, seed in (("s3", 5), ("rp3", 6))]
    seen = {"inside": 0, "outside": 0, "short ranks": 0, "short chain": 0}
    for n, tri in enumerate((s3, rp3, Triangulation.from_file(fixture), *walked)):
        c = certified_chain(tri, assign_geometry(tri, seed=n))
        p, _ = select_partition(c)
        free = (c.f1.col_labels, *p.cols(c))
        for _ in range(30):
            k = rng.randrange(1, 6)
            m = c.maps[k - 1]
            where = rng.choice(("inside", "outside"))
            cols = [j for j, lab in enumerate(m.col_labels) if (lab in free[k - 1]) == (where == "inside")]
            if not cols:
                continue
            broken = perturbed(c, f"f{k}", rng.randrange(m.nrows), rng.choice(cols), F(rng.randint(1, 9), 7919))
            ok, witness = verify_chain(broken)
            if not ok:
                stage, row, col = witness
                message = f"internal error: composition f{stage + 1}.f{stage} is nonzero at ({row}, {col})"
            try:
                q, _ = select_partition(broken)
            except NotAcyclicError as short:
                seen["short ranks"] += 1
                assert short.ranks != short.expected
                continue
            except PentachainError as short:
                seen["short chain"] += 1
                assert not ok and str(short) == message
                continue
            seen[where] += 1
            free_cols = q.cols(broken)[:3]
            assert verify_chain(broken, free_cols)[0] == ok
            if ok:
                certify_chain(broken, free_cols)
                continue
            with pytest.raises(PentachainError) as raised:
                certify_chain(broken, free_cols)
            assert str(raised.value) == message
    assert min(seen.values()) > 0 and seen["inside"] + seen["outside"] > 100


def test_cancellation_across_denominators_passes():
    # 1/3 + 1/6 - 1/2 = 0 and 1/15 + 1/42 - 19/210 = 0: each product entry
    # cancels only once its terms are brought over a common denominator
    f1 = rat_matrix([[1, F(1, 5)], [1, F(1, 7)], [1, F(19, 105)]])
    f2 = rat_matrix([[F(1, 3), F(1, 6), F(-1, 2)]])
    zero = rat_matrix([[0]])
    planted = ChainComplex(f1, f2, zero, zero, zero, vertex_count=0, edge_count=0)
    assert verify_chain(planted) == fraction_witness_oracle(planted) == (True, None)
    off = replace(planted, f1=rat_matrix([[1, F(1, 5)], [1, F(1, 7)], [1, F(19, 104)]]))
    assert verify_chain(off) == fraction_witness_oracle(off) == (False, (1, "r0", "c1"))


# distinct primes of about 40 bits, one per denominator of the explicit geometry
PRIMES_40 = (
    614743280507, 621327802651, 655136624683, 691288291777, 703873773913, 773193308659,
    821626242989, 878441541157, 978865039241, 1042989857233, 1078914568211, 1098959389361,
)


def fraction_maps(tri, g, values):
    """f1..f5 as {column: nonzero Fraction} rows, from the formulas of the
    ``chain`` module docstring, with f3 from the textbook quotient rule."""
    nv = len(tri.vertices)
    f1, f2, f3 = [], [], []
    for x, y in zip(g.x, g.y):
        f1 += [{0: y, 2: x, 3: 1}, {1: x, 2: -y, 4: 1}, {3: -y / 2, 4: x / 2, 5: 1}]
    for e in tri.edges:
        a, b = e.tail, e.head
        row = {}
        for j, v in ((3 * a, g.y[b] / 2), (3 * a + 1, -g.x[b] / 2), (3 * a + 2, -1),
                     (3 * b, -g.y[a] / 2), (3 * b + 1, g.x[a] / 2), (3 * b + 2, 1)):
            row[j] = row.get(j, 0) + v
        f2.append(row)
        value, gradient = fraction_curvature_oracle(values, lookup_angles(tri, e.id))
        assert value == 0
        f3.append(gradient)
    f4 = [{} for _ in range(3 * nv)]
    for e in tri.edges:
        p, q = e.tail, e.head
        x, y = g.x[q] - g.x[p], g.y[q] - g.y[p]
        for r, v in enumerate((x * x / 2, x * y / 2, y * y / 2)):
            f4[3 * p + r][e.id] = f4[3 * p + r].get(e.id, 0) + v
            f4[3 * q + r][e.id] = f4[3 * q + r].get(e.id, 0) - v
    f5 = [{} for _ in range(6)]
    for v, (x, y) in enumerate(zip(g.x, g.y)):
        f5[0][3 * v] = f5[1][3 * v + 1] = f5[2][3 * v + 2] = F(1)
        f5[3][3 * v], f5[3][3 * v + 1] = y, -x
        f5[4][3 * v + 1], f5[4][3 * v + 2] = y, -x
        f5[5][3 * v], f5[5][3 * v + 1], f5[5][3 * v + 2] = y * y, -2 * x * y, x * x
    return [[{j: F(v) for j, v in row.items() if v} for row in m] for m in (f1, f2, f3, f4, f5)]


def explicit_prime_geometry(tri):
    """Coordinates over distinct 40-bit primes, with nonzero numerators."""
    primes = iter(PRIMES_40)
    text = "".join(
        f"vertex {v} {7 * v + 3}/{next(primes)} {-5 * v - 2}/{next(primes)} {v + 1}/{next(primes)}\n"
        for v in range(len(tri.vertices))
    )
    return parse_geometry(text, tri)


@pytest.mark.parametrize("source", ["s3", "rp3", "rp3_t40.tri", "rp3-prime-denominators"])
def test_integer_assembly_matches_fraction_formulas(source, s3, rp3, certified_chain):
    if source.endswith(".tri"):
        tri = Triangulation.from_file(Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / source)
    else:
        tri = s3 if source == "s3" else rp3
    g = explicit_prime_geometry(tri) if source.endswith("denominators") else assign_geometry(tri, 2)
    values = [lambda_of(tri, g, e.id) for e in tri.edges]
    c = certified_chain(tri, g)
    for m, expected in zip(c.maps, fraction_maps(tri, g, values)):
        assert list(m.rows) == expected
        for row, den in zip(m.numerators, m.denominators):
            assert den > 0 and math.gcd(den, *row.values()) == 1
            assert list(row) == sorted(row)
        assert rat_matrix(m.rows, m.row_labels, m.col_labels) == m


@pytest.mark.parametrize("fractional", [False, True])
def test_build_chain_certifies_the_geometry(s3, fractional):
    # vertex classes 0, 1, 2 on a line: face class 3 has zero circulation,
    # also when the coordinates carry a denominator to clear
    scale = F(1, 3) if fractional else F(1)
    x = tuple(scale * v for v in (F(0), F(1), F(2), F(0)))
    y = tuple(scale * v for v in (F(0), F(0), F(0), F(1)))
    collinear = GeometryAssignment(x=x, y=y, kappa=(F(0),) * 4)
    message = "face class 3 (vertices (0, 1, 2)) has zero circulation"
    with pytest.raises(DegenerateGeometryError) as raised:
        build_chain(s3, collinear)
    assert str(raised.value) == message
