import math
import random
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
    edge_values,
    invariant,
    load_builtin,
    parse_geometry,
    random_walk,
    select_partition,
    verify_chain,
)
from pentachain import chain, cli
from pentachain.chain import ChainComplex, _composition_witness, basis_label, certify_chain, expected_ranks
from pentachain.triangulation import Triangulation
from reference import coordinates, fraction_holonomy_generator, geometry_of, lambda_of, laplacian_dets, rat_matrix
from test_geometry import fraction_curvature_oracle, lookup_angles, prime_denominator_geometry_text

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
    dims = (c.f1.ncols, *(f.nrows for f in c.maps))
    assert dims == (6, 3 * v, e, e, 3 * v, 6)
    assert sum(dims[::2]) == sum(dims[1::2])  # alternating sum vanishes
    # f_k maps C_{k-1} to C_k: its columns are the rows of f_{k-1}
    assert all(right.nrows == left.ncols for right, left in zip(c.maps, c.maps[1:]))
    names = [[basis_label(k, i) for i in range(dim)] for k, dim in enumerate(dims)]
    assert names[0] == ["dt1", "dt2", "dt3", "dx", "dy", "dk"]
    assert names[5] == ["db1", "db2", "db3", "db4", "db5", "db6"]
    assert names[1][3:6] == ["dx_v1", "dy_v1", "dk_v1"] and names[4][-1] == f"dg3_v{v - 1}"
    assert (names[2][-1], names[3][0]) == (f"dl_e{e - 1}", "dw_e0")
    # every differential symbol appears as exactly one basis name
    assert len({name for space in names for name in space}) == 12 + 6 * v + 2 * e


def test_mutated_entry_is_detected(s3, sphere_geometry, certified_chain):
    c = certified_chain(s3, sphere_geometry)
    rows = [list(r) for r in c.f2.entries]
    rows[2][5] += 1
    broken = c._replace(f2=rat_matrix(rows, c.f2.ncols))
    ok, witness = verify_chain(broken)
    assert not ok
    stage, row_label, col_label = witness
    assert stage in (1, 2)
    # f2.f1 has rows in C2 and columns in C0, f3.f2 rows in C3 and columns in C1
    rows_in, cols_in = (c.f2.nrows, c.f1.ncols) if stage == 1 else (c.f3.nrows, c.f1.nrows)
    assert row_label in {basis_label(stage + 1, i) for i in range(rows_in)}
    assert col_label in {basis_label(stage - 1, j) for j in range(cols_in)}


def test_acyclicity_reports(s3, rp3, sphere_geometry, rp3_geometry, certified_chain):
    assert check_acyclic(certified_chain(s3, sphere_geometry)) == (6, 6, 0, 6, 6)
    assert check_acyclic(certified_chain(rp3, rp3_geometry)) == (6, 6, 6, 6, 6)
    assert expected_ranks(4, 12) == (6, 6, 6, 6, 6)


def test_zeroed_f3_breaks_acyclicity(rp3, rp3_geometry, certified_chain):
    c = certified_chain(rp3, rp3_geometry)
    zero = rat_matrix([[F(0)] * c.f3.ncols for _ in range(c.f3.nrows)])
    broken = c._replace(f3=zero)
    with pytest.raises(NotAcyclicError) as reported:
        check_acyclic(broken)
    assert (reported.value.ranks, reported.value.expected) == ((6, 6, 0, 6, 6), (6, 6, 6, 6, 6))
    with pytest.raises(NotAcyclicError) as caught:
        select_partition(broken)
    assert str(caught.value) == str(reported.value)
    # the basis-free oracle agrees: with f3 zero, H_2 and H_3 are not, and
    # their Laplacians are singular
    dets = laplacian_dets(broken)
    assert [k for k, d in enumerate(dets) if d == 0] == [2, 3]


def test_not_acyclic_names_the_first_map_off():
    error = NotAcyclicError([6, 5, 4, 6, 6], [6, 6, 6, 6, 6])
    assert (error.ranks, error.expected) == ((6, 5, 4, 6, 6), (6, 6, 6, 6, 6))
    assert str(error) == (
        "complex is not acyclic: ranks (6, 5, 4, 6, 6), expected (6, 6, 6, 6, 6); f2 has rank 5, expected 6"
    )


def test_f4_endpoint_triples_cancel(rp3, rp3_geometry, certified_chain):
    # rows db1..db3 of f5 sum each vertex block with weight one, so the
    # block of f5*f4 they span vanishes edge by edge
    c = certified_chain(rp3, rp3_geometry)
    for r in range(3):
        for j in range(c.f4.ncols):
            total = sum(
                c.f5.entries[r][k] * c.f4.entries[k][j]
                for k in range(c.f4.nrows)
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
    xs, ys, _ = coordinates(g)
    for e in tri.edges:
        p, q = e.tail, e.head
        (_, m01), (m10, m11) = fraction_holonomy_generator((xs[q] - xs[p], ys[q] - ys[p]), F(1))
        expected = [0] * c.f4.nrows
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


def dense_witness(left, right, cols=None):
    """The (row, column) position of the first nonzero entry of left*right
    on the column positions ``cols`` (all when None), by a dense Fraction
    product."""
    a, b = left.entries, right.entries
    for i in range(left.nrows):
        for col in range(right.ncols):
            if (cols is None or col in cols) and sum(a[i][j] * b[j][col] for j in range(right.nrows)):
                return i, col
    return None


def fraction_witness_oracle(c):
    """First nonzero entry of some f_{k+1} * f_k by dense Fraction products,
    its row named in C_{k+1} and its column in C_{k-1}."""
    pairs = ((c.f2, c.f1), (c.f3, c.f2), (c.f4, c.f3), (c.f5, c.f4))
    for k, (left, right) in enumerate(pairs, start=1):
        if witness := dense_witness(left, right):
            i, j = witness
            return False, (k, basis_label(k + 1, i), basis_label(k - 1, j))
    return True, None


def perturbed(c, name, i, j, delta):
    m = getattr(c, name)
    rows = [list(r) for r in m.entries]
    rows[i][j] += delta
    return c._replace(**{name: rat_matrix(rows, m.ncols)})


@pytest.mark.parametrize("name, stage", [("f1", 1), ("f3", 2), ("f4", 3), ("f5", 4)])
def test_perturbed_entry_gives_oracle_witness(rp3, name, stage, certified_chain):
    """A perturbed entry of f_k is found at the first composition it
    enters: f1 and f4 as the right factor that ``verify_chain`` scales to
    integers once, f3 as the one scaled per left row.  One delta keeps the
    row denominators dividing 2D, the other brings in 7919."""
    g = assign_geometry(rp3, 1)
    c = certified_chain(rp3, g)
    m = getattr(c, name)
    for delta in (F(1, 2 * g.den), F(1, 7919)):
        for i, j in ((0, 0), (m.nrows // 2, m.ncols - 1), (m.nrows - 1, 3)):
            broken = perturbed(c, name, i, j, delta)
            ok, witness = verify_chain(broken)
            assert not ok and witness[0] == stage
            assert (ok, witness) == fraction_witness_oracle(broken)


def test_right_factor_denominators_divide_one_scale(s3, rp3):
    """The fact that lets ``verify_chain`` scale f1, f2 and f4 to integers
    once each: every row denominator of f1, f2 and f4 divides 2D, 2D and
    2D^2, with D the geometry's common denominator, for sampled geometry
    and for coordinates over distinct 40-bit primes."""
    fixtures = sorted((Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures").glob("*.tri"))
    assert len(fixtures) == 8
    cases = [(tri, assign_geometry(tri, seed)) for tri in (s3, rp3) for seed in range(3)]
    cases += [(tri, assign_geometry(tri, 1)) for tri in map(Triangulation.from_file, fixtures)]
    cases += [(tri, parse_geometry(prime_denominator_geometry_text(len(tri.vertices)), tri)) for tri in (s3, rp3)]
    for tri, g in cases:
        c = build_chain(tri, g)
        d = g.den
        for name, scale in (("f1", 2 * d), ("f2", 2 * d), ("f4", 2 * d * d)):
            assert all(scale % den == 0 for den in getattr(c, name).denominators), (name, d)


def steered_short_pass(s3, certified_chain):
    """A broken s3 chain whose pass falls short with the acyclic ranks.

    Shelling a's first inner corner u sits at x = 0, so the first trio of
    f1 rows that the apex rule tries, dx_u, dy_u and dx of the next corner,
    is singular on dt1..dt3.  One entry put at (dy_u, dt2) makes that trio
    nonsingular in the broken f1 only, so the rule picks it, and f2, whose
    root block on the rows left free is singular for the true f1, gives m2
    = 0.  f1 keeps rank 6 and the other maps are untouched."""
    corners = s3.shelling(0)[0]
    points = dict(zip(corners, ((2, 5), (0, 2), (3, 1), (-1, -2))))
    x, y = zip(*(points[v] for v in range(4)))
    c = certified_chain(s3, geometry_of(x, y, (0,) * 4))
    return perturbed(c, "f1", 3 * corners[1] + 1, 1, F(1, 7919))


def test_free_column_certificate_agrees_with_full_check(s3, rp3, certified_chain):
    """Seeded single-entry perturbations of f1..f5, at columns inside and
    outside the free columns of the composition the entry enters from the
    right: wherever the pass still succeeds, the free-column certificate
    rejects exactly when the full check does, naming the full check's
    witness as ``certify_chain`` does.  Where the pass falls short, it
    reports the ranks only when they break the acyclic pattern, and
    otherwise the full check's witness.  A zeroed row of f5 on each
    triangulation is a short pass whose ranks break the pattern, and the
    steered s3 chain one whose ranks keep it."""
    rng = random.Random(18)
    fixture = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / "rp3_t20.tri"
    walked = [random_walk(load_builtin(name), 8, seed, 12) for name, seed in (("s3", 5), ("rp3", 6))]
    seen = {"inside": 0, "outside": 0, "short ranks": 0, "short chain": 0}
    checked = set()
    for n, tri in enumerate((s3, rp3, Triangulation.from_file(fixture), *walked)):
        c = certified_chain(tri, assign_geometry(tri, seed=n))
        p, _ = select_partition(c)
        # the column positions of f_k that the free-column check reads
        free = [set(cols) for cols in (range(c.f1.ncols), *p.cols(c))]
        cases = []
        for _ in range(30):
            k = rng.randrange(1, 6)
            m = c.maps[k - 1]
            where = rng.choice(("inside", "outside"))
            cols = [j for j in range(m.ncols) if (j in free[k - 1]) == (where == "inside")]
            if not cols:
                continue
            broken = perturbed(c, f"f{k}", rng.randrange(m.nrows), rng.choice(cols), F(rng.randint(1, 9), 7919))
            cases.append((k, where, broken))
        rows = [{} if i == n % 6 else row for i, row in enumerate(c.f5.rows)]
        cases.append((5, "zeroed", c._replace(f5=rat_matrix(rows, c.f5.ncols))))
        if n == 0:
            cases.append((1, "steered", steered_short_pass(tri, certified_chain)))
        for k, where, broken in cases:
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
            assert where not in ("zeroed", "steered"), f"the pass succeeded on the {where} case"
            seen[where] += 1
            checked.add((k, where))
            free_cols = q.cols(broken)[:3]
            assert verify_chain(broken, free_cols)[0] == ok
            if ok:
                certify_chain(broken, free_cols)
                continue
            with pytest.raises(PentachainError) as raised:
                certify_chain(broken, free_cols)
            assert str(raised.value) == message
    assert min(seen.values()) > 0 and seen["inside"] + seen["outside"] > 100
    # every column of f1 is free (K0 is all of C0); each later stage is
    # checked with perturbations both inside and outside its free columns
    assert set(checked) == {(1, "inside"), *((k, w) for k in range(2, 6) for w in ("inside", "outside"))}


LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 1000000007, 998244353, 4294967291)


def planted_product(rng):
    """A random sparse pair (left, right) whose product is mostly zero.

    The rows of ``right`` come in pairs, the second a rational multiple of
    the first with a large-prime denominator, and each left row meets a pair
    with entries that cancel; left rows come in runs of three on the same
    columns, some rows are empty, and a few entries are nudged, so the
    product's first nonzero entry lands anywhere or nowhere."""
    ncols, pairs = rng.randint(1, 9), rng.randint(1, 5)

    def value():
        return F(rng.choice((-1, 1)) * rng.randint(1, 50), rng.choice((1, 2, 6, *LARGE_PRIMES)))

    right, ratios = [], []
    for _ in range(pairs):
        row = {j: value() for j in rng.sample(range(ncols), rng.randint(0, ncols))}
        ratios.append(value())
        right += [row, {j: ratios[-1] * v for j, v in row.items()}]
    left = []
    for _ in range(rng.randint(1, 4)):
        met = rng.sample(range(pairs), rng.randint(0, pairs))
        for _ in range(3):
            row = {}
            for t in met:
                row[2 * t] = value()
                row[2 * t + 1] = -row[2 * t] / ratios[t]
            left.append(row)
    for _ in range(rng.randint(0, 2)):
        row = rng.choice(left)
        if row:
            j = rng.choice(sorted(row))
            row[j] += F(1, rng.choice(LARGE_PRIMES))
    return rat_matrix(left, 2 * pairs), rat_matrix(right, ncols)


def test_composition_witness_matches_dense_fraction_product():
    rng = random.Random(28)
    seen = {"none": 0, "witness": 0, "subset": 0, "empty row": 0, "shared columns": 0}
    for _ in range(400):
        left, right = planted_product(rng)
        width = right.ncols
        cols = None if rng.random() < 0.4 else rng.sample(range(width), rng.randint(0, width))
        found = _composition_witness(left, right, cols)
        assert found == dense_witness(left, right, cols)
        assert _composition_witness(left, right, cols, per_row=False) == found
        seen["witness" if found else "none"] += 1
        seen["subset"] += cols is not None
        seen["empty row"] += not all(left.numerators)
        seen["shared columns"] += any(
            a and a.keys() == b.keys() for a, b in zip(left.numerators, left.numerators[1:])
        )
    assert min(seen.values()) > 20, seen


def test_cancellation_across_denominators_passes():
    # 1/3 + 1/6 - 1/2 = 0 and 1/15 + 1/42 - 19/210 = 0: each product entry
    # cancels only once its terms are brought over a common denominator
    f1 = rat_matrix([[1, F(1, 5)], [1, F(1, 7)], [1, F(19, 105)]])
    f2 = rat_matrix([[F(1, 3), F(1, 6), F(-1, 2)]])
    zero = rat_matrix([[0]])
    planted = ChainComplex(
        f1, f2, zero, zero, zero, vertex_count=0, edge_count=0, edge_table=(1, {}), triangulation=None
    )
    assert verify_chain(planted) == fraction_witness_oracle(planted) == (True, None)
    off = planted._replace(f1=rat_matrix([[1, F(1, 5)], [1, F(1, 7)], [1, F(19, 104)]]))
    # the witness at row 0 and column 1 of f2.f1 is named in C2 and C0
    assert verify_chain(off) == fraction_witness_oracle(off) == (False, (1, "dl_e0", "dt2"))


# distinct primes of about 40 bits, one per denominator of the explicit geometry
PRIMES_40 = (
    614743280507, 621327802651, 655136624683, 691288291777, 703873773913, 773193308659,
    821626242989, 878441541157, 978865039241, 1042989857233, 1078914568211, 1098959389361,
)


def fraction_maps(tri, g, values):
    """f1..f5 as {column: nonzero Fraction} rows, from the formulas of the
    ``chain`` module docstring, with f3 from the textbook quotient rule."""
    nv = len(tri.vertices)
    xs, ys, _ = coordinates(g)
    f1, f2, f3 = [], [], []
    for x, y in zip(xs, ys):
        f1 += [{0: y, 2: x, 3: 1}, {1: x, 2: -y, 4: 1}, {3: -y / 2, 4: x / 2, 5: 1}]
    for e in tri.edges:
        a, b = e.tail, e.head
        row = {}
        for j, v in ((3 * a, ys[b] / 2), (3 * a + 1, -xs[b] / 2), (3 * a + 2, -1),
                     (3 * b, -ys[a] / 2), (3 * b + 1, xs[a] / 2), (3 * b + 2, 1)):
            row[j] = row.get(j, 0) + v
        f2.append(row)
        value, gradient = fraction_curvature_oracle(values, lookup_angles(tri, e.id))
        assert value == 0
        f3.append(gradient)
    f4 = [{} for _ in range(3 * nv)]
    for e in tri.edges:
        p, q = e.tail, e.head
        x, y = xs[q] - xs[p], ys[q] - ys[p]
        for r, v in enumerate((x * x / 2, x * y / 2, y * y / 2)):
            f4[3 * p + r][e.id] = f4[3 * p + r].get(e.id, 0) + v
            f4[3 * q + r][e.id] = f4[3 * q + r].get(e.id, 0) - v
    f5 = [{} for _ in range(6)]
    for v, (x, y) in enumerate(zip(xs, ys)):
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
        assert rat_matrix(m.rows, m.ncols) == m


def coefficients(sides):
    """The coefficient of each key in the circulation around ``sides``,
    zeros dropped."""
    row = {}
    for key, sign in sides:
        row[key] = row.get(key, 0) + sign
    return {key: v for key, v in row.items() if v}


def face_edge_incidence(tri):
    """F: per face class, the coefficients of its stored sides."""
    return [coefficients(sides) for sides in tri.face_sides]


def angle_face_weights(tri, lam):
    """A: per edge class e, the partials of e's curvature by the face
    circulations, ``{face class: Fraction}``.

    An angle with tail E and head H is (N1 + N2) / (2 B1 B2) in the
    circulations of its triangles N1 = PHQ, N2 = PEQ, B1 = PHE and
    B2 = QHE, which lie in the faces opposite the slots of E, H, Q and P.
    With n1, n2, b1 and b2 those circulations times D, the partials are
    b1 b2, b1 b2, -(n1 + n2) b2 and -(n1 + n2) b1, each times D^2 / q with
    q = 2 (b1 b2)^2, and each signed by whether the triangle's sides are
    the face's stored sides or their negation.
    """
    d, numerators = lam
    faces = face_edge_incidence(tri)
    rows = []
    for e in tri.edges:
        row = {}
        for (ph, hq, qp, pe, eq, he), (tet, (p, q), (tail, head)) in lookup_angles(tri, e.id):
            (pe_key, pe_sign), (hq_key, hq_sign) = pe, hq
            triangles = (
                ((ph, hq, qp), tail),
                ((pe, eq, qp), head),
                ((ph, he, (pe_key, -pe_sign)), q),
                (((hq_key, -hq_sign), he, eq), p),
            )
            n1, n2, b1, b2 = (sum(sign * numerators[key] for key, sign in sides) for sides, _ in triangles)
            scale = Fraction(d * d, 2 * (b1 * b2) ** 2)
            weights = (b1 * b2, b1 * b2, -(n1 + n2) * b2, -(n1 + n2) * b1)
            for (sides, opposite), weight in zip(triangles, weights):
                f = tri.face_class(tet, opposite)
                stored, mine = faces[f], coefficients(sides)
                assert mine in (stored, {key: -v for key, v in stored.items()})
                sign = 1 if mine == stored else -1
                row[f] = row.get(f, 0) + sign * weight * scale
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("source", ["s3", "rp3", "s3_t80.tri", "rp3_t80.tri"])
def test_f3_factors_through_the_face_circulations(source, seed, s3, rp3):
    # f3 = A F: each curvature depends on the edge values only through
    # the face circulations of its angles' tetrahedra
    if source.endswith(".tri"):
        tri = Triangulation.from_file(Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / source)
    else:
        tri = s3 if source == "s3" else rp3
    c = build_chain(tri, assign_geometry(tri, seed))
    faces = face_edge_incidence(tri)
    product = []
    for row in angle_face_weights(tri, c.edge_table):
        out = {}
        for f, weight in row.items():
            for key, v in faces[f].items():
                out[key] = out.get(key, 0) + weight * v
        product.append({key: v for key, v in sorted(out.items()) if v})
    assert product == list(c.f3.rows)


def test_any_common_denominator_builds_the_same_chain(s3, rp3):
    # a geometry over a multiple of its lcm has the same edge-value table,
    # matrices and invariant
    for tri in (s3, rp3):
        g = assign_geometry(tri, 5)
        over = GeometryAssignment(7 * g.den, *(tuple(7 * n for n in values) for values in (g.x, g.y, g.kappa)))
        assert coordinates(over) == coordinates(g)
        assert edge_values(tri, over) == edge_values(tri, g)
        assert dump_chain(build_chain(tri, over)) == dump_chain(build_chain(tri, g))
        assert invariant(tri, geometry=over) == invariant(tri, geometry=g)


def test_curvature_off_at_the_flat_point_is_an_internal_error(s3, monkeypatch, capsys):
    # a curvature row that is nonzero where every curvature vanishes is a
    # fault of the curvature code, not of the input, and is named as one
    real = chain.omega_row

    def bent(tri, lam, e):
        (value, den), gradient = real(tri, lam, e)
        return ((1 if e == 0 else value), den), gradient

    monkeypatch.setattr(chain, "omega_row", bent)
    message = "internal error: curvature of edge class 0 is nonzero at the flat point"
    with pytest.raises(PentachainError) as raised:
        build_chain(s3, assign_geometry(s3, 1))
    assert (raised.type, str(raised.value)) == (PentachainError, message)
    assert cli.main(["invariant", "--builtin", "s3"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("fractional", [False, True])
def test_build_chain_certifies_the_geometry(s3, fractional):
    # vertex classes 0, 1, 2 on a line: face class 3 has zero circulation,
    # also when the geometry is over a common denominator other than 1
    scale = F(1, 3) if fractional else F(1)
    x = tuple(scale * v for v in (F(0), F(1), F(2), F(0)))
    y = tuple(scale * v for v in (F(0), F(0), F(0), F(1)))
    collinear = geometry_of(x, y, kappa=(0,) * 4)
    message = "face class 3 (vertices (0, 1, 2)) has zero circulation"
    with pytest.raises(DegenerateGeometryError) as raised:
        build_chain(s3, collinear)
    assert str(raised.value) == message
