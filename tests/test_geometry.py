import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pentachain import (
    DegenerateGeometryError,
    GeometryAssignment,
    MoveSite,
    apply_move,
    assign_geometry,
    FivePointConfig,
    edge_values,
    enumerate_sites,
    face_circulations,
    parse_geometry,
)
from pentachain import geometry, pentagon
from pentachain.geometry import angle_terms, curvature, curvature_value, holonomy_numerators, omega_row
from pentachain.errors import ParseError
from pentachain.exact import clear_denominators
from pentachain.triangulation import Triangulation
from reference import (
    angle,
    angle_sides,
    barycentric,
    coordinates,
    face_values,
    fraction_geometry,
    fraction_holonomy_generator,
    geometry_of,
    lambda_of,
    lens,
    randrange_rationals,
    sequence_parity,
    triangle_area,
)

F = Fraction


def values_of(table):
    """The values of an integer value table ``(D, numerators)`` as
    Fractions, by key."""
    d, numerators = table
    return {key: F(n, d) for key, n in numerators.items()}


def edge_id(tri, i, j):
    eid, sign = tri.edge_class(0, i, j)
    assert sign == 1
    return eid


def test_fixed_sphere_lambdas(s3, sphere_geometry):
    g = sphere_geometry
    # vertex classes in slot order: A, B, C, D
    assert lambda_of(s3, g, edge_id(s3, 0, 1)) == 0  # O, A, B collinear
    assert lambda_of(s3, g, edge_id(s3, 1, 2)) == F(1, 2)


def test_fixed_sphere_circulations(s3, sphere_geometry):
    lam = edge_values(s3, sphere_geometry)
    # face classes in first-occurrence order: BCD, ACD, ABD, ABC
    values = face_values(s3, lam)
    assert [abs(v) for v in values] == [F(1, 2)] * 4
    abc = s3.face_class(0, 3)
    acd = s3.face_class(0, 1)
    assert values[abc] == F(1, 2)
    assert values[acd] == F(-1, 2)


def test_circulation_equals_area_oracle(s3, rp3):
    for tri, seed in ((s3, 3), (rp3, 4)):
        g = assign_geometry(tri, seed)
        circulations = face_values(tri, edge_values(tri, g))
        x, y, _ = coordinates(g)
        for f in tri.faces:
            a, b, c = f.vertices
            area = triangle_area(x[a], y[a], x[b], y[b], x[c], y[c])
            assert circulations[f.id] == area


def test_sampler_determinism(rp3):
    assert assign_geometry(rp3, 11) == assign_geometry(rp3, 11)
    assert assign_geometry(rp3, 11) != assign_geometry(rp3, 12)


FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"


def test_sampler_gives_up_after_sample_draws(monkeypatch):
    # the first draw of seed 13 on s3_t80 is degenerate, and a later one is not
    t80 = Triangulation.from_file(FIXTURES / "s3_t80.tri")
    geometry.ensure_nondegenerate(t80, edge_values(t80, assign_geometry(t80, 13)))
    monkeypatch.setattr(geometry, "SAMPLE_DRAWS", 1)
    with pytest.raises(DegenerateGeometryError) as exc:
        assign_geometry(t80, 13)
    assert str(exc.value) == "no nondegenerate geometry found after 1 attempts"


def test_sampler_stream_matches_fraction_oracle(s3, rp3):
    # the integer table of every draw holds the values the Fraction
    # sampler draws, and the same draws are redrawn
    t80 = Triangulation.from_file(FIXTURES / "rp3_t80.tri")
    redrawn = 0
    for tri in (s3, rp3, t80):
        for seed in range(1000):
            g = assign_geometry(tri, seed)
            want, draws = fraction_geometry(tri, seed)
            assert g.den > 0 and coordinates(g) == want
            redrawn += draws > 1
    # rp3_t80 redraws at 7 of these seeds, one of them twice
    assert redrawn == 7


@pytest.mark.parametrize("bound, den_bound", [(64, 16), (30, 9), (20, 7), (1, 1), (2, 2)])
def test_draw_rationals_is_the_randrange_stream(bound, den_bound):
    # the getrandbits loop draws what randrange draws, value for value,
    # and leaves the generator in the same state
    for seed in range(500):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert geometry.draw_rationals(ours.getrandbits, 12, bound, den_bound) == randrange_rationals(
            theirs.randrange, 12, bound, den_bound
        )
        assert ours.getstate() == theirs.getstate()


def test_assign_geometry_builds_no_fraction(rp3, fractions_made):
    t80 = Triangulation.from_file(FIXTURES / "rp3_t80.tri")
    # seed 649 of rp3_t80 takes three draws
    for tri, seed in ((rp3, 0), (rp3, 42), (t80, 1), (t80, 649)):
        assign_geometry(tri, seed)
    assert fractions_made == []


def kappa_shifted(g):
    """``g`` with the kappa of vertex class i shifted by (5/3)^i."""
    x, y, kappa = coordinates(g)
    return geometry_of(x, y, tuple(k + F(5, 3) ** i for i, k in enumerate(kappa)))


def test_kappa_independence_of_circulations(rp3, rp3_geometry):
    lam1 = edge_values(rp3, rp3_geometry)
    lam2 = edge_values(rp3, kappa_shifted(rp3_geometry))
    assert lam1 != lam2
    assert face_values(rp3, lam1) == face_values(rp3, lam2)


def test_fixed_sphere_angles(s3, sphere_geometry):
    lam = edge_values(s3, sphere_geometry)
    # tetrahedron 0 has sign +1; edge (C, D) at slots (2, 3), P, Q = (A, B)
    assert angle(s3, lam, 0, (0, 1), (2, 3)) == -2
    assert angle(s3, lam, 0, (1, 0), (2, 3)) == 2
    assert angle(s3, lam, 0, (0, 1), (3, 2)) == 2


def test_flatness_everywhere(s3, rp3):
    for tri in (s3, rp3):
        for seed in range(5):
            lam = edge_values(tri, assign_geometry(tri, seed))
            for e in tri.edges:
                assert omega_row(tri, lam, e.id)[0][0] == 0


def test_omega_negates_under_edge_reversal(rp3, rp3_geometry):
    lam = edge_values(rp3, rp3_geometry)
    # evaluate away from the flat point so omega is nonzero
    values = values_of(lam)
    values[0] += F(1, 3)
    bent = clear_denominators(values)
    for e in rp3.edges:
        total = F(*omega_row(rp3, bent, e.id)[0])
        reversed_total = sum(
            angle(rp3, bent, tet, pq, (head, tail))
            for tet, pq, (tail, head) in fresh_star(rp3, e)
        )
        assert reversed_total == -total


def test_sphere_derivatives_vanish(s3, sphere_geometry):
    lam = edge_values(s3, sphere_geometry)
    for a in range(6):
        assert gradient(omega_row(s3, lam, a)[1]) == {}


def test_projective_derivative_value(rp3, rp3_geometry):
    g = rp3_geometry
    lam = edge_values(rp3, g)
    b = edge_id(rp3, 0, 1)
    f = edge_id(rp3, 2, 3)
    circulations = face_values(rp3, lam)
    s_abc = abs(circulations[rp3.face_class(0, 3)])
    s_abd = abs(circulations[rp3.face_class(0, 2)])
    row = gradient(omega_row(rp3, lam, b)[1])
    assert abs(row[f]) == 2 / (s_abc * s_abd)
    # and the derivative along an adjacent pair cancels
    g_edge = edge_id(rp3, 1, 3)
    assert row.get(g_edge, 0) == 0


def null_vector(rows):
    """Any nonzero rational solution of rows * x = 0 (oracle helper)."""
    rows = [list(r) for r in rows]
    n = len(rows[0])
    pivots = {}
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    free = next((c for c in range(n) if c not in pivots), None)
    assert free is not None, "system has full rank, no null vector"
    x = [F(0)] * n
    x[free] = F(1)
    for c, row_i in pivots.items():
        x[c] = -rows[row_i][free]
    return x


def omega_derivative_oracle(tri, lam, a, b):
    """Rational-function interpolation oracle for d(omega_a)/d(lambda_b).

    Samples omega_a as a function of lambda_b through the production value
    path only, fits a rational function of bounded degree by an exact
    linear solve, verifies the fit on held-out points, and differentiates
    the fit.  Independent of the production quotient-rule assembly.
    """
    degree = 2 * tri.edges[a].degree
    base = values_of(lam)[b]

    def omega_at(t):
        values = values_of(lam)
        values[b] = t
        shifted = clear_denominators(values)
        return F(*omega_row(tri, shifted, a)[0])

    samples = []
    t = base
    while len(samples) < 2 * (degree + 1) + 3:
        t += F(1, 3)
        try:
            samples.append((t, omega_at(t)))
        except DegenerateGeometryError:
            continue
    fit_pts, check_pts = samples[: 2 * (degree + 1) - 1], samples[2 * (degree + 1) - 1:]
    rows = []
    for t, w in fit_pts:
        rows.append([t ** k for k in range(degree + 1)] + [-w * t ** k for k in range(degree + 1)])
    x = null_vector(rows)
    p, q = x[: degree + 1], x[degree + 1:]

    def poly(cs, t):
        return sum(c * t ** k for k, c in enumerate(cs))

    for t, w in check_pts:
        assert poly(p, t) == w * poly(q, t), "interpolated fit is wrong"
    dp = [k * c for k, c in enumerate(p)][1:]
    dq = [k * c for k, c in enumerate(q)][1:]
    qv = poly(q, base)
    assert qv != 0
    return (poly(dp, base) * qv - poly(p, base) * poly(dq, base)) / (qv * qv)


def test_derivative_against_interpolation_oracle(rp3, rp3_geometry):
    lam = edge_values(rp3, rp3_geometry)
    pairs = [(0, 5), (5, 0), (0, 8), (3, 2), (1, 4), (7, 7)]
    for a, b in pairs:
        assert gradient(omega_row(rp3, lam, a)[1]).get(b, 0) == omega_derivative_oracle(rp3, lam, a, b)


def test_holonomy_generator():
    assert holonomy_numerators((3, 4), 0, 1) == (2, ((0, 0), (0, 0)))
    assert holonomy_numerators((1, 0), 2, 1) == (2, ((0, 2), (0, 0)))
    # domega / 2 times ((-xy, x^2), (-y^2, xy)), here at (2, -15) and
    # domega = 7/2, so over 4 with rows 7 ((30, 4), (-225, -30))
    den, ((m00, m01), (m10, m11)) = holonomy_numerators((2, -15), 7, 2)
    assert m00 + m11 == 0 and m00 * m11 - m01 * m10 == 0
    assert (den, m00, m01, m10, m11) == (4, 210, 28, -1575, -210)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    st.integers(-10**4, 10**4),
    st.integers(1, 10**4),
    st.integers(1, 10**3),
)
@example((3, -4), 0, 1, 1)  # omega = 0
@example((-7, 5), -5, 3, 6)  # negative omega, the last of OMEGA_SAMPLES
@example((0, 0), 2, 1, 1)
def test_holonomy_numerators_match_generator(xy, p, q, c):
    # the integer table at an integer vector over 2q is the generator in
    # Fractions; at the vector scaled by 1/c it is that over c^2
    den, rows = holonomy_numerators(xy, p, q)
    assert den == 2 * q
    want = fraction_holonomy_generator(xy, F(p, q))
    assert tuple(tuple(F(m, den) for m in row) for row in rows) == want
    scaled = fraction_holonomy_generator((F(xy[0], c), F(xy[1], c)), F(p, q))
    assert tuple(tuple(F(m, den * c * c) for m in row) for row in rows) == scaled


def test_structurally_degenerate_input_fails_with_hint(s3, monkeypatch):
    # a 2->3 across any face of the sphere joins the two copies of the
    # apex vertex class: the new edge has identified endpoints
    degenerate = apply_move(s3, MoveSite("2->3", (0, 0)))
    loops = [e for e in degenerate.edges if e.tail == e.head]
    assert [(e.id, e.tail) for e in loops] == [(3, 2)]
    draws = []
    monkeypatch.setattr(geometry, "edge_values", lambda *a: draws.append(a) or edge_values(*a))
    message = (
        r"edge class 3 joins vertex class 2 to itself, so every face containing it has zero "
        r"circulation for any geometry; 2->3 and 1->4 moves cannot remove this edge"
    )
    with pytest.raises(DegenerateGeometryError, match=message):
        assign_geometry(degenerate, seed=0)
    assert draws == []


def test_omega_names_zero_circulation_face(s3):
    # vertex classes 0, 1, 2 on a line: face class 3 has zero circulation,
    # a denominator of every angle at an edge of that face
    g = GeometryAssignment(1, x=(0, 1, 2, 0), y=(0, 0, 0, 1), kappa=(0,) * 4)
    lam = edge_values(s3, g)
    assert face_circulations(s3, lam)[1][3] == 0
    on_face = [e for e in s3.edges if {e.tail, e.head} <= {0, 1, 2}]
    assert len(on_face) == 3
    for e in on_face:
        with pytest.raises(DegenerateGeometryError, match=r"zero circulation .* face class 3 "):
            omega_row(s3, lam, e.id)


def test_geometry_file_parsing(s3, sphere_geometry):
    text = "".join(f"vertex {v} {x} {y} {k}\n" for v, (x, y, k) in enumerate(zip(*coordinates(sphere_geometry))))
    parsed = parse_geometry(text, s3)
    assert parsed == sphere_geometry
    with pytest.raises(ParseError, match="misses"):
        parse_geometry("vertex 0 1 2 3\n", s3)
    with pytest.raises(ParseError, match="duplicate"):
        parse_geometry(text + "vertex 0 1 2 3\n", s3)
    with pytest.raises(ParseError):
        parse_geometry("vertex 0 1/0 2 3\n", s3)
    # comments and blank lines are skipped
    assert parse_geometry("# sphere\n\n" + text.replace("\n", "  # vertex\n", 1) + "\n", s3) == sphere_geometry
    for line, message in (
        ("vertex 0 1 2", "bad geometry line 'vertex 0 1 2'"),
        ("vertex 0 1 2 3 4", "bad geometry line 'vertex 0 1 2 3 4'"),
        ("point 0 1 2 3", "bad geometry line 'point 0 1 2 3'"),
        ("vertex 4 1 2 3", "geometry line names unknown vertex class 4"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_geometry(text + line + "\n", s3)
        assert str(exc.value) == message


def test_omega_invariant_under_unimodular_affine_map(rp3, rp3_geometry):
    xs, ys, kappa = coordinates(rp3_geometry)
    # x' = 2x + y + 5, y' = x + y - 3: determinant one, areas preserved
    gx = tuple(2 * x + y + 5 for x, y in zip(xs, ys))
    gy = tuple(x + y - 3 for x, y in zip(xs, ys))
    lam0 = edge_values(rp3, rp3_geometry)
    lam1 = edge_values(rp3, geometry_of(gx, gy, kappa))
    assert face_values(rp3, lam0) == face_values(rp3, lam1)
    # lambda shifts by a coboundary; curvature stays identically zero
    for e in rp3.edges:
        assert omega_row(rp3, lam1, e.id)[0][0] == 0


def fraction_curvature_oracle(values, angles):
    """Textbook quotient rule in Fractions: the sum of (n1 + n2) / (2 d1 d2)
    over ``angles`` (as ``geometry.curvature`` reads them: the six sides
    ph, hq, qp, pe, eq, he and the contribution) and its gradient by every
    key, with each circulation a Fraction sum of signed values."""

    def form(*sides):
        value, coeffs = Fraction(0), {}
        for key, sign in sides:
            value += sign * Fraction(values[key])
            coeffs[key] = coeffs.get(key, 0) + sign
        return value, coeffs

    def reverse(side):
        key, sign = side
        return key, -sign

    total, row = Fraction(0), {}
    for (ph, hq, qp, pe, eq, he), _ in angles:
        # N1 = P -> H -> Q, N2 = P -> E -> Q, B1 = P -> H -> E, B2 = Q -> H -> E
        (n1, dn1), (n2, dn2) = form(ph, hq, qp), form(pe, eq, qp)
        (d1, dd1), (d2, dd2) = form(ph, he, reverse(pe)), form(reverse(hq), he, eq)
        num, den = n1 + n2, 2 * d1 * d2
        total += num / den
        for key in dn1.keys() | dn2.keys() | dd1.keys() | dd2.keys():
            dnum = dn1.get(key, 0) + dn2.get(key, 0)
            dden = 2 * (dd1.get(key, 0) * d2 + d1 * dd2.get(key, 0))
            row[key] = row.get(key, 0) + (dnum * den - num * dden) / (den * den)
    return total, {k: v for k, v in row.items() if v}


def gradient(table, nonzero=True):
    """The partials of an integer gradient table ``(den, {key: int})`` as
    Fractions, zeros dropped unless ``nonzero`` is false."""
    den, row = table
    return {k: F(v, den) for k, v in row.items() if v or not nonzero}


def name_face(contribution, opposite):
    """A ``where`` for ``curvature``: the face of ``contribution`` missing
    ``opposite``."""
    return f"the face of {contribution} missing {opposite}"


def fresh_star(tri, e):
    """The star contributions of edge class ``e`` by the ordering rule,
    built anew from its members: (P, Q, tail, head) even."""
    contributions = []
    for t, (i, j) in e.members:
        p, q = (s for s in range(4) if s != i and s != j)
        if sequence_parity(tri, t, (p, q, i, j)):
            p, q = q, p
        contributions.append((t, (p, q), (i, j)))
    return tuple(contributions)


def lookup_angles(tri, edge_id):
    """The angles of an edge class's star, each side looked up directly by
    ``edge_class`` in the order ph, hq, qp, pe, eq, he."""
    return tuple((angle_sides(tri, *c), c) for c in fresh_star(tri, tri.edges[edge_id]))


def assert_full_row_matches_oracle(table, values, angles, touched, absent):
    """``curvature``'s value and full gradient row against the oracle.
    ``touched`` are the keys the angles touch, ``absent`` a key they do not:
    the row holds no other key, and reads zero at ``absent``."""
    total, row = fraction_curvature_oracle(values, angles)
    value, full = curvature(table, angles, name_face)
    assert (F(*value), gradient(full)) == (total, row)
    assert set(full[1]) <= set(touched) and full[1].get(absent, 0) == 0


def assert_rows_match_oracle(tri, lam):
    for e in tri.edges:
        angles = lookup_angles(tri, e.id)
        assert tri.edge_angles[e.id] == angles
        value, row = omega_row(tri, lam, e.id)
        assert (F(*value), gradient(row)) == fraction_curvature_oracle(values_of(lam), angles)
        touched = {key for sides, _ in angles for key, _ in sides}
        absent = min(set(range(len(tri.edges))) - touched, default=len(tri.edges))
        assert_full_row_matches_oracle(lam, values_of(lam), angles, touched, absent)


def grown_rp3(rp3, size, seed):
    """rp3 grown by seeded 1->4 and 2->3 moves, skipping loop-edge results."""
    rng = random.Random(seed)
    tri = rp3
    while tri.size < size:
        grown = apply_move(tri, rng.choice(enumerate_sites(tri, rng.choice(("1->4", "2->3")))))
        if all(e.tail != e.head for e in grown.edges):
            tri = grown
    return tri


def test_integer_quotient_rule_matches_fraction_oracle(s3, rp3):
    grown = grown_rp3(rp3, 14, seed=3)
    assert grown.size >= 14
    for tri, seeds in ((s3, (0, 1)), (rp3, (0, 1, 2)), (grown, (0,))):
        for seed in seeds:
            assert_rows_match_oracle(tri, edge_values(tri, assign_geometry(tri, seed)))
    # away from the flat point the curvatures themselves are nonzero
    lam = edge_values(rp3, assign_geometry(rp3, 5))
    bent = clear_denominators({**values_of(lam), 0: values_of(lam)[0] + F(1, 10007)})
    assert any(omega_row(rp3, bent, e.id)[0][0] for e in rp3.edges)
    assert_rows_match_oracle(rp3, bent)


def test_integer_quotient_rule_exact_for_large_denominators(s3, rp3):
    # coordinates over 10007 and 65537, far from the sampled denominators;
    # the sphere's gradients vanish at a flat point, rp3's do not
    text = (
        "vertex 0 1/10007 3/65537 5/7\n"
        "vertex 1 -2/65537 7/10007 1/3\n"
        "vertex 2 11/10007 -13/65537 2/9\n"
        "vertex 3 17/65537 19/10007 -1/5\n"
    )
    for tri in (s3, rp3):
        lam = edge_values(tri, parse_geometry(text, tri))
        d, _ = lam
        assert d % 10007 == 0 and d % 65537 == 0
        assert_rows_match_oracle(tri, lam)
    assert any(gradient(omega_row(rp3, lam, e.id)[1]) for e in rp3.edges)


def test_five_point_curvature_matches_fraction_oracle():
    for seed in range(12):
        cfg = FivePointConfig.random(seed)
        value, row = curvature(cfg.table, pentagon.ANGLES, name_face)
        assert value[0] == 0
        assert (F(*value), gradient(row)) == fraction_curvature_oracle(values_of(cfg.table), pentagon.ANGLES)
        bent = cfg.with_lambda_ed(-values_of(cfg.table)[pentagon.ED_PAIR] + F(1, 3))
        value, row = curvature(bent.table, pentagon.ANGLES, name_face)
        assert (F(*value), gradient(row)) == fraction_curvature_oracle(values_of(bent.table), pentagon.ANGLES)
        for c in (cfg, bent):
            # the local complex touches all ten pairs, so the key no angle
            # touches is one outside the table
            assert_full_row_matches_oracle(c.table, values_of(c.table), pentagon.ANGLES, pentagon.PAIRS, ("E", "F"))


def stage_cases(s3, rp3):
    """(keys, angle lists) of the pentagon's local complex and of every
    edge star of s3, rp3, the rp3_t80 fixture and the subdivided L(3,1)."""
    t80 = Triangulation.from_file(FIXTURES / "rp3_t80.tri")
    return [(pentagon.PAIRS, [pentagon.ANGLES])] + [
        (range(len(tri.edges)), tri.edge_angles) for tri in (s3, rp3, t80, barycentric(lens(3, 1)))
    ]


# table denominators for the stage tests, up to a 61-bit prime
STAGE_DENOMINATORS = (1, 7, 2 * 10007 * 65537, (1 << 61) - 1)


def random_table(rng, keys, den):
    """A seeded integer value table over ``den`` with 30-bit numerators."""
    return den, {key: rng.randint(-(1 << 30), 1 << 30) for key in keys}


def value_stage(table, angles):
    """The value of ``curvature`` with no gradient: its first two stages."""
    d, numerators = table
    return curvature_value(d, angle_terms(numerators, angles, name_face))


def test_value_stage_is_the_full_value(s3, rp3):
    # the seeded tables are nondegenerate on every angle
    rng = random.Random(29)
    for keys, angle_lists in stage_cases(s3, rp3):
        for den in STAGE_DENOMINATORS:
            table = random_table(rng, keys, den)
            for angles in angle_lists:
                value = value_stage(table, angles)
                assert value == curvature(table, angles, name_face)[0]
                if den == STAGE_DENOMINATORS[-1]:
                    assert F(*value) == fraction_curvature_oracle(values_of(table), angles)[0]


def denominator_sides(angle, which):
    """The three sides of ``angle``'s circulation b1 (``which`` 0) or b2
    (``which`` 1), each with its coefficient: b1 = ph + he - pe and
    b2 = he + eq - hq."""
    ph, hq, _, pe, eq, he = angle[0]
    return ((ph, 1), (he, 1), (pe, -1)) if which == 0 else ((he, 1), (eq, 1), (hq, -1))


def denominator_circulation(numerators, angle, which):
    return sum(c * sign * numerators[key] for (key, sign), c in denominator_sides(angle, which))


def zero_circulation(table, angle, which):
    """``table`` with one key of ``angle`` moved so that its circulation b1
    (``which`` 0) or b2 (``which`` 1) is zero: the first key that enters
    it with coefficient +-1."""
    d, numerators = table
    sides = denominator_sides(angle, which)
    for (key, _), _ in sides:
        coefficient = sum(c * sign for (k, sign), c in sides if k == key)
        if abs(coefficient) == 1:
            bent = {**numerators, key: 0}
            bent[key] = -denominator_circulation(bent, angle, which) * coefficient
            return d, bent
    raise ValueError("no key enters the circulation with coefficient +-1")


def test_stages_raise_the_same_degeneracy(s3, rp3):
    # every angle of these tables can be bent to a zero b1 or b2 alone
    rng = random.Random(30)
    for keys, angle_lists in stage_cases(s3, rp3):
        table = random_table(rng, keys, STAGE_DENOMINATORS[-1])
        for angle in (a for angles in angle_lists for a in angles):
            _, (p, q), _ = angle[1]
            for which, opposite in ((0, q), (1, p)):
                bent = zero_circulation(table, angle, which)
                assert denominator_circulation(bent[1], angle, 1 - which) != 0
                text = f"zero circulation in an angle denominator at {name_face(angle[1], opposite)}"
                with pytest.raises(DegenerateGeometryError) as full:
                    curvature(bent, (angle,), name_face)
                with pytest.raises(DegenerateGeometryError) as value_only:
                    value_stage(bent, (angle,))
                assert str(full.value) == str(value_only.value) == text


# coordinates over 10007 and 65537, far from the sampled denominators
LARGE_DENOMINATOR_GEOMETRY = (
    "vertex 0 1/10007 3/65537 5/7\n"
    "vertex 1 -2/65537 7/10007 1/3\n"
    "vertex 2 11/10007 -13/65537 2/9\n"
    "vertex 3 17/65537 19/10007 -1/5\n"
)


def is_prime(n):
    """Miller-Rabin with the twelve primes up to 37 as bases, which
    decides primality exactly for every n below 3 * 10^23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_denominator_geometry_text(vertex_count):
    """A geometry file whose 3V coordinates have distinct 40-bit prime
    denominators (the primes after 2^39 in turn) and nonzero numerators."""
    primes, n = [], 1 << 39
    while len(primes) < 3 * vertex_count:
        n += 1
        if is_prime(n):
            primes.append(n)
    it = iter(primes)
    return "".join(
        f"vertex {v} {7 * v + 3}/{next(it)} {-5 * v - 2}/{next(it)} {v + 1}/{next(it)}\n"
        for v in range(vertex_count)
    )


@pytest.mark.parametrize("source", ["sampled", "large-denominators", "prime-denominators", "kappa-shifted"])
def test_edge_values_is_the_cleared_paper_formula(source, s3, rp3):
    for tri in (s3, rp3):
        if source == "large-denominators":
            geometries = [parse_geometry(LARGE_DENOMINATOR_GEOMETRY, tri)]
        elif source == "prime-denominators":
            geometries = [parse_geometry(prime_denominator_geometry_text(len(tri.vertices)), tri)]
        else:
            geometries = [assign_geometry(tri, seed) for seed in range(4)]
        if source == "kappa-shifted":
            geometries = [kappa_shifted(g) for g in geometries]
        for g in geometries:
            d, numerators = edge_values(tri, g)
            assert (d, numerators) == clear_denominators({e.id: lambda_of(tri, g, e.id) for e in tri.edges})
            assert math.gcd(d, *numerators.values()) == 1
