import hashlib
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from pentachain import (
    DegenerateGeometryError,
    FivePointConfig,
    PentachainError,
    verify_pentagon,
    verify_vector_identities,
)
from pentachain import geometry, pentagon
from pentachain.geometry import subseed
from pentachain.pentagon import ED_PAIR, LABELS, PAIRS, flat_config
from reference import (
    bilinear_relation,
    circulation,
    five_point_from_lambdas,
    five_point_from_points,
    fraction_holonomy_generator,
    fraction_random_lam,
    integer_points,
    omega_ed,
    values,
)

F = Fraction


def verify_points(pts):
    """``verify_vector_identities`` on rational points, cleared to integer
    points over one denominator."""
    return verify_vector_identities(*integer_points(pts))


def random_points(rng):
    return {
        lab: (F(rng.randint(-20, 20), rng.randint(1, 7)), F(rng.randint(-20, 20), rng.randint(1, 7)))
        for lab in LABELS
    }


def test_pentagon_identity_on_seeded_configs():
    for seed in range(100):
        cfg = FivePointConfig.random(seed)
        lhs, rhs, equal = verify_pentagon(cfg)
        assert equal, (seed, lhs, rhs)
        assert bilinear_relation(cfg) == 0
        assert omega_ed(cfg) == 0


def test_random_redraws_then_gives_up(monkeypatch):
    draws = []

    def always_degenerate(cfg):
        draws.append(cfg)
        raise DegenerateGeometryError("degenerate draw")

    monkeypatch.setattr(pentagon, "flat_config", always_degenerate)
    with pytest.raises(DegenerateGeometryError):
        FivePointConfig.random(0)
    assert len(draws) == pentagon.SAMPLE_DRAWS
    assert len(set(tuple(sorted(values(d).items())) for d in draws)) == pentagon.SAMPLE_DRAWS


def test_random_matches_fraction_oracle():
    for seed in range(2000):
        assert values(FivePointConfig.random(seed)) == fraction_random_lam(seed), seed


@pytest.mark.parametrize(
    "seed, reason",
    [
        (subseed(963474272, "pentagon", 78), "zero circulation in an angle denominator at face BED"),
        (subseed(98593769, "pentagon", 9), "vanishing leading coefficient"),
    ],
    ids=["zero-angle-denominator", "vanishing-leading-coefficient"],
)
def test_random_redraws_each_degenerate_reason(monkeypatch, seed, reason):
    # the first draw of each seed is degenerate for its reason; the second is
    # the oracle's flat configuration
    real, reasons = pentagon.flat_config, []

    def recording(cfg):
        try:
            return real(cfg)
        except DegenerateGeometryError as exc:
            reasons.append(str(exc))
            raise

    monkeypatch.setattr(pentagon, "flat_config", recording)
    assert values(FivePointConfig.random(seed)) == fraction_random_lam(seed)
    assert len(reasons) == 1 and reason in reasons[0]


def test_planar_configuration_is_flat():
    rng = random.Random(33)
    for _ in range(20):
        pts = random_points(rng)
        cfg = five_point_from_points(pts)
        if bilinear_relation(cfg) != 0:
            continue  # points hit a degeneracy guard elsewhere; flatness is the claim
        stored = -values(cfg)[ED_PAIR]  # lambda_ED induced by the points
        forgotten = cfg.with_lambda_ed(F(0))
        try:
            solved = -values(flat_config(forgotten))[ED_PAIR]
        except DegenerateGeometryError:
            continue
        assert solved == stored
        lhs, _, equal = verify_pentagon(cfg)
        assert equal
        # the left side is the plane circulation of the face ABC
        (ax, ay), (bx, by), (cx, cy) = pts["A"], pts["B"], pts["C"]
        assert lhs == ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2


def test_solver_residual_exactly_zero():
    cfg = FivePointConfig.random(7)
    assert bilinear_relation(cfg) == 0
    assert omega_ed(cfg) == 0


def test_solver_ignores_the_current_lambda_ed():
    for seed in range(10):
        cfg = FivePointConfig.random(seed)
        flat = -values(cfg)[ED_PAIR]
        for guess in (F(0), F(5, 3), flat, -flat):
            assert -values(flat_config(cfg.with_lambda_ed(guess)))[ED_PAIR] == flat
            assert values(flat_config(cfg.with_lambda_ed(guess))) == values(cfg)


def test_scaled_configuration_stays_equal():
    cfg = FivePointConfig.random(9)
    for c in (F(3), F(-7, 2)):
        scaled = five_point_from_lambdas({k: c * v for k, v in values(cfg).items()})
        lhs, rhs, equal = verify_pentagon(scaled)
        assert equal
        assert lhs == c * verify_pentagon(cfg)[0]


def test_bilinear_relation_under_transpositions():
    rng = random.Random(4)
    cfg = five_point_from_lambdas({p: F(rng.randint(-9, 9), rng.randint(1, 5)) for p in PAIRS})
    base = bilinear_relation(cfg)

    def transpose(cfg, a, b):
        swap = {a: b, b: a}
        out = {}
        for (x, y), v in values(cfg).items():
            out[(swap.get(x, x), swap.get(y, y))] = v
        return five_point_from_lambdas(out)

    for a, b in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E")):
        assert abs(bilinear_relation(transpose(cfg, a, b))) == abs(base)


def test_degenerate_leading_coefficient_raises():
    rng = random.Random(11)
    while True:
        values = {p: F(rng.randint(-9, 9), rng.randint(1, 5)) for p in PAIRS if p != ED_PAIR}
        values[ED_PAIR] = F(0)
        cfg = five_point_from_lambdas(values)
        # leading coefficient of the flatness relation is -(S_ADB+S_BDC+S_CDA),
        # which is affine in lambda_AB with coefficient -1; solve it to zero
        s = partial(circulation, cfg)
        shift = s("A", "D", "B") + s("B", "D", "C") + s("C", "D", "A")
        tuned = dict(values)
        tuned[("A", "B")] = values[("A", "B")] + shift
        cfg = five_point_from_lambdas(tuned)
        s = partial(circulation, cfg)
        if s("A", "D", "B") + s("B", "D", "C") + s("C", "D", "A") == 0:
            break
    with pytest.raises(DegenerateGeometryError, match="leading"):
        flat_config(cfg)


def test_omega_ed_names_degenerate_tetrahedron():
    rng = random.Random(2)
    values = {p: F(rng.randint(-9, 9), rng.randint(1, 5)) for p in PAIRS}
    # S_ADE = lambda_AD + lambda_DE - lambda_AE vanishes, a denominator in ABED
    values[("A", "E")] = values[("A", "D")] + values[("D", "E")]
    cfg = five_point_from_lambdas(values)
    assert circulation(cfg, "A", "D", "E") == 0
    with pytest.raises(DegenerateGeometryError, match="zero circulation .* face AED of tetrahedron ABED"):
        omega_ed(cfg)


def test_missing_pair_rejected():
    with pytest.raises(ValueError, match="missing"):
        five_point_from_lambdas({("A", "B"): F(1)})


def test_vector_identities_on_random_points():
    rng = random.Random(21)
    passed = 0
    while passed < 100:
        pts = random_points(rng)
        try:
            assert verify_points(pts)
        except DegenerateGeometryError:
            continue
        passed += 1


def nondegenerate_points(seed):
    rng = random.Random(seed)
    while True:
        pts = random_points(rng)
        try:
            assert verify_points(pts)
        except DegenerateGeometryError:
            continue
        return pts


def test_vector_identities_reject_transposed_holonomy(monkeypatch):
    """Each curvature sample, checked alone, passes the true holonomy
    generator and rejects a transposed, a zeroed and a doubled one; at
    omega = 0 the generator is zero and none of them could fail."""
    pts = nondegenerate_points(8)
    real = geometry.holonomy_numerators

    def transposed(edge_vector, p, q):
        den, ((a, b), (c, d)) = real(edge_vector, p, q)
        return den, ((a, c), (b, d))

    def zeroed(edge_vector, p, q):
        return real(edge_vector, p, q)[0], ((0, 0), (0, 0))

    def doubled(edge_vector, p, q):
        den, rows = real(edge_vector, p, q)
        return den, tuple(tuple(2 * m for m in row) for row in rows)

    for w in pentagon.OMEGA_SAMPLES:
        monkeypatch.setattr(pentagon, "OMEGA_SAMPLES", (w,))
        monkeypatch.setattr(pentagon, "holonomy_numerators", real)
        assert verify_points(pts) is True
        for broken in (transposed, zeroed, doubled):
            monkeypatch.setattr(pentagon, "holonomy_numerators", broken)
            assert verify_points(pts) is False, (w, broken.__name__)


def test_flat_config_checks_its_result_without_asserts(monkeypatch):
    # the result check must survive python -O, so it raises, not asserts
    cfg = FivePointConfig.random(0)
    # the check reads the value stage on the solved table's angle terms
    monkeypatch.setattr(pentagon, "curvature_value", lambda d, terms: (1, 1))
    with pytest.raises(PentachainError, match="internal error: the solved lambda_ED"):
        flat_config(cfg)


def test_vector_identities_reject_wrong_curvature(monkeypatch):
    pts = nondegenerate_points(9)
    real = pentagon.curvature_value

    def plus_one(d, terms):
        value, den = real(d, terms)
        return value + den, den

    # the closure reads omega_ED from the value stage alone
    monkeypatch.setattr(pentagon, "curvature_value", plus_one)
    assert verify_points(pts) is False


def test_vector_identities_reject_wrong_cramer_step(monkeypatch):
    pts = nondegenerate_points(10)
    real = pentagon.cramer_step

    def negated(circulations, ed, ea, a):
        (x, y), d = real(circulations, ed, ea, a)
        return (-x, -y), d

    monkeypatch.setattr(pentagon, "cramer_step", negated)
    assert verify_points(pts) is False


def labelled_sides(*labels):
    """The ``(pair, sign)`` sides of the triangle through ``labels``."""
    directed = zip(labels, labels[1:] + labels[:1])
    return tuple(((a, b), 1) if a < b else ((b, a), -1) for a, b in directed)


def de_sign(labels):
    """1 if the triangle through ``labels`` runs D -> E, -1 if E -> D, else 0."""
    directed = set(zip(labels, labels[1:] + labels[:1]))
    return (("D", "E") in directed) - (("E", "D") in directed)


def test_closure_shifts_only_the_d_e_triangles(monkeypatch):
    # each step's triangles (S_EDa, S_Eba, S_EDb), with S_EDA and S_EDB the
    # A step's first and third, and the sign of D-E in each
    triangles = [(("E", "D", a), ("E", b, a), ("E", "D", b)) for a, b in pentagon.CRAMER_STEPS]
    assert (triangles[0][0], triangles[0][2]) == (("E", "D", "A"), ("E", "D", "B"))
    for ts, (_, _, sides, signs) in zip(triangles, pentagon._CRAMER, strict=True):
        assert sides == tuple(labelled_sides(*t) for t in ts)
        assert signs == tuple(de_sign(t) for t in ts)
    # the closure passes each step the circulations of the perturbed table,
    # and the value stage that table's angle terms, both shifted from the
    # flat table's
    real, passed = pentagon.cramer_step, []
    real_value, valued = pentagon.curvature_value, []

    def recording(circulations, *rest):
        passed.append(tuple(circulations))
        return real(circulations, *rest)

    def recording_value(d, terms):
        valued.append((d, terms))
        return real_value(d, terms)

    monkeypatch.setattr(pentagon, "cramer_step", recording)
    monkeypatch.setattr(pentagon, "curvature_value", recording_value)
    getrandbits = random.Random(subseed(0, "points")).getrandbits
    checked = 0
    while checked < 200:
        den, coords = geometry.draw_rationals(getrandbits, 10, 20, 7)
        pts = {lab: (coords[2 * i], coords[2 * i + 1]) for i, lab in enumerate(LABELS)}
        passed.clear()
        valued.clear()
        try:
            assert verify_vector_identities(pts, den)
        except DegenerateGeometryError:
            continue
        flat = {(a, b): pts[a][0] * pts[b][1] - pts[b][0] * pts[a][1] for a, b in PAIRS}
        closure, values_read = iter(passed[3:]), iter(valued)
        for delta in pentagon.CLOSURE_DELTAS:
            lam = {key: delta.denominator * n for key, n in flat.items()}
            lam[ED_PAIR] -= 2 * den * den * delta.numerator
            for ts in triangles:
                assert next(closure) == tuple(geometry.circulation(lam, labelled_sides(*t)) for t in ts)
            terms = geometry.angle_terms(lam, pentagon.ANGLES, pentagon._where)
            assert next(values_read) == (2 * den * den * delta.denominator, terms)
        assert next(closure, None) is None and next(values_read, None) is None
        checked += 1


def test_verify_pentagon_partial_is_the_gradient_entry(monkeypatch):
    # the one partial verify_pentagon reads is the D-E entry of the full
    # gradient of geometry.curvature on the same table, over its denominator
    real, read = pentagon.he_partial, []
    monkeypatch.setattr(pentagon, "he_partial", lambda d, terms: read.append(real(d, terms)) or read[-1])
    checked = 0
    for seed in range(60):
        cfg = FivePointConfig.random(seed)
        scaled = [five_point_from_lambdas({k: c * v for k, v in values(cfg).items()}) for c in (F(3), F(-7, 2))]
        bent = cfg.with_lambda_ed(-values(cfg)[ED_PAIR] + F(2, 5))  # off the flat value
        for c in [cfg, *scaled, bent]:
            read.clear()
            verify_pentagon(c)
            (partial_de, den), = read
            _, (grad_den, grad) = geometry.curvature(c.table, pentagon.ANGLES, pentagon._where)
            assert F(partial_de, den) == F(grad[ED_PAIR], grad_den), seed
            checked += 1
    assert checked >= 200


def cramer_circulations(cfg, a, b):
    """The circulations S_EDa, S_Eba, S_EDb that a Cramer step reads."""
    return [circulation(cfg, *t) for t in (("E", "D", a), ("E", b, a), ("E", "D", b))]


def test_cramer_step_needs_a_basis():
    pts = {"A": (F(2), F(2)), "B": (F(1), F(3)), "C": (F(-1), F(2)), "D": (F(1), F(1)), "E": (F(0), F(0))}
    flat = five_point_from_points(pts)
    with pytest.raises(DegenerateGeometryError, match="S_EDA vanishes"):
        pentagon.cramer_step(cramer_circulations(flat, "A", "B"), pts["D"], (pts["A"], 1), "A")
    with pytest.raises(DegenerateGeometryError, match="S_EDA vanishes"):
        verify_points(pts)


def test_zero_curvature_closure_is_identity():
    # with the planar lambda_ED (omega = 0) the composed relations return EA
    rng = random.Random(5)
    pts = random_points(rng)
    cfg = five_point_from_points(pts)
    s = partial(circulation, cfg)

    def vec(a, b):
        return (pts[b][0] - pts[a][0], pts[b][1] - pts[a][1])

    ed, ea = vec("E", "D"), vec("E", "A")
    eb = tuple((s("E", "B", "A") * ed[i] + s("E", "D", "B") * ea[i]) / s("E", "D", "A") for i in range(2))
    ec = tuple((s("E", "C", "B") * ed[i] + s("E", "D", "C") * eb[i]) / s("E", "D", "B") for i in range(2))
    ea_new = tuple((s("E", "A", "C") * ed[i] + s("E", "D", "A") * ec[i]) / s("E", "D", "C") for i in range(2))
    assert ea_new == ea


def test_cramer_step_is_projective():
    # E at the origin: EB = (S_EBA ED + S_EDB EA) / S_EDA, kept over S_EDA
    pts = {"A": (F(3), F(1)), "B": (F(1), F(2)), "C": (F(-1), F(2)), "D": (F(1), F(-1)), "E": (F(0), F(0))}
    flat = five_point_from_points(pts)
    (x, y), d = pentagon.cramer_step(cramer_circulations(flat, "A", "B"), pts["D"], (pts["A"], 1), "A")
    assert d == circulation(flat, "E", "D", "A") != 0
    assert (x / d, y / d) == pts["B"]
    # a uniform scale of the circulations and of the input denominator cancels
    scaled = [6 * s for s in cramer_circulations(flat, "A", "B")]
    (x2, y2), d2 = pentagon.cramer_step(scaled, pts["D"], ((6, 2), 2), "A")
    assert (x2 / d2, y2 / d2) == pts["B"]


# -- the Fraction verifier the integer one replaced, kept as its oracle ---


def fraction_cramer_step(s, ed, ea, a, b):
    s_eda = s("E", "D", a)
    if s_eda == 0:
        raise DegenerateGeometryError(f"S_ED{a} vanishes: E->D and E->{a} are not a basis")
    s_eba, s_edb = s("E", b, a), s("E", "D", b)
    return tuple((s_eba * ed[i] + s_edb * ea[i]) / s_eda for i in range(2))


def fraction_vector_identities(points):
    points = {k: (Fraction(x), Fraction(y)) for k, (x, y) in points.items()}
    ex, ey = points["E"]
    vec = {k: (x - ex, y - ey) for k, (x, y) in points.items()}  # E -> k
    ed, ea = vec["D"], vec["A"]

    flat = five_point_from_points(points)
    flat_s = partial(circulation, flat)
    if any(
        fraction_cramer_step(flat_s, ed, vec[a], a, b) != vec[b] for a, b in (("A", "B"), ("B", "C"), ("C", "A"))
    ):
        return False

    for delta in (Fraction(1), Fraction(-3, 7)):
        cfg = flat.with_lambda_ed(-values(flat)[ED_PAIR] + delta)
        s = partial(circulation, cfg)
        eb = fraction_cramer_step(s, ed, ea, "A", "B")
        ec = fraction_cramer_step(s, ed, eb, "B", "C")
        ea_new = fraction_cramer_step(s, ed, ec, "C", "A")
        w = omega_ed(cfg)
        s_eda = s("E", "D", "A")
        if ea_new != tuple(ea[i] + w * s_eda * ed[i] for i in range(2)):
            return False

    s_ed = {aux: flat_s("E", "D", aux) for aux in ("A", "B")}
    for w in pentagon.OMEGA_SAMPLES:
        (m00, m01), (m10, m11) = fraction_holonomy_generator(ed, w)
        images = [(ed, ed)] + [
            (vec[aux], tuple(vec[aux][i] + w * s_ed[aux] * ed[i] for i in range(2))) for aux in ("A", "B")
        ]
        if any((x + m00 * x + m01 * y, y + m10 * x + m11 * y) != image for (x, y), image in images):
            return False
    return True


def outcome(verifier, pts):
    try:
        return verifier(pts)
    except DegenerateGeometryError as exc:
        return str(exc)


def point_configs(numerator_bound, denominator_bound):
    coord = st.builds(F, st.integers(-numerator_bound, numerator_bound), st.integers(1, denominator_bound))
    return st.fixed_dictionaries({lab: st.tuples(coord, coord) for lab in LABELS})


@settings(max_examples=400, deadline=None)
@given(st.one_of(point_configs(2, 2), point_configs(20, 7)))
@example({"A": (F(2), F(2)), "B": (F(1), F(3)), "C": (F(-1), F(2)), "D": (F(1), F(1)), "E": (F(0), F(0))})
@example({"A": (F(1), F(0)), "B": (F(0), F(1)), "C": (F(-1), F(-1)), "D": (F(1), F(1)), "E": (F(0), F(0))})
def test_vector_identities_match_fraction_oracle(pts):
    assert outcome(verify_points, pts) == outcome(fraction_vector_identities, pts)


def test_vector_identities_oracle_sweep():
    # coordinates in [-2, 2] over [1, 2] hit every S_ED* degeneracy often
    rng = random.Random(16)
    seen = set()
    for i in range(600):
        bound, den = (2, 2) if i % 2 else (20, 7)

        def coord():
            return F(rng.randint(-bound, bound), rng.randint(1, den))

        pts = {lab: (coord(), coord()) for lab in LABELS}
        result = outcome(verify_points, pts)
        assert result == outcome(fraction_vector_identities, pts), pts
        seen.add(result if result is True else result[:6])
    assert seen == {True, "S_EDA ", "S_EDB ", "S_EDC "}


def test_random_configurations_are_pinned():
    # sha256 over the sorted values of FivePointConfig.random(i), i < 200, as
    # the Fraction solver drew and solved them
    h = hashlib.sha256()
    for i in range(200):
        h.update(repr(sorted(values(FivePointConfig.random(i)).items())).encode())
    assert h.hexdigest() == "ba59ede88ab6a9b09e87c47397c366217e2552a550130f39865670fbd08455f5"
