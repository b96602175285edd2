import random
from fractions import Fraction

import pytest

from pentachain import (
    DegenerateGeometryError,
    FivePointConfig,
    PentachainError,
    solve_flat_lambda,
    verify_pentagon,
    verify_vector_identities,
)
from pentachain import geometry, pentagon
from pentachain.pentagon import ED_PAIR, LABELS, PAIRS, bilinear_relation, omega_ed

F = Fraction


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

    monkeypatch.setattr(pentagon, "solve_flat_lambda", always_degenerate)
    with pytest.raises(DegenerateGeometryError):
        FivePointConfig.random(0)
    assert len(draws) == pentagon.SAMPLE_DRAWS
    assert len(set(tuple(sorted(d.lam.items())) for d in draws)) == pentagon.SAMPLE_DRAWS


def test_planar_configuration_is_flat():
    rng = random.Random(33)
    for _ in range(20):
        pts = random_points(rng)
        cfg = FivePointConfig.from_points(pts)
        if bilinear_relation(cfg) != 0:
            continue  # points hit a degeneracy guard elsewhere; flatness is the claim
        stored = -cfg.lam[ED_PAIR]  # lambda_ED induced by the points
        forgotten = cfg.with_lambda_ed(F(0))
        try:
            solved = solve_flat_lambda(forgotten)
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


def test_scaled_configuration_stays_equal():
    cfg = FivePointConfig.random(9)
    for c in (F(3), F(-7, 2)):
        scaled = FivePointConfig({k: c * v for k, v in cfg.lam.items()})
        lhs, rhs, equal = verify_pentagon(scaled)
        assert equal
        assert lhs == c * verify_pentagon(cfg)[0]


def test_bilinear_relation_under_transpositions():
    rng = random.Random(4)
    values = {p: F(rng.randint(-9, 9), rng.randint(1, 5)) for p in PAIRS}
    cfg = FivePointConfig.from_lambdas(values)
    base = bilinear_relation(cfg)

    def transpose(cfg, a, b):
        swap = {a: b, b: a}
        out = {}
        for (x, y), v in cfg.lam.items():
            out[(swap.get(x, x), swap.get(y, y))] = v
        return FivePointConfig.from_lambdas(out)

    for a, b in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E")):
        assert abs(bilinear_relation(transpose(cfg, a, b))) == abs(base)


def test_degenerate_leading_coefficient_raises():
    rng = random.Random(11)
    while True:
        values = {p: F(rng.randint(-9, 9), rng.randint(1, 5)) for p in PAIRS if p != ED_PAIR}
        values[ED_PAIR] = F(0)
        cfg = FivePointConfig.from_lambdas(values)
        # leading coefficient of the flatness relation is -(S_ADB+S_BDC+S_CDA),
        # which is affine in lambda_AB with coefficient -1; solve it to zero
        s = cfg.s
        shift = s("A", "D", "B") + s("B", "D", "C") + s("C", "D", "A")
        tuned = dict(values)
        tuned[("A", "B")] = values[("A", "B")] + shift
        cfg = FivePointConfig.from_lambdas(tuned)
        s = cfg.s
        if s("A", "D", "B") + s("B", "D", "C") + s("C", "D", "A") == 0:
            break
    with pytest.raises(DegenerateGeometryError, match="leading"):
        solve_flat_lambda(cfg)


def test_omega_ed_names_degenerate_tetrahedron():
    rng = random.Random(2)
    values = {p: F(rng.randint(-9, 9), rng.randint(1, 5)) for p in PAIRS}
    # S_ADE = lambda_AD + lambda_DE - lambda_AE vanishes, a denominator in ABED
    values[("A", "E")] = values[("A", "D")] + values[("D", "E")]
    cfg = FivePointConfig.from_lambdas(values)
    assert cfg.s("A", "D", "E") == 0
    with pytest.raises(DegenerateGeometryError, match="zero circulation .* face AED of tetrahedron ABED"):
        omega_ed(cfg)


def test_missing_pair_rejected():
    with pytest.raises(ValueError, match="missing"):
        FivePointConfig.from_lambdas({("A", "B"): F(1)})


def test_vector_identities_on_random_points():
    rng = random.Random(21)
    passed = 0
    while passed < 100:
        pts = random_points(rng)
        try:
            assert verify_vector_identities(pts)
        except DegenerateGeometryError:
            continue
        passed += 1


def nondegenerate_points(seed):
    rng = random.Random(seed)
    while True:
        pts = random_points(rng)
        try:
            assert verify_vector_identities(pts)
        except DegenerateGeometryError:
            continue
        return pts


def test_vector_identities_reject_transposed_holonomy(monkeypatch):
    pts = nondegenerate_points(8)
    real = geometry.holonomy_generator

    def transposed(edge_vector, domega):
        (a, b), (c, d) = real(edge_vector, domega)
        return (a, c), (b, d)

    monkeypatch.setattr(pentagon, "holonomy_generator", transposed)
    assert verify_vector_identities(pts) is False


def test_solve_flat_lambda_checks_its_result_without_asserts(monkeypatch):
    # the result check must survive python -O, so it raises, not asserts
    cfg = FivePointConfig.random(0)
    monkeypatch.setattr(pentagon, "omega_ed", lambda cfg: F(1))
    with pytest.raises(PentachainError, match="internal error: the solved lambda_ED"):
        solve_flat_lambda(cfg)


def test_vector_identities_reject_wrong_curvature(monkeypatch):
    pts = nondegenerate_points(9)
    real = pentagon.omega_ed
    monkeypatch.setattr(pentagon, "omega_ed", lambda cfg: real(cfg) + 1)
    assert verify_vector_identities(pts) is False


def test_vector_identities_reject_wrong_cramer_step(monkeypatch):
    pts = nondegenerate_points(10)
    real = pentagon.cramer_step
    monkeypatch.setattr(pentagon, "cramer_step", lambda s, ed, ea, a, b: tuple(-v for v in real(s, ed, ea, a, b)))
    assert verify_vector_identities(pts) is False


def test_cramer_step_needs_a_basis():
    pts = {"A": (F(2), F(2)), "B": (F(1), F(3)), "C": (F(-1), F(2)), "D": (F(1), F(1)), "E": (F(0), F(0))}
    flat = FivePointConfig.from_points(pts)
    with pytest.raises(DegenerateGeometryError, match="S_EDA vanishes"):
        pentagon.cramer_step(flat.s, pts["D"], pts["A"], "A", "B")
    with pytest.raises(DegenerateGeometryError, match="S_EDA vanishes"):
        verify_vector_identities(pts)


def test_zero_curvature_closure_is_identity():
    # with the planar lambda_ED (omega = 0) the composed relations return EA
    rng = random.Random(5)
    pts = random_points(rng)
    cfg = FivePointConfig.from_points(pts)
    s = cfg.s

    def vec(a, b):
        return (pts[b][0] - pts[a][0], pts[b][1] - pts[a][1])

    ed, ea = vec("E", "D"), vec("E", "A")
    eb = tuple((s("E", "B", "A") * ed[i] + s("E", "D", "B") * ea[i]) / s("E", "D", "A") for i in range(2))
    ec = tuple((s("E", "C", "B") * ed[i] + s("E", "D", "C") * eb[i]) / s("E", "D", "B") for i in range(2))
    ea_new = tuple((s("E", "A", "C") * ed[i] + s("E", "D", "A") * ec[i]) / s("E", "D", "C") for i in range(2))
    assert ea_new == ea
