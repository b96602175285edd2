"""Acceptance suite: one test per criterion, each printing a pass line.

Every check is exact (rational equality, no tolerances); the stated
runtime budgets are asserted with wall-clock measurements.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import sys
import time
from fractions import Fraction

from pentachain import (
    FivePointConfig,
    assign_geometry,
    build_chain,
    check_acyclic,
    edge_values,
    invariant,
    load_builtin,
    minors,
    select_partition,
    subseed,
    tau,
    verify_chain,
    verify_pentagon,
    verify_vector_identities,
    walk_states,
)
from pentachain import cli
from reference import (
    bilinear_relation,
    entry,
    face_values,
    fixed_sphere_geometry,
    integer_points,
    opposite_edge_pairs,
    sphere_paper_partition,
    tet0_edges,
)

F = Fraction


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}", file=sys.stderr)


def run_cli_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"cli exited {code}"
    return json.loads(out)


def test_criterion_1_sphere_value(capsys):
    start = time.perf_counter()
    result = run_cli_json(capsys, ["invariant", "--builtin", "s3", "--json"])
    elapsed = time.perf_counter() - start
    assert result["abs_invariant"] == "1"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"invariant --builtin s3 gives abs_invariant 1 in {elapsed * 1000:.0f} ms")


def test_criterion_2_projective_space_value(capsys):
    start = time.perf_counter()
    result = run_cli_json(capsys, ["invariant", "--builtin", "rp3", "--json"])
    elapsed = time.perf_counter() - start
    assert result["abs_invariant"] == "64"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, f"invariant --builtin rp3 gives abs_invariant 64 in {elapsed * 1000:.0f} ms")


def test_criterion_3_intermediate_ratios(certified_chain):
    s3 = load_builtin("s3")
    g = fixed_sphere_geometry()
    c = certified_chain(s3, g)
    p = sphere_paper_partition(c)
    m1, m2, m3, m4, m5 = minors(c, p)
    assert abs(m1 / m2) == 8
    product = F(1)
    for s in face_values(s3, edge_values(s3, g)):
        product *= s
    assert abs(m5 / m4) == abs(F(4) / product)
    report(3, "sphere basis ratios |m1/m2| = 8 and |m5/m4| = 4/|S_ABC S_ABD S_ACD S_BCD|")


def test_criterion_4_derivative_minor_structure(certified_chain):
    rp3 = load_builtin("rp3")
    g = assign_geometry(rp3, seed=9)
    lam = edge_values(rp3, g)
    c = certified_chain(rp3, g)
    unprimed = tet0_edges(rp3)
    pairs = dict(opposite_edge_pairs(rp3))
    pairs.update({b: a for a, b in pairs.items()})
    # |d(omega_b)/d(lambda_f)| = 2/|S_ABC * S_ABD| for the A-B edge of
    # tetrahedron 0 against its opposite C-D edge
    b = rp3.edge_class(0, 0, 1)[0]
    f = rp3.edge_class(0, 2, 3)[0]
    circulations = face_values(rp3, lam)
    s_abc = abs(circulations[rp3.face_class(0, 3)])
    s_abd = abs(circulations[rp3.face_class(0, 2)])
    assert abs(entry(c.f3, b, f)) == 2 / (s_abc * s_abd)
    # the six opposite-pair entries are the only nonzero entries of the
    # unprimed 6x6 minor
    nonzero = 0
    for a in unprimed:
        for bb in unprimed:
            value = entry(c.f3, a, bb)
            if pairs[a] == bb:
                assert value != 0
                nonzero += 1
            else:
                assert value == 0
    assert nonzero == 6
    report(4, "rp3 derivative |dw_b/dl_f| = 2/|S_ABC S_ABD|; designated 6x6 minor has exactly the six opposite-pair entries")


def test_criterion_5_chain_property_50_seeds():
    for name in ("s3", "rp3"):
        tri = load_builtin(name)
        for i in range(50):
            g = assign_geometry(tri, subseed(1000, name, i))
            c = build_chain(tri, g)
            ok, witness = verify_chain(c)
            assert ok, f"{name} seed {i}: {witness}"
    report(5, "all four compositions vanish exactly on both builtins x 50 geometry seeds")


def test_criterion_6_acyclicity_ranks(certified_chain):
    expected = {"s3": (6, 6, 0, 6, 6), "rp3": (6, 6, 6, 6, 6)}
    for name, want in expected.items():
        tri = load_builtin(name)
        c = certified_chain(tri, assign_geometry(tri, seed=3))
        ranks = check_acyclic(c)
        assert ranks == want
        v, e = len(tri.vertices), len(tri.edges)
        assert ranks == (6, 3 * v - 6, e - 3 * v + 6, 3 * v - 6, 6)
    report(6, "rank patterns (6,6,0,6,6) for s3 and (6,6,6,6,6) for rp3")


def test_criterion_7_pentagon_identity():
    start = time.perf_counter()
    for seed in range(100):
        cfg = FivePointConfig.random(seed)
        lhs, rhs, equal = verify_pentagon(cfg)
        assert equal, (seed, lhs, rhs)
        assert bilinear_relation(cfg) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(7, f"pentagon identity and bilinear relation exact on 100 seeded configs in {elapsed:.2f} s")


def test_criterion_8_pachner_invariance():
    start = time.perf_counter()
    expected = {"s3": F(1), "rp3": F(64)}
    for name, want in expected.items():
        tri = load_builtin(name)
        assert invariant(tri, seed=0).abs_invariant == want
        for w in range(5):
            walk_seed = subseed(500, name, w)
            step = 0
            for site, state in walk_states(tri, 20, walk_seed, max_tets=12):
                step += 1
                if step % 5 and step != 20:
                    continue
                value = invariant(state, seed=subseed(walk_seed, step)).abs_invariant
                assert value == want, (name, w, step, site, value)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(8, f"5 walks x 20 moves per builtin preserve the invariant exactly in {elapsed:.1f} s")


def test_criterion_9_gauge_independence(certified_chain):
    for name, want in (("s3", F(1)), ("rp3", F(64))):
        tri = load_builtin(name)
        for seed in range(10):
            assert invariant(tri, seed=seed).abs_invariant == want
        g = assign_geometry(tri, seed=123)
        c = certified_chain(tri, g)
        partitions = [select_partition(c, seed=s)[0] for s in range(10)]
        assert len(set(partitions)) >= 2
        taus = [tau(c, p, minors(c, p)) for p in partitions]
        assert len({abs(t) for t in taus}) == 1
        assert all(t in (taus[0], -taus[0]) for t in taus)
    report(9, "invariant constant over 10 geometry seeds and 10 partition seeds; tau varies only in sign")


def test_criterion_10_local_identity_suite():
    import random

    rng = random.Random(77)
    passed = 0
    while passed < 100:
        pts = {
            lab: (F(rng.randint(-20, 20), rng.randint(1, 7)), F(rng.randint(-20, 20), rng.randint(1, 7)))
            for lab in ("A", "B", "C", "D", "E")
        }
        try:
            assert verify_vector_identities(*integer_points(pts))
        except Exception as exc:
            from pentachain import DegenerateGeometryError

            if isinstance(exc, DegenerateGeometryError):
                continue
            raise
        passed += 1
    report(10, "vector identity, closure formula and holonomy independence exact on 100 planar configs")
