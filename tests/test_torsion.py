import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pentachain import (
    BasisPartition,
    NotAcyclicError,
    TorsionError,
    apply_move,
    assign_geometry,
    build_chain,
    edge_values,
    enumerate_sites,
    invariant,
    load_builtin,
    minors,
    random_walk,
    select_partition,
    tau,
)
from pentachain import chain, torsion
from pentachain.exact import RatMatrix, det, independent_rows, rank
from pentachain.geometry import parse_geometry, subseed
from pentachain.triangulation import Triangulation
from reference import (
    SPHERE_C1_ROWS,
    coordinates,
    face_values,
    first_homology,
    fraction_det,
    geometry_of,
    label_sort_sign,
    laplacian_dets,
    laplacian_tau_squared,
    positions,
    projective_paper_partition,
    rat_matrix,
    sphere_paper_partition,
    subdivided,
    tet0_edges,
)
from test_geometry import prime_denominator_geometry_text

F = Fraction


def test_sphere_reference_values(s3, sphere_geometry):
    result = invariant(s3, seed=0, geometry=sphere_geometry)
    assert abs(result.tau) == 512
    assert result.face_product == F(1, 16)
    assert result.abs_invariant == 1
    assert result.ranks == (6, 6, 0, 6, 6)
    assert result.vertex_count == 4


def test_sphere_paper_partition_ratios(s3, sphere_geometry, certified_chain):
    c = certified_chain(s3, sphere_geometry)
    p = sphere_paper_partition(c)
    assert tuple(chain.basis_label(1, i) for i in p.c1_rows) == SPHERE_C1_ROWS
    m1, m2, m3, m4, m5 = minors(c, p)
    assert abs(m1 / m2) == 8
    assert m3 == 1  # empty minor
    lam = edge_values(s3, sphere_geometry)
    s_product = F(1)
    for s in face_values(s3, lam):
        s_product *= s
    assert abs(m5 / m4) == abs(4 / s_product)
    assert abs(tau(c, p, minors(c, p))) == 512


def test_sphere_split_sizes_are_forced(s3, sphere_geometry, certified_chain):
    c = certified_chain(s3, sphere_geometry)
    p, _ = select_partition(c, seed=0)
    assert len(p.c2_rows) == 6 and len(p.c3_rows) == 0
    k1, k2, k3, k4 = p.cols(c)
    assert len(k2) == 0 and len(k3) == 6


def test_projective_space_value(rp3):
    for seed in (1, 2, 3):
        result = invariant(rp3, seed=seed)
        assert result.abs_invariant == 64
        assert result.ranks == (6, 6, 6, 6, 6)


def test_projective_paper_partition(rp3, rp3_geometry, certified_chain):
    c = certified_chain(rp3, rp3_geometry)
    p = projective_paper_partition(c, rp3)
    unprimed = set(tet0_edges(rp3))
    assert {chain.basis_label(2, i) for i in p.c2_rows} == {f"dl_e{e}" for e in range(12) if e not in unprimed}
    assert {chain.basis_label(3, i) for i in p.c3_rows} == {f"dw_e{e}" for e in unprimed}
    m = minors(c, p)
    lam = edge_values(rp3, rp3_geometry)
    s_cubed = F(1)
    for k in range(4):
        face = rp3.face_class(0, k)
        s_cubed *= abs(face_values(rp3, lam)[face]) ** 3
    assert abs(m[2]) == 64 / s_cubed
    # the partition reproduces the same torsion magnitude as any other
    other = select_partition(c, seed=5)[0]
    assert abs(tau(c, p, m)) == abs(tau(c, other, minors(c, other)))


def test_partition_independence(rp3, rp3_geometry, certified_chain):
    c = certified_chain(rp3, rp3_geometry)
    partitions = [select_partition(c, seed=s)[0] for s in range(10)]
    assert len(set(partitions)) >= 2
    values = {abs(tau(c, p, minors(c, p))) for p in partitions}
    assert len(values) == 1


def grown(tri, size, seed):
    """Grow by seeded 1->4 and 2->3 moves, skipping results with a loop edge."""
    rng = random.Random(seed)
    while tri.size < size:
        kind = rng.choice(("1->4", "2->3") if size - tri.size >= 3 else ("2->3",))
        candidate = apply_move(tri, rng.choice(enumerate_sites(tri, kind)))
        if all(e.tail != e.head for e in candidate.edges):
            tri = candidate
    return tri


def test_pass_minors_match_reference(s3, rp3, certified_chain):
    big = grown(rp3, 20, seed=3)
    assert big.size == 20
    for tri in (s3, rp3, big):
        c = certified_chain(tri, assign_geometry(tri, seed=11))
        taus = set()
        for seed in (None, *range(10)):
            p, m = select_partition(c, seed)
            # the minors read off the pass's eliminations are the
            # reference minors of its partition
            assert m == minors(c, p)
            taus.add(tau(c, p, minors(c, p)))
        # every partition the pass picks gives the same signed torsion
        assert len(taus) == 1


def bottom_up_partition(c, seed=None):
    """The greedy left-to-right pass that the meet-in-the-middle pass
    replaced, kept as an oracle: each stage a row basis of f_k on the
    positions the stage before left free, closing with the det of f5 on K4."""
    rng = None if seed is None else random.Random(seed)
    picked, cols = [], range(c.f1.ncols)
    for m in (c.f1, c.f2, c.f3, c.f4):
        order = list(range(m.nrows))
        if rng is not None:
            rng.shuffle(order)
        rows, value = independent_rows(m.block(order, cols))
        assert value
        rows = [order[i] for i in rows]
        picked.append(tuple(rows))
        cols = [j for j in range(m.nrows) if j not in set(rows)]
    assert det(c.f5.block(range(c.f5.nrows), cols))
    return BasisPartition(*picked)


FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"


def test_meet_pass_matches_bottom_up_oracle(s3, rp3, certified_chain):
    """The pass's five minors are ``minors(c, p)`` of its partition, and
    its tau is the bottom-up oracle's, at partition seeds None and 0-9, on
    the builtins, a grown rp3, 20 walk states, the 8 ladder fixtures and
    three subdivided inputs."""
    walked = [random_walk(load_builtin(name), steps, seed, 12)
              for name in ("s3", "rp3") for steps, seed in zip(range(4, 14), range(100, 110))]
    states = [s3, rp3, grown(rp3, 20, seed=3), Triangulation.from_file(FIXTURES / "rp3_t40.tri"), *walked]
    states += [load_input(path.stem) for path in sorted(FIXTURES.glob("*.tri")) if path.stem != "rp3_t40"]
    states += [subdivided(name) for name in ("s3'", "rp3'", "L(7,2)'")]
    assert len(walked) == 20 and len(states) == 34
    for n, tri in enumerate(states):
        c = certified_chain(tri, assign_geometry(tri, seed=n))
        for seed in (None, *range(10)):
            p, m = select_partition(c, seed)
            assert m == minors(c, p)
            oracle = bottom_up_partition(c, seed)
            assert tau(c, p, m) == tau(c, oracle, minors(c, oracle))
            # R3 and R4 are the complements of K3 and K4 in ascending order
            for rows in (p.c3_rows, p.c4_rows):
                assert list(rows) == sorted(rows)


def test_invariant_checks_only_free_columns(monkeypatch):
    """A successful invariant checks the chain property once, on the
    partition's free columns, and never runs the full check."""
    calls = []
    real = chain.verify_chain

    def recorded(c, free_cols=None):
        calls.append(free_cols)
        return real(c, free_cols)

    monkeypatch.setattr(chain, "verify_chain", recorded)
    tri = Triangulation.from_file(FIXTURES / "rp3_t80.tri")
    assert invariant(tri, seed=1).abs_invariant == 64
    assert len(calls) == 1 and calls[0] is not None


def count_calls(monkeypatch, name):
    """Record the positional arguments of each call of ``torsion.<name>``
    through a pass-through wrapper."""
    calls = []
    original = getattr(torsion, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(torsion, name, wrapper)
    return calls


def load_input(name):
    """A builtin, a ladder fixture or a ``reference.subdivided`` input."""
    if name in ("s3", "rp3"):
        return load_builtin(name)
    if name.endswith("'"):
        return subdivided(name)
    return Triangulation.from_file(FIXTURES / f"{name}.tri")


def test_invariant_runs_one_exact_det(monkeypatch):
    """The pass's one elimination is the det of the f3 block: on s3, rp3,
    rp3_t80 and s3' at geometry seeds 0-2, an ``invariant`` call and a
    seeded pass (None, 0-9) each call ``det`` once, on f3's block, and
    ``independent_rows`` never; ``invariant`` never recomputes the
    minors."""

    def no_minors(*args, **kwargs):
        raise AssertionError("invariant() recomputed the minors")

    rows = count_calls(monkeypatch, "independent_rows")
    dets = count_calls(monkeypatch, "det")
    monkeypatch.setattr(torsion, "minors", no_minors)
    for name in ("s3", "rp3", "rp3_t80", "s3'"):
        tri = load_input(name)
        for seed in range(3):
            c = build_chain(tri, assign_geometry(tri, subseed(seed, "geometry")))
            f3_rows = c.edge_count - 3 * c.vertex_count + 6
            dets.clear()
            invariant(tri, seed=seed)
            assert [args[0].nrows for args in dets] == [f3_rows]
            for partition_seed in (None, *range(10)):
                dets.clear()
                select_partition(c, partition_seed)
                assert [args[0].nrows for args in dets] == [f3_rows], (name, seed, partition_seed)
    assert rows == []


def test_invariant_runs_one_exact_det_through_the_root(monkeypatch):
    """With 3V > 12 candidates R1 still comes from the 12 f1 rows at its
    shelling root's corners, tetrahedron 0's: the dk rows of three of
    them, then three of their dx and dy rows, read with no elimination;
    the one ``det`` is f3's."""
    rows = count_calls(monkeypatch, "independent_rows")
    dets = count_calls(monkeypatch, "det")
    passes = []
    real = torsion.select_partition
    monkeypatch.setattr(torsion, "select_partition", lambda c, seed=None: passes.append(real(c, seed)) or passes[-1])
    tri = Triangulation.from_file(FIXTURES / "rp3_t80.tri")
    assert invariant(tri, seed=1).abs_invariant == 64
    assert rows == [] and len(dets) == 1 and len(passes) == 1
    c1_rows = passes[0][0].c1_rows
    inner = [i // 3 for i in c1_rows[:3]]
    assert 12 < 3 * len(tri.vertices) and len(set(inner)) == 3 and set(inner) < set(tri.shelling(0)[0])
    assert [i % 3 for i in c1_rows[:3]] == [2, 2, 2]
    assert all(i // 3 in inner and i % 3 != 2 for i in c1_rows[3:])


def shelling_of(c, seed):
    """The two shellings a seeded pass reads: a from the root that
    ``Random(seed)`` draws first (tetrahedron 0 without a seed), b from
    the last tetrahedron a reaches."""
    tri = c.triangulation
    a = tri.shelling(0 if seed is None else random.Random(seed).randrange(tri.size))
    return a, tri.shelling(a[3])


def corner_positions(corners):
    """The positions 3v..3v+2 of the corner classes v in C1 or C4."""
    return sorted(3 * v + r for v in corners for r in range(3))


def apex_of(corners, picked):
    """The apex that the apex rule's pick ``picked`` (positions in C1 or
    C4) leaves out: the pick holds 3u + 2 for the three other corners u,
    and three of their other positions."""
    inner = {j // 3 for j in picked}
    assert len(picked) == 6 and len(inner) == 3 and inner < set(corners)
    assert all(3 * u + 2 in picked for u in inner)
    (apex,) = set(corners) - inner
    return apex


def grouped_edges(c, shelling, apex):
    """A shelling's edges as the pass groups them: the root edges that miss
    ``apex``, the apex's root edges, then the later vertices' edges."""
    ends = c.triangulation.edges
    root = [(apex in (ends[e].tail, ends[e].head), e) for e in shelling[1]]
    return [e for _, e in sorted(root, key=lambda t: t[0])] + [e for _, own in shelling[2] for e in own]


@pytest.mark.parametrize("seed", [None, *range(10)])
def test_corner_stages_never_fall_back(certified_chain, monkeypatch, seed):
    """On rp3_t80 the apex rule picks R1 among the 12 rows of f1 at
    shelling a's root corners and K4 among the 12 columns of f5 at b's,
    with no elimination: R1 is three corners' dk rows, then three of their
    dx and dy rows; K4 holds three corners' dg3 columns and three of their
    other columns.  R2 is a's edges, the root edges that
    miss a's apex first, then the apex's, then the later ones in shelling
    order, and K3 b's edges; the one ``det`` is f3's."""
    tri = Triangulation.from_file(FIXTURES / "rp3_t80.tri")
    c = certified_chain(tri, assign_geometry(tri, seed=1))
    rows = count_calls(monkeypatch, "independent_rows")
    dets = count_calls(monkeypatch, "det")
    p, m = select_partition(c, seed)
    a, b = shelling_of(c, seed)
    assert rows == [] and len(dets) == 1
    apex = apex_of(a[0], p.c1_rows)
    assert [i % 3 for i in p.c1_rows[:3]] == [2, 2, 2]
    assert {chain.basis_label(1, i)[:2] for i in p.c1_rows[3:]} <= {"dx", "dy"}
    assert list(p.c2_rows) == grouped_edges(c, a, apex)
    apex_of(b[0], p.cols(c)[3])
    k3 = {e for e in (*b[1], *(e for _, own in b[2] for e in own))}
    assert set(p.cols(c)[2]) == k3
    assert m == minors(c, p)


@pytest.mark.parametrize("inner", [
    # b's inner corners share an x: the dg3 Vandermonde vanishes
    ((1, 2), (1, -3), (4, 1)),
    # they share an x and a y, three corners of a unit square
    ((0, 0), (1, 0), (0, 1)),
], ids=["shared-x", "shared-x-and-y"])
def test_f5_fallback_keeps_the_apex(s3, certified_chain, monkeypatch, inner):
    """With b's apex (slot 0, unseeded) at (3, 5) and its inner corners
    planted so that two share an x, the dg3 Vandermonde vanishes and K4
    comes from the Schur fallback at the same apex."""
    a = s3.shelling(0)
    b = s3.shelling(a[3])
    points = dict(zip(b[0], ((3, 5), *inner)))
    x, y = zip(*(points[v] for v in range(4)))
    c = certified_chain(s3, geometry_of(x, y, (0, 1, 0, -1)))
    assert_schur_fallback(c, None, monkeypatch)


def test_unit_square_takes_the_schur_fallback(s3, sphere_geometry, certified_chain, monkeypatch):
    """At the corners of a unit square any three vertex classes repeat an
    x, so b's dg3 Vandermonde vanishes whatever the apex, and every pass,
    unseeded and at seeds 0-9, takes the Schur fallback; the f1 side still
    needs none."""
    c = certified_chain(s3, sphere_geometry)
    for seed in (None, *range(10)):
        assert_schur_fallback(c, seed, monkeypatch)
    assert abs(invariant(s3, geometry=sphere_geometry).tau) == 512


def assert_schur_fallback(c, seed, monkeypatch):
    """The pass at ``seed`` took the Schur fallback at b's root: one
    ``independent_rows`` call, on a 6x3 block; K4 inside three of b's
    corners, the apex's inner ones (b[0][1:] without a seed), and all three
    positions of one of them; the dets are the fallback's 6x6 and f3's, so
    m4 is the product of 3x3 blocks; the minors are ``minors(c, p)`` and
    tau the bottom-up oracle's."""
    rows = count_calls(monkeypatch, "independent_rows")
    dets = count_calls(monkeypatch, "det")
    p, m = select_partition(c, seed)
    monkeypatch.undo()
    b = shelling_of(c, seed)[1]
    assert [(args[0].nrows, args[0].ncols) for args in rows] == [(6, 3)]
    assert [args[0].nrows for args in dets] == [6, len(p.c3_rows)]
    k4 = p.cols(c)[3]
    inner = {j // 3 for j in k4}
    assert len(inner) == 3 and inner < set(b[0])
    if seed is None:
        assert inner == set(b[0][1:])
    assert any({3 * u, 3 * u + 1, 3 * u + 2} <= set(k4) for u in inner)
    assert m == minors(c, p)
    oracle = bottom_up_partition(c, seed)
    assert tau(c, p, m) == tau(c, oracle, minors(c, oracle))


def unit_square_root_geometry(tri, seed):
    """The sampled geometry of ``tri`` at ``seed`` with the corner classes
    of the unseeded pass's b root moved to (0, 0), (1, 0), (0, 1), (1, 1)."""
    a = tri.shelling(0)
    x, y, kappa = (list(values) for values in coordinates(assign_geometry(tri, seed)))
    for v, (px, py) in zip(tri.shelling(a[3])[0], product((0, 1), repeat=2)):
        x[v], y[v] = F(px), F(py)
    return geometry_of(x, y, kappa)


def test_subdivided_unit_square_root_keeps_the_grouped_m4(certified_chain, monkeypatch):
    """rp3' (40 vertex classes) with b's root corners at a unit square:
    the fallback keeps the apex, so m4 is a product of 3x3 blocks, not
    the det of the whole 114x114 f4 block, and the pass's only dets are
    the fallback's 6x6 and f3's 118x118."""
    tri = subdivided("rp3'")
    c = certified_chain(tri, unit_square_root_geometry(tri, 0))
    assert c.f3.nrows - 3 * c.vertex_count + 6 == 118
    assert_schur_fallback(c, None, monkeypatch)


def f1_root_split(c, seed):
    """The apex rule's pick at shelling a's root on f1, as the pass with
    ``seed`` runs it: the same Random draws the root, then the apex, then
    shuffles the candidates; None when it finds none."""
    rng = None if seed is None else random.Random(seed)
    tri = c.triangulation
    a = tri.shelling(0 if rng is None else rng.randrange(tri.size))
    return torsion._root_split(a[0], torsion._F1_ORDER, lambda i, j: c.f1.numerators[i].get(j, 0), rng)[2]


def no_three_collinear(points):
    xs, ys = zip(*points)
    return all(doubled_area(xs, ys, *trio) for trio in combinations(range(len(points)), 3))


COORDINATE = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# four plane points with no three on a line: from a small grid, so that
# they often share an x or a y, or at the corners of an axis-parallel
# rectangle, where any three share both
FOUR_POINTS = st.one_of(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=4, max_size=4, unique=True),
    st.tuples(COORDINATE, COORDINATE, COORDINATE, COORDINATE)
    .filter(lambda t: t[0] != t[1] and t[2] != t[3])
    .flatmap(lambda t: st.permutations(list(product(t[:2], t[2:])))),
).filter(no_three_collinear)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(("s3", "rp3")),
    points=st.one_of(st.none(), FOUR_POINTS),
    kappa=st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    geometry_seed=st.integers(0, 2**32),
    partition_seed=st.integers(0, 2**32),
)
def test_f1_root_always_has_an_apex(name, points, kappa, geometry_seed, partition_seed):
    """On a certified chain the apex rule never fails at a's root: its four
    corner classes are distinct, the inner corners span a face of nonzero
    area, so their dk block is nonsingular, and three points off a line
    give their dx and dy rows rank 3.  s3 and rp3 have four vertex classes,
    placed by the sampler or at four points with no three on a line; the
    pass's R1 is the rule's pick, unseeded and seeded."""
    tri = load_builtin(name)
    if points is None:
        g = assign_geometry(tri, geometry_seed)
    else:
        g = geometry_of(*zip(*points), kappa)
    c = build_chain(tri, g)
    for seed in (None, partition_seed):
        split = f1_root_split(c, seed)
        assert split is not None
        assert select_partition(c, seed)[0].c1_rows == tuple(split)


def three_points_off_a_line(points):
    (x0, y0), (x1, y1), (x2, y2) = points
    return (x1 - x0) * (y2 - y0) != (y1 - y0) * (x2 - x0)


# three plane points off a line: from a small grid, three corners of an
# axis-parallel rectangle (the unit square among them), or sampled rationals
THREE_POINTS = st.one_of(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=3, unique=True),
    st.tuples(COORDINATE, COORDINATE, COORDINATE, COORDINATE)
    .filter(lambda t: t[0] != t[1] and t[2] != t[3])
    .flatmap(lambda t: st.permutations(list(product(t[:2], t[2:]))))
    .map(lambda corners: corners[:3]),
    st.just([(0, 0), (1, 0), (0, 1)]),
    st.lists(st.tuples(COORDINATE, COORDINATE), min_size=3, max_size=3),
).filter(three_points_off_a_line)


@settings(max_examples=150, deadline=None)
@given(points=THREE_POINTS, seed=st.one_of(st.none(), st.integers(0, 2**32)))
def test_f5_columns_at_three_points_have_rank_6(points, seed):
    """The rank-6 lemma: the nine f5 columns at three points off a line
    have rank 6, so the Schur complements of the other two points' six
    columns against the first's, on db4..db6 and in Fractions, have rank
    3, and the fallback picks a K4 there with m5 its nonzero det.  The
    three points are vertex classes 0-2 of s3, the fourth sits on a
    parabola, off every line through two of them."""
    fourth = next(q for q in ((t, t * t) for t in range(10, 17))
                  if all(three_points_off_a_line([*pair, q]) for pair in combinations(points, 2)))
    x, y = zip(*points, fourth)
    f5 = build_chain(load_builtin("s3"), geometry_of(x, y, (0, 0, 0, 0))).f5
    assert rank(f5.block(range(6), range(9))) == 6
    columns = list(zip(*(row[:9] for row in f5.entries)))
    # the first point's columns are the identity on db1..db3
    schur = [[column[i] - sum(columns[j][i] * column[j] for j in range(3)) for i in range(3, 6)]
             for column in columns[3:]]
    assert rank(rat_matrix(schur, 3)) == 3
    k4, m5 = torsion._schur_fallback(f5, (0, 1, 2), None if seed is None else random.Random(seed))
    assert k4[:3] == [0, 1, 2] and len(set(k4[3:])) == 3 and set(k4[3:]) < set(range(3, 9))
    assert m5 and m5 == det(f5.block(range(6), sorted(k4)))


def test_only_f5_takes_the_schur_fallback(sphere_geometry, monkeypatch):
    """On the builtins, the 8 ladder fixtures and s3' and rp3' at geometry
    seed 0, and on s3 at the unit square, a pass at seeds None and 0-9
    calls ``independent_rows`` only for f5's Schur fallback, on a 6x3
    block, and ``det`` only there, on a 6x6 block, and on f3's: f1's root
    never falls back, and no grouped minor takes the ``det`` of a whole
    block.  Only the unit square's 11 passes fall back."""
    names = ["s3", "rp3", *sorted(path.stem for path in FIXTURES.glob("*.tri")), "s3'", "rp3'"]
    assert len(names) == 12
    chains = [build_chain(tri, assign_geometry(tri, subseed(0, "geometry"))) for tri in map(load_input, names)]
    chains.append(build_chain(load_builtin("s3"), sphere_geometry))
    rows = count_calls(monkeypatch, "independent_rows")
    dets = count_calls(monkeypatch, "det")
    fallbacks = 0
    for c in chains:
        for seed in (None, *range(10)):
            rows.clear()
            dets.clear()
            p, _ = select_partition(c, seed)
            fallback = [(6, 3)] if rows else []
            assert [(args[0].nrows, args[0].ncols) for args in rows] == fallback
            assert [args[0].nrows for args in dets] == [6] * len(fallback) + [len(p.c3_rows)]
            fallbacks += len(rows)
    assert fallbacks == 11


def test_f1_root_without_an_apex_reaches_the_diagnostics(s3, sphere_geometry, certified_chain):
    """A hand-made f1 whose dk rows at a's root corners are zero leaves the
    apex rule no candidate there.  The pass then runs its diagnostics, as
    for a vanishing minor: the rank test finds f1 of rank 5."""
    c = certified_chain(s3, sphere_geometry)
    dk = {3 * u + 2 for u in s3.shelling(0)[0]}
    f1 = c.f1
    zeroed = [{} if i in dk else row for i, row in enumerate(f1.numerators)]
    broken = c._replace(f1=RatMatrix(zeroed, f1.denominators, f1.ncols))
    for seed in (None, *range(3)):
        assert f1_root_split(broken, seed) is None
        with pytest.raises(NotAcyclicError) as caught:
            select_partition(broken, seed)
        assert str(caught.value) == (
            "complex is not acyclic: ranks (5, 6, 0, 6, 6), expected (6, 6, 0, 6, 6); f1 has rank 5, expected 6"
        )


def doubled_area(xs, ys, p, q, r):
    """Twice the oriented area of the plane triangle on vertex classes p, q
    and r: the cross product of q - p and r - p."""
    return (xs[q] - xs[p]) * (ys[r] - ys[p]) - (ys[q] - ys[p]) * (xs[r] - xs[p])


@pytest.mark.parametrize("name", ["s3", "rp3", "s3_t8", "s3_t20", "s3_t80", "rp3_t8", "rp3_t20", "rp3_t80"])
def test_root_blocks_give_m1_and_m5(name):
    """Observations on every pass tested so far, not laws: with a and b
    the pass's shellings,

        |m1| = 8 |det f2[a's root edges, K1 at a's root corners]|,
        |m5| |prod A| = 64 |det f4[R4 at b's root corners, b's root edges]|,

    A running over the doubled oriented areas of the four faces of b's
    root.  Geometry seeds 0-5 and partition seeds None and 1-3 make 24
    passes per input.  Their sign rule is still open."""
    tri = load_builtin(name) if name in ("s3", "rp3") else Triangulation.from_file(FIXTURES / f"{name}.tri")
    for seed in range(6):
        g = assign_geometry(tri, subseed(seed, "geometry"))
        c = build_chain(tri, g)
        xs, ys, _ = coordinates(g)
        for partition_seed in (None, 1, 2, 3):
            p, (m1, _, _, _, m5) = select_partition(c, partition_seed)
            a, b = shelling_of(c, partition_seed)
            k1, _, _, k4 = (set(cols) for cols in p.cols(c))
            root_k1 = [j for j in corner_positions(a[0]) if j in k1]
            root_r4 = [j for j in corner_positions(b[0]) if j not in k4]
            assert len(root_k1) == len(root_r4) == 6
            assert abs(m1) == 8 * abs(det(c.f2.block(a[1], root_k1)))
            areas = prod(doubled_area(xs, ys, *face) for face in combinations(b[0], 3))
            assert abs(m5 * areas) == 64 * abs(det(c.f4.block(root_r4, b[1])))


def planted_groups(rng, groups, upper, off):
    """A square integer block in groups of three, each row inside its
    group's columns and earlier ones (later ones with ``upper``), with
    random nonzero entries, as rows and denominators; with ``off`` one row
    also gets an entry outside that support."""
    n = 3 * groups
    rows, dens = [], []
    for i in range(n):
        support = range(i - i % 3, n) if upper else range(i - i % 3 + 3)
        rows.append({j: rng.choice((-1, 1)) * rng.randint(1, 9) for j in support if rng.random() < 0.7})
        dens.append(rng.randint(1, 12))
    if off:
        i = rng.randrange(3, n) if upper else rng.randrange(n - 3)
        rows[i][rng.randrange(i - i % 3) if upper else rng.randrange(i - i % 3 + 3, n)] = rng.randint(1, 9)
    return rows, dens


def test_shelled_minor_matches_the_fraction_det(monkeypatch):
    """The product of the 3x3 diagonal blocks is the determinant, signed,
    for blocks triangular either way and placed at scattered positions of
    a wider matrix, and no ``det`` runs; a row off the support takes
    ``det`` of the whole block, still exactly.  Entries in columns outside
    the block never count as off it."""
    rng = random.Random(34)
    dets = count_calls(monkeypatch, "det")
    seen = {"zero": 0, "nonzero": 0, "off": 0}
    for trial in range(120):
        off, upper, sign = trial % 3 == 0, rng.random() < 0.5, rng.choice((1, -1))
        groups = rng.randint(2 if off else 1, 5)
        planted, dens = planted_groups(rng, groups, upper, off)
        n = 3 * groups
        row_at, col_at = rng.sample(range(n + 2), n), rng.sample(range(n + 2), n)
        extra = [j for j in range(n + 2) if j not in col_at]
        numerators = [{j: rng.randint(1, 9) for j in extra} for _ in range(n + 2)]
        denominators = [rng.randint(1, 12) for _ in range(n + 2)]
        for k, (row, d) in enumerate(zip(planted, dens)):
            numerators[row_at[k]].update({col_at[j]: v for j, v in row.items()})
            denominators[row_at[k]] = d
        m = RatMatrix(numerators, denominators, n + 2)
        dense = [[F(m.numerators[i].get(j, 0), m.denominators[i]) for j in col_at] for i in row_at]
        dets.clear()
        value = torsion._grouped_minor(m, row_at, col_at, sign, upper)
        assert value == sign * fraction_det(dense)
        assert [args[0].nrows for args in dets] == ([n] if off else [])
        seen["off" if off else "nonzero" if value else "zero"] += 1
    assert min(seen.values()) > 5, seen


def face_product_oracle(tri, lam):
    """The face product as a loop of Fraction products."""
    product = Fraction(1)
    for s in face_values(tri, lam):
        product *= s
    return product


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.tri")), ids=lambda p: p.stem)
def test_face_product_matches_the_fraction_loop(path):
    tri = Triangulation.from_file(path)
    for seed in range(3):
        lam = edge_values(tri, assign_geometry(tri, subseed(seed, "geometry")))
        assert invariant(tri, seed=seed).face_product == face_product_oracle(tri, lam)


def test_face_product_matches_the_fraction_loop_at_large_denominators():
    tri = Triangulation.from_file(FIXTURES / "rp3_t80.tri")
    g = parse_geometry(prime_denominator_geometry_text(len(tri.vertices)), tri)
    product = invariant(tri, geometry=g).face_product
    assert product == face_product_oracle(tri, edge_values(tri, g))
    assert product.denominator.bit_length() > 1000


def test_invariant_makes_no_edge_lookup(rp3, monkeypatch):
    """Circulations and curvatures read the resolved sides: neither
    building a triangulation nor a whole invariant on it looks an edge
    class up."""
    calls = []
    real = Triangulation.edge_class

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Triangulation, "edge_class", counted)
    walked = random_walk(rp3, 12, 5)
    for tri in (Triangulation(rp3.tets), Triangulation(walked.tets)):
        assert invariant(tri, seed=1).abs_invariant == 64
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(("s3", "rp3")),
    walk_seed=st.integers(0, 2**32),
    steps=st.integers(0, 10),
)
def test_signed_tau_is_partition_independent_on_walk_states(name, walk_seed, steps, certified_chain):
    tri = random_walk(load_builtin(name), steps, walk_seed, 12)
    c = certified_chain(tri, assign_geometry(tri, seed=walk_seed))
    picked = [select_partition(c, seed) for seed in (None, *range(10))]
    assert all(m == minors(c, p) for p, m in picked)
    assert len({tau(c, p, minors(c, p)) for p, _ in picked}) == 1


def test_sign_removes_partition_dependence(rp3, rp3_geometry, certified_chain):
    c = certified_chain(rp3, rp3_geometry)
    picked = [select_partition(c, seed) for seed in range(10)]
    # the bare alternating product of the minors takes both signs, eps
    # makes it one value, and the invariant reports that value
    assert {m1 * m3 * m5 / (m2 * m4) > 0 for _, (m1, m2, m3, m4, m5) in picked} == {True, False}
    assert len({tau(c, p, minors(c, p)) for p, _ in picked}) == 1
    assert invariant(rp3, geometry=rp3_geometry).tau == tau(c, picked[0][0], minors(c, picked[0][0]))


def test_sign_matches_the_label_sort(certified_chain):
    # the pass's partitions of rp3_t20 and of two walk states, and each with
    # its R_k listed in reverse, the same split in another order
    tris = [Triangulation.from_file(FIXTURES / "rp3_t20.tri")]
    tris += [random_walk(load_builtin(name), 8, walk_seed, 12) for name, walk_seed in (("s3", 3), ("rp3", 5))]
    seen = set()
    for tri in tris:
        c = certified_chain(tri, assign_geometry(tri, seed=1))
        for seed in (None, *range(10)):
            p, _ = select_partition(c, seed)
            for q in (p, BasisPartition(*(tuple(reversed(rows)) for rows in p.rows()))):
                assert q.sign(c) == label_sort_sign(c, q)
                seen.add(q.sign(c))
    assert seen == {1, -1}


@pytest.mark.parametrize("name", ["s3", "rp3", "s3_t8", "rp3_t8", "rp3_t20"])
@pytest.mark.parametrize("seed", [0, 1])
def test_tau_squared_matches_the_laplacian_oracle(name, seed):
    tri = load_builtin(name) if name in ("s3", "rp3") else Triangulation.from_file(FIXTURES / f"{name}.tri")
    c = build_chain(tri, assign_geometry(tri, subseed(seed, "geometry")))
    dets = laplacian_dets(c)
    assert 0 not in dets
    assert laplacian_tau_squared(dets) == invariant(tri, seed=seed).tau ** 2


def test_geometry_independence(s3, rp3):
    for tri, expect in ((s3, 1), (rp3, 64)):
        for seed in range(10):
            assert invariant(tri, seed=seed).abs_invariant == expect


def test_kappa_rerandomization_preserves_invariant(s3):
    g = assign_geometry(s3, 77)
    base = invariant(s3, geometry=g)
    x, y, kappa = coordinates(g)
    other = geometry_of(x, y, tuple(k + F(7, 5) for k in kappa))
    assert invariant(s3, geometry=other).abs_invariant == base.abs_invariant


def test_selection_determinism(rp3, rp3_geometry, certified_chain):
    c = certified_chain(rp3, rp3_geometry)
    for seed in (None, 4):
        assert select_partition(c, seed) == select_partition(c, seed)
        # each stage's rows span the row space of its restricted map
        p, _ = select_partition(c, seed)
        for m, rows, cols in zip(c.maps, p.rows(), (range(c.f1.ncols), *p.cols(c))):
            assert rank(m.block(rows, cols)) == len(rows) == rank(m.block(range(m.nrows), cols))


def test_invalid_partition_rejected(s3, sphere_geometry, certified_chain):
    c = certified_chain(s3, sphere_geometry)
    good, _ = select_partition(c, seed=0)
    # a C1 split that misses the kappa directions cannot be completed:
    # dk columns of f1 are only supported on the dk rows
    bad_rows = positions(1, c.f1.nrows, ("dx_v0", "dy_v0", "dx_v1", "dy_v1", "dx_v2", "dy_v2"))
    bad = BasisPartition(bad_rows, good.c2_rows, good.c3_rows, good.c4_rows)
    with pytest.raises(TorsionError, match="minor of f1 vanishes"):
        minors(c, bad)
    with pytest.raises(TorsionError):
        tau(c, bad, minors(c, bad))
    with pytest.raises(TorsionError, match="split"):
        minors(c, BasisPartition(positions(1, c.f1.nrows, ("dx_v0",)), good.c2_rows, good.c3_rows, good.c4_rows))
    # a wrong count, a position outside C_k and a repeated one are each named
    last = c.f1.nrows - 1
    for c1_rows, message in (
        ((0, 0, 1, 2, 3, 4, 5), "C1 split must pick 6 rows, got 7"),
        ((0, 1, 2, 3, 4, 99), f"C1 split picks position 99, outside 0..{last}"),
        ((0, 1, 2, 3, 4, -1), f"C1 split picks position -1, outside 0..{last}"),
        ((0, 1, 2, 3, 4, 0), "C1 split picks position 0 twice"),
    ):
        with pytest.raises(TorsionError, match=re.escape(message)):
            minors(c, BasisPartition(c1_rows, good.c2_rows, good.c3_rows, good.c4_rows))
    c2_rows = (good.c2_rows[0], *good.c2_rows[:-1])
    with pytest.raises(TorsionError, match=f"C2 split picks position {c2_rows[0]} twice"):
        minors(c, BasisPartition(good.c1_rows, c2_rows, good.c3_rows, good.c4_rows))


def test_result_fields(s3, sphere_geometry):
    r = invariant(s3, seed=3, geometry=sphere_geometry)
    assert r.invariant == r.tau * r.face_product * F(1, 2 ** (r.vertex_count + 1))
    assert r.abs_invariant == abs(r.invariant)
    assert r.f_vector == (4, 6, 4, 2)


# barycentric subdivisions of the builtins and of lens spaces: inputs whose
# eliminations fill in far more than the grown ladder's, with their
# f-vectors and |inv| at geometry seed 1; |inv| = p^6 for each L(p, q)'.
# s3'' is subdivided twice; its f3 block is 710 x 710.
SUBDIVIDED_GOLDENS = {
    "s3'": ((16, 64, 96, 48), 1),
    "rp3'": ((40, 232, 384, 192), 64),
    "L(2,1)'": ((12, 60, 96, 48), 64),
    "L(3,1)'": ((16, 88, 144, 72), 729),
    "L(5,2)'": ((24, 144, 240, 120), 15625),
    "L(7,2)'": ((32, 200, 336, 168), 117649),
    "L(4,1)'": ((20, 116, 192, 96), 4096),
    "L(5,1)'": ((24, 144, 240, 120), 15625),
    "L(7,1)'": ((32, 200, 336, 168), 117649),
    "L(8,3)'": ((36, 228, 384, 192), 262144),
    "L(11,2)'": ((48, 312, 528, 264), 1771561),
    "s3''": ((224, 1376, 2304, 1152), 1),
}


@pytest.mark.parametrize("name", sorted(SUBDIVIDED_GOLDENS))
def test_subdivided_goldens(name):
    tri = subdivided(name)
    f_vector, value = SUBDIVIDED_GOLDENS[name]
    assert tri.f_vector() == f_vector
    assert invariant(tri, geometry=assign_geometry(tri, 1)).abs_invariant == value


def golden_base_order(name):
    """|H_1| of the base of a subdivided golden: 1 for s3, 2 for rp3 and p
    for L(p, q)."""
    base = name.rstrip("'")
    return {"s3": 1, "rp3": 2}.get(base) or int(base[2:].split(",")[0])


@pytest.mark.parametrize("name", sorted(SUBDIVIDED_GOLDENS))
def test_first_homology_of_each_golden_base(name):
    order = golden_base_order(name)
    assert first_homology(subdivided(name.rstrip("'"))) == (0, order)
    # an observation on every input tested so far, not a law: |inv| = |H_1|^6
    assert SUBDIVIDED_GOLDENS[name][1] == order ** 6


@pytest.mark.parametrize("name", ["s3'", "L(2,1)'"])
def test_first_homology_survives_a_subdivision(name):
    assert first_homology(subdivided(name)) == (0, golden_base_order(name))
