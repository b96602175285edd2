import importlib.util
from pathlib import Path

import pytest

from pentachain import (
    KINDS,
    Gluing,
    MoveError,
    MoveSite,
    Triangulation,
    apply_move,
    enumerate_sites,
    invariant,
    random_walk,
    subseed,
    walk_states,
)
from pentachain.pachner import _bistellar
from reference import canonical_form, eager_walk_states, isomorphic, subdivided, transposition
from test_geometry import fresh_star
from test_torsion import SUBDIVIDED_GOLDENS

ROOT = Path(__file__).resolve().parents[1]


def euler(tri):
    v, e, f, t = tri.f_vector()
    return v - e + f - t


def test_one_four_arithmetic(s3):
    out = apply_move(s3, MoveSite("1->4", 0))
    assert out.f_vector() == (5, 10, 10, 5)
    assert euler(out) == 0


def test_two_three_and_back(s3):
    grown = apply_move(s3, MoveSite("2->3", 0))
    assert grown.f_vector() == (4, 7, 6, 3)
    new_edge = [e for e in grown.edges if len(grown.edge_angles[e.id]) == 3]
    assert len(new_edge) == 1
    back = apply_move(grown, MoveSite("3->2", new_edge[0].id))
    assert isomorphic(back, s3)


def test_one_four_and_back(s3):
    grown = apply_move(s3, MoveSite("1->4", 1))
    fresh = [v for v in grown.vertices if v.degree == 4]
    sites = enumerate_sites(grown, "4->1")
    # the fresh vertex is always collapsible; s3 is small enough that some
    # old vertices may be as well
    fresh_ids = {v.id for v in fresh}
    assert any(site.location in fresh_ids for site in sites)
    new_vertex = max(v.id for v in grown.vertices)  # fresh classes come last
    back = apply_move(grown, MoveSite("4->1", new_vertex))
    assert isomorphic(back, s3)


def test_enumerate_counts(s3):
    assert len(enumerate_sites(s3, "1->4")) == 2
    sites23 = enumerate_sites(s3, "2->3")
    assert len(sites23) == 4  # every face class joins the two distinct tets
    assert enumerate_sites(s3, "3->2") == []
    assert enumerate_sites(s3, "4->1") == []


def test_moves_preserve_euler_and_validate(rp3):
    tri = rp3
    for kind, expect_delta in (("2->3", (0, 1, 2, 1)), ("1->4", (1, 4, 6, 3))):
        sites = enumerate_sites(tri, kind)
        assert sites
        out = apply_move(tri, sites[0])
        delta = tuple(a - b for a, b in zip(out.f_vector(), tri.f_vector()))
        assert delta == expect_delta
        assert euler(out) == 0


def test_invalid_sites_rejected(s3):
    # locations outside the triangulation; a negative one must not wrap
    # around to the last edge, vertex or tetrahedron
    grown = apply_move(s3, MoveSite("1->4", 0))
    assert grown.f_vector() == (5, 10, 10, 5)
    one_tet = Triangulation.from_text(ONE_TET)
    for tri, kind, location, message in [
        (grown, "3->2", -1, "no edge class -1"),
        (grown, "4->1", -1, "no vertex class -1"),
        (grown, "3->2", 99, "no edge class 99"),
        (grown, "4->1", 99, "no vertex class 99"),
        (grown, "2->3", 99, "no face class 99"),
        (grown, "2->3", -1, "no face class -1"),
        (grown, "1->4", -1, "no tetrahedron -1"),
        # locations of the wrong shape, a (tetrahedron, face slot) port
        # among them; a bool is not an index
        (grown, "2->3", (0, 0), "no face class (0, 0)"),
        (grown, "2->3", True, "no face class True"),
        (grown, "1->4", (0, 0), "no tetrahedron (0, 0)"),
        (grown, "1->4", True, "no tetrahedron True"),
        (grown, "3->2", (0, 1), "no edge class (0, 1)"),
        (grown, "4->1", 1.0, "no vertex class 1.0"),
        # locations where the move does not apply
        (one_tet, "2->3", 0, "2->3 needs two distinct tetrahedra sharing the face"),
        (s3, "3->2", 0, "edge class 0 is not a 3->2 site (degree 3, distinct tetrahedra, closed cycle required)"),
        (s3, "4->1", 0, "vertex class 0 is not a 4->1 site (its star is not a standard four-tetrahedron ball)"),
        (s3, "5->0", 0, "unknown move kind '5->0'"),
        # an unhashable kind is unknown too, not a TypeError
        (s3, ["2->3"], 0, "unknown move kind ['2->3']"),
    ]:
        with pytest.raises(MoveError) as exc:
            apply_move(tri, MoveSite(kind, location))
        assert str(exc.value) == message
    for kind in ("6->1", ["x"]):
        with pytest.raises(MoveError) as exc:
            enumerate_sites(s3, kind)
        assert str(exc.value) == f"unknown move kind {kind!r}"


# each kind's refusal where a location names an object but the move does
# not apply there; a 1->4 applies to every tetrahedron
REFUSALS = {
    "2->3": "2->3 needs two distinct tetrahedra sharing the face",
    "3->2": "edge class {} is not a 3->2 site (degree 3, distinct tetrahedra, closed cycle required)",
    "4->1": "vertex class {} is not a 4->1 site (its star is not a standard four-tetrahedron ball)",
}


def candidate_locations(tri, kind):
    """Every location of one kind the site search looks at: every face
    class, edge class, tetrahedron and vertex class."""
    return range({"2->3": len(tri.faces), "3->2": len(tri.edges), "1->4": tri.size, "4->1": len(tri.vertices)}[kind])


def test_site_search_agrees_with_the_move(s3, rp3):
    """At every candidate location of every kind, ``enumerate_sites`` lists
    the location exactly when ``apply_move`` succeeds there, and otherwise
    ``apply_move`` refuses with the kind's text."""
    fixtures = ROOT / "benchmarks" / "fixtures"
    states = [s3, rp3, Triangulation.from_text(ONE_TET)]
    states += [Triangulation.from_file(fixtures / name) for name in ("s3_t8.tri", "rp3_t8.tri")]
    for start in (s3, rp3):
        for seed in (0, 1):
            states += [state for _, state in walk_states(start, 12, seed, max_tets=10)]
    applied = refused = 0
    for state in states:
        for kind in KINDS:
            listed = {site.location for site in enumerate_sites(state, kind)}
            for location in candidate_locations(state, kind):
                try:
                    apply_move(state, MoveSite(kind, location))
                except MoveError as exc:
                    assert location not in listed, (kind, location)
                    assert str(exc) == REFUSALS[kind].format(location)
                    refused += 1
                else:
                    assert location in listed, (kind, location)
                    applied += 1
    assert applied and refused


def test_mislabelled_surgery_is_rejected(s3):
    """Labels that do not describe facets of one 4-simplex boundary leave
    a face unglued or change the f-vector by the wrong delta."""
    new = [(0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]
    with pytest.raises(MoveError, match="surgery left an unglued face"):
        _bistellar(s3, {0: (0, 1, 2, 3), 1: (0, 1, 4, 2)}, new)
    # a sphere of two tetrahedra, every face glued by the same involution
    tri = Triangulation([[Gluing(1, (2, 3, 0, 1))] * 4, [Gluing(0, (2, 3, 0, 1))] * 4])
    with pytest.raises(MoveError) as exc:
        _bistellar(tri, {0: (4, 2, 3, 0), 1: (0, 2, 1, 3)}, [(0, 4, 2, 1), (4, 0, 1, 3), (2, 1, 4, 3)])
    assert str(exc.value) == "move changed the f-vector by (-2, -1, 2, 1), expected (0, 1, 2, 1)"


def test_zero_step_walk_is_input(s3):
    assert random_walk(s3, 0, seed=1) is s3


def test_walk_determinism(rp3):
    a = random_walk(rp3, 10, seed=5)
    b = random_walk(rp3, 10, seed=5)
    assert a.tets == b.tets
    c = random_walk(rp3, 10, seed=6)
    assert canonical_form(a) != canonical_form(c) or a.f_vector() != c.f_vector()


def test_walk_respects_max_tets(s3):
    sizes = [state.size for _, state in walk_states(s3, 25, seed=9, max_tets=8)]
    # growth can overshoot by one move before shrinking kicks in
    assert max(sizes) <= 8 + 3


def test_walks_preserve_invariant(s3, rp3):
    for tri, expect in ((s3, 1), (rp3, 64)):
        for seed in (101, 202):
            end = random_walk(tri, 12, seed=seed, max_tets=10)
            assert invariant(end, seed=seed).abs_invariant == expect


def test_walks_off_s3_and_rp3_preserve_invariant():
    """Pachner walks from four lens spaces and from s3 and rp3, each
    subdivided once: a growing walk (``max_tets`` above T) and a shrinking
    one (below T, so 3->2 and 4->1 moves run) per input.  |inv| at a
    geometry seed of its own on every fifth state and the last is the
    input's golden; the walks make every kind of move."""
    kinds, steps = set(), 15
    for name in ("L(2,1)'", "L(5,2)'", "L(7,2)'", "L(8,3)'", "s3'", "rp3'"):
        tri, (_, expected) = subdivided(name), SUBDIVIDED_GOLDENS[name]
        for w, max_tets in enumerate((tri.size + 20, tri.size - 20)):
            seed = subseed(24, name, w)
            for step, (site, state) in enumerate(walk_states(tri, steps, seed, max_tets), start=1):
                kinds.add(site.kind)
                if step % 5 == 0 or step == steps:
                    value = invariant(state, seed=step).abs_invariant
                    assert value == expected, f"{name}: walk seed {seed}, step {step} (its geometry seed): {value}"
    assert kinds == set(KINDS)


@pytest.mark.parametrize("max_tets", [4, 12])
@pytest.mark.parametrize("name", ["s3", "rp3"])
def test_walk_states_match_the_eager_walk(name, max_tets, request):
    # checking each kind for its first usable site, and listing only the
    # drawn kind's sites, walks where listing every kind's sites walks
    start = request.getfixturevalue(name)
    for seed in range(100):
        lazy = walk_states(start, 20, seed, max_tets)
        eager = eager_walk_states(start, 20, seed, max_tets)
        assert [(site, state.tets) for site, state in lazy] == [(site, state.tets) for site, state in eager]


def test_walk_states_yield_valid_triangulations(s3):
    for site, state in walk_states(s3, 8, seed=3):
        assert site.kind in {"1->4", "2->3", "3->2", "4->1"}
        assert euler(state) == 0


def _edge_cycle_from_full_star(tri, edge_id):
    """3->2 site test that builds the whole star, parity included, first,
    from the edge class's kept star."""
    star = fresh_star(tri, tri.edges[edge_id])
    if len(star) != 3:
        return None
    tets = [c[0] for c in star]
    if len(set(tets)) != 3:
        return None
    t0, (p0, q0), (e0, d0) = star[0]
    cycle, cur = [], (t0, p0, q0, e0, d0)
    for _ in range(3):
        cycle.append(cur)
        t, p, q, e, d = cur
        g = tri.tets[t][p]
        cur = (g.neighbor, g.perm[q], g.perm[p], g.perm[e], g.perm[d])
    if cur != cycle[0] or sorted(c[0] for c in cycle) != sorted(tets):
        return None
    return cycle


# one tetrahedron, one vertex, two edge classes of degree 3 that each meet
# the tetrahedron three times
ONE_TET = "pentachain-tri v1\ntetrahedra 1\ntet 0: 0:1230 0:3012 0:2031 0:1302\n"


def test_three_two_sites_match_full_star_filter(s3, rp3):
    repeated = distinct = 0
    starts = [s3, rp3, Triangulation.from_text(ONE_TET)]
    for start in starts:
        for seed in range(4):
            for _, state in walk_states(start, 12, seed, max_tets=10):
                expected = [
                    MoveSite("3->2", e.id)
                    for e in state.edges
                    if _edge_cycle_from_full_star(state, e.id) is not None
                ]
                assert enumerate_sites(state, "3->2") == expected
                for e in state.edges:
                    if len(state.edge_angles[e.id]) == 3:
                        if len({t for _, (t, _, _) in state.edge_angles[e.id]}) < 3:
                            repeated += 1
                        else:
                            distinct += 1
    # both kinds of degree-3 edge were seen
    assert repeated and distinct


def _vertex_ball_from_cone(tri, vertex_id):
    """4->1 site test that maps each member's slots to its own index at
    the vertex and its neighbours' indices elsewhere, then checks every
    gluing among the members against the face pairing of a cone over the
    boundary of a tetrahedron."""
    occ = tri.vertices[vertex_id].members
    if len(occ) != 4:
        return None
    tets = [t for t, _ in occ]
    if len(set(tets)) != 4:
        return None
    slot_of_tet = {t: i for i, (t, _) in enumerate(occ)}
    maps = []
    for i, (t, w) in enumerate(occ):
        m = [None] * 4
        m[w] = i
        for s in range(4):
            if s == w:
                continue
            g = tri.tets[t][s]
            if g.neighbor == t or g.neighbor not in slot_of_tet:
                return None
            m[s] = slot_of_tet[g.neighbor]
        if sorted(m) != [0, 1, 2, 3]:
            return None
        maps.append(tuple(m))
    for i, (t, w) in enumerate(occ):
        for s in range(4):
            if s == w:
                continue
            g = tri.tets[t][s]
            j = slot_of_tet[g.neighbor]
            tau = transposition(i, j)
            mi, mj = maps[i], maps[j]
            if any(mj[g.perm[x]] != tau[mi[x]] for x in range(4)):
                return None
    return occ, maps


# a pseudo-manifold whose vertex class 1 has degree 4 in four distinct
# tetrahedra, each glued across its three other faces to the other three,
# but with twists a cone over the boundary of a tetrahedron does not have
TWISTED_STAR = """pentachain-tri v1
tetrahedra 4
tet 0: 3:0132 1:3012 2:3012 1:1302
tet 1: 0:1230 3:3120 0:2031 2:1023
tet 2: 3:3120 0:1230 3:0321 1:1023
tet 3: 0:0132 1:3120 2:0321 2:3120
"""


def test_four_one_sites_match_cone_filter(s3, rp3):
    twisted = Triangulation.from_text(TWISTED_STAR)
    states = [twisted]
    for start in (s3, rp3, Triangulation.from_text(ONE_TET)):
        for seed in range(4):
            states += [state for _, state in walk_states(start, 12, seed, max_tets=10)]
    balls = other = 0
    for state in states:
        expected = [
            MoveSite("4->1", v.id) for v in state.vertices if _vertex_ball_from_cone(state, v.id) is not None
        ]
        assert enumerate_sites(state, "4->1") == expected
        balls += len(expected)
        other += sum(v.degree == 4 for v in state.vertices) - len(expected)
    # both collapsible and non-collapsible degree-4 vertices were seen
    assert balls and other
    with pytest.raises(MoveError, match="vertex class 1 is not a 4->1 site"):
        apply_move(twisted, MoveSite("4->1", 1))


def test_ladder_fixtures_regenerate_byte_identical():
    spec = importlib.util.spec_from_file_location("pentachain_bench_ladder", ROOT / "benchmarks" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    texts = ladder.ladder_texts()
    committed = {path.name: path.read_text() for path in (ROOT / "benchmarks" / "fixtures").glob("*.tri")}
    assert texts == committed
    assert ladder.stale_files(texts) == []
