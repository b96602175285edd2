import hashlib
import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pentachain import (
    Gluing,
    MoveSite,
    ParseError,
    Triangulation,
    ValidationError,
    apply_move,
    enumerate_sites,
    invariant,
    load_builtin,
    random_walk,
    walk_states,
)
from pentachain import library
from pentachain.exact import permutation_sign
from pentachain.triangulation import EdgeClass, FaceClass, VertexClass, compose, inverse
from reference import IDENTITY, canonical_form, isomorphic, sequence_parity, subdivided, transposition
from test_geometry import fresh_star, grown_rp3, lookup_angles
from test_pachner import ONE_TET
from test_torsion import SUBDIVIDED_GOLDENS


def test_perm_helpers():
    p = (2, 0, 3, 1)
    assert compose(inverse(p), p) == IDENTITY
    assert permutation_sign(IDENTITY) == 1
    assert permutation_sign(transposition(1, 3)) == -1


def test_sphere_build(s3):
    assert s3.f_vector() == (4, 6, 4, 2)
    assert s3.orientation_signs == (1, -1)
    assert len(s3.vertices) == 4 and len(s3.edges) == 6 and len(s3.faces) == 4


def test_projective_space_counts(rp3):
    assert rp3.f_vector() == (4, 12, 16, 8)
    # twelve edge classes pair up two per vertex-class pair
    by_pair = {}
    for e in rp3.edges:
        by_pair.setdefault(tuple(sorted((e.tail, e.head))), []).append(e.id)
    assert len(by_pair) == 6
    assert all(len(v) == 2 for v in by_pair.values())


def test_euler_characteristic_zero(s3, rp3):
    for tri in (s3, rp3):
        v, e, f, t = tri.f_vector()
        assert v - e + f - t == 0


def unpaired_rp3_f_vector():
    """Six 2->3 moves from s3, each site drawn from one Random(0): rp3's
    f-vector (4, 12, 16, 8), with edge classes that do not pair up two per
    vertex pair."""
    tri, rng = load_builtin("s3"), random.Random(0)
    for _ in range(6):
        sites = enumerate_sites(tri, "2->3")
        tri = apply_move(tri, sites[rng.randrange(len(sites))])
    return tri


@pytest.mark.parametrize(
    "name, loaded, message",
    [
        ("s3", lambda: library._load("rp3"), "builtin s3 has the wrong f-vector"),
        ("rp3", lambda: library._load("s3"), "builtin rp3 has the wrong f-vector"),
        ("rp3", unpaired_rp3_f_vector, "builtin rp3 edge classes do not pair up two per vertex pair"),
    ],
    ids=["s3-f-vector", "rp3-f-vector", "rp3-pairing"],
)
def test_load_builtin_checks_each_builtin(monkeypatch, name, loaded, message):
    tri = loaded()
    monkeypatch.setattr(library, "_load", lambda _: tri)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        load_builtin(name)


def test_non_involutive_self_gluing_rejected():
    bad = Gluing(0, (0, 2, 3, 1))
    with pytest.raises(ValidationError, match="involutive"):
        Triangulation([[bad, bad, bad, bad]])


def test_orientation_incoherence_rejected():
    # one face glued with an odd permutation, the rest with the identity:
    # the parity condition cannot be satisfied on both
    twist = (0, 2, 1, 3)
    rows = [
        [Gluing(1, twist), Gluing(1, IDENTITY), Gluing(1, IDENTITY), Gluing(1, IDENTITY)],
        [Gluing(0, twist), Gluing(0, IDENTITY), Gluing(0, IDENTITY), Gluing(0, IDENTITY)],
    ]
    with pytest.raises(ValidationError, match="orientable"):
        Triangulation(rows)


def test_empty_table_rejected():
    with pytest.raises(ValidationError, match="^empty triangulation$"):
        Triangulation([])


def test_unsized_table_rejected():
    # the table's own length is checked before any row's
    tets = load_builtin("s3").tets
    tables = ((iter(tets), "tuple_iterator"), ((row for row in tets), "generator"), (None, "NoneType"), (5, "int"))
    for table, kind in tables:
        with pytest.raises(ValidationError, match=f"^gluing table must be a sequence of tetrahedra, not {kind}$"):
            Triangulation(table)


def test_unknown_builtin_is_named():
    with pytest.raises(KeyError) as exc:
        load_builtin("nope")
    assert exc.value.args == ("unknown builtin 'nope'; available: s3, rp3",)


def test_missing_gluing_rejected():
    with pytest.raises(ValidationError):
        Triangulation([[Gluing(0, IDENTITY)] * 3])
    # tetrahedron 0's faces point into the short row 1: every length is
    # checked before any partner is read
    with pytest.raises(ValidationError, match="^tetrahedron 1 must glue exactly 4 faces$"):
        Triangulation([[Gluing(1, IDENTITY)] * 4, [Gluing(0, IDENTITY)] * 3])


def disjoint_union(a, b):
    """The gluing table of ``a`` followed by ``b``, ``b``'s tetrahedra
    renumbered after ``a``'s."""
    return [list(row) for row in a.tets] + [[Gluing(g.neighbor + a.size, g.perm) for g in row] for row in b.tets]


def test_disconnected_table_rejected(s3, rp3):
    # both the rank pattern and canonical_form assume one component: the
    # union of two spheres expected negative ranks, and the search from one
    # start never saw the second component
    for rows, unreached in (
        (disjoint_union(s3, s3), 2),
        (disjoint_union(rp3, s3), 8),
        # interleaved: tetrahedra 0, 2 and 1, 3 form the two spheres
        ([[Gluing(2, g.perm) for g in s3.tets[0]], [Gluing(3, g.perm) for g in s3.tets[0]],
          [Gluing(0, g.perm) for g in s3.tets[1]], [Gluing(1, g.perm) for g in s3.tets[1]]], 1),
    ):
        with pytest.raises(ValidationError) as exc:
            Triangulation(rows)
        assert str(exc.value) == (
            f"gluing table is not connected: tetrahedron {unreached} is not reachable from tetrahedron 0"
        )


def test_classes_stable_under_tet_relabeling(rp3):
    perm = [3, 1, 4, 0, 7, 2, 6, 5]
    inv = [perm.index(i) for i in range(len(perm))]
    rows = []
    for old in perm:
        rows.append([Gluing(inv[g.neighbor], g.perm) for g in rp3.tets[old]])
    relabeled = Triangulation(rows)
    assert relabeled.f_vector() == rp3.f_vector()
    sig = lambda tri: (
        sorted(v.degree for v in tri.vertices),
        sorted(e.degree for e in tri.edges),
        sorted(len(f.members) for f in tri.faces),
    )
    assert sig(relabeled) == sig(rp3)
    assert isomorphic(relabeled, rp3)


def test_orientation_coherence_relation(s3, rp3):
    for tri in (s3, rp3):
        for t, row in enumerate(tri.tets):
            for g in row:
                s1, s2 = tri.orientation_signs[t], tri.orientation_signs[g.neighbor]
                assert s1 * s2 * permutation_sign(g.perm) == -1


def test_gluings_are_involutive_on_slots(s3, rp3):
    for tri in (s3, rp3):
        for t, row in enumerate(tri.tets):
            for k, g in enumerate(row):
                partner = tri.tets[g.neighbor][g.perm[k]]
                assert partner.neighbor == t
                assert compose(partner.perm, g.perm) == IDENTITY


def star(tri, edge_id):
    """The star contributions of an edge class, as ``edge_angles`` holds them."""
    return tuple(contribution for _, contribution in tri.edge_angles[edge_id])


def test_edge_star_shapes(s3, rp3):
    for e in s3.edges:
        assert len(star(s3, e.id)) == 2
    for e in rp3.edges:
        assert len(star(rp3, e.id)) == 4


def test_edge_star_parity_invariant(s3, rp3):
    for tri in (s3, rp3):
        for e in tri.edges:
            for tet, (p, q), (tail, head) in star(tri, e.id):
                assert sequence_parity(tri, tet, (p, q, tail, head)) == 0
                eid, sign = tri.edge_class(tet, tail, head)
                assert eid == e.id and sign == 1


def test_edge_stars_are_kept_and_match_fresh_ones(s3, rp3):
    walked = random_walk(rp3, 20, 3)
    for tri in (s3, rp3, walked):
        for e in tri.edges:
            assert star(tri, e.id) == fresh_star(tri, e)
            assert star(Triangulation(tri.tets), e.id) == fresh_star(tri, e)


def test_resolved_tables_match_direct_lookups(s3, rp3):
    walked = [state for _, state in walk_states(rp3, 30, 11)]
    walked += [state for _, state in walk_states(s3, 20, 4)]
    for tri in (s3, rp3, grown_rp3(rp3, 14, seed=3), *walked):
        assert len(tri.edge_angles) == len(tri.edges)
        assert len(tri.face_sides) == len(tri.faces)
        for e in tri.edges:
            assert star(tri, e.id) == fresh_star(tri, e)
            angles = lookup_angles(tri, e.id)
            assert tri.edge_angles[e.id] == angles
        for f in tri.faces:
            tet, k = f.members[0]
            a, b, c = (s for s in range(4) if s != k)
            assert tri.face_sides[f.id] == tuple(tri.edge_class(tet, x, y) for x, y in ((a, b), (b, c), (c, a)))
        # set on construction, as plain tuples
        assert isinstance(vars(tri)["edge_angles"], tuple) and isinstance(vars(tri)["face_sides"], tuple)


def test_text_round_trip(s3, rp3):
    for tri in (s3, rp3):
        again = Triangulation.from_text(tri.to_text())
        assert again.tets == tri.tets


def test_parse_errors():
    with pytest.raises(ParseError, match="header"):
        Triangulation.from_text("not a triangulation\n")
    with pytest.raises(ParseError):
        Triangulation.from_text("pentachain-tri v1\ntetrahedra 1\n")
    with pytest.raises(ParseError):
        Triangulation.from_text(
            "pentachain-tri v1\ntetrahedra 1\ntet 0: 0:0123 0:0123 0:0123\n"
        )
    with pytest.raises(ParseError, match="permutation"):
        Triangulation.from_text(
            "pentachain-tri v1\ntetrahedra 1\n"
            "tet 0: 0:0120 0:0123 0:0123 0:0123\n"
        )
    # the integer fields take ASCII digits only, with a minus only before a
    # nonzero value; int() also took "+", "-0", "_" and other decimal
    # digits, and the count line a trailing token
    s3 = load_builtin("s3").to_text()
    assert s3.splitlines()[1:3] == ["tetrahedra 2", "tet 0: 1:0123 1:0123 1:0123 1:0123"]
    for old, new, message in (
        ("tetrahedra 2", "tetrahedra \u0662", "bad tetrahedron count"),
        ("tetrahedra 2", "tetrahedra 2 junk", "bad tetrahedron count"),
        ("tetrahedra 2", "tetrahedra +2", "bad tetrahedron count"),
        ("tetrahedra 2", "tetrahedra 0_2", "bad tetrahedron count"),
        ("tetrahedra 2", "tetrahedra -0", "bad tetrahedron count"),
        ("tet 0: 1:", "tet 0: \u0661:", "tet 0: bad gluing field '\u0661:0123'"),
        ("tet 0: 1:", "tet 0: +1:", "tet 0: bad gluing field '+1:0123'"),
        ("tet 1: 0:", "tet 1: -0:", "tet 1: bad gluing field '-0:0123'"),
        ("tet 0: 1:", "tet 0: 0_1:", "tet 0: bad gluing field '0_1:0123'"),
        ("tet 0: 1:0123", "tet 0: 1:0\u066123", "tet 0: bad permutation in '1:0\u066123'"),
    ):
        with pytest.raises(ParseError) as exc:
            Triangulation.from_text(s3.replace(old, new, 1))
        assert str(exc.value) == message
    # what was rejected before keeps its message
    for old, new, error, message in (
        ("tetrahedra 2", "tetrahedra x", ParseError, "bad tetrahedron count"),
        ("tetrahedra 2", "tetrahedra 0", ParseError, "tetrahedron count must be positive"),
        ("tetrahedra 2", "tetrahedra -2", ParseError, "tetrahedron count must be positive"),
        ("tet 0: 1:", "tet 0: x:", ParseError, "tet 0: bad gluing field 'x:0123'"),
        ("tet 0: 1:0123", "tet 0: 1:01x3", ParseError, "tet 0: bad gluing field '1:01x3'"),
        ("tet 0: 1:0123", "tet 0: 1:0\u00b923", ParseError, "tet 0: bad gluing field '1:0\u00b923'"),
        ("tet 0: 1:0123", "tet 0: 1:0123:", ParseError, "tet 0: bad gluing field '1:0123:'"),
        ("tet 0: 1:0123", "tet 0: 1:", ParseError, "tet 0: bad permutation in '1:'"),
        ("tet 0: 1:0123", "tet 0: 1:01234", ParseError, "tet 0: bad permutation in '1:01234'"),
        ("tet 0: 1:0123", "tet 0: 1:\u0660\u0661\u0662\u0660", ParseError,
         "tet 0: bad permutation in '1:\u0660\u0661\u0662\u0660'"),
        ("tet 0: 1:", "tet 0: -1:", ValidationError, "tetrahedron 0 face 0 glues to missing tetrahedron -1"),
    ):
        with pytest.raises(error) as exc:
            Triangulation.from_text(s3.replace(old, new, 1))
        assert str(exc.value) == message


def test_comments_and_whitespace_ok(s3):
    text = "# a comment\n" + s3.to_text().replace("tet 1:", "tet 1:  ") + "\n# trailing\n"
    assert Triangulation.from_text(text).tets == s3.tets


def test_canonical_form_invariance(s3, rp3):
    perm = [1, 0]
    swapped = Triangulation(
        [[Gluing(perm[g.neighbor], g.perm) for g in s3.tets[old]] for old in perm]
    )
    assert canonical_form(swapped) == canonical_form(s3)
    assert isomorphic(swapped, s3)
    assert not isomorphic(s3, rp3)


def test_vertex_edge_face_lookup_consistency(rp3):
    for e in rp3.edges:
        t, (i, j) = e.members[0]
        assert rp3.vertex_class(t, i) == e.tail
        assert rp3.vertex_class(t, j) == e.head
        eid, sign = rp3.edge_class(t, i, j)
        assert (eid, sign) == (e.id, 1)
        eid, sign = rp3.edge_class(t, j, i)
        assert (eid, sign) == (e.id, -1)
    for f in rp3.faces:
        for t, k in f.members:
            assert rp3.face_class(t, k) == f.id


# -- the quotient classes against a union-find oracle -----------------------


SLOT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _number_classes(glued, ports):
    uf = _UnionFind()
    for a, b in glued:
        uf.union(a, b)
    class_of, members, root_id = {}, [], {}
    for port in ports:
        cid = root_id.setdefault(uf.find(port), len(members))
        if cid == len(members):
            members.append([])
        class_of[port] = cid
        members[cid].append(port)
    return class_of, members


def union_find_classes(tets):
    """Vertex, edge and face classes of a gluing table by tuple-keyed
    union-find, numbered in the scan order ``(t, slot)``, ``(t, SLOT_PAIRS)``
    and ``(t, face)``: the construction the orbit traversal replaced.

    Returns (vertices, edges, faces, vertex_of, edge_of, face_of) with the
    maps keyed by (t, s), (t, i, j) and (t, k).  A table with a tetrahedron
    that no chain of gluings reaches from tetrahedron 0 is rejected first,
    naming the first such tetrahedron."""
    n = len(tets)
    reached, stack = {0}, [0]
    while stack:
        for g in tets[stack.pop()]:
            if g.neighbor not in reached:
                reached.add(g.neighbor)
                stack.append(g.neighbor)
    if len(reached) < n:
        unreached = min(set(range(n)) - reached)
        raise ValidationError(
            f"gluing table is not connected: tetrahedron {unreached} is not reachable from tetrahedron 0"
        )
    vertex_of, members = _number_classes(
        (
            ((t, s), (g.neighbor, g.perm[s]))
            for t, row in enumerate(tets)
            for k, g in enumerate(row)
            for s in range(4)
            if s != k
        ),
        ((t, s) for t in range(n) for s in range(4)),
    )
    vertices = tuple(VertexClass(i, tuple(m)) for i, m in enumerate(members))

    uf = _UnionFind()
    for t, row in enumerate(tets):
        for k, g in enumerate(row):
            for i in range(4):
                for j in range(4):
                    if k not in (i, j) and i != j:
                        uf.union((t, i, j), (g.neighbor, g.perm[i], g.perm[j]))
    canonical_root, order = {}, []
    for t in range(n):
        for i, j in SLOT_PAIRS:
            root, mirror = uf.find((t, i, j)), uf.find((t, j, i))
            if root == mirror:
                raise ValidationError(
                    f"edge ({t},{i},{j}) is identified with its own reverse; "
                    "the quotient is not an oriented manifold along this edge"
                )
            if root not in canonical_root and mirror not in canonical_root:
                canonical_root[root] = len(order)
                order.append(root)
    edge_of = {}
    occurrences = [[] for _ in order]
    for t in range(n):
        for i, j in SLOT_PAIRS:
            root = uf.find((t, i, j))
            if root in canonical_root:
                eid, direction = canonical_root[root], (i, j)
            else:
                eid, direction = canonical_root[uf.find((t, j, i))], (j, i)
            edge_of[(t, i, j)] = (eid, 1 if direction == (i, j) else -1)
            edge_of[(t, j, i)] = (eid, 1 if direction == (j, i) else -1)
            occurrences[eid].append((t, direction))
    edges = []
    for eid, occ in enumerate(occurrences):
        occ.sort()
        t0, (i0, j0) = occ[0]
        edges.append(EdgeClass(eid, tuple(occ), vertex_of[(t0, i0)], vertex_of[(t0, j0)]))

    face_of, members = _number_classes(
        (((t, k), (g.neighbor, g.perm[k])) for t, row in enumerate(tets) for k, g in enumerate(row)),
        ((t, k) for t in range(n) for k in range(4)),
    )
    faces = []
    for fid, occ in enumerate(members):
        t0, k0 = occ[0]
        slots = tuple(s for s in range(4) if s != k0)
        faces.append(FaceClass(fid, tuple(occ), tuple(vertex_of[(t0, s)] for s in slots)))
    return vertices, tuple(edges), tuple(faces), vertex_of, edge_of, face_of


def assert_classes_match_oracle(tri):
    vertices, edges, faces, vertex_of, edge_of, face_of = union_find_classes(tri.tets)
    assert tri.vertices == vertices
    assert tri.edges == edges
    assert tri.faces == faces
    for t in range(tri.size):
        for s in range(4):
            assert tri.vertex_class(t, s) == vertex_of[(t, s)]
            assert tri.face_class(t, s) == face_of[(t, s)]
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert tri.edge_class(t, i, j) == edge_of[(t, i, j)]


FIXTURES = sorted((Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures").glob("*.tri"))


def test_fixture_set_is_complete():
    assert len(FIXTURES) == 8


@pytest.mark.parametrize("source", ["s3", "rp3"] + [path.name for path in FIXTURES])
def test_classes_match_union_find_oracle(source):
    if source in ("s3", "rp3"):
        tri = load_builtin(source)
    else:
        tri = Triangulation.from_file(FIXTURES[0].parent / source)
    assert_classes_match_oracle(tri)


@settings(max_examples=25, deadline=None)
@given(base=st.sampled_from(["s3", "rp3"]), seed=st.integers(0, 2**32 - 1))
def test_walk_state_classes_match_union_find_oracle(base, seed):
    for _, state in walk_states(load_builtin(base), 12, seed, max_tets=12):
        assert_classes_match_oracle(state)


def random_orientable_table(rng, n):
    """A closed involutive gluing table on ``n`` tetrahedra, coherently
    oriented by construction; faces may be folded onto themselves, which
    identifies an edge with its own reverse."""
    perms = list(permutations(range(4)))
    signs = [rng.choice((1, -1)) for _ in range(n)]
    ports = [(t, k) for t in range(n) for k in range(4)]
    rng.shuffle(ports)
    table = [[None] * 4 for _ in range(n)]
    while ports:
        t, k = ports.pop()
        if not ports or rng.random() < 0.1:
            # fold face k onto itself by swapping two of its slots (odd)
            a, b = rng.sample([s for s in range(4) if s != k], 2)
            table[t][k] = Gluing(t, transposition(a, b))
            continue
        u, l = ports.pop()
        odd = signs[t] == signs[u]
        p = rng.choice([q for q in perms if q[k] == l and (permutation_sign(q) < 0) == odd])
        table[t][k] = Gluing(u, p)
        table[u][l] = Gluing(t, inverse(p))
    return table


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_random_table_classes_match_union_find_oracle(n, rng):
    table = random_orientable_table(rng, n)
    try:
        union_find_classes(table)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            Triangulation(table)
        assert str(got.value) == str(exc)
    else:
        tri = Triangulation(table)
        assert_classes_match_oracle(tri)
        assert Triangulation.from_text(tri.to_text()).tets == tri.tets


def test_self_reverse_edge_names_first_scanned_port():
    # tet 0 is glued to tet 1 and to itself without folding an edge; tet
    # 1's edge (2, 3) is the first one scanned that meets its own reverse
    rows = [
        [Gluing(1, (3, 0, 1, 2)), Gluing(0, (0, 3, 2, 1)), Gluing(1, (0, 3, 2, 1)), Gluing(0, (0, 3, 2, 1))],
        [Gluing(1, (0, 1, 3, 2)), Gluing(1, (0, 1, 3, 2)), Gluing(0, (0, 3, 2, 1)), Gluing(0, (1, 2, 3, 0))],
    ]
    with pytest.raises(ValidationError) as exc:
        union_find_classes(rows)
    assert str(exc.value).startswith("edge (1,2,3) is identified with its own reverse")
    with pytest.raises(ValidationError) as got:
        Triangulation(rows)
    assert str(got.value) == str(exc.value)


def with_gluing(tri, t, k, perm):
    """The gluing table of ``tri`` with face k of tetrahedron t glued by
    ``perm`` instead, to the same neighbor."""
    rows = [list(row) for row in tri.tets]
    rows[t][k] = Gluing(rows[t][k].neighbor, perm)
    return rows


@pytest.mark.parametrize(
    "perm", [(0, 1, 2, 4), (0, 1, 2), (0, 0, 1, 2), [0, 1, 2, 4], (1, 0, 2, 3, 4)]
)
def test_non_permutation_gluing_is_named(perm):
    rows = with_gluing(load_builtin("rp3"), 0, 0, perm)
    with pytest.raises(ValidationError) as exc:
        Triangulation(rows)
    assert str(exc.value) == f"tetrahedron 0 face 0 has invalid permutation {perm}"


TWO = [Gluing(0, IDENTITY)] * 4  # a row of the two-tetrahedron identity table


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[Gluing(True, IDENTITY)] * 4, [Gluing(False, IDENTITY)] * 4],
         "tetrahedron 0 face 0 glues to missing tetrahedron True"),
        ([[Gluing(1.0, IDENTITY)] * 4, TWO], "tetrahedron 0 face 0 glues to missing tetrahedron 1.0"),
        ([[Gluing(1, 5)] * 4, TWO], "tetrahedron 0 face 0 has invalid permutation 5"),
        ([[Gluing(1, None)] * 4, TWO], "tetrahedron 0 face 0 has invalid permutation None"),
        ([[Gluing(1, [[0], [1], [2], [3]])] * 4, TWO],
         "tetrahedron 0 face 0 has invalid permutation [[0], [1], [2], [3]]"),
        ([[Gluing(1, {0, 1, 2, 3})] * 4, TWO], "tetrahedron 0 face 0 has invalid permutation {0, 1, 2, 3}"),
        # a valid gluing of face 0 whose partner is malformed
        ([[Gluing(1, IDENTITY)] * 4, [Gluing(0, 5)] + TWO[1:]], "tetrahedron 1 face 0 has invalid permutation 5"),
        ([5, TWO], "tetrahedron 0 must glue exactly 4 faces"),
        # a form error anywhere comes before an involution error at an
        # earlier gluing: tetrahedron 0 face 0 is not involutive
        ([[Gluing(1, transposition(0, 1))] + [Gluing(1, IDENTITY)] * 3, TWO[:3] + [Gluing(0, (0, 1, 2, 4))]],
         "tetrahedron 1 face 3 has invalid permutation (0, 1, 2, 4)"),
    ],
    ids=["bool", "float-neighbor", "int-perm", "none-perm", "nested-list-perm", "set-perm", "partner-perm",
         "int-row", "form-before-involution"],
)
def test_malformed_entry_is_named(rows, message):
    # any other exception, a TypeError say, fails the type check
    with pytest.raises(Exception) as exc:
        Triangulation(rows)
    assert (exc.type, str(exc.value)) == (ValidationError, message)


def test_list_permutation_gluing_is_stored_as_a_tuple():
    # a valid table written with list permutations is the same triangulation
    s3 = load_builtin("s3")
    rebuilt = Triangulation([[Gluing(g.neighbor, list(g.perm)) for g in row] for row in s3.tets])
    assert rebuilt.tets == s3.tets
    assert all(type(g.perm) is tuple for row in rebuilt.tets for g in row)
    assert rebuilt.f_vector() == s3.f_vector()
    assert rebuilt.to_text() == s3.to_text()
    assert invariant(rebuilt, seed=1).abs_invariant == 1
    doubled = Triangulation([[Gluing(1, [0, 1, 2, 3])] * 4, [Gluing(0, [0, 1, 2, 3])] * 4])
    assert doubled.tets == ((Gluing(1, (0, 1, 2, 3)),) * 4, (Gluing(0, (0, 1, 2, 3)),) * 4)
    # one list among tuples
    rp3 = load_builtin("rp3")
    assert Triangulation(with_gluing(rp3, 0, 0, list(rp3.tets[0][0].perm))).tets == rp3.tets
    # float slots are stored as the int tuple they equal
    floats = Triangulation([[Gluing(1, (0.0, 1, 2, 3))] * 4, [Gluing(0, [0, 1.0, 2, 3])] * 4])
    assert floats.tets == doubled.tets
    assert all(type(x) is int for row in floats.tets for g in row for x in (g.neighbor, *g.perm))
    assert floats.to_text() == s3.to_text()
    # a table already in stored form is kept entry for entry
    assert all(a is b for old, new in zip(rp3.tets, Triangulation(rp3.tets).tets) for a, b in zip(old, new))


# sha256 of repr((edge members, edge_angles, face_sides)), taken before the
# incidence tables moved into the constructor; a walk's digest runs over
# its 10 states (walk_states(start, 10, seed=7)) in order
INCIDENCE_DIGESTS = {
    "s3": "89bf7a55e3223121355609e796ff0b521956d3d1ed8400acf0fec0090c812392",
    "rp3": "08cad0fd57831c69c6986010cf95585cb66286ecd6c559cb726c80732aa71db2",
    "rp3_t20": "f74ca304993b92aa46eb8701df5adc45fa331801be02622118d06ee99afe8e8a",
    "rp3_t40": "96960de1d3b076a7772dd75811d368318ddbc666a5856e557e4fea8759a0bcc1",
    "rp3_t8": "08cad0fd57831c69c6986010cf95585cb66286ecd6c559cb726c80732aa71db2",
    "rp3_t80": "d8bc68116a772d6942b4bc2d70b9b6a9f3760a4d7a62e83d8cbcef0d31b49774",
    "s3_t20": "2085bf5cdeca466883b96f99cbc7f8e1f4046e7ffe6c5949aeb09a6cb3431fb3",
    "s3_t40": "923e5f2acedb302e23fc7e1a0bcd76994d3b1999032e5e457f8c2ab7b42bb099",
    "s3_t8": "50e04d613c38f8f5b39b8d571e47cdef60a96b459b952af4b6186deb08ef60d6",
    "s3_t80": "6803ae30d082ea7f78829e00878b5d9b9844e08e1f6cd88a6b2006d5ed1bf9d4",
    "walk:s3": "3b471987ee037d2ee015aae551e1ba86dafede50202ec99d1d17db153a408ace",
    "walk:rp3": "ae6b40a50fa91dbee41f0c4e9ddf2e3f011e4d3365a794a7e17a923894f9fcaf",
    "walk:one_tet": "e4afad3f549ca04b1f2f0f33a42bf1aad4581b1f8961b0b3c0163ee91f642d2c",
}


@pytest.mark.parametrize("source", sorted(INCIDENCE_DIGESTS))
def test_incidence_tables_pinned(source):
    if source.startswith("walk:"):
        name = source[len("walk:"):]
        start = Triangulation.from_text(ONE_TET) if name == "one_tet" else load_builtin(name)
        tris = [state for _, state in walk_states(start, 10, seed=7)]
    elif source in ("s3", "rp3"):
        tris = [load_builtin(source)]
    else:
        tris = [Triangulation.from_file(FIXTURES[0].parent / f"{source}.tri")]
    digest = hashlib.sha256()
    for tri in tris:
        digest.update(repr((tuple(e.members for e in tri.edges), tri.edge_angles, tri.face_sides)).encode())
    assert digest.hexdigest() == INCIDENCE_DIGESTS[source]


@pytest.mark.parametrize(
    "record, fields, degree, text",
    [
        (Gluing(1, (1, 0, 2, 3)), ("neighbor", "perm"), None, "Gluing(neighbor=1, perm=(1, 0, 2, 3))"),
        (VertexClass(0, ((0, 1), (1, 1))), ("id", "members"), 2, "VertexClass(id=0, members=((0, 1), (1, 1)))"),
        (
            EdgeClass(2, ((0, (0, 1)), (1, (2, 3)), (1, (1, 0))), 0, 1),
            ("id", "members", "tail", "head"),
            3,
            "EdgeClass(id=2, members=((0, (0, 1)), (1, (2, 3)), (1, (1, 0))), tail=0, head=1)",
        ),
        (
            FaceClass(3, ((0, 2), (1, 0)), (0, 1, 3)),
            ("id", "members", "vertices"),
            None,
            "FaceClass(id=3, members=((0, 2), (1, 0)), vertices=(0, 1, 3))",
        ),
        (MoveSite("2->3", (0, 1)), ("kind", "location"), None, "MoveSite(kind='2->3', location=(0, 1))"),
    ],
)
def test_records_keep_fields_equality_and_repr(record, fields, degree, text):
    assert record._fields == fields
    if degree is not None:
        assert record.degree == degree
    twin = type(record)(*(getattr(record, name) for name in fields))
    assert twin == record and hash(twin) == hash(record) and twin is not record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == text



# -- shellings ----------------------------------------------------------------


def assert_shelling(tri, start):
    """The root's corners and edges in slot order, then each later vertex
    class once, joined by 3 distinct edge classes to the corners of one
    face class, all placed before it: 3V - 6 distinct edges in all."""
    corners, edges, later, last = tri.shelling(start)
    assert corners == tuple(tri.vertex_class(start, s) for s in range(4))
    assert edges == tuple(tri.edge_class(start, i, j)[0] for i, j in SLOT_PAIRS)
    faces = {tuple(sorted(face.vertices)) for face in tri.faces}
    placed = set(corners)
    for v, own in later:
        assert v not in placed and len(set(own)) == 3
        ends = [{tri.edges[e].tail, tri.edges[e].head} for e in own]
        assert all(v in pair and len(pair) == 2 for pair in ends)
        corners_of_face = sorted(u for pair in ends for u in pair if u != v)
        assert tuple(corners_of_face) in faces and placed.issuperset(corners_of_face)
        placed.add(v)
    assert len(placed) == len(corners) + len(later) == len(tri.vertices)
    tree = [*edges, *(e for _, own in later for e in own)]
    assert len(set(tree)) == len(tree) == 3 * len(tri.vertices) - 6
    assert 0 <= last < tri.size


@pytest.mark.parametrize(
    "source", ["s3", "rp3"] + [path.name for path in FIXTURES] + sorted(SUBDIVIDED_GOLDENS)
)
def test_shelling_places_each_vertex_once(source):
    if source in ("s3", "rp3"):
        tri = load_builtin(source)
    elif source.endswith(".tri"):
        tri = Triangulation.from_file(FIXTURES[0].parent / source)
    else:
        tri = subdivided(source)
    # s3'' has 1152 tetrahedra: every 16th root keeps the test under a second
    for start in range(0, tri.size, 16 if tri.size > 1000 else 1):
        assert_shelling(tri, start)


def test_shelling_places_each_vertex_once_on_walk_states():
    rng = random.Random(34)
    for n in range(50):
        tri = random_walk(load_builtin(("s3", "rp3")[n % 2]), rng.randint(1, 20), rng.getrandbits(32), 16)
        for start in range(tri.size):
            assert_shelling(tri, start)
