"""Bistellar moves on glued triangulations and a seeded random walk.

All four moves are implemented as local surgery on the gluing table: a set
of tetrahedra is deleted, replacement tetrahedra are created with explicit
internal gluings, and every boundary face of the deleted cluster is mapped
to a face of the replacement with a full slot bijection.  Gluings of the
surrounding triangulation are rewritten through those maps, which handles
the awkward cases where the cluster is glued to itself.  Every result is
re-validated from scratch (involutivity, orientability, connectivity),
and a result whose f-vector did not change by the move's delta raises
``MoveError``.

Move sites:

    2->3  a face class whose two sides lie in distinct tetrahedra
    3->2  an edge class of degree 3 with three distinct tetrahedra whose
          cycle around the edge closes up
    1->4  any tetrahedron
    4->1  a vertex class of degree 4 whose star is the standard ball

The random walk only drives through moves that keep the geometry sampler
solvable: a 2->3 whose new edge would join a vertex class to itself is
skipped, since every face containing such an edge has identically zero
circulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .errors import MoveError
from .triangulation import (
    Gluing,
    IDENTITY,
    Perm,
    Triangulation,
    compose,
    inverse,
    transposition,
)

KINDS = ("2->3", "3->2", "1->4", "4->1")
_GROWING = {"2->3", "1->4"}


@dataclass(frozen=True)
class MoveSite:
    """A location where a move applies.

    location meaning by kind: 2->3 a (tetrahedron, face slot) port naming
    the shared face; 3->2 an edge class id; 1->4 a tetrahedron index;
    4->1 a vertex class id.
    """

    kind: str
    location: tuple[int, int] | int


def _surgery(tri, deleted, new_count, internal, boundary) -> Triangulation:
    """Replace `deleted` tetrahedra by `new_count` fresh ones.

    internal: ((i, si), (j, sj), perm) gluings among new tetrahedra, perm
    mapping tet-i slots to tet-j slots.  boundary: maps each remaining port
    (old_tet, slot) of a deleted tetrahedron to (new_local, slot, m) where
    m is a full old-slot -> new-slot bijection with m[slot] == new slot.
    """
    dset = set(deleted)
    survivors = [t for t in range(tri.size) if t not in dset]
    new_index = {old: i for i, old in enumerate(survivors)}
    base = len(survivors)
    table: list[list[Gluing | None]] = [[None] * 4 for _ in range(base + new_count)]

    for old in survivors:
        for s, g in enumerate(tri.tets[old]):
            if g.neighbor not in dset:
                table[new_index[old]][s] = Gluing(new_index[g.neighbor], g.perm)

    for (i, si), (j, sj), perm in internal:
        table[base + i][si] = Gluing(base + j, perm)
        table[base + j][sj] = Gluing(base + i, inverse(perm))

    for (old_t, old_s), (nl, ns, m) in boundary.items():
        g = tri.tets[old_t][old_s]
        out = compose(g.perm, inverse(m))  # new slots -> old partner slots
        if g.neighbor not in dset:
            # both sides of a survivor gluing, as for the internal ones
            table[base + nl][ns] = Gluing(new_index[g.neighbor], out)
            table[new_index[g.neighbor]][g.perm[old_s]] = Gluing(base + nl, inverse(out))
        else:
            nl2, _, m2 = boundary[(g.neighbor, g.perm[old_s])]
            table[base + nl][ns] = Gluing(base + nl2, compose(m2, out))

    if any(entry is None for row in table for entry in row):
        raise MoveError("surgery left an unglued face (invalid site data)")
    return Triangulation(table)


def _apply_checked(tri, deleted, new_count, internal, boundary, delta) -> Triangulation:
    out = _surgery(tri, deleted, new_count, internal, boundary)
    before = tri.f_vector()
    after = out.f_vector()
    got = tuple(a - b for a, b in zip(after, before))
    if got != delta:
        raise MoveError(f"move changed the f-vector by {got}, expected {delta}")
    return out


def _require(index: int, count: int, what: str) -> None:
    """Raise unless the site's ``index`` names one of ``count`` objects;
    a negative index would otherwise wrap around."""
    if not 0 <= index < count:
        raise MoveError(f"no {what} {index}")


def _slot_map(entries: dict[int, int]) -> Perm:
    out = [None] * 4
    for k, v in entries.items():
        out[k] = v
    return tuple(out)


# -- 1 -> 4 -------------------------------------------------------------


def _move_1_4(tri: Triangulation, t: int) -> Triangulation:
    _require(t, tri.size, "tetrahedron")
    internal = []
    for k in range(4):
        for j in range(k):
            internal.append(((k, j), (j, k), transposition(j, k)))
    boundary = {(t, k): (k, k, IDENTITY) for k in range(4)}
    return _apply_checked(tri, [t], 4, internal, boundary, (1, 4, 6, 3))


# -- 2 -> 3 -------------------------------------------------------------


def _move_2_3(tri: Triangulation, t: int, a: int) -> Triangulation:
    _require(t, tri.size, "tetrahedron")
    _require(a, 4, "face slot")
    g = tri.tets[t][a]
    other, p = g.neighbor, g.perm
    if other == t:
        raise MoveError("2->3 needs two distinct tetrahedra sharing the face")
    ap = p[a]
    fs = [s for s in range(4) if s != a]
    if tri.sequence_parity(t, (fs[0], fs[1], fs[2], a)):
        fs[0], fs[1] = fs[1], fs[0]
    pairs = [(fs[0], fs[1]), (fs[1], fs[2]), (fs[2], fs[0])]
    third = [fs[2], fs[0], fs[1]]
    swap01 = transposition(0, 1)
    internal = [((0, 0), (1, 1), swap01), ((1, 0), (2, 1), swap01), ((2, 0), (0, 1), swap01)]
    boundary = {}
    for i, (u, v) in enumerate(pairs):
        r = third[i]
        boundary[(t, r)] = (i, 2, _slot_map({u: 0, v: 1, a: 3, r: 2}))
        boundary[(other, p[r])] = (i, 3, _slot_map({p[u]: 0, p[v]: 1, ap: 2, p[r]: 3}))
    return _apply_checked(tri, [t, other], 3, internal, boundary, (0, 1, 2, 1))


# -- 3 -> 2 -------------------------------------------------------------


def _edge_cycle(tri: Triangulation, edge_id: int):
    """The cyclic order of three distinct tetrahedra around a degree-3 edge,
    or None when the star is not the standard one."""
    star = tri.edge_angles[edge_id]
    if len(star) != 3:
        return None
    tets = [tet for _, (tet, _, _) in star]
    if len(set(tets)) != 3:
        return None
    _, (t0, (p0, q0), (e0, d0)) = star[0]
    cycle = []
    cur = (t0, p0, q0, e0, d0)
    for _ in range(3):
        cycle.append(cur)
        t, p, q, e, d = cur
        g = tri.tets[t][p]
        cur = (g.neighbor, g.perm[q], g.perm[p], g.perm[e], g.perm[d])
    if cur != cycle[0]:
        return None
    if sorted(c[0] for c in cycle) != sorted(tets):
        return None
    return cycle


def _move_3_2(tri: Triangulation, edge_id: int) -> Triangulation:
    _require(edge_id, len(tri.edges), "edge class")
    cycle = _edge_cycle(tri, edge_id)
    if cycle is None:
        raise MoveError(
            f"edge class {edge_id} is not a 3->2 site (degree 3, distinct "
            "tetrahedra, closed cycle required)"
        )
    (t1, p1, q1, e1, d1), (t2, p2, q2, e2, d2), (t3, p3, q3, e3, d3) = cycle
    internal = [((0, 3), (1, 3), IDENTITY)]
    boundary = {
        (t1, e1): (0, 2, _slot_map({p1: 0, q1: 1, d1: 3, e1: 2})),
        (t2, e2): (0, 0, _slot_map({p2: 1, q2: 2, d2: 3, e2: 0})),
        (t3, e3): (0, 1, _slot_map({p3: 2, q3: 0, d3: 3, e3: 1})),
        (t1, d1): (1, 2, _slot_map({p1: 0, q1: 1, e1: 3, d1: 2})),
        (t2, d2): (1, 0, _slot_map({p2: 1, q2: 2, e2: 3, d2: 0})),
        (t3, d3): (1, 1, _slot_map({p3: 2, q3: 0, e3: 3, d3: 1})),
    }
    return _apply_checked(tri, [t1, t2, t3], 2, internal, boundary, (0, -1, -2, -1))


# -- 4 -> 1 -------------------------------------------------------------


def _vertex_ball(tri: Triangulation, vertex_id: int):
    """Slot maps of a standard degree-4 vertex star, or None."""
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
    # every internal gluing must look like the face pairing of a cone over
    # the boundary of a tetrahedron
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


def _move_4_1(tri: Triangulation, vertex_id: int) -> Triangulation:
    _require(vertex_id, len(tri.vertices), "vertex class")
    ball = _vertex_ball(tri, vertex_id)
    if ball is None:
        raise MoveError(
            f"vertex class {vertex_id} is not a 4->1 site (its star is not "
            "a standard four-tetrahedron ball)"
        )
    occ, maps = ball
    boundary = {(t, w): (0, i, maps[i]) for i, (t, w) in enumerate(occ)}
    return _apply_checked(
        tri, [t for t, _ in occ], 1, [], boundary, (-1, -4, -6, -3)
    )


# -- public api ----------------------------------------------------------


def apply_move(tri: Triangulation, site: MoveSite) -> Triangulation:
    """Apply one bistellar move; the input triangulation is untouched."""
    if site.kind == "1->4":
        return _move_1_4(tri, site.location)
    if site.kind == "2->3":
        t, a = site.location
        return _move_2_3(tri, t, a)
    if site.kind == "3->2":
        return _move_3_2(tri, site.location)
    if site.kind == "4->1":
        return _move_4_1(tri, site.location)
    raise MoveError(f"unknown move kind {site.kind!r}")


def enumerate_sites(tri: Triangulation, kind: str) -> list[MoveSite]:
    """All valid sites of one kind, in deterministic class/index order."""
    if kind == "1->4":
        return [MoveSite(kind, t) for t in range(tri.size)]
    if kind == "2->3":
        out = []
        for f in tri.faces:
            t, k = f.members[0]
            if tri.tets[t][k].neighbor != t:
                out.append(MoveSite(kind, (t, k)))
        return out
    if kind == "3->2":
        return [
            MoveSite(kind, e.id)
            for e in tri.edges
            if _edge_cycle(tri, e.id) is not None
        ]
    if kind == "4->1":
        return [
            MoveSite(kind, v.id)
            for v in tri.vertices
            if _vertex_ball(tri, v.id) is not None
        ]
    raise MoveError(f"unknown move kind {kind!r}")


def _keeps_sampler_solvable(tri: Triangulation, site: MoveSite) -> bool:
    # only a 2->3 can create an edge with identified endpoints (its new
    # edge joins the two apexes)
    if site.kind != "2->3":
        return True
    t, a = site.location
    g = tri.tets[t][a]
    return tri.vertex_class(t, a) != tri.vertex_class(g.neighbor, g.perm[a])


def walk_states(
    tri: Triangulation,
    steps: int,
    seed: int,
    max_tets: int = 12,
) -> Iterator[tuple[MoveSite, Triangulation]]:
    """Seeded random walk, yielding (site, triangulation) after each move.

    Move kinds with no usable site are skipped; above ``max_tets`` the walk
    prefers shrinking moves when any apply.  A 1->4 always applies, so the
    walk never stalls.
    """
    rng = random.Random(seed)
    current = tri
    for _ in range(steps):
        options: dict[str, list[MoveSite]] = {}
        for kind in KINDS:
            sites = [
                s
                for s in enumerate_sites(current, kind)
                if _keeps_sampler_solvable(current, s)
            ]
            if sites:
                options[kind] = sites
        kinds = sorted(options)
        if current.size > max_tets:
            shrinking = [k for k in kinds if k not in _GROWING]
            if shrinking:
                kinds = shrinking
        kind = kinds[rng.randrange(len(kinds))]
        sites = options[kind]
        site = sites[rng.randrange(len(sites))]
        current = apply_move(current, site)
        yield site, current


def random_walk(
    tri: Triangulation,
    steps: int,
    seed: int,
    max_tets: int = 12,
) -> Triangulation:
    """Final triangulation of the seeded random walk."""
    current = tri
    for _, current in walk_states(tri, steps, seed, max_tets):
        pass
    return current
