"""Bistellar moves on glued triangulations and a seeded random walk.

Every move is one surgery.  Number the vertices of a 4-simplex 0..4; its
boundary has five facets, the tetrahedron missing label j for each j.  A
1->4, 2->3, 3->2 or 4->1 move finds k tetrahedra glued to each other like
k facets of that boundary and replaces them by the other 5-k facets.

Each kind has one rule in ``_RULES``: a function that labels the slots of
the tetrahedra the move removes at a location, or returns None where the
move does not apply, with the number of the kind's candidate locations,
the constant labels of the new tetrahedra and the kind's refusal text.
Every location is an index below that number.  ``apply_move`` checks that
a location names an object, labels it and hands the labels to
``_bistellar``; ``enumerate_sites`` and the walk keep the candidate
locations that label, so a site is listed exactly where the move applies.

``_bistellar`` derives every gluing from one rule.  The face opposite
label x of the tetrahedron missing label j is the triangle missing j and
x, so it is glued to the tetrahedron missing x, matching slots of equal
labels and pairing x with j.  When that tetrahedron is a removed one, the
new face takes over whatever the removed face opposite j was glued to;
when that is a removed face too (the cluster glued to itself), it goes on
to the new tetrahedron that replaces it.

The labels, with the removed tetrahedra first:

    1->4  the tetrahedron: slots 0..3 carry 0..3; new tetrahedron k
          carries 0..3 with 4 at slot k
    2->3  across face a of t, the face class's first port, with the
          other slots fs in positive order: t carries k at fs[k] and 3 at
          a, its neighbour 4 at the glued face and k at the image of
          fs[k]; new (0,1,4,3), (1,2,4,3), (2,0,4,3)
    3->2  the k-th tetrahedron of the cycle around the edge e -> d with
          off-edge slots (p, q): k at p, k+1 mod 3 at q, 4 at e, 3 at d;
          new (0,1,2,3), (0,1,2,4)
    4->1  member i of the vertex star: 4 at the vertex and, at every other
          slot, the index of the member across it; new (0,1,2,3)

Survivors keep their order and the new tetrahedra follow them.  Every
result is re-validated from scratch (involutivity, orientability,
connectivity); a face left unglued, or an f-vector that did not change by
the move's delta, raises ``MoveError``.

Candidate locations, in search order, and where each rule labels:

    2->3  each face class id: its two sides lie in distinct tetrahedra
    3->2  each edge class id: degree 3 and three distinct tetrahedra,
          around which the cycle always closes up
    1->4  each tetrahedron: always
    4->1  each vertex class id: degree 4, four distinct tetrahedra glued to
          each other as their labels say

The random walk only drives through moves that keep the geometry sampler
solvable: a 2->3 whose new edge would join a vertex class to itself is
skipped, since every face containing such an edge has identically zero
circulation.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import product
from typing import Callable, Iterator, NamedTuple

from .errors import MoveError
from .exact import permutation_sign
from .triangulation import Gluing, Perm, Triangulation, compose, inverse

_GROWING = {"2->3", "1->4"}
# the f-vector change by the number of tetrahedra a move removes
_DELTA = {1: (1, 4, 6, 3), 2: (0, 1, 2, 1), 3: (0, -1, -2, -1), 4: (-1, -4, -6, -3)}


class MoveSite(NamedTuple):
    """A move kind and a location, a named tuple like the records of
    ``triangulation``; ``enumerate_sites`` lists those where the kind's
    rule labels, and ``apply_move`` refuses the others.

    Every location is an index: 2->3 a face class id naming the shared
    face; 3->2 an edge class id; 1->4 a tetrahedron index; 4->1 a vertex
    class id.
    """

    kind: str
    location: int


@cache
def _carry(src: tuple[int, ...], dst: tuple[int, ...]) -> Perm:
    """Slot map from the facet labelled ``src`` to the facet labelled
    ``dst`` across their common triangle: equal labels match, and the label
    ``dst`` lacks goes to the label ``src`` lacks."""
    (x,) = set(src) - set(dst)
    (j,) = set(dst) - set(src)
    return tuple(dst.index(j if label == x else label) for label in src)


def _bistellar(tri: Triangulation, old: dict[int, tuple[int, ...]], new: list[tuple[int, ...]]) -> Triangulation:
    """Replace the tetrahedra ``old`` maps to their slot labels by new
    tetrahedra with the slot labels ``new`` (see the module docstring)."""
    survivors = [t for t in range(tri.size) if t not in old]
    index = {t: i for i, t in enumerate(survivors)}
    base = len(survivors)
    table: list[list[Gluing | None]] = [
        [None if g.neighbor in old else Gluing(index[g.neighbor], g.perm) for g in tri.tets[t]] for t in survivors
    ]
    table += [[None] * 4 for _ in new]
    # labels sum to 10 over the 4-simplex, so a facet misses 10 - its sum
    new_of = {10 - sum(labels): (base + k, labels) for k, labels in enumerate(new)}
    old_of = {10 - sum(labels): (t, labels) for t, labels in old.items()}
    for k, labels in enumerate(new):
        j, row = 10 - sum(labels), table[base + k]
        for s, x in enumerate(labels):
            if x in new_of:
                u, there = new_of[x]
                row[s] = Gluing(u, _carry(labels, there))
                continue
            # the removed tetrahedron missing x hands over its face opposite j
            t, removed = old_of[x]
            g = tri.tets[t][removed.index(j)]
            perm = compose(g.perm, _carry(labels, removed))
            if g.neighbor not in old:
                row[s] = Gluing(index[g.neighbor], perm)
                table[index[g.neighbor]][perm[s]] = Gluing(base + k, inverse(perm))
                continue
            # glued to a removed face: on to the new tetrahedron replacing it
            far = old[g.neighbor]
            if far[perm[s]] in new_of:
                u, there = new_of[far[perm[s]]]
                row[s] = Gluing(u, compose(_carry(far, there), perm))
    if any(entry is None for row in table for entry in row):
        raise MoveError("surgery left an unglued face (invalid site data)")
    out = Triangulation(table)
    got = tuple(a - b for a, b in zip(out.f_vector(), tri.f_vector()))
    if got != _DELTA[len(old)]:
        raise MoveError(f"move changed the f-vector by {got}, expected {_DELTA[len(old)]}")
    return out


def _require(index: int, count: int, what: str) -> None:
    """Raise unless the site's ``index`` is an int (not a bool) naming one
    of ``count`` objects; a negative index would otherwise wrap around."""
    if type(index) is not int or not 0 <= index < count:
        raise MoveError(f"no {what} {index!r}")


# -- the rules: the slot labels of the tetrahedra a move removes, or None


def _positive_face(sign: int, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The slots fs of face a in positive order, so that (fs[0], fs[1],
    fs[2], a) has orientation sign ``sign``, and the 2->3 labels of the
    tetrahedron on that side: k at fs[k] and 3 at a."""
    fs = [s for s in range(4) if s != a]
    if permutation_sign((*fs, a)) != sign:
        fs[0], fs[1] = fs[1], fs[0]
    return tuple(fs), tuple(fs.index(s) if s != a else 3 for s in range(4))


# per (orientation sign, face slot), so that labelling a face, which listing
# the 2->3 sites does for every face, reads no parity
_FACE_ORDER = {key: _positive_face(*key) for key in product((1, -1), range(4))}


def _face_labels(tri: Triangulation, face_id: int):
    """2->3: a face whose two sides lie in distinct tetrahedra; the other
    side carries k at the image of fs[k] and 4 at the glued face."""
    (t, a), (other, _) = tri.faces[face_id].members
    if other == t:
        return None
    p = tri.tets[t][a].perm
    (f0, f1, f2), here = _FACE_ORDER[tri.orientation_signs[t], a]
    there = [4, 4, 4, 4]
    there[p[f0]], there[p[f1]], there[p[f2]] = 0, 1, 2
    return {t: here, other: tuple(there)}


def _edge_cycle(tri: Triangulation, edge_id: int):
    """3->2: the three distinct tetrahedra around a degree-3 edge,
    labelled while the cycle is walked from the edge's first star
    contribution, or None when the star is not the standard one."""
    star = tri.edge_angles[edge_id]
    if len(star) != 3:
        return None
    if len({tet for _, (tet, _, _) in star}) != 3:
        return None
    _, (t, (p, q), (e, d)) = star[0]
    old = {}
    # the walk always closes: each step enters the next member of the star
    # and never turns back, so three steps label each of three members once
    for k in range(3):
        labels = [0] * 4
        labels[p], labels[q], labels[e], labels[d] = k, (k + 1) % 3, 4, 3
        old[t] = tuple(labels)
        g = tri.tets[t][p]
        t, p, q, e, d = g.neighbor, g.perm[q], g.perm[p], g.perm[e], g.perm[d]
    return old


def _vertex_ball(tri: Triangulation, vertex_id: int):
    """4->1: a standard degree-4 vertex star, whose members are glued to
    each other as their labels say, or None."""
    occ = tri.vertices[vertex_id].members
    if len(occ) != 4:
        return None
    member = {t: i for i, (t, _) in enumerate(occ)}
    if len(member) != 4:
        return None
    old = {}
    for i, (t, w) in enumerate(occ):
        labels = [member.get(g.neighbor, i) for g in tri.tets[t]]
        labels[w] = 4
        if i in labels or len(set(labels)) != 4:
            return None
        old[t] = tuple(labels)
    for t, labels in old.items():
        for g, x in zip(tri.tets[t], labels):
            if x != 4 and g.perm != _carry(labels, old[g.neighbor]):
                return None
    return old


class _Rule(NamedTuple):
    """One move kind: the number of its candidate locations, which are the
    indices below it in search order, what such an index names, the
    labelling of the tetrahedra it removes, the labels of the new ones and
    its refusal, formatted with the location (a 1->4 is never refused)."""

    count: Callable[[Triangulation], int]
    what: str
    labels: Callable[[Triangulation, int], dict[int, tuple[int, ...]] | None]
    new: tuple[tuple[int, ...], ...]
    refusal: str


_RULES = {
    "2->3": _Rule(lambda tri: len(tri.faces), "face class", _face_labels,
                  ((0, 1, 4, 3), (1, 2, 4, 3), (2, 0, 4, 3)), "2->3 needs two distinct tetrahedra sharing the face"),
    "3->2": _Rule(lambda tri: len(tri.edges), "edge class", _edge_cycle, ((0, 1, 2, 3), (0, 1, 2, 4)),
                  "edge class {} is not a 3->2 site (degree 3, distinct tetrahedra, closed cycle required)"),
    "1->4": _Rule(lambda tri: tri.size, "tetrahedron", lambda tri, t: {t: (0, 1, 2, 3)},
                  ((4, 1, 2, 3), (0, 4, 2, 3), (0, 1, 4, 3), (0, 1, 2, 4)), ""),
    "4->1": _Rule(lambda tri: len(tri.vertices), "vertex class", _vertex_ball, ((0, 1, 2, 3),),
                  "vertex class {} is not a 4->1 site (its star is not a standard four-tetrahedron ball)"),
}
KINDS = tuple(_RULES)


def _rule(kind: str) -> _Rule:
    # an unhashable kind is as unknown as any other
    try:
        return _RULES[kind]
    except (KeyError, TypeError):
        raise MoveError(f"unknown move kind {kind!r}") from None


# -- public api ----------------------------------------------------------


def apply_move(tri: Triangulation, site: MoveSite) -> Triangulation:
    """Apply one bistellar move; the input triangulation is untouched."""
    rule, location = _rule(site.kind), site.location
    _require(location, rule.count(tri), rule.what)
    if (old := rule.labels(tri, location)) is None:
        raise MoveError(rule.refusal.format(location))
    return _bistellar(tri, old, rule.new)


def _sites(tri: Triangulation, kind: str) -> Iterator[MoveSite]:
    """The sites of one kind, lazily: the candidate locations that label."""
    count, _, labels, _, _ = _rule(kind)
    return (MoveSite(kind, i) for i in range(count(tri)) if labels(tri, i) is not None)


def enumerate_sites(tri: Triangulation, kind: str) -> list[MoveSite]:
    """All valid sites of one kind, in deterministic class/index order."""
    return list(_sites(tri, kind))


def _keeps_sampler_solvable(tri: Triangulation, site: MoveSite) -> bool:
    # only a 2->3 can create an edge with identified endpoints (its new
    # edge joins the two apexes)
    if site.kind != "2->3":
        return True
    (t, a), (u, b) = tri.faces[site.location].members
    return tri.vertex_class(t, a) != tri.vertex_class(u, b)


def walk_states(
    tri: Triangulation,
    steps: int,
    seed: int,
    max_tets: int = 12,
) -> Iterator[tuple[MoveSite, Triangulation]]:
    """Seeded random walk, yielding (site, triangulation) after each move.

    Move kinds with no usable site are skipped; above ``max_tets`` the walk
    prefers shrinking moves when any apply.  A 1->4 always applies, so the
    walk never stalls.  Each step draws a kind among the usable ones, in
    sorted order, then a site among that kind's usable sites: a kind is
    usable as soon as its first usable site turns up, and only the drawn
    kind's sites are listed, by ``enumerate_sites``.
    """
    rng = random.Random(seed)
    current = tri
    for _ in range(steps):
        kinds = [k for k in sorted(KINDS) if any(_keeps_sampler_solvable(current, s) for s in _sites(current, k))]
        if current.size > max_tets:
            shrinking = [k for k in kinds if k not in _GROWING]
            if shrinking:
                kinds = shrinking
        kind = kinds[rng.randrange(len(kinds))]
        sites = [s for s in enumerate_sites(current, kind) if _keeps_sampler_solvable(current, s)]
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
