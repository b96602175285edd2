"""Glued-tetrahedra model of closed oriented 3-manifold triangulations.

A triangulation is a list of abstract tetrahedra with all four faces glued
in pairs, connected: every tetrahedron is reached from tetrahedron 0
across gluings, so the table describes one manifold.  Vertices, edges and
faces of the quotient pseudo-manifold are orbits of local simplices under
the gluing maps, so two distinct edge classes may well join the same pair
of vertex classes.

The orbits are traversed over integer ports kept in flat lists: ``4t+s``
for vertex slot s of tetrahedron t, ``16t+4i+j`` for its directed edge
(i, j) and ``4t+k`` for its face k.  A gluing of face k joins each port of
t not involving slot k to the port it is carried to.  Each gluing is
checked once and kept in the form it was checked in: a first scan checks
every row's length, then each entry's form, and stores it with an int
neighbor and one of the 24 permutation tuples; a second scan reads only
stored gluings, checks that each is involutive and flattens it into one
list that sends ``16t+4k+s`` to the vertex port ``4t'+s'`` that the
gluing of face k carries slot s to, so ``16t+5k`` is the face port glued
to face k.  Classes are numbered in port scan order, each filled
from its first unassigned port: tetrahedra in order, their slots or faces
in order, their edges in the order ``(0,1), (0,2), (0,3), (1,2), (1,3),
(2,3)``.  An edge orbit is one walk around its edge: from (t, i, j) with
off-edge slots (x, y), across the face opposite x to the neighbor, which
carries i, j and y over, the image of y being the next x, until the walk
is back at its first port.  Each port the walk passes gets sign +1 and
its mirror (j, i) sign -1, in passing, so the mirror ports form the
reverse orbit with the same class; an orbit that meets its own mirror is
rejected.  A face class is the two ports of one gluing.

Every incidence the curvature and circulation formulas read is resolved
once, on construction, into sides, ``(edge class id, sign)`` pairs of
directed edges, so that no formula looks an edge up again.  After the
edge walk, one scan over the tetrahedra builds ``edge_angles`` and the
face classes.  ``edge_angles`` holds, per edge class, one angle per star
contribution in star order, as its six sides (ph, hq, qp, pe, eq, he; see
``_angle_ports``) with the contribution itself; the star is the class's
members, and its first contribution gives the class's tail and head.
``face_sides`` holds, per face class, the three sides of its stored
boundary.  (P, Q) and the side offsets come from one table per
orientation sign, built at import.

Conventions fixed here and relied on everywhere downstream:

* Each tetrahedron has vertex slots 0..3; "face k" is the face opposite
  slot k.  A gluing of face k carries a permutation ``perm`` of all four
  slots sending local slots to the neighbor's slots, with ``perm[k]`` the
  neighbor's glued face.
* Orientation signs are propagated from tetrahedron 0 (sign +1).  Across a
  gluing with permutation parity p the coherence relation
  ``s1 * s2 * (-1)**p == -1`` must hold, and a tetrahedron the
  propagation does not reach makes the table disconnected, which is
  rejected.  The positively oriented vertex ordering of a tetrahedron is
  its stored slot order for sign +1 and the order with the first two
  slots swapped for sign -1.
* Every edge class carries a canonical direction: the (tail, head) slot
  direction of its first occurrence in scan order.  Directed occurrences
  are tracked so any local edge knows its sign relative to the class.
* An edge-star contribution orders the two off-edge slots (P, Q) so that
  (P, Q, tail, head) is an even permutation of the tetrahedron's positive
  ordering.  Swapping P and Q, or reversing the edge, flips the sign of
  every angle value built on top of this.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import permutations
from operator import itemgetter
from typing import NamedTuple

from .errors import ParseError, ValidationError
from .exact import parse_integer, permutation_sign

Perm = tuple[int, int, int, int]
Side = tuple[int, int]  # (edge class id, sign of a direction vs. canonical)
Contribution = tuple[int, tuple[int, int], tuple[int, int]]  # (tet, (P, Q), (tail, head))
Angle = tuple[tuple[Side, ...], Contribution]  # six sides and the star contribution

FILE_MAGIC = "pentachain-tri v1"


# the 24 slot permutations by their text in a .tri file, "0123" and so
# on, and each keyed by itself, so that a lookup with any key equal to one
# returns that one tuple: a parsed table is already in stored form
_PERM_OF_TEXT: dict[str, Perm] = {"".join(map(str, p)): p for p in permutations(range(4))}
_PERMS: dict[Perm, Perm] = {p: p for p in _PERM_OF_TEXT.values()}
_INVERSE: dict[Perm, Perm] = {p: _PERMS[tuple(map(p.index, range(4)))] for p in _PERMS}
_SIGN: dict[Perm, int] = {p: permutation_sign(p) for p in _PERMS}


def compose(p: Perm, q: Perm) -> Perm:
    """Composition p after q: (p∘q)[i] = p[q[i]], as one of the 24 stored
    tuples."""
    return _PERMS[(p[q[0]], p[q[1]], p[q[2]], p[q[3]])]


def inverse(p: Perm) -> Perm:
    """The inverse of one of the 24 permutations, as a stored tuple."""
    return _INVERSE[p]


class Gluing(NamedTuple):
    """One face gluing: target tetrahedron and the 4-slot permutation.

    Every record of the package is a named tuple, as this one and the
    three class records below are: immutable, equal and hashed by their
    fields, cheap to build in the bulk that parsing, validation and every
    move create, and cheap to define at import."""

    neighbor: int
    perm: Perm


class VertexClass(NamedTuple):
    """A vertex class: its id and its (tet, slot) members in port order."""

    id: int
    members: tuple[tuple[int, int], ...]  # (tet, slot)

    @property
    def degree(self) -> int:
        return len(self.members)


class EdgeClass(NamedTuple):
    """An edge class: its id and the vertex classes of its canonical tail
    and head.  Its members and degree are its star's: the (tet, (tail
    slot, head slot)) of each contribution in ``edge_angles[id]``, and
    their number."""

    id: int
    tail: int  # vertex class ids
    head: int


class FaceClass(NamedTuple):
    """A face class: its id, its two (tet, opposite slot) ports and the
    vertex classes of its first member's slots."""

    id: int
    members: tuple[tuple[int, int], ...]  # (tet, opposite slot)
    vertices: tuple[int, int, int]  # vertex class ids of members[0]'s slots a < b < c, in slot order


_SLOT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# the offsets, within a tetrahedron's 16 entries of the flat gluing list,
# that one vertex orbit step reads: for slot s, 4k+s over the faces k != s
_VERTEX_HOPS = tuple(tuple(4 * k + s for k in range(4) if k != s) for s in range(4))
# per directed slot pair 4a+b with a != b, its two off-edge slots ascending
_OFF_SLOTS = tuple(tuple(s for s in range(4) if s != a and s != b) for a in range(4) for b in range(4))
# per face k: k, the offset 5k of the port glued to it, its slots a < b < c
# and a getter of its boundary sides (a, b), (b, c), (c, a) from the
# tetrahedron's 16 port sides
_FACE_SLOTS = tuple(
    (k, 5 * k, a, b, c, itemgetter(4 * a + b, 4 * b + c, 4 * c + a))
    for k, (a, b, c) in enumerate(tuple(s for s in range(4) if s != k) for k in range(4))
)


def _angle_ports(p: int, q: int, e: int, h: int) -> tuple[int, ...]:
    """Port offsets ``4a+b`` of the six sides of the angle at e -> h with
    off-edge slots (p, q), in the order ph, hq, qp, pe, eq, he."""
    return tuple(4 * a + b for a, b in ((p, h), (h, q), (q, p), (p, e), (e, q), (h, e)))


def _star_slot(sign: int, e: int, h: int) -> tuple:
    """The directed slot pair e -> h in a tetrahedron with orientation sign
    ``sign``: its port offset, its off-edge slots (P, Q) with (P, Q, e, h)
    even against the positive ordering, (e, h) and a getter of its angle's
    six sides from the tetrahedron's 16 port sides."""
    p, q = _OFF_SLOTS[4 * e + h]
    if permutation_sign((p, q, e, h)) != sign:
        p, q = q, p
    return 4 * e + h, (p, q), (e, h), itemgetter(*_angle_ports(p, q, e, h))


# per orientation sign, _star_slot of each directed slot pair in ascending
# port order
_STAR_SLOTS: dict[int, tuple] = {
    sign: tuple(_star_slot(sign, e, h) for e, h in permutations(range(4), 2)) for sign in (1, -1)
}


def _stored_row(t: int, row: Sequence[Gluing], n: int) -> tuple[Gluing, ...]:
    """The gluings of tetrahedron t in stored form, each entry's form
    checked in order: a ``Gluing`` whose neighbor is an int naming one of
    the n tetrahedra, not a bool, which ``to_text`` would write as a word,
    and whose permutation is the one of the 24 tuples of ``_PERMS`` it
    equals.  A list or another sequence is looked up as a tuple, one
    lookup per entry; an entry that already holds one of the 24 tuples is
    kept as it is."""
    stored = []
    for k, g in enumerate(row):
        if not isinstance(g, Gluing):
            raise ValidationError(f"tetrahedron {t} face {k} is not glued")
        neighbor, perm = g
        if type(neighbor) is not int or not 0 <= neighbor < n:
            raise ValidationError(f"tetrahedron {t} face {k} glues to missing tetrahedron {neighbor}")
        try:
            form = _PERMS[perm if isinstance(perm, tuple) or not isinstance(perm, Sequence) else tuple(perm)]
        except (KeyError, TypeError):  # not one of the 24, or an unhashable item
            raise ValidationError(f"tetrahedron {t} face {k} has invalid permutation {perm}") from None
        stored.append(g if form is perm else Gluing(neighbor, form))
    return tuple(stored)


class Triangulation:
    """Validated closed oriented glued triangulation with quotient classes.

    Vertex, edge and face classes are orbits of integer ports (see the
    module docstring), derived from scratch by orbit traversal each time,
    after the gluings are checked to be well formed, involutive,
    coherently oriented and connected, together with every incidence
    table, so an instance holds no lazy state.  ``tets`` holds each gluing
    in the one form it was checked in: an int neighbor and one of the 24
    permutation tuples, so it writes a text that ``from_text`` reads back
    to the same table.  The scan that checks the involutions also
    flattens the gluings, in the same order, into the port list the
    traversals read.  Immutable after construction; bistellar moves build
    new instances.
    """

    def __init__(self, tets: Sequence[Sequence[Gluing]]):
        if not hasattr(tets, "__len__"):
            raise ValidationError(f"gluing table must be a sequence of tetrahedra, not {type(tets).__name__}")
        n = len(tets)
        if not n:
            raise ValidationError("empty triangulation")
        # every row's length first, so a short row is named before any entry
        for t, row in enumerate(tets):
            if not hasattr(row, "__len__") or len(row) != 4:
                raise ValidationError(f"tetrahedron {t} must glue exactly 4 faces")
        self.tets = tuple(_stored_row(t, row, n) for t, row in enumerate(tets))
        self._port_to = self._flatten_gluings()
        self.orientation_signs = self._propagate_signs()
        self._vertex_of, self.vertices = self._build_vertex_classes()
        (self._sides, self.edges, self.edge_angles,
         self._face_of, self.faces, self.face_sides) = self._build_edge_and_face_classes()

    # -- validation ---------------------------------------------------

    def _flatten_gluings(self) -> list[int]:
        """Check in scan order that every stored gluing is involutive and
        flatten each as soon as it passes: the list sends 16t+4k+s to the
        vertex port the gluing of face k carries slot s to."""
        tets, port_to = self.tets, []
        for t, row in enumerate(tets):
            for k, (neighbor, perm) in enumerate(row):
                if tets[neighbor][perm[k]] != (t, _INVERSE[perm]):
                    raise ValidationError(f"gluing of tetrahedron {t} face {k} is not involutive")
                base = 4 * neighbor
                port_to += (base + perm[0], base + perm[1], base + perm[2], base + perm[3])
        return port_to

    def _propagate_signs(self) -> tuple[int, ...]:
        """Orientation signs from tetrahedron 0 across every gluing; a
        tetrahedron left unsigned is not reachable, so the table is
        disconnected."""
        signs = [0] * len(self.tets)
        signs[0] = 1
        stack = [0]
        while stack:
            t = stack.pop()
            for g in self.tets[t]:
                # coherence: s_t * s_n * sign(perm) == -1
                needed = -signs[t] * _SIGN[g.perm]
                if signs[g.neighbor] == 0:
                    signs[g.neighbor] = needed
                    stack.append(g.neighbor)
                elif signs[g.neighbor] != needed:
                    raise ValidationError(
                        "gluing table is not orientable: orientation propagation "
                        f"is inconsistent at tetrahedron {g.neighbor}"
                    )
        if 0 in signs:
            raise ValidationError(
                f"gluing table is not connected: tetrahedron {signs.index(0)} "
                "is not reachable from tetrahedron 0"
            )
        return tuple(signs)

    # -- quotient classes ---------------------------------------------

    def _build_vertex_classes(self):
        n = len(self.tets)
        port_to = self._port_to
        vertex_of = [-1] * (4 * n)  # class id per port 4t+s
        count = 0
        for port in range(4 * n):
            if vertex_of[port] >= 0:
                continue
            vertex_of[port] = count
            stack = [port]
            while stack:
                p = stack.pop()
                base = 4 * (p & ~3)
                for x in _VERTEX_HOPS[p & 3]:
                    q = port_to[base + x]
                    if vertex_of[q] < 0:
                        vertex_of[q] = count
                        stack.append(q)
            count += 1
        members: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for port, vid in enumerate(vertex_of):
            members[vid].append(divmod(port, 4))
        return vertex_of, tuple(VertexClass(i, tuple(m)) for i, m in enumerate(members))

    def _build_edge_and_face_classes(self):
        n = len(self.tets)
        port_to = self._port_to
        # class id and sign vs. the canonical direction per directed port
        # 16t+4i+j; the diagonal ports i == j stay at (-1, 0)
        side: list[Side] = [(-1, 0)] * (16 * n)
        count = 0
        for t in range(n):
            for i, j in _SLOT_PAIRS:
                port = 16 * t + 4 * i + j
                if side[port][0] >= 0:
                    continue
                # the signs are coherent, so a crossing keeps the sense in
                # which the walk turns about its edge, and it meets its first
                # port again only on closing its cycle
                forward, backward = (count, 1), (count, -1)
                q, (x, y) = port, _OFF_SLOTS[4 * i + j]
                while side[q] != forward:
                    mirror = (q & ~15) | ((q & 3) << 2) | ((q >> 2) & 3)
                    # a marked mirror is a port of this walk, and a port
                    # marked backward has one, so either way the walk has
                    # met its own reverse
                    if side[mirror][0] >= 0:
                        raise ValidationError(
                            f"edge ({t},{i},{j}) is identified with its own reverse; "
                            "the quotient is not an oriented manifold along this edge"
                        )
                    side[q], side[mirror] = forward, backward
                    # across the face opposite x: the tail, the head and y
                    # carry over, the image of y is the next x and that of
                    # x, the face the neighbor is entered by, the next y
                    glued = (q & ~15) | (x << 2)
                    q = 4 * port_to[glued | ((q >> 2) & 3)] + (port_to[glued | (q & 3)] & 3)
                    x, y = port_to[glued | y] & 3, port_to[glued | x] & 3
                count += 1
        # one scan in ascending port order: per tetrahedron, the angles of
        # each class's canonical directions in star order, then the face
        # classes first met, each with the three sides of its boundary
        vertex_of = self._vertex_of
        angles: list[list[Angle]] = [[] for _ in range(count)]
        face_of = [-1] * (4 * n)  # class id per port 4t+k
        faces, face_sides = [], []
        for t, orientation in enumerate(self.orientation_signs):
            t4, local = 4 * t, side[16 * t:16 * t + 16]
            for offset, pq, ed, sides_of in _STAR_SLOTS[orientation]:
                eid, sign = local[offset]
                if sign == 1:
                    angles[eid].append((sides_of(local), (t, pq, ed)))
            for k, glued, a, b, c, boundary_sides in _FACE_SLOTS:
                if face_of[t4 + k] >= 0:
                    continue
                # a face glued to itself would fold an edge onto its
                # reverse, which the edge walk rejects, so every class
                # has two ports
                partner = port_to[16 * t + glued]
                face_of[t4 + k] = face_of[partner] = fid = len(faces)
                verts = (vertex_of[t4 + a], vertex_of[t4 + b], vertex_of[t4 + c])
                faces.append(FaceClass(fid, ((t, k), (partner >> 2, partner & 3)), verts))
                face_sides.append(boundary_sides(local))
        edges = []
        for eid, star in enumerate(angles):
            _, (t, _, (e, h)) = star[0]
            edges.append(EdgeClass(eid, vertex_of[4 * t + e], vertex_of[4 * t + h]))
        stars = tuple(tuple(a) for a in angles)
        return side, tuple(edges), stars, face_of, tuple(faces), tuple(face_sides)

    # -- queries -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.tets)

    def vertex_class(self, tet: int, slot: int) -> int:
        return self._vertex_of[4 * tet + slot]

    def edge_class(self, tet: int, tail_slot: int, head_slot: int) -> tuple[int, int]:
        """Edge class id plus +1/-1 sign of this direction vs. canonical."""
        return self._sides[16 * tet + 4 * tail_slot + head_slot]

    def face_class(self, tet: int, opposite_slot: int) -> int:
        return self._face_of[4 * tet + opposite_slot]

    def f_vector(self) -> tuple[int, int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.faces), len(self.tets))

    def shelling(self, start: int) -> tuple[tuple[int, ...], tuple[int, ...], list, int]:
        """Breadth-first walk over the tetrahedra from ``start``: its 4
        corner classes in slot order, its 6 edge classes in ``_SLOT_PAIRS``
        order, then ``(v, (e1, e2, e3))`` for each vertex class v first
        reached, in order, with the edge classes joining v to the corners
        of the face it was reached across, and the last tetrahedron
        reached.  A tetrahedron is entered across a face whose corners are
        placed, and the table is connected, so every vertex class is
        listed once and the edges number 3V - 6."""
        port_to, vertex_of, sides = self._port_to, self._vertex_of, self._sides
        corners = tuple(vertex_of[4 * start:4 * start + 4])
        placed, later = set(corners), []
        reached = [False] * len(self.tets)
        reached[start] = True
        order = [start]
        for t in order:
            for k in range(4):
                # the vertex port opposite the face glued to face k
                port = port_to[16 * t + 5 * k]
                u, s = port >> 2, port & 3
                if not reached[u]:
                    reached[u] = True
                    order.append(u)
                    if (v := vertex_of[port]) not in placed:
                        placed.add(v)
                        later.append((v, tuple(sides[16 * u + 4 * s + j][0] for j in range(4) if j != s)))
        edges = tuple(sides[16 * start + 4 * i + j][0] for i, j in _SLOT_PAIRS)
        return corners, edges, later, order[-1]

    # -- serialization -------------------------------------------------

    def to_text(self) -> str:
        lines = [FILE_MAGIC, f"tetrahedra {len(self.tets)}"]
        for t, row in enumerate(self.tets):
            parts = " ".join(
                f"{g.neighbor}:{''.join(str(x) for x in g.perm)}" for g in row
            )
            lines.append(f"tet {t}: {parts}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Triangulation":
        """Parse the ``to_text`` format: the header, ``tetrahedra <N>``,
        then ``tet <t>: <neighbor>:<perm>`` with four gluing fields per
        line; ``#`` starts a comment.  N and the neighbor ids are ASCII
        digits (``exact.parse_integer``; a minus only before a nonzero
        value, which the range checks then reject), and each permutation is
        four ASCII digits spelling a permutation of 0123, looked up in a
        table of the 24.  ``+``, ``_`` and other decimal digits are parse
        errors, as are trailing tokens after N."""
        lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
        if not lines or lines[0] != FILE_MAGIC:
            raise ParseError(f"missing header line {FILE_MAGIC!r}")
        if len(lines) < 2 or not lines[1].startswith("tetrahedra "):
            raise ParseError("missing 'tetrahedra <N>' line")
        try:
            _, count_text = lines[1].split()
            count = parse_integer(count_text)
        except ValueError as exc:
            raise ParseError("bad tetrahedron count") from exc
        if count <= 0:
            raise ParseError("tetrahedron count must be positive")
        if len(lines) != 2 + count:
            raise ParseError(f"expected {count} 'tet' lines, found {len(lines) - 2}")
        rows: list[list[Gluing]] = []
        for t, line in enumerate(lines[2:]):
            prefix = f"tet {t}:"
            if not line.startswith(prefix):
                raise ParseError(f"expected line starting with {prefix!r}, got {line!r}")
            fields = line[len(prefix):].split()
            if len(fields) != 4:
                raise ParseError(f"tet {t}: expected 4 gluing fields")
            row = []
            for field in fields:
                try:
                    target, perm_text = field.split(":")
                    neighbor = parse_integer(target)
                except ValueError as exc:
                    raise ParseError(f"tet {t}: bad gluing field {field!r}") from exc
                perm = _PERM_OF_TEXT.get(perm_text)
                if perm is None:
                    raise ParseError(f"tet {t}: bad permutation in {field!r}")
                row.append(Gluing(neighbor, perm))
            rows.append(row)
        return cls(rows)

    @classmethod
    def from_file(cls, path) -> "Triangulation":
        return cls.from_text(read_text(path))


def read_text(path) -> str:
    """Contents of a UTF-8 input file, less a leading byte order mark;
    other bytes are a ParseError."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc

