"""Plane coordinates on vertex classes and the scalar fields built on them.

Vertices of the quotient complex are placed at exact rational points of the
plane and each carries an extra parameter kappa.  Edge values are

    lambda(A -> B) = area(O, A, B) + kappa_B - kappa_A

with O the coordinate origin, oriented areas halved determinants.  Face
circulations sum lambda around a triangle boundary (kappa telescopes away),
dihedral-angle values are the rational expressions

    angle = (S_PDQ + S_PEQ) / (2 * S_PDE * S_QDE)

signed by the parity of (P, Q, tail, head) against the tetrahedron's
positive ordering, and the curvature around an edge sums angle values over
its star.  Coordinates induced this way are flat: every curvature vanishes
identically, which is what makes the derivative matrix of the curvatures a
chain map downstream.

One routine serves triangulations and the five-point verifier alike.  It
works on an integer value table: the denominators of the edge values are
cleared once, to a common denominator D (the lcm of the denominators) and
one integer numerator per key.  ``EdgeValues.table`` holds it once per
geometry and ``pentagon.FivePointConfig.table`` once per five-point
configuration.  For sampled geometry D divides 2 lcm(1..16)^2, about 40
bits, whatever the size of the triangulation; explicit geometry may have
any denominators.

A circulation is a plain integer: ``circulation`` sums the signed
numerators of a triangle's three sides, each side a ``(key, sign)`` pair
that an edge lookup ``(tail, head)`` returns, so the circulation is that
integer over D.  ``curvature`` sums angle values built from four such
circulations and, on request, their exact partial derivatives by the
quotient rule, each key an independent variable.  A tetrahedron's four
circulations share its six edges, so each edge is looked up once and its
partial is its sign times the summed weights of the triangles it bounds.
Everything stays in Python ints: each face circulation (``s_of_face``) is
``Fraction(n, D)`` and a curvature is one Fraction, its terms summed over
the lcm L of the angle denominators.  The gradient stays an integer
table ``(den, {key: int})``, the shape of ``EdgeValues.table``, with den
dividing L; ``omega_row`` hands it to ``chain.build_chain`` as an f3 row,
and a single partial (``domega_dlambda``,
``pentagon.domega_ed_dlambda_ed``) is one Fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm
from typing import Callable, Iterable

from .errors import DegenerateGeometryError, ParseError
from .exact import clear_denominators, parse_rational
from .triangulation import EdgeStar, Triangulation

SAMPLE_NUMERATOR_BOUND = 64
SAMPLE_DENOMINATOR_BOUND = 16
DEFAULT_MAX_RETRIES = 100


def subseed(seed: int, *tags) -> int:
    """Stable derived seed for a named sub-stream of randomness."""
    import hashlib

    digest = hashlib.blake2b(repr((seed,) + tags).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class GeometryAssignment:
    """Plane coordinates and kappa per vertex class."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    kappa: tuple[Fraction, ...]
    seed: int | None = None


@dataclass(frozen=True)
class EdgeValues:
    """lambda per canonically oriented edge class."""

    values: tuple[Fraction, ...]

    @cached_property
    def table(self) -> tuple[int, dict[int, int]]:
        """Integer value table ``(D, numerators)``: D is the lcm of the
        denominators and ``values[e] == numerators[e] / D``."""
        return clear_denominators(dict(enumerate(self.values)))


def triangle_area(ax, ay, bx, by, cx, cy) -> Fraction:
    """Oriented area of a plane triangle (half the cross product)."""
    return ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2


def lambda_of(tri: Triangulation, g: GeometryAssignment, edge_id: int) -> Fraction:
    """Edge value of a canonically oriented edge class."""
    e = tri.edges[edge_id]
    a, b = e.tail, e.head
    return (g.x[a] * g.y[b] - g.x[b] * g.y[a]) / 2 + g.kappa[b] - g.kappa[a]


def edge_values(tri: Triangulation, g: GeometryAssignment) -> EdgeValues:
    return EdgeValues(tuple(lambda_of(tri, g, e.id) for e in tri.edges))


def circulation(edge: Callable, numerators, a, b, c) -> int:
    """Circulation of the edge values around the triangle a -> b -> c,
    times the table's common denominator.

    ``edge(tail, head)`` gives the (key, sign) of a directed edge against
    its stored direction, and ``numerators[key]`` the stored value times
    the table's common denominator.
    """
    return sum(sign * numerators[key] for key, sign in (edge(a, b), edge(b, c), edge(c, a)))


def s_of_face(tri: Triangulation, lam: EdgeValues, face_id: int) -> Fraction:
    """Face circulation, evaluated on the class's stored boundary order."""
    tet, slots = tri.faces[face_id].boundary
    d, numerators = lam.table
    return Fraction(circulation(partial(tri.edge_class, tet), numerators, *slots), d)


def face_circulations(tri: Triangulation, lam: EdgeValues) -> tuple[Fraction, ...]:
    return tuple(s_of_face(tri, lam, f.id) for f in tri.faces)


def assign_geometry(
    tri: Triangulation,
    seed: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> GeometryAssignment:
    """Sample generic rational coordinates, rejecting degenerate draws.

    Numerators are uniform in [-64, 64] and denominators in [1, 16]; a draw
    is accepted once every face circulation is nonzero.  The retry sequence
    is a deterministic function of the seed.  An edge class joining a vertex
    class to itself gives every face containing it zero circulation for any
    geometry, so such input fails before the first draw.
    """
    for e in tri.edges:
        if e.tail == e.head:
            raise DegenerateGeometryError(
                f"edge class {e.id} joins vertex class {e.tail} to itself, so every "
                "face containing it has zero circulation for any geometry; 2->3 and "
                "1->4 moves cannot remove this edge"
            )
    rng = random.Random(seed)
    nv = len(tri.vertices)

    def draw() -> Fraction:
        return Fraction(
            rng.randint(-SAMPLE_NUMERATOR_BOUND, SAMPLE_NUMERATOR_BOUND),
            rng.randint(1, SAMPLE_DENOMINATOR_BOUND),
        )

    for _ in range(max_retries):
        g = GeometryAssignment(
            x=tuple(draw() for _ in range(nv)),
            y=tuple(draw() for _ in range(nv)),
            kappa=tuple(draw() for _ in range(nv)),
            seed=seed,
        )
        lam = edge_values(tri, g)
        if all(s != 0 for s in face_circulations(tri, lam)):
            return g
    raise DegenerateGeometryError(f"no nondegenerate geometry found after {max_retries} attempts")


def ensure_nondegenerate(tri: Triangulation, g: GeometryAssignment) -> EdgeValues:
    """Check the nondegeneracy certificate for an explicit assignment."""
    lam = edge_values(tri, g)
    for f, s in zip(tri.faces, face_circulations(tri, lam)):
        if s == 0:
            raise DegenerateGeometryError(
                f"face class {f.id} (vertices {f.vertices}) has zero circulation"
            )
    return lam


# -- angle values and curvature ---------------------------------------


def curvature(table, angles: Iterable, wrt: Iterable | None = ()) -> tuple[Fraction, tuple[int, dict]]:
    """Sum of angle values over ``angles`` and its exact partial derivatives
    by the value keys ``wrt`` (None: every key the angles touch; the
    default: none), the latter as an integer table ``(den, {key: int})``
    with each partial ``numerator / den``.

    ``table`` is an integer value table ``(D, numerators)``, as
    ``EdgeValues.table`` or ``FivePointConfig.table`` holds it.
    Each angle is (edge lookup, (P, Q), (tail, head), where), and
    ``where(opposite)`` names the face missing vertex ``opposite`` when its
    circulation, a denominator, is zero.

    With E the tail and H the head, the six edges of the tetrahedron
    carry the integer values ph, hq, qp, pe, eq and he, each the signed
    numerator of its directed edge (P -> H, and so on).  The circulations
    of the triangles N1 = PHQ, N2 = PEQ, B1 = PHE and B2 = QHE are

        n1 = ph + hq + qp,  n2 = pe + eq + qp,
        b1 = ph + he - pe,  b2 = he + eq - hq,

    and the angle (N1 + N2) / (2 B1 B2) is D v / q with v = (n1 + n2) b1 b2
    and q = 2 (b1 b2)^2.  Its partial by a key is D^2 / q times the sum,
    over the edges carrying that key, of the edge's sign times its weight:
    the sum of the weights of the triangles it bounds, signed by the
    direction it is crossed in, with b1 b2 for N1 and N2, -(n1 + n2) b2 for
    B1 and -(n1 + n2) b1 for B2.  The terms are summed as integers over the
    lcm L of the q, so the sum is one Fraction and the partials are
    integers over the one denominator L / gcd(L, D^2); dividing that gcd
    out once keeps the gradient small when D is large.
    """
    d, numerators = table
    terms = []
    for edge, (p, q), (e, h), where in angles:
        sides = (edge(p, h), edge(h, q), edge(q, p), edge(p, e), edge(e, q), edge(h, e))
        ph, hq, qp, pe, eq, he = (sign * numerators[key] for key, sign in sides)
        b1, b2 = ph + he - pe, he + eq - hq
        if b1 == 0 or b2 == 0:
            raise DegenerateGeometryError(
                f"zero circulation in an angle denominator at {where(q if b1 == 0 else p)}"
            )
        numerator, bb = ph + hq + pe + eq + 2 * qp, b1 * b2
        w1, w2 = -numerator * b2, -numerator * b1  # the weights of B1 and B2
        weights = (bb + w1, bb - w2, 2 * bb, bb - w1, bb + w2, w1 + w2)
        terms.append((2 * bb * bb, numerator * bb, sides, weights))
    common = lcm(*(denominator for denominator, *_ in terms))
    total = sum(value * (common // denominator) for denominator, value, *_ in terms)
    every = wrt is None
    row: dict = {} if every else dict.fromkeys(wrt, 0)
    if every or row:
        for denominator, _, sides, weights in terms:
            scale = common // denominator
            for (key, sign), weight in zip(sides, weights):
                if every or key in row:
                    row[key] = row.get(key, 0) + sign * scale * weight
    g = gcd(d * d, common)
    dd = d * d // g
    return Fraction(d * total, common), (common // g, {key: dd * dv for key, dv in row.items()})


def _face_at(tri: Triangulation, tet: int, ed, opposite: int) -> str:
    return f"face class {tri.face_class(tet, opposite)} (edge slots {ed} of tetrahedron {tet})"


def _angles(tri: Triangulation, contributions):
    """``curvature`` angles of (tet, (P, Q), (tail, head)) slot incidences."""
    return (
        (partial(tri.edge_class, tet), pq, ed, partial(_face_at, tri, tet, ed))
        for tet, pq, ed in contributions
    )


def angle(
    tri: Triangulation,
    lam: EdgeValues,
    tet: int,
    pq: tuple[int, int],
    ed: tuple[int, int],
) -> Fraction:
    """Dihedral-angle value at an oriented edge of an oriented tetrahedron.

    ``pq`` are the two off-edge slots and ``ed`` the (tail, head) slots.
    The raw circulation formula is already antisymmetric in P and Q; the
    edge direction is signed against the edge class's canonical
    orientation, so the value also flips under a reversal of the edge.
    """
    _, direction = tri.edge_class(tet, ed[0], ed[1])
    return direction * curvature(lam.table, _angles(tri, ((tet, pq, ed),)))[0]


def omega(tri: Triangulation, lam: EdgeValues, star: EdgeStar | int) -> Fraction:
    """Curvature around an edge class: sum of angle values over its star."""
    if isinstance(star, int):
        star = tri.edge_star(star)
    return curvature(lam.table, _angles(tri, star.contributions))[0]


def omega_row(tri: Triangulation, lam: EdgeValues, edge_id: int) -> tuple[Fraction, tuple[int, dict]]:
    """Curvature of an edge and its gradient over all edge values, the
    gradient as an integer table ``(den, {edge: int})``."""
    return curvature(lam.table, _angles(tri, tri.edge_star(edge_id).contributions), wrt=None)


def domega_dlambda(tri: Triangulation, lam: EdgeValues, edge_a: int, edge_b: int) -> Fraction:
    """Exact partial derivative of curvature a with respect to edge value b."""
    star = tri.edge_star(edge_a).contributions
    _, (den, row) = curvature(lam.table, _angles(tri, star), wrt=(edge_b,))
    return Fraction(row[edge_b], den)


# -- holonomy ----------------------------------------------------------


def holonomy_generator(
    edge_vector: tuple[Fraction, Fraction], domega: Fraction
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Traceless 2x2 generator of the basis change around an edge with
    vector (x, y) and curvature derivative ``domega``: domega / 2 times
    ((-xy, x^2), (-y^2, xy)).  ``chain.build_chain`` writes its entries
    (m01, m11, -m10) at domega = 1, (x^2, xy, y^2) / 2, as the edge's f4
    column."""
    x, y = Fraction(edge_vector[0]), Fraction(edge_vector[1])
    half = Fraction(domega) / 2
    return (-x * y * half, x * x * half), (-y * y * half, x * y * half)


# -- explicit geometry files -------------------------------------------


def parse_geometry(text: str, tri: Triangulation) -> GeometryAssignment:
    """Parse ``vertex <class-id> <x> <y> <kappa>`` lines."""
    nv = len(tri.vertices)
    xs: dict[int, Fraction] = {}
    ys: dict[int, Fraction] = {}
    ks: dict[int, Fraction] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5 or fields[0] != "vertex":
            raise ParseError(f"bad geometry line {raw!r}")
        try:
            vid = int(fields[1])
            x, y, k = (parse_rational(f) for f in fields[2:5])
        except ValueError as exc:
            raise ParseError(f"bad geometry line {raw!r}") from exc
        if not 0 <= vid < nv:
            raise ParseError(f"geometry line names unknown vertex class {vid}")
        if vid in xs:
            raise ParseError(f"duplicate geometry line for vertex class {vid}")
        xs[vid], ys[vid], ks[vid] = x, y, k
    missing = [v for v in range(nv) if v not in xs]
    if missing:
        raise ParseError(f"geometry file misses vertex classes {missing}")
    return GeometryAssignment(
        x=tuple(xs[v] for v in range(nv)),
        y=tuple(ys[v] for v in range(nv)),
        kappa=tuple(ks[v] for v in range(nv)),
    )
