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
configuration.  For
sampled geometry D divides 2 lcm(1..16)^2, about 40 bits, whatever the
size of the triangulation; explicit geometry may have any denominators.

``circulation`` sums integer numerators around a triangle through an edge
lookup ``(tail, head) -> (key, sign)``; the sum is affine in the values,
with an incidence coefficient in {-1, 0, +1} per key.  ``curvature`` sums
angle values built from four such circulations and, on request, their
exact partial derivatives by the quotient rule, each key an independent
variable.  Everything stays in Python ints until the end: each face
circulation (``s_of_face``) is ``Fraction(n, D)``, and a curvature and each
of its partials are one Fraction apiece, their terms summed over the lcm
of the angle denominators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
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

    def of(self, edge_id: int, reverse: bool = False) -> Fraction:
        v = self.values[edge_id]
        return -v if reverse else v


def triangle_area(ax, ay, bx, by, cx, cy) -> Fraction:
    """Oriented area of a plane triangle (half the cross product)."""
    return ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2


def lambda_of(tri: Triangulation, g: GeometryAssignment, edge_id: int, reverse: bool = False) -> Fraction:
    """Edge value of a canonically oriented edge class (negated if reversed)."""
    e = tri.edges[edge_id]
    a, b = (e.head, e.tail) if reverse else (e.tail, e.head)
    value = (g.x[a] * g.y[b] - g.x[b] * g.y[a]) / 2 + g.kappa[b] - g.kappa[a]
    return value


def edge_values(tri: Triangulation, g: GeometryAssignment) -> EdgeValues:
    return EdgeValues(tuple(lambda_of(tri, g, e.id) for e in tri.edges))


@dataclass(slots=True)
class LinForm:
    """Affine form in the edge-value variables: its value as an integer
    over the value table's common denominator D, plus integer incidence
    coefficients per variable key."""

    value: int
    coeffs: dict


def circulation(edge: Callable, numerators, a, b, c) -> LinForm:
    """Circulation of the edge values around the triangle a -> b -> c.

    ``edge(tail, head)`` gives the (key, sign) of a directed edge against
    its stored direction, and ``numerators[key]`` the stored value times
    the table's common denominator.
    """
    value = 0
    coeffs: dict = {}
    for tail, head in ((a, b), (b, c), (c, a)):
        key, sign = edge(tail, head)
        value += sign * numerators[key]
        coeffs[key] = coeffs.get(key, 0) + sign
    return LinForm(value, coeffs)


def s_of_face(tri: Triangulation, lam: EdgeValues, face_id: int, reverse: bool = False) -> Fraction:
    """Face circulation, evaluated on the class's stored boundary order."""
    tet, slots = tri.faces[face_id].boundary
    d, numerators = lam.table
    value = circulation(partial(tri.edge_class, tet), numerators, *slots).value
    return Fraction(-value if reverse else value, d)


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


def curvature(table, angles: Iterable, wrt: Iterable | None = ()) -> tuple[Fraction, dict]:
    """Sum of angle values over ``angles`` and its exact partial derivatives
    by the value keys ``wrt`` (None: every key; the default: none).

    ``table`` is an integer value table ``(D, numerators)``, as
    ``EdgeValues.table`` or ``FivePointConfig.table`` holds it.
    Each angle is (edge lookup, (P, Q), (tail, head), where), and
    ``where(opposite)`` names the face missing vertex ``opposite`` when its
    circulation, a denominator, is zero.  The angle terms are summed as
    integers over the lcm of their denominators, so the sum and each
    partial are one Fraction apiece.
    """
    d, numerators = table
    terms = []
    for edge, (p, q), (e, h), where in angles:
        b1 = circulation(edge, numerators, p, h, e)
        b2 = circulation(edge, numerators, q, h, e)
        if b1.value == 0 or b2.value == 0:
            raise DegenerateGeometryError(
                f"zero circulation in an angle denominator at {where(q if b1.value == 0 else p)}"
            )
        n1 = circulation(edge, numerators, p, h, q)
        n2 = circulation(edge, numerators, p, e, q)
        terms.append(quotient_rule_terms(n1, n2, b1, b2, wrt))
    common = lcm(*(denominator for denominator, _, _ in terms))
    total = 0
    row: dict = {}
    for denominator, value, grad in terms:
        scale = common // denominator
        total += value * scale
        for var, dv in grad.items():
            row[var] = row.get(var, 0) + dv * scale
    dd = d * d
    return Fraction(d * total, common), {var: Fraction(dd * dv, common) for var, dv in row.items()}


def quotient_rule_terms(n1: LinForm, n2: LinForm, b1: LinForm, b2: LinForm, wrt: Iterable | None = None):
    """The angle (N1 + N2) / (2 B1 B2) and its gradient by the keys ``wrt``
    (None: every key the forms involve), in integers.

    The circulations are integers over the value table's common
    denominator D (N1 = n1.value / D, ...).  Returns ``(q, v, grad)`` with
    q = 2 (b1 b2)^2: the angle is D v / q and its partial by a key
    D^2 grad[key] / q, where v = (n1 + n2) b1 b2 and
    grad[key] = dn b1 b2 - (n1 + n2) d(b1 b2), dn and d(b1 b2) the integer
    derivatives of n1 + n2 and of b1 b2 / D.
    """
    numerator = n1.value + n2.value
    bb = b1.value * b2.value
    if wrt is None:
        wrt = n1.coeffs.keys() | n2.coeffs.keys() | b1.coeffs.keys() | b2.coeffs.keys()
    grad = {}
    for var in wrt:
        dn = n1.coeffs.get(var, 0) + n2.coeffs.get(var, 0)
        dbb = b1.coeffs.get(var, 0) * b2.value + b1.value * b2.coeffs.get(var, 0)
        grad[var] = dn * bb - numerator * dbb
    return 2 * bb * bb, numerator * bb, grad


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


def omega_row(tri: Triangulation, lam: EdgeValues, edge_id: int) -> tuple[Fraction, dict]:
    """Curvature of an edge and its gradient over all edge values."""
    return curvature(lam.table, _angles(tri, tri.edge_star(edge_id).contributions), wrt=None)


def domega_dlambda(tri: Triangulation, lam: EdgeValues, edge_a: int, edge_b: int) -> Fraction:
    """Exact partial derivative of curvature a with respect to edge value b."""
    return omega_row(tri, lam, edge_a)[1].get(edge_b, Fraction(0))


# -- holonomy ----------------------------------------------------------


@dataclass(frozen=True)
class HolonomyGenerator:
    """Traceless 2x2 generator of the basis change around an edge, with its
    equivalent column form (x^2, xy, y^2) * domega / 2."""

    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    column: tuple[Fraction, Fraction, Fraction]


def holonomy_generator(edge_vector: tuple[Fraction, Fraction], domega: Fraction) -> HolonomyGenerator:
    x, y = Fraction(edge_vector[0]), Fraction(edge_vector[1])
    half = Fraction(domega) / 2
    matrix = ((-x * y * half, x * x * half), (-y * y * half, x * y * half))
    column = (x * x * half, x * y * half, y * y * half)
    return HolonomyGenerator(matrix, column)


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
