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

A geometry is its integer table from the draw to the face product:
``GeometryAssignment(den, x, y, kappa)`` holds the x, y and kappa of each
vertex class as integers over one positive common denominator, and any
common denominator serves.  ``draw_rationals`` is the package's one
sampler: it draws rationals with small numerators and denominators and
puts them over the lcm of their denominators, for ``assign_geometry``
(3V values, all x, then all y, then all kappa),
``pentagon.FivePointConfig.random`` and the point sets of the
``pentagon`` command.  Each caller hands it the ``getrandbits`` of a
``random.Random`` seeded its own way, and it draws every value below n
by one loop: take k = bit length of n bits, and again while they are not
below n.  That is the loop ``randrange(n)`` runs, so the draws are those
``randint`` makes (``tests/reference.py`` keeps the ``randrange`` form
and the tests check the two streams equal), but they rest only on
``getrandbits``, not on how a Python version implements ``randrange``.
``parse_geometry`` clears the rationals of an explicit geometry once, on
parsing.

One routine serves triangulations and the five-point verifier alike.  It
works on an integer value table ``(D, numerators)``: one integer numerator
per key over a common denominator D, the lcm of the reduced denominators
of the values.  ``edge_values`` is the only form of the edge values on a
triangulation: it reads the geometry's integers as they are and returns
the table directly, one table per geometry; the tests check it against the
paper formula in Fractions, kept in ``tests/reference.py``.
``pentagon.FivePointConfig.table`` is the table of a
five-point configuration, over any common denominator of its values.  For
sampled geometry D divides 2 lcm(1..16)^2, about 40 bits, whatever the
size of the triangulation; explicit geometry may have any denominators.

Every formula reads sides, not edges: a side is a ``(key, sign)`` pair,
the key of a directed edge and its sign against the key's stored
direction.  The sides are resolved once, before any value is read: a
triangulation resolves every face boundary and every angle on
construction (``Triangulation.face_sides`` and ``edge_angles``), and the
five-point complex resolves its triangles and angles at import.  A
circulation is a plain integer: ``circulation`` sums the signed
numerators of a triangle's three sides, so the circulation is that
integer over D, and ``face_circulations`` gives every face class's as
the table ``(D, circulations)``.  A geometry is nondegenerate when no
face circulation is zero; the sampler redraws until 0 is not among them,
and ``ensure_nondegenerate``, which ``chain.build_chain`` runs on every
geometry, raises otherwise, naming the first zero face.  A loop edge, an
edge class whose ends are one vertex class, makes every geometry
degenerate; the sampler and the certificate both name it first, with one
text.

``curvature`` sums angle values built from four circulations and their
exact partial derivatives by the quotient rule, each key an independent
variable.  A tetrahedron's four circulations share its six edges, so an
angle is its six sides and each side's partial is its sign times the
summed weights of the triangles it bounds.  The kernel runs in three
stages.  ``angle_terms``, the one place the quotient rule is written,
reads each angle's six sides once and keeps its integer terms; it raises
on a zero circulation in a denominator.  An angle is D n / (2 b1 b2)
with b1, b2 its denominator circulations, so with l the lcm of the b1 b2
the lcm L of the angle denominators 2 (b1 b2)^2 is 2 l^2, and each
angle's terms are brought over it by r = l / (b1 b2) alone.
``curvature_value`` sums the terms over L and returns the value as the
integer pair ``(numerator, L)``, not reduced.  The gradient stage, run
only by the full ``curvature``, gives the partials by every key the
angles touch as an integer table ``(den, {key: int})`` with den dividing
L.  ``omega_row`` hands the full call to ``chain.build_chain`` as an f3
row.  The five-point verifier builds no gradient: it keeps a
configuration's angle terms and runs on them the value stage
(``curvature_value``, the sampler's flatness check) and
``he_partial``, the gradient stage's entry for the one key that sits
only on each angle's side he, as ``pentagon.verify_pentagon`` reads
d(omega_ED)/d(lambda_ED).  The closure check of
``pentagon.verify_vector_identities`` runs ``angle_terms`` once on the
flat table and shifts the terms onto each perturbed one itself.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple

from .errors import DegenerateGeometryError, ParseError
from .exact import clear_denominators, parse_integer, parse_rational
from .triangulation import Triangulation

SAMPLE_NUMERATOR_BOUND = 64
SAMPLE_DENOMINATOR_BOUND = 16
SAMPLE_DRAWS = 100  # draws assign_geometry makes before giving up


def subseed(seed: int, *tags) -> int:
    """Stable derived seed for a named sub-stream of randomness."""
    digest = hashlib.blake2b(repr((seed,) + tags).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class GeometryAssignment(NamedTuple):
    """Plane coordinates and kappa per vertex class as one integer table:
    vertex class v sits at (x[v], y[v]) / den with kappa[v] / den, over
    any positive common denominator ``den``."""

    den: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    kappa: tuple[int, ...]


def _assignment(den: int, values) -> GeometryAssignment:
    """The geometry whose x, then y, then kappa per vertex class are the
    integers ``values`` over ``den``."""
    nv = len(values) // 3
    return GeometryAssignment(den, *(tuple(values[k * nv:(k + 1) * nv]) for k in range(3)))


def draw_rationals(getrandbits, count: int, bound: int, den_bound: int) -> tuple[int, list[int]]:
    """``count`` rationals randint(-bound, bound) / randint(1, den_bound),
    numerator first, as ``(den, numerators)`` over the lcm of the drawn
    denominators.

    ``getrandbits`` is the bound method of a ``random.Random``.  Each
    value below n (n = 2 bound + 1 for a numerator, den_bound for a
    denominator) is drawn by one loop: with k the bit length of n, draw
    k bits until they are below n.  That is the loop ``randrange(n)``
    runs, so the stream is the one ``randint`` draws, but it does not rest
    on how a Python version implements ``randrange``.
    """
    pn, qn = 2 * bound + 1, den_bound
    pk, qk = pn.bit_length(), qn.bit_length()
    draws = []
    for _ in range(count):
        p = getrandbits(pk)
        while p >= pn:
            p = getrandbits(pk)
        q = getrandbits(qk)
        while q >= qn:
            q = getrandbits(qk)
        draws.append((p - bound, q + 1))
    den = lcm(*(q for _, q in draws))
    return den, [p * (den // q) for p, q in draws]


def edge_values(tri: Triangulation, g: GeometryAssignment) -> tuple[int, dict[int, int]]:
    """Integer value table ``(D, numerators)`` of the edge values: the
    value of the canonically oriented edge class e = a -> b,
    (x_a y_b - x_b y_a) / 2 + kappa_b - kappa_a, is ``numerators[e] / D``
    with D the lcm of the reduced denominators of the values.

    With X, Y and K the integers of the geometry over c = ``g.den``,
    lambda(a -> b) is X_a Y_b - X_b Y_a + 2c (K_b - K_a) over 2c^2;
    dividing out the gcd of 2c^2 and every numerator leaves D, whatever
    common denominator c is.
    """
    c, xs, ys, ks = g.den, g.x, g.y, g.kappa
    numerators = {
        e.id: xs[e.tail] * ys[e.head] - xs[e.head] * ys[e.tail] + 2 * c * (ks[e.head] - ks[e.tail])
        for e in tri.edges
    }
    den = 2 * c * c
    common = gcd(den, *numerators.values())
    return den // common, {key: n // common for key, n in numerators.items()}


def circulation(numerators, sides) -> int:
    """Circulation of a table's values around a triangle, times the
    table's common denominator.

    ``sides`` are the triangle's three sides a -> b, b -> c, c -> a, each
    ``(key, sign)``, and ``numerators[key]`` is the stored value times the
    table's common denominator.
    """
    (a, sa), (b, sb), (c, sc) = sides
    return sa * numerators[a] + sb * numerators[b] + sc * numerators[c]


def face_circulations(tri: Triangulation, lam: tuple[int, dict]) -> tuple[int, tuple[int, ...]]:
    """Circulations of the face classes under the edge-value table ``lam``
    as the table ``(D, circulations)``, by class id, each evaluated on the
    class's stored boundary order and over the D of ``lam``."""
    d, numerators = lam
    return d, tuple(circulation(numerators, sides) for sides in tri.face_sides)


def assign_geometry(tri: Triangulation, seed: int) -> GeometryAssignment:
    """Sample generic rational coordinates, rejecting degenerate draws.

    Each draw is 3V values of ``draw_rationals``, all x, then all y, then
    all kappa, with numerators in [-64, 64] and denominators in [1, 16]; a
    draw is accepted once every face circulation is nonzero, each draw's
    edge values evaluated once, and DegenerateGeometryError is raised
    after SAMPLE_DRAWS rejected draws.  The draw sequence is a
    deterministic function of the seed.  A loop edge fails before the
    first draw (``_reject_loop_edges``).
    """
    _reject_loop_edges(tri)
    getrandbits = random.Random(seed).getrandbits
    count = 3 * len(tri.vertices)
    for _ in range(SAMPLE_DRAWS):
        g = _assignment(*draw_rationals(getrandbits, count, SAMPLE_NUMERATOR_BOUND, SAMPLE_DENOMINATOR_BOUND))
        if 0 not in face_circulations(tri, edge_values(tri, g))[1]:
            return g
    raise DegenerateGeometryError(f"no nondegenerate geometry found after {SAMPLE_DRAWS} attempts")


def _reject_loop_edges(tri: Triangulation) -> None:
    """An edge class joining a vertex class to itself gives every face
    containing it zero circulation for any geometry: raise, naming the
    first such edge, so that a sampled and an explicit geometry fail
    with the same text."""
    for e in tri.edges:
        if e.tail == e.head:
            raise DegenerateGeometryError(
                f"edge class {e.id} joins vertex class {e.tail} to itself, so every "
                "face containing it has zero circulation for any geometry; 2->3 and "
                "1->4 moves cannot remove this edge"
            )


def ensure_nondegenerate(tri: Triangulation, lam: tuple[int, dict]) -> None:
    """The nondegeneracy certificate: raise unless every face circulation
    under the edge-value table ``lam`` is nonzero, naming a loop edge
    first (``_reject_loop_edges``) and otherwise the first zero face."""
    _reject_loop_edges(tri)
    _, circulations = face_circulations(tri, lam)
    if 0 in circulations:
        f = tri.faces[circulations.index(0)]
        raise DegenerateGeometryError(f"face class {f.id} (vertices {f.vertices}) has zero circulation")


# -- angle values and curvature ---------------------------------------


def angle_terms(numerators, angles: Iterable, where: Callable) -> list[tuple]:
    """The per-angle stage of ``curvature``, the one place the quotient
    rule is written: for each angle the tuple ``(b1 * b2, n, sides, b1,
    b2)`` with the angle D n / (2 b1 b2), n = n1 + n2 and b1, b2 its two
    denominator circulations, all read from the table's ``numerators``
    (see ``curvature``).  When b1 or b2 is zero, ``where(contribution,
    opposite)`` names the face missing vertex ``opposite`` for the
    DegenerateGeometryError."""
    terms = []
    for sides, contribution in angles:
        (k1, s1), (k2, s2), (k3, s3), (k4, s4), (k5, s5), (k6, s6) = sides
        ph, hq, qp = s1 * numerators[k1], s2 * numerators[k2], s3 * numerators[k3]
        pe, eq, he = s4 * numerators[k4], s5 * numerators[k5], s6 * numerators[k6]
        b1, b2 = ph + he - pe, he + eq - hq
        if b1 == 0 or b2 == 0:
            _, (p, q), _ = contribution
            raise DegenerateGeometryError(
                f"zero circulation in an angle denominator at {where(contribution, q if b1 == 0 else p)}"
            )
        terms.append((b1 * b2, ph + hq + pe + eq + 2 * qp, sides, b1, b2))
    return terms


def _value_over(d: int, terms: list[tuple]) -> tuple[int, int]:
    """``curvature_value``'s numerator and the lcm l of the b1 b2."""
    l = lcm(*[t[0] for t in terms])
    return d * l * sum([t[1] * (l // t[0]) for t in terms]), l


def curvature_value(d: int, terms: list[tuple]) -> tuple[int, int]:
    """The value stage: the sum of the angles ``terms`` of
    ``angle_terms`` on a table over ``d``, as the integer pair
    ``(d l total, 2 l^2)`` with l the lcm of the b1 b2 and total the sum
    of n r, r = l / (b1 b2); not reduced.  2 l^2 is the lcm L of the angle
    denominators 2 (b1 b2)^2, as lcm(2x^2, 2y^2) = 2 lcm(x, y)^2, and
    each angle is D n l r / L."""
    numerator, l = _value_over(d, terms)
    return numerator, 2 * l * l


def curvature(table, angles: Iterable, where: Callable) -> tuple[tuple[int, int], tuple[int, dict]]:
    """Sum of angle values over ``angles`` as the integer pair of
    ``curvature_value``, and its gradient, the exact partial derivatives
    by every key the angles touch, as an integer table ``(den, {key:
    int})`` with each partial ``numerator / den``.

    ``table`` is an integer value table ``(D, numerators)``, as
    ``edge_values`` returns it or ``FivePointConfig.table`` holds it.
    Each angle is (sides, contribution): the six sides ph, hq, qp, pe, eq
    and he of its tetrahedron, and the contribution (tet, (P, Q), (tail,
    head)) it comes from.  When a circulation in a denominator is zero,
    ``where(contribution, opposite)`` names the face missing vertex
    ``opposite`` for the error.

    With E the tail and H the head, the six sides carry the integer
    values ph, hq, qp, pe, eq and he, each the signed numerator of its
    directed edge (P -> H, and so on).  The circulations of the triangles
    N1 = PHQ, N2 = PEQ, B1 = PHE and B2 = QHE are

        n1 = ph + hq + qp,  n2 = pe + eq + qp,
        b1 = ph + he - pe,  b2 = he + eq - hq,

    and the angle (N1 + N2) / (2 B1 B2) is D n / (2 b1 b2) with n = n1 +
    n2.  Its partial by a key is D^2 / (2 (b1 b2)^2) times the sum, over
    the edges carrying that key, of the edge's sign times its weight: the
    sum of the weights of the triangles it bounds, signed by the direction
    it is crossed in, with b1 b2 for N1 and N2, -n b2 for B1 and -n b1 for
    B2.  The three stages run in turn: ``angle_terms`` per angle, the
    value over the lcm l of the b1 b2 (``_value_over``, which
    ``curvature_value`` runs too), and the gradient.
    Over L = 2 l^2 an angle's weights scale by r^2, r = l / (b1 b2), so
    the gradient reads them as r l for b1 b2 and r^2 n b2, r^2 n b1 for
    the others, and its partials are integers over the one denominator
    L / gcd(L, D^2); dividing that gcd out once keeps the gradient small
    when D is large.  A caller that reads only the value runs the first
    two stages alone.
    """
    d, numerators = table
    terms = angle_terms(numerators, angles, where)
    numerator, l = _value_over(d, terms)
    common = 2 * l * l
    row: dict = {}
    for bb, n, sides, b1, b2 in terms:
        r = l // bb
        a, rn = r * l, r * r * n
        w1, w2 = rn * b2, rn * b1  # minus the scaled weights of B1 and B2
        (ph, s1), (hq, s2), (qp, s3), (pe, s4), (eq, s5), (he, s6) = sides
        row[ph] = row.get(ph, 0) + s1 * (a - w1)
        row[hq] = row.get(hq, 0) + s2 * (a + w2)
        row[qp] = row.get(qp, 0) + s3 * 2 * a
        row[pe] = row.get(pe, 0) + s4 * (a + w1)
        row[eq] = row.get(eq, 0) + s5 * (a - w2)
        row[he] = row.get(he, 0) - s6 * (w1 + w2)
    g = gcd(d * d, common)
    dd = d * d // g
    return (numerator, common), (common // g, {key: dd * dv for key, dv in row.items()})


def he_partial(d: int, terms: list[tuple]) -> tuple[int, int]:
    """The gradient stage's entry for the key of the side he alone, on
    angles where no other side carries that key: the integer pair ``(D^2
    total, 2 l^2)``, not reduced, with total the sum of -s r^2 n (b1 + b2),
    s the sign of he, as ``curvature`` sums it."""
    l = lcm(*[t[0] for t in terms])
    total = 0
    for bb, n, sides, b1, b2 in terms:
        r = l // bb
        total -= sides[5][1] * r * r * n * (b1 + b2)
    return d * d * total, 2 * l * l


def _face_at(tri: Triangulation, contribution, opposite: int) -> str:
    tet, _, ed = contribution
    return f"face class {tri.face_class(tet, opposite)} (edge slots {ed} of tetrahedron {tet})"


def omega_row(tri: Triangulation, lam: tuple[int, dict], edge_id: int) -> tuple[tuple[int, int], tuple[int, dict]]:
    """Curvature of an edge as an integer pair ``(numerator, den)`` and its
    gradient over all edge values as an integer table ``(den, {edge:
    int})``."""
    return curvature(lam, tri.edge_angles[edge_id], partial(_face_at, tri))


# -- holonomy ----------------------------------------------------------


def holonomy_numerators(edge_vector: tuple[int, int], p: int, q: int) -> tuple[int, tuple]:
    """Traceless 2x2 generator of the basis change around an edge with
    integer vector (x, y) and curvature derivative domega = p / q:
    domega / 2 times ((-xy, x^2), (-y^2, xy)), as the integer table
    ``(2q, rows)`` with rows p ((-xy, x^2), (-y^2, xy)).
    ``chain.build_chain`` writes its entries (m01, m11, -m10) at
    domega = 1, (x^2, xy, y^2) / 2, as the edge's f4 column."""
    x, y = edge_vector
    pxy = p * x * y
    return 2 * q, ((-pxy, p * x * x), (-(p * y * y), pxy))


# -- explicit geometry files -------------------------------------------


def parse_geometry(text: str, tri: Triangulation) -> GeometryAssignment:
    """Parse ``vertex <class-id> <x> <y> <kappa>`` lines: the id in ASCII
    digits (``exact.parse_integer``), the values ``p`` or ``p/q``
    (``exact.parse_rational``)."""
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
            vid = parse_integer(fields[1])
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
    den, cleared = clear_denominators(dict(enumerate(table[v] for table in (xs, ys, ks) for v in range(nv))))
    return _assignment(den, list(cleared.values()))
