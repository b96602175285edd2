"""Local verifier for the five-point consistency identities.

A five-point configuration carries antisymmetric edge values on the ten
ordered pairs of labels A..E, either free or induced by plane points.  The
local complex around the edge E->D consists of the three tetrahedra
(A,B,E,D), (B,C,E,D), (C,A,E,D); its curvature is the sum of their angle
values.  The checks here are exact:

* the curvature at E->D vanishes iff the bilinear circulation relation

      S_ADB * S_CDE + S_BDC * S_ADE + S_CDA * S_BDE = 0

  holds, and that relation is affine in lambda_ED, so the flat value can be
  solved for directly;
* at the flat value, the circulation of the face ABC equals
  S_ADE * S_BDE * S_CDE * d(omega_ED)/d(lambda_ED), the consistency
  identity across the two-to-three move;
* plane points satisfy the Cramer-style vector identities expressing EB,
  EC, EA through ED and each other, and injecting a curvature omega into
  their composition closes up to EA + omega * S_EDA * ED, a basis change
  that depends only on the vector ED and omega.

The checks run on the integer path that builds the curvature derivative
matrix for triangulations.  The local complex is resolved into sides at
import, as a triangulation resolves its own: every triangle a check reads
is held as its three ``(pair, sign)`` sides (the bilinear relation's
S_xDy and S_zDE, S_ABC and the three S_xDE of the two-to-three identity,
and the three circulations of each Cramer step, beside the sign of D-E
among each one's sides), and ``ANGLES`` holds the six sides of each angle
at E->D.  A configuration is its integer value table ``(D, numerators)``,
the shape ``geometry.edge_values`` returns, and ``FivePointConfig(D,
numerators)`` is its one constructor: the value of a pair is its
numerator over D.  Every circulation is an integer over D,
``geometry.circulation`` of a resolved triangle's sides on that table,
called directly and once per table: the vector identities sum the nine of
the Cramer steps on the flat table alone and shift them onto the
closure's (below).  The curvature of a configuration, its integer value
pair and its gradient, is one full ``geometry.curvature`` on the same
table, computed once per configuration and shared by the sampler's
flatness check and ``verify_pentagon``; the closure check reads only the
value, the first two stages of the same kernel, straight off its
perturbed table.

The sampler draws integers from the start: the nine free values come from
``geometry.draw_rationals``, the package's one sampler, over the lcm of
their denominators, and the flat lambda_ED is solved on that table: of
the six circulations in the bilinear relation only the three S_xDE hold
lambda_ED, each once with sign -1, so the relation's value at
lambda_ED = 0 and its slope are integers read off that table.  The solved
lambda_ED = p / q puts the table over D q, and the two-to-three identity
is compared cross-multiplied in integers.

The vector identities never leave the integers.  The five points come as
integer points over one denominator L, as the sampler draws them, so
each vector is L times the plane vector and each value
lambda_ab = (x_a y_b - x_b y_a) / 2 is an integer over 2 L^2: for plane
points (kappa zero) a circulation is the oriented area, and its integer
is the cross product of two scaled sides, 2 L^2 S.  Perturbing lambda_ED
by delta = p / q puts the values over 2 L^2 q: the table is q times the
flat one, less 2 L^2 p on D-E, so each circulation on it is q times the
flat one less 2 L^2 p times the sign of D-E among the triangle's sides,
resolved at import.  That sign is 0 without a D-E side, so only the
S_ED* terms shift.  The closure composes the Cramer steps on these
shifted circulations, S_EDA among them, and reads omega_ED on the table
itself as an unreduced integer pair (a common factor scales both sides
of each comparison alike).  A Cramer step, E->b from E->D and E->a, takes
the three integers S_EDa, S_Eba and S_EDb of one table, read or shifted
on its triangles resolved at import, and keeps E->b projective, an
integer numerator vector over an integer denominator; a uniform scale of
the circulations cancels out of it.  Every equality is compared
cross-multiplied in integers.  The holonomy generator at omega = p / q, a
2x2 matrix, is ``geometry.holonomy_numerators`` at the integer E->D,
integers over 2 q, checked by its action on E->D and on E->A, E->B, with
S_EDA and S_EDB the flat circulations of the first Cramer step.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Mapping

from .errors import DegenerateGeometryError, PentachainError
from .geometry import angle_terms, circulation, curvature, curvature_value, draw_rationals, holonomy_numerators

LABELS = ("A", "B", "C", "D", "E")

PAIRS = tuple(
    (LABELS[i], LABELS[j]) for i in range(5) for j in range(i + 1, 5)
)

# the local complex around edge E->D (all positively oriented)
TETRAHEDRA = (("A", "B", "E", "D"), ("B", "C", "E", "D"), ("C", "A", "E", "D"))

ED_PAIR = ("D", "E")  # canonical storage key of the edge the move creates
SAMPLE_DRAWS = 32  # draws FivePointConfig.random makes before giving up
SAMPLE_BOUND = 30  # FivePointConfig.random draws numerators in [-SAMPLE_BOUND, SAMPLE_BOUND]
# perturbations of lambda_ED under which verify_vector_identities checks the closure
CLOSURE_DELTAS = (Fraction(1), Fraction(-3, 7))
# curvatures at which verify_vector_identities checks the holonomy generator;
# none is 0, where the generator is zero and its checks would read 0 == 0
OMEGA_SAMPLES = (Fraction(1), Fraction(2), Fraction(-5, 3))
# the Cramer steps E->b from E->D and E->a, composed in this order
CRAMER_STEPS = (("A", "B"), ("B", "C"), ("C", "A"))


def _side(a: str, b: str) -> tuple[tuple[str, str], int]:
    """The stored pair of a -> b and the sign of a -> b against it."""
    return ((a, b), 1) if a < b else ((b, a), -1)


# the side of every directed pair of labels
_SIDES = {(a, b): _side(a, b) for a, b in permutations(LABELS, 2)}


def _triangle(a: str, b: str, c: str) -> tuple:
    """The sides a -> b, b -> c, c -> a of a triangle of labels."""
    return _SIDES[a, b], _SIDES[b, c], _SIDES[c, a]


def _de_sign(triangle) -> int:
    """The sign of the side D-E among a triangle's sides, 0 without one."""
    return sum(sign for key, sign in triangle if key == ED_PAIR)


# the triangles the checks read, resolved once: the bilinear relation's
# pairs (S_xDy, S_zDE); S_ABC and S_ADE, S_BDE, S_CDE of the two-to-three
# identity; and, for each Cramer step with its labels a and b, the
# triangles (S_EDa, S_Eba, S_EDb) and the sign of D-E in each, by which
# perturbing lambda_ED shifts their circulations (S_EDA and S_EDB are the
# first and third of the A step)
_FLATNESS = tuple((_triangle(x, "D", y), _triangle(z, "D", "E")) for x, y, z in ("ABC", "BCA", "CAB"))
_ABC = _triangle("A", "B", "C")
_XDE = tuple(_triangle(x, "D", "E") for x in "ABC")
_CRAMER = tuple(
    (a, b, triangles, tuple(_de_sign(t) for t in triangles))
    for a, b in CRAMER_STEPS
    for triangles in [(_triangle("E", "D", a), _triangle("E", b, a), _triangle("E", "D", b))]
)


def _where(contribution, opposite: str) -> str:
    tet = contribution[0]
    return f"face {''.join(v for v in tet if v != opposite)} of tetrahedron {tet}"


# the angles of the local complex at E->D, as geometry.curvature reads them:
# the six sides ph, hq, qp, pe, eq, he and the contribution (tet, (P, Q), (E, D))
ANGLES = tuple(
    (
        tuple(_SIDES[a, b] for a, b in ((p, d), (d, q), (q, p), (p, e), (e, q), (d, e))),
        (p + q + e + d, (p, q), (e, d)),
    )
    for p, q, e, d in TETRAHEDRA
)


class FivePointConfig:
    """Edge values on the ten pairs of A..E, alphabetical storage order,
    held as the integer value table ``table = (D, numerators)``: the value
    of a pair is its numerator over D > 0."""

    def __init__(self, d: int, numerators: dict):
        self.table = (d, numerators)

    @classmethod
    def random(cls, seed: int) -> "FivePointConfig":
        """Seeded random values on the nine pairs other than D-E, with the
        tenth solved to make the configuration flat.

        Each draw is nine values of ``geometry.draw_rationals``, in PAIRS
        order without D-E: randint(-SAMPLE_BOUND, SAMPLE_BOUND) /
        randint(1, 9), numerator first.  A degenerate draw is redrawn from
        the same stream, up to SAMPLE_DRAWS draws, so a seed whose first
        draw is usable keeps it.
        """
        getrandbits = random.Random(seed).getrandbits
        for attempt in range(SAMPLE_DRAWS):
            d, values = draw_rationals(getrandbits, 9, SAMPLE_BOUND, 9)
            # D-E is the last of PAIRS, so the nine values fill the others
            numerators = dict(zip(PAIRS, values))
            numerators[ED_PAIR] = 0
            try:
                return flat_config(cls(d, numerators))
            except DegenerateGeometryError:
                if attempt == SAMPLE_DRAWS - 1:
                    raise

    @cached_property
    def curvature(self) -> tuple[tuple[int, int], tuple[int, dict]]:
        """omega_ED as an integer pair ``(numerator, den)`` and its
        gradient table, ``geometry.curvature`` of the local complex on
        ``table``."""
        return curvature(self.table, ANGLES, _where)

    def with_lambda_ed(self, lambda_ed) -> "FivePointConfig":
        """This configuration with lambda_ED = p / q (a Fraction or an
        int), on the table over D q."""
        d, numerators = self.table
        p, q = lambda_ed.numerator, lambda_ed.denominator
        scaled = {key: n * q for key, n in numerators.items()}
        scaled[ED_PAIR] = -p * d  # stored as lambda_DE
        return FivePointConfig(d * q, scaled)


def _flatness_terms(numerators) -> list[tuple[int, int]]:
    """The three products of the bilinear relation as integer pairs
    (S_xDy, S_zDE), each circulation times the table's denominator."""
    return [(circulation(numerators, xdy), circulation(numerators, zde)) for xdy, zde in _FLATNESS]


def flat_config(cfg: FivePointConfig) -> FivePointConfig:
    """``cfg`` with the unique lambda_ED making the curvature at E->D
    vanish, checked to be flat.

    Each S_xDE holds lambda_DE = -lambda_ED once, so on the table (D, n)
    of ``cfg`` the bilinear relation is a0 / D^2 - lambda_ED * t / D, with
    a0 the integer relation at lambda_ED = 0 (n_DE taken out of each
    S_xDE) and t = S_ADB + S_BDC + S_CDA times D.  The leading coefficient
    -t / D must be nonzero, and lambda_ED = a0 / (D t).  The result is
    checked by its curvature at E->D alone, which vanishes iff the
    relation holds.
    """
    d, numerators = cfg.table
    terms = _flatness_terms(numerators)
    lead = sum(a for a, _ in terms)
    if lead == 0:
        raise DegenerateGeometryError(
            "degenerate five-point configuration: the flatness relation does "
            "not determine lambda_ED (vanishing leading coefficient)"
        )
    at0 = sum(a * (b - numerators[ED_PAIR]) for a, b in terms)
    solved = cfg.with_lambda_ed(Fraction(at0, d * lead))
    if solved.curvature[0][0] != 0:
        raise PentachainError("internal error: the solved lambda_ED leaves a nonzero curvature at E->D")
    return solved


def verify_pentagon(cfg: FivePointConfig) -> tuple[Fraction, Fraction, bool]:
    """Both sides of the two-to-three consistency identity, S_ABC and
    S_ADE S_BDE S_CDE d(omega_ED)/d(lambda_ED), evaluated at a
    configuration whose lambda_ED already satisfies flatness.

    On the table (D, n) the left side is an integer over D and the right
    one an integer over D^3 times the gradient's denominator; the sides
    are compared cross-multiplied.  The derivative by lambda_ED is minus
    the gradient's entry for the stored lambda_DE.
    """
    d, numerators = cfg.table
    _, (den, grad) = cfg.curvature
    lhs, rhs_den = circulation(numerators, _ABC), d**3 * den
    ade, bde, cde = [circulation(numerators, t) for t in _XDE]
    rhs = -ade * bde * cde * grad.get(ED_PAIR, 0)
    return Fraction(lhs, d), Fraction(rhs, rhs_den), lhs * rhs_den == rhs * d


# -- plane-vector identities --------------------------------------------


def cramer_step(circulations, ed, ea, a: str) -> tuple[tuple[int, int], int]:
    """E->b from E->D and E->a: (S_Eba ED + S_EDb Ea) / S_EDa.

    ``circulations`` are the integers (S_EDa, S_Eba, S_EDb) of one table,
    read or shifted on the step's triangles that the module resolves at
    import (any uniform scale of the three cancels); ``ed`` is an integer vector and
    ``ea`` a projective one, ``(numerator vector, denominator)``.  Returns
    E->b in the same projective form, over the denominator of ``ea`` times
    S_EDa, without dividing.
    """
    s_eda, s_eba, s_edb = circulations
    if s_eda == 0:
        raise DegenerateGeometryError(f"S_ED{a} vanishes: E->D and E->{a} are not a basis")
    (x, y), d = ea
    k = s_eba * d
    return (k * ed[0] + s_edb * x, k * ed[1] + s_edb * y), d * s_eda


def verify_vector_identities(points: Mapping[str, tuple[int, int]], den: int) -> bool:
    """Exact checks of the plane-vector identities on five generic points,
    the point k at ``points[k] / den``: two integer coordinates over a
    positive integer ``den``.

    Checks, in order: the Cramer step expressing EB through ED and EA and
    its two relabelings; the closure formula after injecting each of
    CLOSURE_DELTAS into lambda_ED and running the three composed steps;
    and, for each of OMEGA_SAMPLES, that I + the holonomy generator fixes
    ED and sends each of EA, EB to itself plus omega S_ED(aux) ED.  Raises
    DegenerateGeometryError on collinear degeneracies; returns False at
    the first identity that fails and True when all hold.

    With L = ``den``, each vector below is L times the plane vector E->k
    and each flat value is an integer over 2 L^2 (see the module
    docstring); every comparison is an integer one, the sides
    cross-multiplied by their denominators.  The nine circulations of the
    Cramer steps are summed once, on the flat table; the closure's
    perturbed table is q times the flat one, less 2 L^2 p on D-E, so each
    of its circulations is q times the flat one less 2 L^2 p times the
    sign of D-E among the triangle's sides, and S_EDA and S_EDB are read
    off the A step.  The closure reads omega_ED from
    ``geometry.angle_terms`` and ``geometry.curvature_value`` alone, as an
    unreduced integer pair with no gradient and no configuration built.
    Its angles' only denominators are S_ADE, S_BDE and S_CDE, which the
    Cramer steps on the same table have already found nonzero, so the
    curvature cannot raise there.
    """
    ex, ey = points["E"]
    vec = {k: (points[k][0] - ex, points[k][1] - ey) for k in LABELS}  # L (E -> k)
    ed, ea = vec["D"], vec["A"]
    # lambda_ab = (x_a y_b - x_b y_a) / 2 is flat[(a, b)] / 2L^2
    flat = {}
    for a, b in PAIRS:
        (xa, ya), (xb, yb) = points[a], points[b]
        flat[a, b] = xa * yb - xb * ya
    scale = 2 * den * den

    # kappa is zero, so a flat circulation is an oriented area, 2L^2 S
    steps = []
    for a, b, (t1, t2, t3), signs in _CRAMER:
        circulations = (circulation(flat, t1), circulation(flat, t2), circulation(flat, t3))
        (x, y), d = cramer_step(circulations, ed, (vec[a], 1), a)
        if x != d * vec[b][0] or y != d * vec[b][1]:
            return False
        steps.append((a, circulations, signs))
    _, (s_eda, _, s_edb), (eda_sign, _, _) = steps[0]

    # closure: perturb lambda_ED by p / q away from the flat (planar) value,
    # putting every value over 2L^2 q, and run EB, EC, EA_new through the
    # composed steps
    for delta in CLOSURE_DELTAS:
        p, q = delta.numerator, delta.denominator
        shift = scale * p
        lam = {key: q * n for key, n in flat.items()}
        lam[ED_PAIR] -= shift  # stored as lambda_DE
        e = (ea, 1)
        for a, (c1, c2, c3), (s1, s2, s3) in steps:
            e = cramer_step((q * c1 - s1 * shift, q * c2 - s2 * shift, q * c3 - s3 * shift), ed, e, a)
        (x, y), d = e
        # omega_ED = w / w_den, the value stage alone on the perturbed table
        w, w_den = curvature_value(scale * q, angle_terms(lam, ANGLES, _where))
        # EA_new == EA + omega_ED S_EDA ED with S_EDA = s(E, D, A) / 2L^2 q;
        # both sides times d, 2L^2 q and w_den
        big, moved = scale * q * w_den, w * (q * s_eda - eda_sign * shift)
        if big * x != d * (big * ea[0] + moved * ed[0]) or big * y != d * (big * ea[1] + moved * ed[1]):
            return False

    # the basis change depends only on the vector ED and omega: (ED, E->aux)
    # is a basis for aux A and B, so I + the generator is fixed by its images.
    # The generator at L ED is L^2 times the one at ED, so on the L-scaled
    # vectors it must send ED to 0 and E->aux to w (2L^2 S_EDaux) (L ED) / 2;
    # for w = p / q, both sides times 2 q and the generator's denominator
    tx, ty = ed
    images = ((ed, 0), (ea, s_eda), (vec["B"], s_edb))
    for w in OMEGA_SAMPLES:
        p, q = w.numerator, w.denominator
        gen_den, ((r00, r01), (r10, r11)) = holonomy_numerators(ed, p, q)
        for (x, y), s in images:
            moved = gen_den * p * s
            if 2 * q * (r00 * x + r01 * y) != moved * tx or 2 * q * (r10 * x + r11 * y) != moved * ty:
                return False
    return True
