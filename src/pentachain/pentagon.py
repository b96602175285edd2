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
matrix for triangulations.  A configuration clears its ten values once to
an integer table ``(D, numerators)``, the shape ``geometry.edge_values``
returns; every circulation is an integer over D, ``geometry.circulation``
on that table with edges looked up by label pair, and the curvature and
its derivative are ``geometry.curvature`` on the same table.  The vector
identities use one Cramer step, E->b from E->D and E->a, read off a
configuration's circulations: for plane points (kappa zero) a circulation
is the oriented area, and the closure runs the same step on the perturbed
values.  The holonomy generator, a 2x2 matrix, is checked by its action on
E->D and on E->A, E->B.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Mapping

from .errors import DegenerateGeometryError, PentachainError
from .exact import clear_denominators
from .geometry import circulation, curvature, holonomy_generator

LABELS = ("A", "B", "C", "D", "E")

PAIRS = tuple(
    (LABELS[i], LABELS[j]) for i in range(5) for j in range(i + 1, 5)
)

# the local complex around edge E->D (all positively oriented)
TETRAHEDRA = (("A", "B", "E", "D"), ("B", "C", "E", "D"), ("C", "A", "E", "D"))

ED_PAIR = ("D", "E")  # canonical storage key of the edge the move creates
SAMPLE_DRAWS = 32  # draws FivePointConfig.random makes before giving up
SAMPLE_BOUND = 30  # FivePointConfig.random draws numerators in [-SAMPLE_BOUND, SAMPLE_BOUND]
# curvatures at which verify_vector_identities checks the holonomy generator
OMEGA_SAMPLES = (Fraction(0), Fraction(2), Fraction(-5, 3))


def _key(a: str, b: str) -> tuple[tuple[str, str], int]:
    return ((a, b), 1) if a < b else ((b, a), -1)


def _where(tet, opposite: str) -> str:
    return f"face {''.join(v for v in tet if v != opposite)} of tetrahedron {''.join(tet)}"


# the angles of the local complex at E->D, as geometry.curvature reads them
ANGLES = tuple((_key, (p, q), (e, d), partial(_where, (p, q, e, d))) for p, q, e, d in TETRAHEDRA)


@dataclass(frozen=True)
class FivePointConfig:
    """Edge values on the ten pairs of A..E, alphabetical storage order."""

    lam: Mapping[tuple[str, str], Fraction]

    @classmethod
    def from_lambdas(cls, values: Mapping[tuple[str, str], Fraction]) -> "FivePointConfig":
        lam = {}
        for (a, b), v in values.items():
            key, sign = _key(a, b)
            lam[key] = sign * Fraction(v)
        missing = [p for p in PAIRS if p not in lam]
        if missing:
            raise ValueError(f"missing edge values for pairs {missing}")
        return cls(dict(lam))

    @classmethod
    def from_points(cls, points: Mapping[str, tuple[Fraction, Fraction]]) -> "FivePointConfig":
        """Induce edge values from plane points (kappa identically zero)."""
        lam = {}
        for a, b in PAIRS:
            (ax, ay), (bx, by) = points[a], points[b]
            lam[(a, b)] = (Fraction(ax) * by - Fraction(bx) * ay) / 2
        return cls(lam)

    @classmethod
    def random(cls, seed: int) -> "FivePointConfig":
        """Seeded random values on the nine pairs other than D-E, with the
        tenth solved to make the configuration flat.

        A degenerate draw is redrawn from the same stream, up to
        SAMPLE_DRAWS draws, so a seed whose first draw is usable keeps it.
        """
        rng = random.Random(seed)

        def draw():
            return Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, 9))

        for attempt in range(SAMPLE_DRAWS):
            lam = {p: draw() for p in PAIRS if p != ED_PAIR}
            lam[ED_PAIR] = Fraction(0)
            cfg = cls(lam)
            try:
                return cfg.with_lambda_ed(solve_flat_lambda(cfg))
            except DegenerateGeometryError:
                if attempt == SAMPLE_DRAWS - 1:
                    raise

    @cached_property
    def table(self) -> tuple[int, dict]:
        """Integer value table ``(D, numerators)``, the shape
        ``geometry.edge_values`` returns."""
        return clear_denominators(self.lam)

    def with_lambda_ed(self, lambda_ed: Fraction) -> "FivePointConfig":
        lam = dict(self.lam)
        lam[ED_PAIR] = -Fraction(lambda_ed)  # stored as lambda_DE
        return FivePointConfig(lam)

    def s(self, a: str, b: str, c: str) -> Fraction:
        """Circulation of the values around the triangle a -> b -> c."""
        d, numerators = self.table
        return Fraction(circulation(_key, numerators, a, b, c), d)


def bilinear_relation(cfg: FivePointConfig) -> Fraction:
    """Left side of the flatness relation; zero iff omega_ED vanishes."""
    return (
        cfg.s("A", "D", "B") * cfg.s("C", "D", "E")
        + cfg.s("B", "D", "C") * cfg.s("A", "D", "E")
        + cfg.s("C", "D", "A") * cfg.s("B", "D", "E")
    )


def solve_flat_lambda(cfg: FivePointConfig) -> Fraction:
    """The unique lambda_ED making the curvature at E->D vanish.

    The bilinear relation is affine in lambda_ED; the leading coefficient is
    -(S_ADB + S_BDC + S_CDA) and must be nonzero.
    """
    at0 = bilinear_relation(cfg.with_lambda_ed(Fraction(0)))
    at1 = bilinear_relation(cfg.with_lambda_ed(Fraction(1)))
    lead = at1 - at0
    if lead == 0:
        raise DegenerateGeometryError(
            "degenerate five-point configuration: the flatness relation does "
            "not determine lambda_ED (vanishing leading coefficient)"
        )
    solution = -at0 / lead
    solved = cfg.with_lambda_ed(solution)
    if bilinear_relation(solved) != 0 or omega_ed(solved) != 0:
        raise PentachainError("internal error: the solved lambda_ED leaves a nonzero curvature at E->D")
    return solution


def omega_ed(cfg: FivePointConfig) -> Fraction:
    """Curvature around E->D of the three-tetrahedron local complex."""
    return curvature(cfg.table, ANGLES)[0]


def domega_ed_dlambda_ed(cfg: FivePointConfig) -> Fraction:
    """Exact d(omega_ED)/d(lambda_ED) via the shared quotient-rule engine."""
    _, (den, grad) = curvature(cfg.table, ANGLES)
    # storage holds lambda_DE; differentiating by lambda_ED flips the sign
    return Fraction(-grad.get(ED_PAIR, 0), den)


def verify_pentagon(cfg: FivePointConfig) -> tuple[Fraction, Fraction, bool]:
    """Both sides of the two-to-three consistency identity, evaluated at a
    configuration whose lambda_ED already satisfies flatness."""
    lhs = cfg.s("A", "B", "C")
    rhs = (
        cfg.s("A", "D", "E")
        * cfg.s("B", "D", "E")
        * cfg.s("C", "D", "E")
        * domega_ed_dlambda_ed(cfg)
    )
    return lhs, rhs, lhs == rhs


# -- plane-vector identities --------------------------------------------


def cramer_step(s, ed, ea, a: str, b: str) -> tuple[Fraction, Fraction]:
    """E->b from E->D and E->a: (S_Eba ED + S_EDb Ea) / S_EDa, with the
    circulations read from ``s``."""
    s_eda = s("E", "D", a)
    if s_eda == 0:
        raise DegenerateGeometryError(f"S_ED{a} vanishes: E->D and E->{a} are not a basis")
    s_eba, s_edb = s("E", b, a), s("E", "D", b)
    return tuple((s_eba * ed[i] + s_edb * ea[i]) / s_eda for i in range(2))


def verify_vector_identities(points: Mapping[str, tuple[Fraction, Fraction]]) -> bool:
    """Exact checks of the plane-vector identities on five generic points.

    Checks, in order: the Cramer step expressing EB through ED and EA and
    its two relabelings; the closure formula after injecting a
    perturbation of lambda_ED into the three composed steps; and, for each
    of OMEGA_SAMPLES, that I + the holonomy generator fixes ED and sends
    each of EA, EB to itself plus omega S_ED(aux) ED.  Raises on collinear
    degeneracies, returns True otherwise.
    """
    points = {k: (Fraction(x), Fraction(y)) for k, (x, y) in points.items()}
    ex, ey = points["E"]
    vec = {k: (x - ex, y - ey) for k, (x, y) in points.items()}  # E -> k
    ed, ea = vec["D"], vec["A"]

    # kappa is zero, so a flat circulation is an oriented area
    flat = FivePointConfig.from_points(points)
    if any(cramer_step(flat.s, ed, vec[a], a, b) != vec[b] for a, b in (("A", "B"), ("B", "C"), ("C", "A"))):
        return False

    # closure: perturb lambda_ED away from the flat (planar) value and run
    # EB, EC, EA_new through the composed steps
    for delta in (Fraction(1), Fraction(-3, 7)):
        cfg = flat.with_lambda_ed(-flat.lam[ED_PAIR] + delta)
        eb = cramer_step(cfg.s, ed, ea, "A", "B")
        ec = cramer_step(cfg.s, ed, eb, "B", "C")
        ea_new = cramer_step(cfg.s, ed, ec, "C", "A")
        w = omega_ed(cfg)
        s_eda = cfg.s("E", "D", "A")
        if ea_new != tuple(ea[i] + w * s_eda * ed[i] for i in range(2)):
            return False

    # the basis change depends only on the vector ED and omega: (ED, E->aux)
    # is a basis for aux A and B, so I + the generator is fixed by its images
    s_ed = {aux: flat.s("E", "D", aux) for aux in ("A", "B")}
    for w in OMEGA_SAMPLES:
        (m00, m01), (m10, m11) = holonomy_generator(ed, w)
        images = [(ed, ed)] + [
            (vec[aux], tuple(vec[aux][i] + w * s_ed[aux] * ed[i] for i in range(2))) for aux in ("A", "B")
        ]
        if any((x + m00 * x + m01 * y, y + m10 * x + m11 * y) != image for (x, y), image in images):
            return False
    return True
