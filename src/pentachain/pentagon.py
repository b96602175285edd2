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

Circulations, the curvature and its derivative come from the routine that
builds the curvature derivative matrix for triangulations, ``geometry.curvature``
with edges looked up by label pair, so these checks exercise the production path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping

from .errors import DegenerateGeometryError
from .geometry import curvature, holonomy_generator, triangle_area

LABELS = ("A", "B", "C", "D", "E")

PAIRS = tuple(
    (LABELS[i], LABELS[j]) for i in range(5) for j in range(i + 1, 5)
)

# the local complex around edge E->D (all positively oriented)
TETRAHEDRA = (("A", "B", "E", "D"), ("B", "C", "E", "D"), ("C", "A", "E", "D"))

ED_PAIR = ("D", "E")  # canonical storage key of the edge the move creates
SAMPLE_DRAWS = 32  # draws FivePointConfig.random makes before giving up


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
    def random(cls, seed: int, bound: int = 30) -> "FivePointConfig":
        """Seeded random values on the nine pairs other than D-E, with the
        tenth solved to make the configuration flat.

        A degenerate draw is redrawn from the same stream, up to
        SAMPLE_DRAWS draws, so a seed whose first draw is usable keeps it.
        """
        rng = random.Random(seed)

        def draw():
            return Fraction(rng.randint(-bound, bound), rng.randint(1, 9))

        for attempt in range(SAMPLE_DRAWS):
            lam = {p: draw() for p in PAIRS if p != ED_PAIR}
            lam[ED_PAIR] = Fraction(0)
            cfg = cls(lam)
            try:
                return cfg.with_lambda_ed(solve_flat_lambda(cfg))
            except DegenerateGeometryError:
                if attempt == SAMPLE_DRAWS - 1:
                    raise

    def value(self, a: str, b: str) -> Fraction:
        key, sign = _key(a, b)
        return sign * self.lam[key]

    def with_lambda_ed(self, lambda_ed: Fraction) -> "FivePointConfig":
        lam = dict(self.lam)
        lam[ED_PAIR] = -Fraction(lambda_ed)  # stored as lambda_DE
        return FivePointConfig(lam)

    def s(self, a: str, b: str, c: str) -> Fraction:
        return self.value(a, b) + self.value(b, c) + self.value(c, a)


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
    assert bilinear_relation(solved) == 0
    assert omega_ed(solved) == 0
    return solution


def omega_ed(cfg: FivePointConfig) -> Fraction:
    """Curvature around E->D of the three-tetrahedron local complex."""
    return curvature(cfg.lam, ANGLES)[0]


def domega_ed_dlambda_ed(cfg: FivePointConfig) -> Fraction:
    """Exact d(omega_ED)/d(lambda_ED) via the shared quotient-rule engine."""
    _, grad = curvature(cfg.lam, ANGLES, wrt=(ED_PAIR,))
    # storage holds lambda_DE; differentiating by lambda_ED flips the sign
    return -grad[ED_PAIR]


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


def _vec(points, a: str, b: str) -> tuple[Fraction, Fraction]:
    (ax, ay), (bx, by) = points[a], points[b]
    return (Fraction(bx) - ax, Fraction(by) - ay)


def _area(points, a: str, b: str, c: str) -> Fraction:
    return triangle_area(*points[a], *points[b], *points[c])


def _basis_map(ed, ea, ed_img, ea_img):
    """2x2 matrix sending ed -> ed_img and ea -> ea_img (standard basis)."""
    det = ed[0] * ea[1] - ed[1] * ea[0]
    if det == 0:
        raise DegenerateGeometryError("E, D, A are collinear; basis is singular")
    # inverse of the column matrix [ed ea], then compose with images
    inv = ((ea[1] / det, -ea[0] / det), (-ed[1] / det, ed[0] / det))
    cols = (ed_img, ea_img)
    return tuple(
        tuple(cols[0][r] * inv[0][c] + cols[1][r] * inv[1][c] for c in range(2))
        for r in range(2)
    )


def verify_vector_identities(
    points: Mapping[str, tuple[Fraction, Fraction]],
    omega_samples=(Fraction(0), Fraction(2), Fraction(-5, 3)),
) -> bool:
    """Exact checks of the plane-vector identities on five generic points.

    Checks, in order: the Cramer identity expressing EB through ED and EA;
    the closure formula after injecting a perturbation of lambda_ED into
    the composed identities; and independence of the resulting basis map
    from the auxiliary point, including agreement with the holonomy
    generator.  Raises on collinear degeneracies, returns True otherwise.
    """
    points = {k: (Fraction(v[0]), Fraction(v[1])) for k, v in points.items()}

    def cramer(a: str, b: str) -> bool:
        s_eda = _area(points, "E", "D", a)
        if s_eda == 0:
            raise DegenerateGeometryError(f"E, D, {a} are collinear")
        eb = _vec(points, "E", b)
        ed = _vec(points, "E", "D")
        ea = _vec(points, "E", a)
        s_eba = _area(points, "E", b, a)
        s_edb = _area(points, "E", "D", b)
        return all(
            eb[i] == (s_eba * ed[i] + s_edb * ea[i]) / s_eda for i in range(2)
        )

    # the identity and its two relabelings used around the edge
    if not (cramer("A", "B") and cramer("B", "C") and cramer("C", "A")):
        return False

    # closure: perturb lambda_ED away from the flat (planar) value and run
    # EB, EC, EA_new through the composed relations
    flat = FivePointConfig.from_points(points)
    ed = _vec(points, "E", "D")
    ea = _vec(points, "E", "A")
    for delta in (Fraction(1), Fraction(-3, 7)):
        cfg = flat.with_lambda_ed(-flat.lam[ED_PAIR] + delta)
        s = cfg.s
        if s("E", "D", "A") == 0 or s("E", "D", "B") == 0 or s("E", "D", "C") == 0:
            raise DegenerateGeometryError("perturbed configuration is degenerate")
        eb = tuple((s("E", "B", "A") * ed[i] + s("E", "D", "B") * ea[i]) / s("E", "D", "A") for i in range(2))
        ec = tuple((s("E", "C", "B") * ed[i] + s("E", "D", "C") * eb[i]) / s("E", "D", "B") for i in range(2))
        ea_new = tuple((s("E", "A", "C") * ed[i] + s("E", "D", "A") * ec[i]) / s("E", "D", "C") for i in range(2))
        w = omega_ed(cfg)
        expected = tuple(ea[i] + w * s("E", "D", "A") * ed[i] for i in range(2))
        if ea_new != expected:
            return False

    # the induced basis map depends only on the vector ED and omega
    for w in omega_samples:
        maps = []
        for aux in ("A", "B"):
            vec_aux = _vec(points, "E", aux)
            s_eda = _area(points, "E", "D", aux)
            image = tuple(vec_aux[i] + w * s_eda * ed[i] for i in range(2))
            maps.append(_basis_map(ed, vec_aux, ed, image))
        if maps[0] != maps[1]:
            return False
        gen = holonomy_generator(ed, w).matrix
        identity_plus = ((1 + gen[0][0], gen[0][1]), (gen[1][0], 1 + gen[1][1]))
        if maps[0] != identity_plus:
            return False
    return True
