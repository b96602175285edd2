"""Torsion of the based acyclic complex and the normalized invariant.

The torsion is an alternating product of five compatible minors: every
middle space's basis splits into rows for the map on its left and columns
for the map on its right, and

    tau = eps * (minor f1 * minor f3 * minor f5) / (minor f2 * minor f4).

Each minor is the determinant of its block with the chosen rows R_k in
the partition's (pivot) order and the columns in label order.  The sign
eps is the product over the middle spaces C1..C4 of the sign of the
permutation that lists R_k, then its complement K_k in label order,
against C_k's label order.  This is the standard sign of a based torsion:
reordering R_k changes its minor and its permutation by the same sign,
and for an acyclic complex every partition with nonzero minors gives the
same signed value.  So tau, and with it the invariant, is a function of
the based complex (the triangulation, its labels and the geometry) and
not of the partition.  No claim is made that the sign survives Pachner
moves or a change of geometry; that would take a homology orientation
and an Euler structure (Turaev's sign-refined torsion), which this
package does not implement.

Partitions are chosen greedily left to right in one exact pass: rows of
f1 that span its row space become C1's left rows, the complementary labels
become f2's columns, spanning rows of the restricted f2 become C2's left
rows, and so on, closing with the minor of f5.  Each stage is one sparse
Markowitz elimination (``exact.independent_rows``), which returns the
spanning rows in pivot order together with their minor, so the pass
yields the partition and its five minors at once: four row bases and the
``det`` of the f5 block.

Given the chain property (which ``build_chain`` checks exactly), this pass
is also the acyclicity certificate, whatever spanning rows it picks:

- if it succeeds, every restricted f_k has full column rank and the f5
  minor is nonzero, so rank f_k is at least the split size; f_{k+1} f_k = 0
  caps it from above, so the ranks are exactly (6, 3V-6, E-3V+6, 3V-6, 6)
  and the complex is exact everywhere;
- if the complex is acyclic, the columns left for f_{k+1} span a complement
  of the image of f_k, on which f_{k+1} is injective, so every stage reaches
  full column rank for any choice of spanning rows.

So a stage that falls short proves the complex is not acyclic, and the
rank test ``check_acyclic`` runs only then, to report the exact ranks.
The Markowitz rule picks short rows and sparse columns, which keeps the
fill-in and the minors small; the rows are a deterministic function of
the input and the scan order, so reports stay reproducible, and the
signed torsion does not depend on which rows were picked.
``minors``, ``tau`` and ``partition_valid`` evaluate an arbitrary
partition from scratch; they are the reference that the library's paper
partitions, the tests and ``verify``'s partition-independence check use.

The manifold invariant normalizes the torsion by the product of all face
circulations and a power of two:

    invariant = tau * (product of S over face classes) * 2^(-V-1),

reported also as an absolute value.  The absolute value is the quantity
checked to be independent of the geometry and of Pachner moves; the sign
is fixed per geometry (every partition gives it) but is not claimed to be
invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .chain import ChainComplex, build_chain, check_acyclic, expected_ranks
from .errors import NotAcyclicError, TorsionError
from .exact import det, independent_rows, permutation_sign
from .geometry import (
    DEFAULT_MAX_RETRIES,
    GeometryAssignment,
    assign_geometry,
    face_circulations,
    subseed,
)
from .triangulation import Triangulation

@dataclass(frozen=True)
class BasisPartition:
    """Basis split of each middle space: labels used as rows of the left
    map; the complement supplies columns of the right map."""

    c1_rows: tuple[str, ...]
    c2_rows: tuple[str, ...]
    c3_rows: tuple[str, ...]
    c4_rows: tuple[str, ...]

    def cols(self, c: ChainComplex) -> tuple[tuple[str, ...], ...]:
        """Column label sets (K1..K4) in ambient label order."""
        return tuple(
            _complement(m, rows)
            for m, rows in zip(c.maps[:4], self.rows())
        )

    def rows(self) -> tuple[tuple[str, ...], ...]:
        """Row label sets (R1..R4) in the partition's order."""
        return (self.c1_rows, self.c2_rows, self.c3_rows, self.c4_rows)

    def sign(self, c: ChainComplex) -> int:
        """eps: over C1..C4, the product of the signs of the permutations
        that list R_k, then K_k, against C_k's label order."""
        eps = 1
        for m, rows, cols in zip(c.maps[:4], self.rows(), self.cols(c)):
            index = {lab: i for i, lab in enumerate(m.row_labels)}
            eps *= permutation_sign([index[lab] for lab in (*rows, *cols)])
        return eps


def _complement(m, rows) -> tuple[str, ...]:
    """Row labels of ``m`` not in ``rows``, in label order."""
    chosen = set(rows)
    return tuple(lab for lab in m.row_labels if lab not in chosen)


def minors(c: ChainComplex, p: BasisPartition) -> tuple[Fraction, ...]:
    """The five compatible minors (m1..m5) of a partition.

    Raises TorsionError if sizes are inconsistent or any minor vanishes.
    """
    sizes = expected_ranks(c.vertex_count, c.edge_count)
    for k, (want, have) in enumerate(zip(sizes, p.rows()), start=1):
        if len(set(have)) != want:
            raise TorsionError(
                f"C{k} split must pick {want} rows, got {len(set(have))}"
            )
    k1, k2, k3, k4 = p.cols(c)
    # f3's row labels are dw_*, its cols dl_*; the C2/C3 splits are stated
    # in each space's own labels
    values = (
        det(c.f1.submatrix(p.c1_rows, c.f1.col_labels)),
        det(c.f2.submatrix(p.c2_rows, k1)),
        det(c.f3.submatrix(p.c3_rows, k2)),
        det(c.f4.submatrix(p.c4_rows, k3)),
        det(c.f5.submatrix(c.f5.row_labels, k4)),
    )
    for k, v in enumerate(values, start=1):
        if v == 0:
            raise TorsionError(f"minor of f{k} vanishes for this partition")
    return values


def partition_valid(c: ChainComplex, p: BasisPartition) -> bool:
    try:
        minors(c, p)
    except TorsionError:
        return False
    return True


def _signed_tau(c: ChainComplex, p: BasisPartition, values) -> Fraction:
    """eps times the alternating product m1 * m3 * m5 / (m2 * m4) of the
    partition's minors ``values``."""
    m1, m2, m3, m4, m5 = values
    return p.sign(c) * m1 * m3 * m5 / (m2 * m4)


def tau(c: ChainComplex, p: BasisPartition) -> Fraction:
    """Signed torsion of a given partition: eps times the alternating
    product of its minors; the same for every valid partition."""
    return _signed_tau(c, p, minors(c, p))


def select_partition(
    c: ChainComplex, seed: int | None = None
) -> tuple[BasisPartition, tuple[Fraction, ...]]:
    """Greedy left-to-right pivot propagation in a single pass; returns the
    partition and its five minors (m1..m5).

    With ``seed=None`` every stage scans its rows in label order; an integer
    seed shuffles each stage's order, which breaks the row choice's ties
    differently and so picks a different (equally valid) partition.  Each
    stage's rows and minor come from one ``independent_rows`` elimination
    and the f5 minor from ``det``, so the minors equal ``minors(c,
    partition)``.  Given the chain property the pass succeeds exactly when
    the complex is acyclic (see the module docstring), so a stage that
    falls short raises NotAcyclicError with the ranks from
    ``check_acyclic``.
    """
    rng = None if seed is None else random.Random(seed)
    picked, values = [], []
    cols = c.f1.col_labels
    for m in (c.f1, c.f2, c.f3, c.f4):
        order = list(m.row_labels)
        if rng is not None:
            rng.shuffle(order)
        rows, value = independent_rows(m.submatrix(order, cols))
        if not value:
            break
        picked.append(tuple(rows))
        values.append(value)
        cols = _complement(m, rows)
    else:
        values.append(det(c.f5.submatrix(c.f5.row_labels, cols)))
        if values[-1]:
            return BasisPartition(*picked), tuple(values)
    # a stage fell short, so the complex is not acyclic: report the ranks
    report = check_acyclic(c)
    raise NotAcyclicError(report.ranks, report.expected)


@dataclass(frozen=True)
class InvariantResult:
    tau: Fraction
    face_product: Fraction
    vertex_count: int
    invariant: Fraction
    abs_invariant: Fraction
    ranks: tuple[int, int, int, int, int]
    f_vector: tuple[int, int, int, int]
    seed: int | None


def invariant(
    tri: Triangulation,
    seed: int = 0,
    max_retries: int = DEFAULT_MAX_RETRIES,
    geometry: GeometryAssignment | None = None,
) -> InvariantResult:
    """Full pipeline: geometry, chain, acyclicity, torsion, normalization.

    Without ``geometry`` one is sampled from the seed.  ``build_chain``
    computes the geometry's integer edge-value table and certifies it: an
    explicit geometry with a zero face circulation raises
    DegenerateGeometryError there.  The face product is the product of the
    face circulations under the same table, the ``edge_table`` the chain
    keeps.  The chain property is always checked, and acyclicity is
    certified by the partition search itself, which rests on it.  ``tau``
    is the signed torsion, which does not depend on the partition (see the
    module docstring).  The absolute value of the result is independent of
    the seed and of the sampled geometry; its sign is fixed by the geometry
    but is not claimed to be a manifold invariant.
    """
    if geometry is None:
        geometry = assign_geometry(tri, subseed(seed, "geometry"), max_retries)
    c = build_chain(tri, geometry)
    partition, values = select_partition(c)
    t = _signed_tau(c, partition, values)
    face_product = Fraction(1)
    for s in face_circulations(tri, c.edge_table):
        face_product *= s
    value = t * face_product * Fraction(1, 2 ** (len(tri.vertices) + 1))
    return InvariantResult(
        tau=t,
        face_product=face_product,
        vertex_count=len(tri.vertices),
        invariant=value,
        abs_invariant=abs(value),
        ranks=expected_ranks(c.vertex_count, c.edge_count),
        f_vector=tri.f_vector(),
        seed=seed,
    )
