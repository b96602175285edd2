"""Torsion of the based acyclic complex and the normalized invariant.

The torsion is an alternating product of five compatible minors: every
middle space's basis splits into rows for the map on its left and columns
for the map on its right, and

    tau = eps * (minor f1 * minor f3 * minor f5) / (minor f2 * minor f4).

Each minor is the determinant of its block with the chosen rows R_k in
the partition's order and the columns in label order.  The sign
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

Partitions are chosen in one exact pass that meets in the middle.  From
the bottom, the rows R1 of f1 that span its row space become C1's left
rows, the rest K1 f2's columns, and spanning rows R2 of f2 on K1 become
C2's left rows, leaving K2.  From the top, columns K4 of f5 that span its
column space become C4's right labels, the rest R4 f4's rows, and spanning
columns K3 of f4 on R4 become C3's right labels, leaving R3.  The pass
closes with the minor of the square block f3[R3, K2].  Each basis stage is
one sparse Markowitz elimination (``exact.independent_rows``, on the
transpose for a column basis), which returns the spanning rows in pivot
order together with their minor, and the f3 block is one ``det``; so the
pass yields the partition and its five minors at once.  The two stages
that pick 6 pivots among 3V candidates, R1 from the rows of f1 and K4 from
the columns of f5, first eliminate only the first ``BASIS_PREFIX`` = 12
candidates of their scan order, and all 3V only when those 12 do not span
(their minor is 0).  Any spanning rows serve, as the certificate below
shows, so the prefix spares the Markowitz updates of the other 3V - 12
candidates at each of the six pivots.  In label order the 12 candidates
are the data of vertex classes 0..3, the corners of the first tetrahedron;
each three of them bound one of its faces, whose circulation, an area, the
geometry certificate makes nonzero, and four points with no three on a
line give f1 rows and f5 columns of rank 6.  So only a shuffled scan can
fall back.  The f2 and f4 stages pick 3V - 6 of E candidates, more than
half of them, and eliminate them all.  No stage builds a matrix: each
block is sliced by position from the stored integer rows
(``RatMatrix.block``).  The based torsion does not depend on which
compatible splitting is used (Milnor, *Whitehead torsion*, 1966; Turaev,
*Introduction to Combinatorial Torsions*, 2001), so picking it from both
ends changes no value, and the f3 stage eliminates no dependent rows.

The pass is also the acyclicity certificate, whatever spanning rows and
columns it picks:

- if the complex is acyclic, every stage succeeds: f1 has rank 6 and f5
  rank 6; K1 spans a complement of im f1 = ker f2, on which f2 is
  injective, so f2 on K1 has full column rank; dually f5 is injective on
  the coordinates K4, so ker f5 = im f4 projects injectively onto R4 and
  f4 on R4 has full row rank.  Then K2 spans a complement of im f2 = ker
  f3 and K3 one of ker f4 = im f3, so f3 maps the K2 coordinates
  injectively onto a space that projects injectively onto R3: f3[R3, K2]
  is nonsingular;
- if every block is nonsingular and the chain property f_{k+1} f_k = 0
  holds, rank f_k is at least the size of its block and the chain
  property caps rank f_k + rank f_{k+1} by dim C_k, so the ranks are
  exactly (6, 3V-6, E-3V+6, 3V-6, 6) and the complex is exact everywhere.

So, given the chain property, a stage that falls short proves the
complex is not acyclic.  The pass does not assume that property, so a
short pass looks for the true reason in order: the rank test
``check_acyclic`` raises NotAcyclicError when the ranks are not the
acyclic pattern; with that pattern only a broken chain makes the pass
fall short, so ``chain.certify_chain`` then raises the internal
composition error at the full check's first witness; and if the chain
holds too, the pass itself is wrong, which an internal error says.
The nonsingular blocks also shrink the check of the chain property:
``invariant`` checks it with ``chain.verify_chain`` on the pass's free
columns K1, K2 and K3 only (the free-column lemma in the ``chain`` module
docstring).  The Markowitz rule picks short rows and sparse columns,
which keeps the fill-in and the minors small; the rows are a
deterministic function of the input and the scan order, so reports stay
reproducible, and the signed torsion does not depend on which rows were
picked.  ``minors`` evaluates an arbitrary partition's five minors from
scratch, the reference that the tests (the paper's hand-chosen
partitions among them) use.  ``tau`` gives the signed torsion from a
partition's five minors; ``invariant`` and ``verify``'s
partition-independence check pass it the minors their pass returned.

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
from math import prod

from .chain import ChainComplex, build_chain, certify_chain, check_acyclic, expected_ranks
from .errors import PentachainError, TorsionError
from .exact import RatMatrix, det, independent_rows, permutation_sign
from .geometry import GeometryAssignment, assign_geometry, face_circulations, subseed
from .triangulation import Triangulation


# the f1 and f5 stages pick their 6 pivots among this many candidates
# first (see select_partition)
BASIS_PREFIX = 12


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
            tuple(m.row_labels[j] for j in _free(m.row_labels, rows)) for m, rows in zip(c.maps[:4], self.rows())
        )

    def rows(self) -> tuple[tuple[str, ...], ...]:
        """Row label sets (R1..R4) in the partition's order."""
        return (self.c1_rows, self.c2_rows, self.c3_rows, self.c4_rows)

    def sign(self, c: ChainComplex) -> int:
        """eps: over C1..C4, the product of the signs of the permutations
        that list R_k, then K_k, against C_k's label order.  Each is the
        sign of the list of their positions in C_k, R_k's read off the row
        index of f_k, whose rows are C_k, and K_k's the free positions in
        order: that list is the inverse permutation, of the same sign."""
        splits = zip(c.maps[:4], self.rows())
        return prod(permutation_sign([m._rindex[r] for r in rows] + _free(m.row_labels, rows)) for m, rows in splits)


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


def tau(c: ChainComplex, p: BasisPartition, values: tuple[Fraction, ...]) -> Fraction:
    """Signed torsion of a given partition: eps times the alternating
    product m1 * m3 * m5 / (m2 * m4) of its five minors ``values`` (those
    ``select_partition`` returned, or ``minors(c, p)``); the same for
    every valid partition."""
    m1, m2, m3, m4, m5 = values
    return p.sign(c) * m1 * m3 * m5 / (m2 * m4)


def select_partition(
    c: ChainComplex, seed: int | None = None
) -> tuple[BasisPartition, tuple[Fraction, ...]]:
    """One exact pass from both ends (see the module docstring); returns
    the partition and its five minors (m1..m5).

    R1 and R2 are row bases of f1 and of f2 on K1, K4 a column basis of f5
    and K3 one of f4 on the rows R4 (the rest of C4), each from
    ``independent_rows``; the pass closes with the ``det`` of f3 on R3 (the
    rest of C3) and K2.  R3 and R4 are in label order.  The R1 and K4
    stages, the only ones that pick 6 of 3V candidates, eliminate the
    first ``BASIS_PREFIX`` candidates of their scan, and all of them only
    when that prefix does not span: any spanning rows certify the pass,
    and the label-order prefix always spans.  With ``seed=None`` every
    basis stage scans its rows (or columns) in label order; an integer
    seed shuffles each scan, which changes the prefix and breaks the pivot
    rule's ties differently, and so picks a different, equally valid
    partition.  A column basis comes in pivot order, so its minor is
    signed into label order, and the minors equal ``minors(c,
    partition)``.  A stage that falls short runs ``check_acyclic``, which
    raises NotAcyclicError unless the ranks are the acyclic pattern, then
    ``certify_chain``, which raises the internal composition error (with
    that pattern only a broken chain makes the pass fall short), and
    raises an internal error if neither finds a fault.
    """
    rng = None if seed is None else random.Random(seed)

    def scan(n: int) -> list[int]:
        order = list(range(n))
        if rng is not None:
            rng.shuffle(order)
        return order

    f1, f2, f3, f4, f5 = c.maps
    r1, m1 = _six_pivots(lambda rows: f1.block(rows, range(f1.ncols)), scan(f1.nrows))
    r2, m2 = independent_rows(f2.block(scan(f2.nrows), _free(f1.row_labels, r1)))
    k4, m5 = _six_pivots(lambda cols: f5.block(range(f5.nrows), cols, transpose=True), scan(f5.ncols))
    r4 = _free(f4.row_labels, k4)
    k3, m4 = independent_rows(f4.block(r4, scan(f4.ncols), transpose=True))
    r3 = _free(f3.row_labels, k3)
    # the f3 block is square once the four basis stages are full
    if m1 and m2 and m4 and m5 and (m3 := det(f3.block(r3, _free(f2.row_labels, r2)))):
        rows3, rows4 = (tuple(m.row_labels[i] for i in r) for m, r in ((f3, r3), (f4, r4)))
        m4 *= _sorting_sign(f4, k3)
        m5 *= _sorting_sign(f5, k4)
        return BasisPartition(tuple(r1), tuple(r2), rows3, rows4), (m1, m2, m3, m4, m5)
    # a stage fell short: not acyclic, or else not a chain
    check_acyclic(c)
    certify_chain(c)
    raise PentachainError("internal error: the partition pass fell short on an acyclic complex")


def _six_pivots(block, order: list[int]) -> tuple[list[str], Fraction]:
    """``independent_rows`` of ``block(order[:BASIS_PREFIX])``, and of
    ``block(order)`` only when that prefix does not span."""
    if len(order) > BASIS_PREFIX:
        picked, minor = independent_rows(block(order[:BASIS_PREFIX]))
        if minor:
            return picked, minor
    return independent_rows(block(order))


def _free(labels: tuple[str, ...], picked: list[str]) -> list[int]:
    """Positions of the labels not in ``picked``, in label order."""
    chosen = set(picked)
    return [j for j, lab in enumerate(labels) if lab not in chosen]


def _sorting_sign(m: RatMatrix, picked: list[str]) -> int:
    """Sign of the permutation that puts the column labels ``picked`` of
    ``m`` into label order, read off the matrix's column index."""
    return permutation_sign(sorted(range(len(picked)), key=lambda i: m._cindex[picked[i]]))


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
    geometry: GeometryAssignment | None = None,
) -> InvariantResult:
    """Full pipeline: geometry, chain, acyclicity, torsion, normalization.

    Without ``geometry`` one is sampled from ``subseed(seed, "geometry")``
    by ``assign_geometry``, which raises DegenerateGeometryError after
    ``geometry.SAMPLE_DRAWS`` rejected draws.  ``build_chain``
    computes the geometry's integer edge-value table and certifies it: an
    explicit geometry with a zero face circulation raises
    DegenerateGeometryError there, and a nonzero curvature at the flat
    point raises the internal error.  The face product is the product of
    the face circulations under the same table, the ``edge_table`` the
    chain keeps: with ``face_circulations`` the integers c_f over D, it is
    the one Fraction prod(c_f) / D^F over the F face classes, so that one
    gcd reduces it.
    ``select_partition`` certifies acyclicity and yields the minors; the
    chain property it rests on is then checked in full for f2 * f1 and on
    the pass's free columns for the other compositions, which decides the
    same once the pass's blocks are nonsingular.  So a broken chain
    reports NotAcyclicError when its pass falls short and its ranks are
    not the acyclic pattern, and otherwise the internal composition error
    with the full check's first witness.  ``tau`` is
    the signed torsion, which does not depend on the partition (see the
    module docstring).  The absolute value of the result is independent of
    the seed and of the sampled geometry; its sign is fixed by the
    geometry but is not claimed to be a manifold invariant.
    """
    if geometry is None:
        geometry = assign_geometry(tri, subseed(seed, "geometry"))
    c = build_chain(tri, geometry)
    partition, values = select_partition(c)
    certify_chain(c, partition.cols(c)[:3])
    t = tau(c, partition, values)
    d, circulations = face_circulations(tri, c.edge_table)
    face_product = Fraction(prod(circulations), d ** len(circulations))
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
