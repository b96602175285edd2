"""Torsion of the based acyclic complex and the normalized invariant.

The torsion is an alternating product of five compatible minors: every
middle space's basis splits into rows for the map on its left and columns
for the map on its right, and

    tau = eps * (minor f1 * minor f3 * minor f5) / (minor f2 * minor f4).

Each minor is the determinant of its block with the chosen rows R_k in
the partition's order and the columns in ascending position.  The sign
eps is the product over the middle spaces C1..C4 of the sign of the
permutation that lists R_k, then its complement K_k in ascending
position, against C_k's basis order.  This is the standard sign of a
based torsion: reordering R_k changes its minor and its permutation by
the same sign, and for an acyclic complex every partition with nonzero
minors gives the same signed value.  So tau, and with it the invariant,
is a function of the based complex (the triangulation, its basis order
and the geometry) and not of the partition.  No claim is made that the
sign survives Pachner moves or a change of geometry; that would take a
homology orientation and an Euler structure (Turaev's sign-refined
torsion), which this package does not implement.

Partitions are read off two shellings of the triangulation the chain
keeps (``ChainComplex.triangulation``).  A shelling
(``Triangulation.shelling``) is a breadth-first walk over the tetrahedra
from a root: it places the root's 4 corner classes with its 6 edges, then
each vertex class v it first reaches with the 3 edges that join v to the
corners u1 u2 u3 of the face it was reached across.  Shelling a is rooted
at tetrahedron 0 and shelling b at the last tetrahedron a reaches.  R1 is
a row basis of f1 among the 12 rows at a's corners and K4 a column basis
of f5 among the 12 columns at b's corners, each one sparse Markowitz
elimination (``exact.independent_rows``, on the transpose for the
columns) that returns its rows in pivot order with their minor.  R2 is
a's edges in shelling order and K3 b's edges; K1, K2, R3 and R4 are the
rest of C1, C2, C3 and C4.  The pass closes with the ``det`` of the square
block f3[R3, K2], its one elimination of a large block.  No stage builds
a matrix: each block is sliced by position from the stored integer rows
(``RatMatrix.block``).  The based torsion does not depend on which
compatible splitting is used (Milnor, *Whitehead torsion*, 1966; Turaev,
*Introduction to Combinatorial Torsions*, 2001), so the choice of roots
changes no value.

Shelling lemma: m2 and m4 are products of 3x3 blocks that the geometry
certificate proves nonzero.  An f2 row writes only the columns of its
edge's two ends, and each later edge of a joins its vertex to earlier
ones, so with K1 grouped by a's vertices (the root's 6 free columns, then
each later vertex's 3) f2[R2, K1] is block lower triangular: m2 is the
det of its 6 x 6 root block times one 3x3 det per later vertex, times the
sign that regroups the columns into ascending order.  An f4 column writes
only the rows of its edge's two ends, so f4[R4, K3] grouped by b's
vertices is block triangular in the same way.  For v reached across u1 u2
u3, f2's 3x3 block has the rows +-(y_u, -x_u, -2D) over 2D, and its det
is +-2D times twice the area of u1 u2 u3; f4's has the columns +-(x^2, xy,
y^2) of u_i - v over 2D^2, and its det is +- the product of the cross
products of the u_i - v, twice the areas of the other three faces of that
tetrahedron.  A face's circulation is its area, since the kappa terms
cancel around it, and ``build_chain`` certifies every circulation
nonzero.  The root blocks are nonsingular too: a tetrahedron with a
nondegenerate face gives its 6 edges' f2 rows rank 6 on its 12 columns,
and f2 f1 = 0 makes the 12 f1 rows at its corners span their kernel, so
the 6 columns that a nonsingular f1[R1] leaves give a nonsingular block;
dually, with nondegenerate faces its 6 f4 columns have rank 6 and f5 f4 =
0 with a nonsingular f5[K4] leaves a nonsingular block on the other 6
rows.  Four points with no three on a line also give the 12 candidate f1
rows and f5 columns rank 6, so neither basis stage needs more
candidates.  Before its product, each minor's block is checked against
that support in O(nnz): a row outside its group's columns and earlier
ones, which only a hand-broken chain has, makes the minor the ``det`` of
the whole block, so it stays exact.

The pass is also the acyclicity certificate:

- if the complex is acyclic, a partition with m2 and m4 nonzero has m3
  nonzero: K2 spans a complement of im f2 = ker f3, since im f2 projects
  injectively onto R2, and K3 one of ker f4 = im f3, since f4 on R4 has
  full column rank on K3; so f3 maps the K2 coordinates injectively onto
  a space that projects injectively onto R3, and f3[R3, K2] is
  nonsingular.  On a chain that ``build_chain`` made, the other four
  minors are nonzero by the shelling lemma;
- if every block is nonsingular and the chain property f_{k+1} f_k = 0
  holds, rank f_k is at least the size of its block and the chain
  property caps rank f_k + rank f_{k+1} by dim C_k, so the ranks are
  exactly (6, 3V-6, E-3V+6, 3V-6, 6) and the complex is exact everywhere.

So, given the chain property and a certified geometry, a vanishing minor
proves the complex is not acyclic.  The pass does not assume that
property, so a short pass looks for the true reason in order: the rank
test ``check_acyclic`` raises NotAcyclicError when the ranks are not the
acyclic pattern; with that pattern only a broken chain makes the pass
fall short, so ``chain.certify_chain`` then raises the internal
composition error at the full check's first witness; and if the chain
holds too, the pass itself is wrong, which an internal error says.
The nonsingular blocks also shrink the check of the chain property:
``invariant`` checks it with ``chain.verify_chain`` on the pass's free
columns K1, K2 and K3 only (the free-column lemma in the ``chain`` module
docstring).  The partition is a deterministic function of the input and
the seed, so reports stay reproducible, and the signed torsion does not
depend on it.  ``minors`` evaluates an arbitrary partition's five minors
from scratch, the reference that the tests (the paper's hand-chosen
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
from .exact import Block, det, independent_rows, permutation_sign, tree_product
from .geometry import GeometryAssignment, assign_geometry, face_circulations, subseed
from .triangulation import Triangulation


@dataclass(frozen=True)
class BasisPartition:
    """Basis split of each middle space C_k, by position: ``ck_rows`` are
    the positions in C_k, the rows of f_k, used as rows of the left map;
    the complement supplies columns of the right map."""

    c1_rows: tuple[int, ...]
    c2_rows: tuple[int, ...]
    c3_rows: tuple[int, ...]
    c4_rows: tuple[int, ...]

    def cols(self, c: ChainComplex) -> tuple[list[int], ...]:
        """The positions K1..K4 of the complements, each ascending."""
        return tuple(_free(m.nrows, rows) for m, rows in zip(c.maps[:4], self.rows()))

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The positions R1..R4 in the partition's order."""
        return (self.c1_rows, self.c2_rows, self.c3_rows, self.c4_rows)

    def sign(self, c: ChainComplex) -> int:
        """eps: over C1..C4, the product of the signs of the permutations
        that list R_k, then K_k, against C_k's order.  Each is the sign of
        the list of their positions, which is the inverse permutation, of
        the same sign."""
        return prod(permutation_sign([*rows, *cols]) for rows, cols in zip(self.rows(), self.cols(c)))


def minors(c: ChainComplex, p: BasisPartition) -> tuple[Fraction, ...]:
    """The five compatible minors (m1..m5) of a partition.

    Raises TorsionError, naming C_k, if a split picks the wrong number of
    positions, one twice or one outside 0..dim C_k - 1, and if any minor
    vanishes.
    """
    sizes = expected_ranks(c.vertex_count, c.edge_count)
    for k, (want, have, m) in enumerate(zip(sizes, p.rows(), c.maps), start=1):
        if len(have) != want:
            raise TorsionError(f"C{k} split must pick {want} rows, got {len(have)}")
        seen = set()
        for i in have:
            if not 0 <= i < m.nrows:
                raise TorsionError(f"C{k} split picks position {i}, outside 0..{m.nrows - 1}")
            if i in seen:
                raise TorsionError(f"C{k} split picks position {i} twice")
            seen.add(i)
    k1, k2, k3, k4 = p.cols(c)
    f1, f2, f3, f4, f5 = c.maps
    values = (
        det(f1.block(p.c1_rows, range(f1.ncols))),
        det(f2.block(p.c2_rows, k1)),
        det(f3.block(p.c3_rows, k2)),
        det(f4.block(p.c4_rows, k3)),
        det(f5.block(range(f5.nrows), k4)),
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
    """One exact pass read off two shellings (see the module docstring);
    returns the partition and its five minors (m1..m5).

    Shelling a is rooted at tetrahedron 0, or with an integer seed at a
    tetrahedron drawn by ``Random(seed)``, and shelling b at the last
    tetrahedron a reaches.  R1 is ``independent_rows`` of the 12 f1 rows
    of a's corners and K4 of the 12 f5 columns of b's corners, scanned in
    ascending position, or shuffled by the same Random with a seed, and
    each pick is mapped through its scan to a position.  R2 is a's edges in
    shelling order, K3 b's edges, and the pass closes with the ``det`` of
    f3 on R3 and K2, the rest of C3 and C2, ascending; R4 is the rest of
    C4, ascending.  m2 and m4 are products of the shellings' diagonal
    blocks (``_shelled_minor``).  A column basis comes in pivot order, so
    its minor is signed into ascending order, and the minors equal
    ``minors(c, partition)``.  A zero minor runs
    ``check_acyclic``, which raises NotAcyclicError unless the ranks are
    the acyclic pattern, then ``certify_chain``, which raises the internal
    composition error, and raises an internal error if neither finds a
    fault.
    """
    rng = None if seed is None else random.Random(seed)
    tri = c.triangulation
    a = tri.shelling(0 if rng is None else rng.randrange(tri.size))
    b = tri.shelling(a[3])

    def scan(corners) -> list[int]:
        order = sorted(3 * v + r for v in corners for r in range(3))
        if rng is not None:
            rng.shuffle(order)
        return order

    f1, f2, f3, f4, f5 = c.maps
    r1_scan, k4_scan = scan(a[0]), scan(b[0])
    r1, m1 = independent_rows(f1.block(r1_scan, range(f1.ncols)))
    k4, m5 = independent_rows(f5.block(range(f5.nrows), k4_scan, transpose=True))
    if m1 and m5:
        r1, k4 = [r1_scan[i] for i in r1], [k4_scan[i] for i in k4]
        # K1 and R4 grouped by the shellings' vertices, the roots' 6 first
        r2, k1 = _shelled_groups(a, set(r1))
        k3, r4 = _shelled_groups(b, set(k4))
        m2 = _shelled_minor(f2.block(r2, k1), _ascending_sign(k1))
        m4 = _shelled_minor(f4.block(r4, k3, transpose=True), _ascending_sign(r4) * _ascending_sign(k3))
        r3, k2 = _free(f3.nrows, k3), _free(f2.nrows, r2)
        # the f3 block is square once the other four minors are nonzero
        if m2 and m4 and (m3 := det(f3.block(r3, k2))):
            m5 *= _ascending_sign(k4)
            return BasisPartition(tuple(r1), tuple(r2), tuple(r3), tuple(sorted(r4))), (m1, m2, m3, m4, m5)
    # a minor vanished: not acyclic, or else not a chain
    check_acyclic(c)
    certify_chain(c)
    raise PentachainError("internal error: the partition pass fell short on an acyclic complex")


def _shelled_groups(shelling, picked: set[int]) -> tuple[list[int], list[int]]:
    """The edges of a shelling in its order, and the vertex coordinates
    3v..3v+2 grouped the same way: the root corners' coordinates not in
    ``picked`` (6 of them when ``picked`` is a basis of the 12), then each
    later vertex's three."""
    corners, edges, later, _ = shelling
    coords = sorted(j for v in corners for j in range(3 * v, 3 * v + 3) if j not in picked)
    edges = list(edges)
    for v, own in later:
        edges += own
        coords += (3 * v, 3 * v + 1, 3 * v + 2)
    return edges, coords


def _shelled_minor(block: Block, sign: int) -> Fraction:
    """``sign`` times the determinant of a square block whose rows and
    columns come in groups, 6 and then 3 at a time, with every row inside
    its group's columns and earlier ones: the product of the diagonal
    blocks, the first by ``det`` and each later one as a 3x3 cofactor sum
    in ints over its rows' denominators, all multiplied by one balanced
    tree.  A row outside that support makes it ``det`` of the whole
    block."""
    nums, dens = block.numerators, block.denominators
    # row i's group ends at column 6, or past the triple that holds i
    if any(row and max(row) >= (6 if i < 6 else i + 3 - i % 3) for i, row in enumerate(nums)):
        return sign * det(block)
    root = det(Block(nums[:6], dens[:6], 6))
    factors = [sign * root.numerator]
    for i in range(6, len(nums), 3):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = ([r.get(j, 0) for j in range(i, i + 3)] for r in nums[i:i + 3])
        factors.append(a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0))
    return Fraction(tree_product(factors), tree_product([root.denominator, *dens[6:]]))


def _ascending_sign(positions: list[int]) -> int:
    """Sign of the permutation that puts ``positions`` in ascending order."""
    return permutation_sign(sorted(range(len(positions)), key=positions.__getitem__))


def _free(n: int, picked: list[int]) -> list[int]:
    """The positions 0..n-1 not in ``picked``, in order."""
    chosen = set(picked)
    return [j for j in range(n) if j not in chosen]


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
    the one Fraction prod(c_f) / D^F over the F face classes, its
    numerator multiplied by a balanced tree, so that one gcd reduces it.
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
    face_product = Fraction(tree_product(circulations), d ** len(circulations))
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
