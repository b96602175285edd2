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
six of the 12 f1 rows at a's corners and K4 six of the 12 f5 columns at
b's, both picked by the apex rule below.  R2 is a's edges and K3 b's
edges; K1, K2, R3 and R4 are the rest of C1, C2, C3 and C4.  m1, m2, m4
and m5 are products of 3x3 determinants read straight from the stored
integer rows, and the pass closes with the ``det`` of the square block
f3[R3, K2], its one elimination; only a b root that takes the Schur
fallback below adds one, a 6x3 ``independent_rows``, and gets m5 from a
6x6 ``det``.  The based torsion does not depend on
which compatible splitting is used (Milnor, *Whitehead torsion*, 1966;
Turaev, *Introduction to Combinatorial Torsions*, 2001), so the choice of
roots, apexes and trios changes no value.

Apex rule: each root has one apex, its corner in slot 0 or, with a seed,
the slot that the pass's Random draws, and the other three corners are
the inner corners.  f1's dk rows live on the columns dx, dy, dk, where
the inner corners' three rows (-y_u, x_u, 2D) over 2D have a det of +-2D
times twice the area of the face they span, which ``build_chain``'s face
certificate proves nonzero.  R1 is those three rows, then the first trio
of the inner corners' dx and dy rows whose block on dt1..dt3 is nonzero;
the rows there are (y_u, 0, x_u) and (0, x_u, -y_u) over D, of rank 3 at
any three points not on a line.  With the dk rows grouped first and the
columns dx, dy, dk first, f1[R1] is block lower triangular, and m1 is
the two blocks' product.  K4 comes the same way from f5's columns: the
inner corners' dg3 columns live on db3, db5, db6, where their block is a
Vandermonde in x, nonzero when the three x differ, and then the first
trio of their dg1 and dg2 columns with a nonzero block on db1, db2, db4
completes K4.  The trio candidates come in position order
(``itertools.combinations`` order), or shuffled by a seeded pass's
Random.  At a's root on a chain that ``build_chain`` made, the rule
always succeeds: the face certificate rejects a loop edge, so the four
corner classes are distinct; the inner corners span a face whose
circulation, its area, is certified nonzero, so their dk block is
nonsingular; and three points off a line give their dx and dy rows rank
3.  So R1 has no fallback, and a hand-made f1 where the rule finds
nothing sends the pass to its diagnostics below, as a vanishing minor
does.  At b's root the Vandermonde vanishes when two inner corners share
an x, as any three corners of a unit square do, and the Schur fallback
keeps the apex: the first inner corner u's three columns are the
identity on db1..db3, so they and a trio of the other two corners' six
columns are independent exactly when the trio's Schur complements on
db4..db6, column 3v + r less column 3u + r, are.
``exact.independent_rows`` of that 6x3 integer block picks the trio, and
m5 is the ``det`` of f5 on the six columns, which is exact on any chain,
or 0 when fewer than three rows are independent, which sends the pass to
its diagnostics.

Rank-6 lemma: the nine f5 columns at three points off a line have rank
6, so on a certified chain the Schur block has rank 3 and the fallback
finds its trio.  A row vector w on db1..db6 that annihilates the nine
columns satisfies, at each of the three points (x, y) and in values,
w1 + w4 y + w6 y^2 = 0 (dg1), w2 - w4 x + w5 y - 2 w6 x y = 0 (dg2)
and w3 - w5 x + w6 x^2 = 0 (dg3).  If w6 = 0, the dg1 equations give
w4 = 0 unless the three y coincide and the dg3 ones w5 = 0 unless the
three x do; either would put the points on a line, so w1 = w3 = 0, then
w2 = 0, and w = 0.  If w6 = 1, each y is a root of y^2 + w4 y + w1 and
each x one of x^2 - w5 x + w3, so the points are three corners of a grid
{s1, s2} x {r1, r2}, with s1 != s2 and r1 != r2 since they are off a
line.  Then w4 = -(r1 + r2) and w5 = s1 + s2, and the dg2 equation reads
w2 + (r1 + r2) x + (s1 + s2) y - 2 x y = 0, whose left side is
w2 + s1 r2 + s2 r1 at both corners of the diagonal (s1, r1), (s2, r2) and
w2 + s1 r1 + s2 r2 at both of the other.  The two values differ by
(r2 - r1)(s1 - s2), which is not 0, and any three corners meet both
diagonals, so no nonzero w exists.

Shelling lemma: m2 and m4 are products of 3x3 blocks too.  K1's root part
is the inner corners' three coordinates that R1 leaves and the apex's
three.  An f2 row writes only the columns of its edge's two ends, so with
R2 in the order of the three root edges that miss the apex, then the
apex's three, then each later vertex's three, and K1 grouped the same
way (the inner corners' three, the apex's, each later vertex's),
f2[R2, K1] is block lower triangular: m2 is the product of its 3x3
diagonal blocks, times the sign that regroups the columns into ascending
order.  An f4 column writes only the rows of its edge's two ends, so
f4[R4, K3], grouped the same way by b's vertices, is block upper
triangular.  For v reached across u1 u2 u3, and for the apex over the
inner corners, f2's 3x3 block has the rows +-(y_u, -x_u, -2D) over 2D,
and its det is +-2D times twice the area of u1 u2 u3; f4's has the
columns +-(x^2, xy, y^2) of u_i - v over 2D^2, and its det is +- the
product of the cross products of the u_i - v, twice the areas of the
other three faces of that tetrahedron.  A face's circulation is its area,
since the kappa terms cancel around it, and ``build_chain`` certifies
every circulation nonzero.  The inner corners' blocks are nonsingular
too: a tetrahedron with a nondegenerate face gives its 6 edges' f2 rows
rank 6 on its 12 columns, and f2 f1 = 0 makes the 12 f1 rows at its
corners span their kernel, so the 6 columns that a nonsingular f1[R1]
leaves give a nonsingular root block, the product of the inner block and
the apex's; dually, f5 f4 = 0 with a nonsingular f5[K4] leaves a
nonsingular f4 root block.  Before its product, each of the four blocks
is checked against that support in O(nnz) (``_grouped_minor``): a row
outside its group's columns and earlier ones (later ones for f4 and f5),
which only a hand-broken chain has, makes the minor the ``det`` of the
whole block, so it stays exact.  The Schur fallback keeps K4 in b's
inner corners too, so on a certified chain m4 is always the product.

The pass is also the acyclicity certificate:

- if the complex is acyclic, a partition with m2 and m4 nonzero has m3
  nonzero: K2 spans a complement of im f2 = ker f3, since im f2 projects
  injectively onto R2, and K3 one of ker f4 = im f3, since f4 on R4 has
  full column rank on K3; so f3 maps the K2 coordinates injectively onto
  a space that projects injectively onto R3, and f3[R3, K2] is
  nonsingular.  On a chain that ``build_chain`` made, the other four
  minors are nonzero by the apex rule, the rank-6 lemma and the shelling
  lemma;
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
from itertools import combinations
from math import prod

from .chain import ChainComplex, build_chain, certify_chain, check_acyclic, expected_ranks
from .errors import PentachainError, TorsionError
from .exact import RatMatrix, det, independent_rows, permutation_sign, tree_product
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
    tetrahedron a reaches.  Each root has one apex, its corner in slot 0
    or, with a seed, the slot the same Random draws.  R1 is the apex
    rule's pick among the f1 rows at a's inner corners and K4 its pick
    among the f5 columns at b's (``_root_split``), the candidates of the
    second trio shuffled with a seed.  R1 has no fallback: a certified
    chain always gives it a pick, so finding none goes to the diagnostics
    below.  When b's dg3 Vandermonde vanishes, K4 comes from the same
    inner corners by ``_schur_fallback``, whose m5 is the ``det`` of f5 on
    K4.  R2 is a's edges and K3 b's, each grouped by three with the vertex
    coordinates they meet (``_shelled_groups``); the pass closes with the
    ``det`` of f3 on R3 and K2, the rest of C3 and C2, ascending.  R4 is
    the rest of C4, ascending.  The other minors are products of 3x3
    blocks, or the ``det`` of the whole block where the support check
    fails, which no certified chain makes (``_grouped_minor``), each
    signed into the minor's order, so they equal ``minors(c,
    partition)``.  A zero minor, or no pick for R1, runs ``check_acyclic``,
    which raises NotAcyclicError unless the ranks are the acyclic pattern,
    then ``certify_chain``, which raises the internal composition error,
    and raises an internal error if neither finds a fault.
    """
    rng = None if seed is None else random.Random(seed)
    tri = c.triangulation
    a = tri.shelling(0 if rng is None else rng.randrange(tri.size))
    b = tri.shelling(a[3])
    f1, f2, f3, f4, f5 = c.maps
    apex_a, _, r1 = _root_split(a[0], _F1_ORDER, lambda i, j: f1.numerators[i].get(j, 0), rng)
    apex_b, inner_b, k4 = _root_split(b[0], _F5_ORDER, lambda i, j: f5.numerators[j].get(i, 0), rng)
    if k4:
        m5 = _grouped_minor(f5, _F5_ORDER, k4, _ascending_sign(_F5_ORDER) * _ascending_sign(k4), upper=True)
    else:
        k4, m5 = _schur_fallback(f5, inner_b, rng)
    if r1 and m5:
        m1 = _grouped_minor(f1, r1, _F1_ORDER, _ascending_sign(_F1_ORDER))
        # K1 and R4 grouped by the shellings' vertices, the roots' first
        r2, k1 = _shelled_groups(tri, a, apex_a, r1)
        k3, r4 = _shelled_groups(tri, b, apex_b, k4)
        m2 = _grouped_minor(f2, r2, k1, _ascending_sign(k1))
        m4 = _grouped_minor(f4, r4, k3, _ascending_sign(r4) * _ascending_sign(k3), upper=True)
        r3, k2 = _free(f3.nrows, k3), _free(f2.nrows, r2)
        # the f3 block is square once the other four minors are nonzero
        if m1 and m2 and m4 and (m3 := det(f3.block(r3, k2))):
            return BasisPartition(tuple(r1), tuple(r2), tuple(r3), tuple(sorted(r4))), (m1, m2, m3, m4, m5)
    # a minor vanished: not acyclic, or else not a chain
    check_acyclic(c)
    certify_chain(c)
    raise PentachainError("internal error: the partition pass fell short on an acyclic complex")


# The C0 or C5 positions a root's split reads: first the three that the
# inner corners' positions 3u + 2 live on (f1's dk rows on dx, dy, dk,
# f5's dg3 columns on db3, db5, db6), then the three left for the trio.
_F1_ORDER = (3, 4, 5, 0, 1, 2)
_F5_ORDER = (2, 4, 5, 0, 1, 3)


def _root_split(corners, order, entry, rng):
    """The apex rule at a root with corner classes ``corners``: the corner
    in slot 0, or in the slot ``rng`` draws, is the apex and the other
    three are the inner corners.  The pick is the inner corners'
    positions 3u + 2, if their block on ``order[:3]`` is nonzero, then
    the first trio of their other six positions, in order or shuffled by
    ``rng``, whose block on ``order[3:]`` is nonzero.  Returns the apex's
    class, the inner corners' classes and the six picked positions in
    that order, or None for the pick when no trio survives.  ``entry(i,
    j)`` is the stored numerator of candidate i at position j; a row's
    denominator scales a block by a positive factor, so the numerators
    decide which blocks vanish."""
    s = 0 if rng is None else rng.randrange(4)
    inner = corners[:s] + corners[s + 1:]
    picked = [3 * u + 2 for u in inner]
    others = [3 * u + r for u in inner for r in (0, 1)]
    if rng is not None:
        rng.shuffle(others)
    if _det3([[entry(i, j) for j in order[:3]] for i in picked]):
        for trio in combinations(others, 3):
            if _det3([[entry(i, j) for j in order[3:]] for i in trio]):
                return corners[s], inner, picked + list(trio)
    return corners[s], inner, None


def _schur_fallback(f5, inner, rng) -> tuple[list[int], Fraction]:
    """K4 at b's root when the dg3 Vandermonde vanishes, from the same
    apex's ``inner`` corners.  The first inner corner u's three columns
    are the identity on db1..db3, so a trio of the other two corners' six
    columns completes K4 exactly when its Schur complements on db4..db6,
    column 3v + r less column 3u + r there, are independent.  Each stored
    row is its values times its positive denominator, so the differences
    of the stored numerators form a 6x3 integer ``RatMatrix`` of the same
    rank, and ``independent_rows`` of it, the candidates in ascending
    position or shuffled by ``rng``, picks the trio.  Returns K4, u's three
    positions then the trio, and m5, the ``det`` of f5 on K4 in ascending
    order, or 0 when fewer than three rows are independent; the nine
    columns at three points off a line have rank 6 (the module
    docstring), so a certified chain always gets three."""
    u = inner[0]
    candidates = [3 * v + r for v in inner[1:] for r in range(3)]
    if rng is not None:
        rng.shuffle(candidates)
    low = f5.numerators[3:]
    schur = [{i: s for i, row in enumerate(low) if (s := row.get(j, 0) - row.get(3 * u + j % 3, 0))}
             for j in candidates]
    picked, _ = independent_rows(RatMatrix(schur, [1] * len(schur), 3))
    k4 = [3 * u, 3 * u + 1, 3 * u + 2, *(candidates[i] for i in picked)]
    return k4, det(f5.block(range(6), sorted(k4))) if len(picked) == 3 else Fraction(0)


def _shelled_groups(tri, shelling, apex, picked) -> tuple[list[int], list[int]]:
    """The edges of a shelling and the vertex coordinates 3v..3v+2 in
    matching groups of three: the root edges that miss the ``apex`` class
    with the inner corners' coordinates outside ``picked``, then the
    apex's edges with its coordinates, then each later vertex's edges with
    its coordinates.  ``picked`` lies in the inner corners' coordinates,
    so three of them are left, the first group."""
    corners, root_edges, later, _ = shelling
    ends = tri.edges
    edges = sorted(root_edges, key=lambda e: apex in (ends[e].tail, ends[e].head))
    picked = set(picked)
    coords = sorted((j for v in corners for j in range(3 * v, 3 * v + 3) if j not in picked),
                    key=lambda j: (j // 3 == apex, j))
    for v, own in later:
        edges += own
        coords += (3 * v, 3 * v + 1, 3 * v + 2)
    return edges, coords


def _grouped_minor(m: RatMatrix, rows: list[int], cols: list[int], sign: int, upper: bool = False) -> Fraction:
    """``sign`` times the determinant of ``m`` on the row positions
    ``rows`` and column positions ``cols``, in the order given, both in
    groups of three.  When every row meets only its own group's columns
    and earlier ones (later ones with ``upper``), which one pass over the
    rows' stored nonzeros checks, it is the product of the 3x3 diagonal
    blocks, each a cofactor sum in ints, over the product of the rows'
    denominators, both products by a balanced tree.  A row outside that
    support makes it ``det`` of the whole block."""
    nums = m.numerators
    # each column's group, negated with ``upper``, so that a row is off its
    # support when its largest exceeds its own; other columns never are
    step = -1 if upper else 1
    group = [-len(cols)] * m.ncols
    for k, j in enumerate(cols):
        group[j] = step * (k // 3)
    if any(max(map(group.__getitem__, nums[i]), default=-len(cols)) > step * (k // 3) for k, i in enumerate(rows)):
        return sign * det(m.block(rows, cols))
    factors = [sign]
    for k in range(0, len(rows), 3):
        factors.append(_det3([[nums[i].get(j, 0) for j in cols[k:k + 3]] for i in rows[k:k + 3]]))
    dens = m.denominators
    return Fraction(tree_product(factors), tree_product([dens[i] for i in rows]))


def _det3(block) -> int:
    """The determinant of a 3x3 integer block, by cofactors."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = block
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


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
