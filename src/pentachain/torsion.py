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
f3[R3, K2], its one elimination.  The based torsion does not depend on
which compatible splitting is used (Milnor, *Whitehead torsion*, 1966;
Turaev, *Introduction to Combinatorial Torsions*, 2001), so the choice of
roots, apexes and trios changes no value.

Apex rule: one root corner is the apex and the other three are the inner
corners.  f1's dk rows live on the columns dx, dy, dk, where the inner
corners' three rows (-y_u, x_u, 2D) over 2D have a det of +-2D times
twice the area of the face they span, which ``build_chain``'s face
certificate proves nonzero.  R1 is those three rows, then the first trio
of the inner corners' dx and dy rows whose block on dt1..dt3 is nonzero;
the rows there are (y_u, 0, x_u) and (0, x_u, -y_u) over D, of rank 3 at
any three points not on a line.  With the dk rows grouped first and the
columns dx, dy, dk first, f1[R1] is block lower triangular, and m1 is the
two blocks' product.  K4 comes the same way from f5's columns: the inner
corners' dg3 columns live on db3, db5, db6, where their block is a
Vandermonde in x, nonzero when the three x differ; else their dg1 columns,
on db1, db4, db6, a Vandermonde in y.  Then the first trio of the inner
corners' other six columns with a nonzero block on the other three rows
completes K4.  The apexes are tried in slot order and each one's
candidates in position order (the trios in ``itertools.combinations``
order); a seeded pass shuffles the apexes and each candidate list with
the same Random that drew its root.  When every candidate vanishes the
next corner becomes the apex.  At a's root on a chain that
``build_chain`` made, the first apex always succeeds: the face
certificate rejects a loop edge, so the four corner classes are
distinct; the inner corners span a face whose circulation, its area, is
certified nonzero, so their dk block is nonsingular; and three points
off a line give their dx and dy rows rank 3.  So R1 has no fallback, and
a hand-made f1 where the rule finds nothing sends the pass to its
diagnostics below, as a vanishing minor does.  Only b's root can fail at
all four apexes, as at four corners of a unit square (any three repeat
an x and a y, so no f5 Vandermonde survives); it takes
``exact.independent_rows`` of the transpose of its 12 f5 columns
instead: a sparse Markowitz elimination that returns them in pivot order
with their minor, so m5 stays exact.

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
whole block, so it stays exact.  A b root that took the fallback has
no apex: its 6 coordinates left free are grouped in ascending position,
and the same check decides whether the product or the whole ``det``
gives m4.

The pass is also the acyclicity certificate:

- if the complex is acyclic, a partition with m2 and m4 nonzero has m3
  nonzero: K2 spans a complement of im f2 = ker f3, since im f2 projects
  injectively onto R2, and K3 one of ker f4 = im f3, since f4 on R4 has
  full column rank on K3; so f3 maps the K2 coordinates injectively onto
  a space that projects injectively onto R3, and f3[R3, K2] is
  nonsingular.  On a chain that ``build_chain`` made, the other four
  minors are nonzero by the apex rule and the shelling lemma;
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
    tetrahedron a reaches.  R1 is the apex rule's pick among the f1 rows
    at a's corners and K4 its pick among the f5 columns at b's
    (``_root_split``); with a seed the same Random shuffles the apexes and
    the candidates.  R1 has no fallback: a certified chain always has an
    apex at a's root, so finding none goes to the diagnostics below.  A b
    root where every f5 candidate vanishes takes ``independent_rows`` of
    its 12 columns instead (``_corner_scan``), in ascending order or
    shuffled with a seed, which gives K4 in pivot order with m5.  R2 is
    a's edges and K3 b's, each grouped by three with the vertex
    coordinates they meet (``_shelled_groups``); the pass closes with the
    ``det`` of f3 on R3 and K2, the rest of C3 and C2, ascending, its one
    elimination.  R4 is the rest of C4, ascending.  The other minors are
    products of 3x3 blocks, or the ``det`` of the whole block where the
    support check fails (``_grouped_minor``), each signed into the minor's
    order, so they equal ``minors(c, partition)``.  A zero minor runs
    ``check_acyclic``, which raises NotAcyclicError unless the ranks are
    the acyclic pattern, then ``certify_chain``, which raises the internal
    composition error, and raises an internal error if neither finds a
    fault; so does an f1 with no apex at a's root.
    """
    rng = None if seed is None else random.Random(seed)
    tri = c.triangulation
    a = tri.shelling(0 if rng is None else rng.randrange(tri.size))
    b = tri.shelling(a[3])
    f1, f2, f3, f4, f5 = c.maps
    split_a = _root_split(a[0], _F1_SPLITS, lambda i, j: f1.numerators[i].get(j, 0), rng)
    if split := _root_split(b[0], _F5_SPLITS, lambda i, j: f5.numerators[j].get(i, 0), rng):
        apex_b, k4, order = split
        m5 = _grouped_minor(f5, order, k4, _ascending_sign(order) * _ascending_sign(k4), upper=True)
    else:
        apex_b, (k4, m5) = None, _corner_scan(f5, b[0], rng)
    if split_a and m5:
        apex_a, r1, order = split_a
        m1 = _grouped_minor(f1, r1, order, _ascending_sign(order))
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


# The splits a root's six picked positions may take, tried in order:
# (the vertex type whose three inner-corner positions form the first trio,
# the C0 or C5 positions of that trio's block, the positions left for the
# second trio).  f1's dk rows live on dx, dy, dk; f5's dg3 columns on db3,
# db5, db6 and its dg1 columns on db1, db4, db6.
_F1_SPLITS = ((2, (3, 4, 5), (0, 1, 2)),)
_F5_SPLITS = ((2, (2, 4, 5), (0, 1, 3)), (0, (0, 3, 5), (1, 2, 4)))


def _root_split(corners, splits, entry, rng):
    """The apex rule at a root with corner classes ``corners``: for each
    corner as the apex, in slot order or shuffled by ``rng``, and each
    split (kind, first, second) of ``splits``, the inner corners'
    positions 3u + kind if their block on ``first`` is nonzero, then the
    first trio of the inner corners' other six positions, in order or
    shuffled by ``rng``, whose block on ``second`` is nonzero.  Returns
    the apex's class, the six picked positions in that order and
    ``first + second``, or None when every candidate vanishes.
    ``entry(i, j)`` is the stored numerator of candidate i at position j;
    a row's denominator scales a block by a positive factor, so the
    numerators decide which blocks vanish."""
    slots = [0, 1, 2, 3]
    if rng is not None:
        rng.shuffle(slots)
    for s in slots:
        inner = corners[:s] + corners[s + 1:]
        for kind, first, second in splits:
            picked = [3 * u + kind for u in inner]
            if not _det3([[entry(i, j) for j in first] for i in picked]):
                continue
            others = [3 * u + r for u in inner for r in range(3) if r != kind]
            if rng is not None:
                rng.shuffle(others)
            for trio in combinations(others, 3):
                if _det3([[entry(i, j) for j in second] for i in trio]):
                    return corners[s], picked + list(trio), first + second
    return None


def _corner_scan(f5, corners, rng) -> tuple[list[int], Fraction]:
    """The fallback for b's root when every f5 candidate vanishes:
    ``independent_rows`` of the transpose of the 12 columns of ``f5`` at
    ``corners``, in ascending position or shuffled by ``rng``.  Returns
    K4, the picked positions in pivot order, and m5, the minor on K4's
    columns in ascending order: the pivot-order minor times the sign that
    sorts K4."""
    order = sorted(3 * v + r for v in corners for r in range(3))
    if rng is not None:
        rng.shuffle(order)
    picked, minor = independent_rows(f5.block(range(f5.nrows), order, transpose=True))
    k4 = [order[i] for i in picked]
    return k4, minor * _ascending_sign(k4)


def _shelled_groups(tri, shelling, apex, picked) -> tuple[list[int], list[int]]:
    """The edges of a shelling and the vertex coordinates 3v..3v+2 in
    matching groups of three: the root edges that miss the ``apex`` class
    with the inner corners' coordinates outside ``picked``, then the
    apex's edges with its coordinates, then each later vertex's edges with
    its coordinates.  With no apex (b's root after the fallback) the
    root's 6 edges come in shelling order and its 6 coordinates outside
    ``picked`` ascending."""
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
