"""The six-term complex attached to a triangulation with generic geometry.

Spaces and bases, in order:

    C0 (dim 6)   dt1 dt2 dt3 dx dy dk      global motions and kappa shift
    C1 (dim 3V)  dx_v dy_v dk_v            per vertex class
    C2 (dim E)   dl_e                      per edge class
    C3 (dim E)   dw_e                      per edge class
    C4 (dim 3V)  dg1_v dg2_v dg3_v         per vertex class
    C5 (dim 6)   db1 .. db6

The matrices hold no names: rows and columns are basis positions, and
``basis_label(k, i)`` names position i of C_k as listed above (``dx_v2``
is position 6 of C1, ``dl_e3`` position 3 of C2), for the witnesses and
error texts of ``verify_chain`` and the lines of ``dump_chain``.

The five maps are assembled at the flat configuration induced by the
vertex coordinates:

    f1  differentials of the area-preserving affine action plus the kappa
        compensation dk_v = dk + (x dy - y dx)/2,
    f2  differential of lambda(A->B) in the vertex data,
    f3  exact partial derivatives of edge curvatures by edge values,
    f4  per-edge holonomy columns (x^2, xy, y^2)/2 into the tail vertex
        block and their negatives into the head block,
    f5  the six closing sums over vertex blocks.

``build_chain`` computes the geometry's one integer edge-value table
(``geometry.edge_values``) itself and certifies the geometry with
``geometry.ensure_nondegenerate`` before anything else: a loop edge or
a zero face circulation raises ``DegenerateGeometryError`` naming the
edge or the face.  The
certified table is kept on the complex as ``edge_table``, so the face
product reads the same one.

Each map is assembled in Python ints, by its nonzeros, one integer row
at a time.  No entry is accumulated: an edge class whose tail is its
head has value zero and puts two corners of each of its faces at one
point, so such a face has zero circulation and the certificate rejects
the geometry before assembly.  So the tail columns 3a..3a+2 and the head
columns 3b..3b+2 of an f2 row are distinct, as are the rows 3p+r and
3q+r that an f4 column writes, and each entry is written once.

The x and y coordinates are read from the geometry's integer
table over its common denominator D, so before reduction the rows of f1
are over D or 2D, those of f2 over 2D, those of f4 over 2D^2 and those of
f5 over 1, D or D^2.  Each f3 row is the integer gradient table
``(den, {edge: int})`` that ``geometry.curvature`` returns.  The
``RatMatrix`` constructor, which takes exactly these integer rows,
reduces every row, so the stored matrices are exactly those the same
formulas give in Fractions, whatever common denominator the geometry
holds.  ``verify_chain``
multiplies nonzeros by nonzeros, also in ints.  It cuts the right
factor's rows to the checked columns once per product.  Each row of the
left factor is taken as its integer numerators, its row times its own
positive denominator.  The right factors f1, f2 and f4 are brought to
integers once each, by the lcm of their row denominators, which divides
2D, 2D and 2D^2 by the above.  The rows of f3 carry their own curvature
denominators, so for f4 * f3 each row of f4 is scaled by the lcm of the
denominators of the f3 rows it meets, which keeps the scale to the few
rows one left row touches; consecutive left rows that meet the same
rows, such as the three f4 rows of a vertex class, share one lcm.  No
scale changes the zero pattern of the product.  Each product row is
summed into one dense list as wide as the right factor, allocated once
per product: a zero row leaves it all zero for the next, and the first
nonzero row's first nonzero by index is the witness.  ``dump_chain``
lists the stored entries in column order, each reduced from its row's
integers by one gcd.

Each composition of consecutive maps is exactly zero.  ``build_chain``
checks only that every curvature vanishes at the flat point, reading the
numerator of the integer value pair that comes with each f3 row; the chain
property is a separate call, ``certify_chain``, which raises the internal
composition error (``verify_chain`` returns the witness instead).
Acyclicity is equivalent to the rank pattern (6, 3V-6, E-3V+6, 3V-6, 6)
once the chain property holds.  The invariant decides it with
``torsion.select_partition``, whose one exact pass both certifies it and
yields the torsion's minors, on a partition read off two shellings of
the triangulation that the complex keeps (``triangulation``).  Its apex
rule picks R1 and K4 at the shellings' root corners: with one corner as
the apex (slot 0, or a seeded draw), the other three's dk rows of f1, or
their dg3 columns of f5, then the first trio of their other positions
with a nonzero 3x3 block.  A certified geometry always gives f1 its
pick; where f5's dg3 block vanishes (two of those corners share an x),
the pass keeps the apex and completes K4 from the first of them and a
trio that ``exact.independent_rows`` picks from a 6x3 Schur block, of
rank 3 on a certified chain by the rank-6 lemma in the ``torsion``
module docstring, and m5 is the ``det`` of those six columns.  The other
minors of f1, f2, f4 and f5 are products of 3x3 blocks, after an O(nnz)
check that the grouped block is block triangular, which takes the
``det`` of the whole block when it fails, and the ``det`` of the f3
block is the pass's one elimination.  ``check_acyclic`` is the reference rank test, run on the
same sparse elimination as every other rank in the package.  It returns the five
ranks, or raises ``NotAcyclicError`` with them when they are not the
acyclic pattern.

The pass's nonsingular blocks also prove most of the chain property.
Free-column lemma: suppose f_k f_{k-1} = 0 and the block f_{k-1}[R_{k-1},
K_{k-2}] is nonsingular.  Every x in C_{k-1} is then f_{k-1} y plus a
vector supported on K_{k-1} (solve for y on K_{k-2} to match x on
R_{k-1}), so f_{k+1} f_k x = f_{k+1} f_k z for some z supported on K_{k-1},
and f_{k+1} f_k vanishes as soon as it vanishes on the columns K_{k-1}.
By induction from k = 2 (with K_0 all of C0), checking f2 f1 in full and
f3 f2, f4 f3 and f5 f4 on the columns K1, K2 and K3 decides the chain
property of a complex whose pass succeeded.  The free columns come from
the shellings: K1 is every vertex coordinate but the 6 rows R1 at the
first root's corners, K2 every edge outside the first shelling's edges
and K3 the second shelling's edges.  ``verify_chain`` does that check
when it is given the free columns, and ``certify_chain`` reruns a failed
free-column check in full, so its error always names the first nonzero
entry of the first nonzero composition.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .errors import NotAcyclicError, PentachainError
from .exact import RatMatrix, format_ratio, rank
from .geometry import GeometryAssignment, edge_values, ensure_nondegenerate, omega_row
from .triangulation import Triangulation

_C0_NAMES = ("dt1", "dt2", "dt3", "dx", "dy", "dk")
# the three basis vectors of a vertex class in C1 and in C4
_VERTEX_NAMES = {1: ("dx", "dy", "dk"), 4: ("dg1", "dg2", "dg3")}


def basis_label(k: int, i: int) -> str:
    """The name of position i of C_k's basis (see the module docstring)."""
    if k == 0:
        return _C0_NAMES[i]
    if k in _VERTEX_NAMES:
        return f"{_VERTEX_NAMES[k][i % 3]}_v{i // 3}"
    return f"db{i + 1}" if k == 5 else f"{'dl' if k == 2 else 'dw'}_e{i}"


class ChainComplex(NamedTuple):
    """The five matrices, plus the data they were built from."""

    f1: RatMatrix
    f2: RatMatrix
    f3: RatMatrix
    f4: RatMatrix
    f5: RatMatrix
    vertex_count: int
    edge_count: int
    # the certified integer edge-value table (D, numerators) of the geometry
    edge_table: tuple[int, dict]
    # the triangulation the maps were built on, whose shellings pick the
    # partition (``torsion.select_partition``)
    triangulation: Triangulation

    @property
    def maps(self):
        return (self.f1, self.f2, self.f3, self.f4, self.f5)


def build_chain(tri: Triangulation, g: GeometryAssignment) -> ChainComplex:
    """Assemble all five matrices at the flat point of the given geometry.

    Raises DegenerateGeometryError if a face circulation of the geometry is
    zero, and the internal error if a curvature is nonzero at the flat
    point.  The chain property is not checked here (``certify_chain``).
    """
    nv = len(tri.vertices)
    ne = len(tri.edges)
    lam = edge_values(tri, g)
    ensure_nondegenerate(tri, lam)
    d, xs, ys = g.den, g.x, g.y

    f1 = []
    for xa, ya in zip(xs, ys):
        f1 += [{0: ya, 2: xa, 3: d}, {1: xa, 2: -ya, 4: d}, {3: -ya, 4: xa, 5: 2 * d}]

    # ensure_nondegenerate rejected every loop edge, so no f2 or f4 key is written twice
    f2 = []
    for e in tri.edges:
        a, b = e.tail, e.head
        f2.append({3 * a: ys[b], 3 * a + 1: -xs[b], 3 * a + 2: -2 * d,
                   3 * b: -ys[a], 3 * b + 1: xs[a], 3 * b + 2: 2 * d})

    f3, f3_dens = [], []
    for e in range(ne):
        (value, _), (den, row) = omega_row(tri, lam, e)
        if value:
            raise PentachainError(
                f"internal error: curvature of edge class {e} is nonzero at the flat point"
            )
        f3.append(row)
        f3_dens.append(den)

    f4 = [{} for _ in range(3 * nv)]
    for e in tri.edges:
        p, q = e.tail, e.head
        x, y = xs[q] - xs[p], ys[q] - ys[p]
        for r, t in enumerate((x * x, x * y, y * y)):
            f4[3 * p + r][e.id] = t
            f4[3 * q + r][e.id] = -t

    f5 = [{} for _ in range(6)]
    for v, (xa, ya) in enumerate(zip(xs, ys)):
        f5[0][3 * v] = f5[1][3 * v + 1] = f5[2][3 * v + 2] = 1
        f5[3][3 * v], f5[3][3 * v + 1] = ya, -xa
        f5[4][3 * v + 1], f5[4][3 * v + 2] = ya, -xa
        f5[5][3 * v], f5[5][3 * v + 1], f5[5][3 * v + 2] = ya * ya, -2 * xa * ya, xa * xa

    return ChainComplex(
        f1=RatMatrix(f1, (d, d, 2 * d) * nv, 6),
        f2=RatMatrix(f2, (2 * d,) * ne, 3 * nv),
        f3=RatMatrix(f3, f3_dens, ne),
        f4=RatMatrix(f4, (2 * d * d,) * (3 * nv), ne),
        f5=RatMatrix(f5, (1, 1, 1, d, d, d * d), 3 * nv),
        vertex_count=nv,
        edge_count=ne,
        edge_table=lam,
        triangulation=tri,
    )


def _composition_witness(left: RatMatrix, right: RatMatrix, cols=None, per_row=True):
    """The (row, column) position of the first nonzero entry of
    left*right, in row then column order, on the column positions ``cols``
    (all when None); None if there is none.

    Each row of ``left`` is taken as its integer numerators, a positive
    multiple of the row.  With ``per_row`` false, the rows of ``right``
    are brought to integers once, by the lcm of all their denominators;
    otherwise each row of ``left`` is scaled by the lcm of the
    denominators of the rows of ``right`` that it meets, and consecutive
    rows that meet the same rows share that lcm.  Every scale is positive,
    so an entry of the integer product is zero exactly when the rational
    one is.  The rows of ``right`` are cut to ``cols`` once, and each
    product row is accumulated, nonzeros times nonzeros, into one dense
    list per product, which a zero row leaves all zero for the next.
    """
    dens = right.denominators
    keep = range(right.ncols) if cols is None else set(cols)
    common = None if per_row else lcm(*dens)
    ups = [common // d for d in dens] if common else [1] * len(dens)
    right_rows = [[(k, b * u) for k, b in row.items() if k in keep] for row, u in zip(right.numerators, ups)]
    acc = [0] * right.ncols
    met = factor = None
    for i, row in enumerate(left.numerators):
        if per_row and row.keys() != met:
            met = row.keys()
            scale = lcm(*(dens[j] for j in met))
            factor = {j: scale // dens[j] for j in met}
        for j, a in row.items():
            if factor:
                a *= factor[j]
            for k, b in right_rows[j]:
                acc[k] += a * b
        if any(acc):
            k = next(k for k, v in enumerate(acc) if v)
            return i, k
    return None


def verify_chain(c: ChainComplex, free_cols=None) -> tuple[bool, tuple | None]:
    """Exact check of all four compositions.

    Returns (True, None), or (False, (k, row_label, col_label)) locating the
    first nonzero entry of f_{k+1} * f_k, its row named in C_{k+1} and its
    column in C_{k-1} (``basis_label``).  With ``free_cols``, the column
    positions (K1, K2, K3) of a partition whose five minors are nonzero,
    f2 * f1 is checked in full and f3 * f2, f4 * f3 and f5 * f4 only on K1,
    K2 and K3, which decides the same (the free-column lemma in the module
    docstring); a witness is then the first on those columns.  The right
    factors f1, f2 and f4 are scaled to integers once; f3, whose rows carry
    the curvature denominators, per left row.
    """
    pairs = ((c.f2, c.f1), (c.f3, c.f2), (c.f4, c.f3), (c.f5, c.f4))
    restrict = (None, *free_cols) if free_cols is not None else (None,) * 4
    for k, ((left, right), cols) in enumerate(zip(pairs, restrict), start=1):
        witness = _composition_witness(left, right, cols, per_row=k == 3)
        if witness is not None:
            i, j = witness
            return False, (k, basis_label(k + 1, i), basis_label(k - 1, j))
    return True, None


def certify_chain(c: ChainComplex, free_cols=None) -> None:
    """Raise the internal composition error unless the chain property
    holds, checked as ``verify_chain(c, free_cols)`` does; a failed check
    is rerun in full, so the error names the first nonzero entry of the
    first nonzero composition either way."""
    if not verify_chain(c, free_cols)[0]:
        k, row, col = verify_chain(c)[1]
        raise PentachainError(f"internal error: composition f{k + 1}.f{k} is nonzero at ({row}, {col})")


def expected_ranks(vertex_count: int, edge_count: int) -> tuple[int, int, int, int, int]:
    v3 = 3 * vertex_count
    return (6, v3 - 6, edge_count - v3 + 6, v3 - 6, 6)


def check_acyclic(c: ChainComplex) -> tuple[int, int, int, int, int]:
    """Rank test: with the chain property, acyclicity is exactly the rank
    pattern (6, 3V-6, E-3V+6, 3V-6, 6).  Returns the five ranks, or raises
    NotAcyclicError with them when they differ from that pattern."""
    ranks = tuple(rank(m) for m in c.maps)
    expected = expected_ranks(c.vertex_count, c.edge_count)
    if ranks != expected:
        raise NotAcyclicError(ranks, expected)
    return ranks


def dump_chain(c: ChainComplex) -> str:
    """Diffable text dump: one line per nonzero entry, `f<k> <row> <col> <p/q>`,
    each entry reduced from the stored integers by one gcd."""
    lines = []
    for k, m in enumerate(c.maps, start=1):
        cols = [basis_label(k - 1, j) for j in range(m.ncols)]
        for i, (row, d) in enumerate(zip(m.numerators, m.denominators)):
            head = f"f{k} {basis_label(k, i)} "
            for j, v in row.items():
                g = gcd(v, d)
                lines.append(f"{head}{cols[j]} {format_ratio(v // g, d // g)}")
    return "\n".join(lines) + "\n"
