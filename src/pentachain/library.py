"""Built-in reference triangulations and their bookkeeping.

Two closed oriented manifolds ship with the package:

* ``s3``: the two-tetrahedron sphere (identity gluings on all faces), with
  vertex classes A, B, C, D in slot order;
* ``rp3``: real projective 3-space with f-vector (4, 12, 16, 8), built as
  the antipodal quotient of the 16-cell boundary.  Its twelve edge classes
  come in six pairs sharing the same endpoint vertex classes; the six
  classes meeting tetrahedron 0 play the role of the "unprimed" edges and
  pair up with the opposite edge of that tetrahedron.

Both are stored as data files and validated on load.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

from .chain import ChainComplex
from .errors import ValidationError
from .exact import independent_rows
from .geometry import GeometryAssignment
from .torsion import BasisPartition
from .triangulation import Triangulation

BUILTIN_NAMES = ("s3", "rp3")

# the basis choice used for the sphere's by-hand minor ratios: vertex
# classes in slot order are A, B, C, D
SPHERE_C1_ROWS = ("dx_v0", "dy_v0", "dk_v0", "dx_v1", "dy_v1", "dx_v2")


def _load(name: str) -> Triangulation:
    text = resources.files("pentachain.data").joinpath(f"{name}.tri").read_text()
    return Triangulation.from_text(text)


def load_builtin(name: str) -> Triangulation:
    """Load and validate one of the built-in triangulations."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    tri = _load(name)
    if name == "s3":
        if tri.f_vector() != (4, 6, 4, 2):
            raise ValidationError("builtin s3 has the wrong f-vector")
    else:
        _validate_rp3(tri)
    return tri


def _validate_rp3(tri: Triangulation) -> None:
    if tri.f_vector() != (4, 12, 16, 8):
        raise ValidationError("builtin rp3 has the wrong f-vector")
    by_endpoints: dict[tuple[int, int], list[int]] = {}
    for e in tri.edges:
        key = tuple(sorted((e.tail, e.head)))
        by_endpoints.setdefault(key, []).append(e.id)
    if len(by_endpoints) != 6 or any(len(v) != 2 for v in by_endpoints.values()):
        raise ValidationError(
            "builtin rp3 edge classes do not pair up two per vertex pair"
        )


def fixed_sphere_geometry() -> GeometryAssignment:
    """The reference assignment A(0,0), B(1,0), C(0,1), D(1,1), kappa = 0."""
    return GeometryAssignment(
        x=(Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
        y=(Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        kappa=(Fraction(0),) * 4,
    )


def sphere_paper_partition(c: ChainComplex) -> BasisPartition:
    """The sphere partition with the hand-calculation's C1 rows.

    C2 and C3 splits are forced (E = 3V - 6 leaves the curvature minor
    empty); the C4 rows are completed greedily.
    """
    c2_rows = c.f2.row_labels  # all six edge rows
    c3_rows = ()
    k3 = c.f3.row_labels  # all six curvature columns feed f4
    c4_rows = tuple(independent_rows(c.f4.submatrix(c.f4.row_labels, k3))[0])
    return BasisPartition(SPHERE_C1_ROWS, c2_rows, c3_rows, c4_rows)


def tet0_edges(tri: Triangulation) -> tuple[int, ...]:
    """Edge classes meeting tetrahedron 0, ordered by its slot pairs.

    For rp3 these are the six "unprimed" classes.
    """
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            eid, _ = tri.edge_class(0, i, j)
            if eid not in out:
                out.append(eid)
    return tuple(out)


def opposite_edge_pairs(tri: Triangulation) -> tuple[tuple[int, int], ...]:
    """The three pairs of opposite tetrahedron-0 edge classes."""
    pairs = []
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        a, _ = tri.edge_class(0, i, j)
        b, _ = tri.edge_class(0, k, l)
        pairs.append((a, b))
    return tuple(pairs)


def projective_paper_partition(c: ChainComplex, tri: Triangulation) -> BasisPartition:
    """The projective-space partition: primed edge rows for the f2 minor,
    unprimed curvature rows for the f3 minor, primed curvature columns for
    f4; C1 rows as for the sphere, C4 rows completed greedily."""
    unprimed = set(tet0_edges(tri))
    c2_rows = tuple(f"dl_e{e.id}" for e in tri.edges if e.id not in unprimed)
    c3_rows = tuple(f"dw_e{e.id}" for e in tri.edges if e.id in unprimed)
    k3 = tuple(f"dw_e{e.id}" for e in tri.edges if e.id not in unprimed)
    c4_rows = tuple(independent_rows(c.f4.submatrix(c.f4.row_labels, k3))[0])
    return BasisPartition(SPHERE_C1_ROWS, c2_rows, c3_rows, c4_rows)
