"""Exact torsion invariant of closed oriented triangulated 3-manifolds.

The pipeline: glue tetrahedra into a connected closed oriented
pseudo-manifold (one gluing table, every tetrahedron reachable from the
first), place its vertex classes at generic rational points of the plane, assemble the
six-term complex of differentials built on edge values and curvatures,
certify acyclicity exactly while choosing the torsion's basis partition,
and normalize the torsion of the complex into a number that bistellar
moves do not change.
"""

from .chain import (
    ChainComplex,
    build_chain,
    check_acyclic,
    dump_chain,
    verify_chain,
)
from .errors import (
    DegenerateGeometryError,
    InvarianceError,
    MoveError,
    NotAcyclicError,
    ParseError,
    PentachainError,
    TorsionError,
    ValidationError,
)
from .exact import RatMatrix, det, format_rational, parse_rational, rank
from .geometry import (
    GeometryAssignment,
    assign_geometry,
    edge_values,
    face_circulations,
    parse_geometry,
    subseed,
)
from .library import BUILTIN_NAMES, load_builtin
from .pachner import KINDS, MoveSite, apply_move, enumerate_sites, random_walk, walk_states
from .pentagon import FivePointConfig, verify_pentagon, verify_vector_identities
from .torsion import BasisPartition, InvariantResult, invariant, minors, select_partition, tau
from .triangulation import EdgeClass, FaceClass, Gluing, Triangulation, VertexClass

__version__ = "0.2.0"
