"""The built-in triangulations, loaded and validated by name.

Two closed oriented manifolds ship with the package:

* ``s3``: the two-tetrahedron sphere (identity gluings on all faces), with
  vertex classes A, B, C, D in slot order;
* ``rp3``: real projective 3-space with f-vector (4, 12, 16, 8), built as
  the antipodal quotient of the 16-cell boundary.  Its twelve edge classes
  come in six pairs sharing the same endpoint vertex classes; the six
  classes meeting tetrahedron 0 play the role of the "unprimed" edges and
  pair up with the opposite edge of that tetrahedron.

Both are stored as data files and validated on load.  The module holds
the builtins only: the paper's hand-computed geometry and basis
partitions, written with the chain's basis names (``chain.basis_label``),
are test data and live with the tests.
"""

from __future__ import annotations

from importlib import resources

from .errors import ValidationError
from .triangulation import Triangulation

BUILTIN_NAMES = ("s3", "rp3")


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
