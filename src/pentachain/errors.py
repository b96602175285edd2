"""Exception hierarchy shared across the package.

Each class carries the stable exit code the command line returns for it,
``exit_code``, and a subclass inherits its parent's code, so new failure
modes should reuse an existing class when they describe the same kind of
problem.
"""

from __future__ import annotations


class PentachainError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(PentachainError):
    """Malformed triangulation or geometry input text."""

    exit_code = 2


class ValidationError(PentachainError):
    """Gluing table is not a connected closed oriented pseudo-manifold, or
    one of its entries is malformed: a row without four entries, an entry
    that is not a ``Gluing``, a neighbor that is not an int naming a
    tetrahedron or a permutation that is not one of the 24."""

    exit_code = 3


class MoveError(ValidationError):
    """A bistellar move was requested at an invalid site."""


class DegenerateGeometryError(PentachainError):
    """No usable plane coordinates: some face circulation vanishes or, on a
    five-point configuration, the flatness relation's leading coefficient
    vanishes or S_EDa = 0."""

    exit_code = 4


class NotAcyclicError(PentachainError):
    """The ranks of the assembled complex are not the acyclic pattern.

    Its one source is the rank test ``chain.check_acyclic``, which a
    short partition pass runs too, so ``ranks`` and ``expected`` always
    differ.  The message names the first map f_k whose rank is off, with
    both numbers.
    """

    exit_code = 5

    def __init__(self, ranks, expected):
        self.ranks = tuple(ranks)
        self.expected = tuple(expected)
        k, have, want = next((k, r, e) for k, (r, e) in enumerate(zip(self.ranks, self.expected), start=1) if r != e)
        super().__init__(
            f"complex is not acyclic: ranks {self.ranks}, expected {self.expected}; f{k} has rank {have}, expected {want}"
        )


class TorsionError(PentachainError):
    """A requested minor partition is invalid: a split picks the wrong
    number of rows, a position twice or one outside C_k, or some minor
    vanishes."""


class InvarianceError(PentachainError):
    """A verification walk observed a change of the invariant.

    ``state`` is the offending triangulation's ``to_text()`` when the change
    was seen on a walk state; the message then ends with it, so the state
    can be saved and rerun with ``--file``.
    """

    exit_code = 6

    def __init__(self, message, state=None):
        if state is not None:
            message = f"{message}\noffending state (save it and rerun with --file):\n{state.rstrip()}"
        super().__init__(message)
        self.state = state
