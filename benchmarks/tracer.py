"""Per-layer tracing from outside the package.

The tracer replaces functions of the already imported ``pentachain``
modules by pass-through wrappers, each under the name its calling module
imported (``pentachain.torsion.check_acyclic`` is the name ``invariant()``
calls, ``pentachain.chain.rank`` the one ``check_acyclic`` calls).  Nothing
under ``src/`` changes, and ``restore()`` puts every original back.

A wrapper opens a span: spans nest on a stack, and a span's self time is
its duration minus the durations of the wrapped calls made inside it.  Work
the tracer does after a call returns (counting nonzeros, bit sizes) is
charged to no span, so it shows only in the traced run's wall time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span).  A dotted attribute names a classmethod.
TARGETS = (
    ("pentachain.cli", "main", "cli"),
    ("pentachain.cli", "invariant", "torsion.invariant"),
    ("pentachain.cli", "select_partition", "torsion.partition"),
    ("pentachain.torsion", "select_partition", "torsion.partition"),
    ("pentachain.cli", "tau", "torsion.minors"),
    ("pentachain.torsion", "tau", "torsion.minors"),
    ("pentachain.torsion", "minors", "torsion.minors"),
    ("pentachain.torsion", "face_circulations", "torsion.normalize"),
    ("pentachain.cli", "build_chain", "chain.assemble"),
    ("pentachain.torsion", "build_chain", "chain.assemble"),
    ("pentachain.cli", "verify_chain", "chain.check"),
    ("pentachain.chain", "verify_chain", "chain.check"),
    ("pentachain.cli", "check_acyclic", "chain.acyclic"),
    ("pentachain.torsion", "check_acyclic", "chain.acyclic"),
    ("pentachain.chain", "rank", "exact.rank"),
    ("pentachain.torsion", "det", "exact.det"),
    ("pentachain.torsion", "independent_rows", "exact.independent_rows"),
    ("pentachain.cli", "assign_geometry", "geometry.sample"),
    ("pentachain.torsion", "assign_geometry", "geometry.sample"),
    ("pentachain.chain", "omega_row", "geometry.curvature"),
    ("pentachain.cli", "walk_states", "pachner.walk"),
    ("pentachain.pachner", "enumerate_sites", "pachner.site_scan"),
    ("pentachain.pachner", "apply_move", "pachner.move"),
    ("pentachain.cli", "load_builtin", "triangulation.load"),
    ("pentachain.cli", "Triangulation.from_file", "triangulation.load"),
    ("pentachain.cli", "FivePointConfig.random", "pentagon.sample"),
    ("pentachain.cli", "verify_pentagon", "pentagon.check"),
    ("pentachain.cli", "verify_vector_identities", "pentagon.check"),
)

# Counted, not timed: each draw of assign_geometry evaluates edge values once.
COUNTERS = (("pentachain.geometry", "edge_values", "geometry.draw"),)

GENERATORS = {"pachner.walk"}
ELIMINATIONS = {"exact.rank", "exact.det", "exact.independent_rows"}
# select_partition's first attempt runs 4 independent_rows and 1 det
PARTITION_ELIMINATIONS = 5


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class _Frame:
    __slots__ = ("children", "eliminations")

    def __init__(self):
        self.children = 0.0
        self.eliminations = 0


class Tracer:
    """Self time, calls and errors per span, plus layer counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module, attr, span in TARGETS:
            owner, name = self._owner(module, attr)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, span))
            elif span in GENERATORS:
                wrapped = self._wrap_generator(original, span)
            else:
                wrapped = self._wrap(original, span)
            self._patch(owner, name, original, wrapped)
        for module, attr, counter in COUNTERS:
            owner, name = self._owner(module, attr)
            original = getattr(owner, name)
            self._patch(owner, name, original, self._wrap_counter(original, counter))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @staticmethod
    def _owner(module: str, attr: str):
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name

    def _patch(self, owner, name, original, wrapped) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapped)

    # -- spans ----------------------------------------------------------

    def _enter(self) -> _Frame:
        frame = _Frame()
        self._stack.append(frame)
        return frame

    def _leave(self, span: str, frame: _Frame, start: float) -> None:
        self._stack.pop()
        self.self_s[span] += time.perf_counter() - start - frame.children
        self.calls[span] += 1
        if span in ELIMINATIONS and self._stack:
            self._stack[-1].eliminations += 1
        if span == "torsion.partition":
            extra = frame.eliminations - PARTITION_ELIMINATIONS
            self.counts["torsion.partition_extra_eliminations"] += max(0, extra)

    def _charge_parent(self, start: float) -> None:
        if self._stack:
            self._stack[-1].children += time.perf_counter() - start

    def _wrap(self, fn, span: str):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._leave(span, frame, start)
                self.errors[(span, type(exc).__name__)] += 1
                self._charge_parent(start)
                raise
            self._leave(span, frame, start)
            self._observe(span, args, result)
            self._charge_parent(start)
            return result

        return wrapper

    def _wrap_generator(self, fn, span: str):
        """Each ``next()`` on the generator is one span."""
        call = self._wrap(lambda it: next(it, _DONE), span)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while (item := call(it)) is not _DONE:
                yield item

        return wrapper

    def _wrap_counter(self, fn, counter: str):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters taken from results ------------------------------------

    def _observe(self, span: str, args, result) -> None:
        if span == "chain.assemble":
            nnz = cells = bits = 0
            for m in result.maps:
                cells += m.nrows * m.ncols
                for row in m.entries:
                    for v in row:
                        if v:
                            nnz += 1
                            bits = max(bits, _bits(v))
            self.counts["chain.nnz"] += nnz
            self.counts["chain.cells"] += cells
            self.maxima["chain.entry_bits_max"] = max(self.maxima["chain.entry_bits_max"], bits)
        elif span in ELIMINATIONS:
            m = args[0]
            self.counts["exact.cells"] += m.nrows * m.ncols
            if span == "exact.det":
                self.maxima["exact.minor_bits_max"] = max(
                    self.maxima["exact.minor_bits_max"], _bits(result)
                )
        elif span == "pachner.site_scan":
            self.counts["pachner.sites_scanned"] += len(result)
        elif span == "pachner.move":
            self.maxima["pachner.max_tets_reached"] = max(
                self.maxima["pachner.max_tets_reached"], result.size
            )

    # -- report -----------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics; times and counts are means per op."""
        s, n, c = self.self_s, self.calls, self.counts

        def per_op(value) -> float:
            return value / ops

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        eliminations = sum(n[span] for span in ELIMINATIONS)
        pentagon_calls = n["pentagon.sample"] + n["pentagon.check"]
        degenerate = sum(
            count for (span, kind), count in self.errors.items()
            if span.startswith("pentagon.") and kind == "DegenerateGeometryError"
        )
        return {
            "cli.self_s": per_op(s["cli"]),
            "torsion.invariant_calls": per_op(n["torsion.invariant"]),
            "torsion.partition_s": per_op(s["torsion.partition"]),
            "torsion.partition_extra_eliminations": per_op(c["torsion.partition_extra_eliminations"]),
            "torsion.minors_s": per_op(s["torsion.minors"]),
            "torsion.normalize_s": per_op(s["torsion.normalize"] + s["torsion.invariant"]),
            "chain.assemble_s": per_op(s["chain.assemble"]),
            "chain.check_s": per_op(s["chain.check"]),
            "chain.acyclic_s": per_op(s["chain.acyclic"]),
            "chain.nnz": ratio(c["chain.nnz"], n["chain.assemble"]),
            "chain.density": ratio(c["chain.nnz"], c["chain.cells"]),
            "chain.entry_bits_max": self.maxima["chain.entry_bits_max"],
            "exact.eliminations": per_op(eliminations),
            "exact.eliminations_per_invariant": ratio(eliminations, n["torsion.invariant"]),
            "exact.rank_s": per_op(s["exact.rank"]),
            "exact.det_s": per_op(s["exact.det"]),
            "exact.independent_rows_s": per_op(s["exact.independent_rows"]),
            "exact.cells": per_op(c["exact.cells"]),
            "exact.minor_bits_max": self.maxima["exact.minor_bits_max"],
            "geometry.sample_s": per_op(s["geometry.sample"]),
            "geometry.sample_draws": per_op(c["geometry.draw"]),
            "geometry.sample_accept_ratio": ratio(
                n["geometry.sample"] - self.errors[("geometry.sample", "DegenerateGeometryError")],
                c["geometry.draw"],
            ),
            "geometry.curvature_rows": per_op(n["geometry.curvature"]),
            "geometry.curvature_s": per_op(s["geometry.curvature"]),
            "pachner.moves": per_op(n["pachner.move"]),
            "pachner.move_s": per_op(s["pachner.move"]),
            "pachner.site_scan_s": per_op(s["pachner.site_scan"] + s["pachner.walk"]),
            "pachner.sites_scanned": per_op(c["pachner.sites_scanned"]),
            "pachner.max_tets_reached": self.maxima["pachner.max_tets_reached"],
            "triangulation.loads": per_op(n["triangulation.load"]),
            "triangulation.load_s": per_op(s["triangulation.load"]),
            "pentagon.samples": per_op(n["pentagon.sample"]),
            "pentagon.sample_s": per_op(s["pentagon.sample"]),
            "pentagon.check_s": per_op(s["pentagon.check"]),
            "pentagon.degenerate": per_op(degenerate),
            "pentagon.accept_ratio": ratio(pentagon_calls - degenerate, pentagon_calls),
        }


_DONE = object()
