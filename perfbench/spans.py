"""In-memory spans around calls into the fmgeig layers, recorded from the
benchmark's side of the boundary.

``Tracer`` wraps a fixed set of public functions and methods of ``mesh``,
``fem``, ``linalg``, ``eigsolve`` and ``fmg``.  Modules bind these names with
``from .x import y``, so every binding of the same function object in every
loaded ``fmgeig`` module is replaced, and the class attributes
``LevelSpace.build``, ``MgContext.coarse_solve``,
``MeshHierarchy.interior_prolongation`` and
``MeshHierarchy.coarse_to_level_interior`` are replaced on their classes.
Leaving the ``with`` block restores every original and checks that it did.

For each span name the tracer keeps the call count, the number of entries
from a different span (for the recursive ``v_cycle`` that is the number of
top-level cycles) and the self time: the span's duration minus the time
covered by the spans it called.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    entries: int = 0          # calls not made from a span of the same name
    self_time: float = 0.0


def _weighted_mass_span(args, kwargs):
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    return "fem.potential" if callable(weight) else "fem.nonlinear"


def _assembly_counts(args, kwargs, result):
    mesh = args[0] if args else kwargs["mesh"]
    return {"fem.cells_assembled": mesh.n_cells}


def _aug_counts_factory(fm):
    augmented = fm.eigsolve.AugmentedSpace

    def counts(args, kwargs, result):
        space = args[0] if args else kwargs["space"]
        if not isinstance(space, augmented):
            return None
        return {"eigsolve.aug_scf_calls": 1, "eigsolve.aug_scf_converged": int(result.converged)}

    return counts


def _function_targets(fm):
    """(defining module, attribute, span name or classifier, counts hook)."""
    aug_counts = _aug_counts_factory(fm)
    return [
        (fm.mesh, "build_hierarchy", "mesh.build_hierarchy", None),
        (fm.fem, "assemble_stiffness", "fem.stiffness", _assembly_counts),
        (fm.fem, "assemble_mass", "fem.mass", _assembly_counts),
        (fm.fem, "assemble_weighted_mass", _weighted_mass_span, _assembly_counts),
        (fm.linalg, "mg_solve", "linalg.mg_solve", None),
        (fm.linalg, "mg_solve_to_tol", "linalg.mg_solve_to_tol", None),
        (fm.linalg, "v_cycle", "linalg.v_cycle", None),
        (fm.linalg, "cg_smooth", "linalg.cg_smooth", None),
        (fm.linalg, "galerkin_chain", "linalg.galerkin_chain", None),
        (fm.eigsolve, "scf_solve", "eigsolve.scf_solve", aug_counts),
        (fm.eigsolve, "smallest_eigpair", "eigsolve.smallest_eigpair", None),
        (fm.eigsolve, "build_augmented_space", "eigsolve.augment", None),
        (fm.fmg, "build_workspace", "fmg.build_workspace", None),
        (fm.fmg, "one_correction_step", "fmg.correction", None),
    ]


def _method_targets(fm):
    return [
        (fm.eigsolve.LevelSpace, "build", "eigsolve.level_space_build"),
        (fm.linalg.MgContext, "coarse_solve", "linalg.coarse_solve"),
        (fm.mesh.MeshHierarchy, "interior_prolongation", "mesh.interior_prolongation"),
        (fm.mesh.MeshHierarchy, "coarse_to_level_interior", "mesh.coarse_to_level_interior"),
    ]


class Tracer:
    """Context manager that installs the spans on entry and removes them on
    exit.  ``spans`` and ``counts`` hold what the calls recorded."""

    def __init__(self, fm):
        self._fm = fm
        self.spans = defaultdict(SpanStats)
        self.counts = defaultdict(int)
        self._stack = []          # [child seconds, span name] per open span
        self._undo = []

    def _wrap(self, fn, span, counts_hook):
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            parent = stack[-1][1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                s = spans[name]
                s.calls += 1
                s.entries += parent != name
                s.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if counts_hook is not None:
                for key, n in (counts_hook(args, kwargs, result) or {}).items():
                    counts[key] += n
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fmgeig" or name.startswith("fmgeig."))]
        for home, attr, span, hook in _function_targets(self._fm):
            original = getattr(home, attr)
            wrapper = self._wrap(original, span, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapper)
        for cls, attr, span in _method_targets(self._fm):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(raw.__func__, span, None)))
            else:
                self._replace(cls, attr, self._wrap(raw, span, None))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
        return False

    def self_seconds(self):
        return sum(s.self_time for s in self.spans.values())
