"""In-memory spans around calls into treeact's public functions.

Each wrapped call records one span ``[name, start, end, parent, job]``:
``parent`` is the index of the enclosing span (or None) and ``job`` the id
of the job that was running.  Functions are patched at the name their
caller looks up (a module global or a class attribute) and restored by
``Tracer.uninstall``.  Per-product hot methods such as
``GroupMatrix.__mul__`` are deliberately left alone: wrapping them would
cost more than the work they do.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute path, span name).  The span name is the metric prefix
# the per-layer report uses; several call sites may share one name.
PATCHES = (
    ("treeact.tower", "enumerate_group", "matrices.enumerate_group"),
    ("treeact.cli", "enumerate_group", "matrices.enumerate_group"),
    ("treeact.cli", "verify_ll_identity", "matrices.identities"),
    ("treeact.cli", "verify_hexagon_relations", "matrices.identities"),
    ("treeact.matrices", "FiniteMatrixGroup.all_subgroups", "matrices.subgroups"),
    ("treeact.cli", "normal_core", "matrices.subgroups"),
    ("treeact.trees", "validate_tree", "trees.validate"),
    ("treeact.tower", "validate_tree", "trees.validate"),
    ("treeact.tower", "is_tree_automorphism", "trees.validate"),
    ("treeact.tower", "first_point_map", "trees.first_point_map"),
    ("treeact.tower", "build_congruence_tower", "tower.build"),
    ("treeact.tower", "verify_all_bonds", "tower.verify_bonds"),
    ("treeact.tower", "verify_bond_structure", "tower.bond_structure"),
    ("treeact.tower", "attach_decorations", "tower.decorate"),
    ("treeact.tower", "projection_orbit_growth", "tower.orbit"),
    ("treeact.tower", "orbit", "tower.orbit"),
    ("treeact.tower", "system_to_json", "tower.serialize"),
    ("treeact.ordering", "ball_generate", "ordering.ball_generate"),
    ("treeact.presets", "ball_generate", "ordering.ball_generate"),
    ("treeact.ordering", "search_invariant", "ordering.search"),
    ("treeact.ordering", "check_axioms", "ordering.check_axioms"),
    ("treeact.ordering", "check_invariance", "ordering.check_invariance"),
    ("treeact.realize", "realize", "realize.realize"),
    ("treeact.realize", "generator_pl_map", "realize.pl_maps"),
    ("treeact.realize", "verify_realization", "realize.verify"),
    ("treeact.realize", "almost_free_report", "realize.fixed_sets"),
    ("treeact.realize", "fixed_set", "realize.fixed_sets"),
    ("treeact.realize", "order_from_realization", "realize.round_trip"),
)

# Work counted at the call boundary, where only the wrapper sees it.
CALL_COUNTERS = {
    "matrices.enumerate_group": ("matrices.enumerate_group.elements", len),
    "trees.first_point_map": ("trees.first_point_map.calls", lambda _result: 1),
}

JOB_SPAN = "job"


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job_span(self, job: str):
        self.job = job
        try:
            with self.span(JOB_SPAN):
                yield
        finally:
            self.job = "setup"

    def _wrap(self, fn, name: str):
        counter = CALL_COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name in PATCHES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name self time: each span's duration minus its direct children's."""
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent is not None:
            child_total[parent] += end - start
    out: dict[str, float] = {}
    for k, (name, start, end, _parent, _job) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_total[k]
    return out


def inclusive_times(spans: list[list]) -> dict[str, float]:
    """Per-name wall time of the outermost spans of that name."""
    out: dict[str, float] = {}
    for name, start, end, parent, _job in spans:
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out[name] = out.get(name, 0.0) + end - start
    return out


def layer_coverage(spans: list[list]) -> float:
    """Time inside the outermost layer spans of each job, as a share of the
    jobs' own time (the untraced glue between layer calls is the rest)."""
    jobs = sum(e - s for n, s, e, p, _j in spans if n == JOB_SPAN)
    top = sum(
        e - s for n, s, e, p, _j in spans
        if p is not None and spans[p][0] == JOB_SPAN
    )
    return top / jobs if jobs else 0.0
