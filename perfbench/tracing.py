"""Spans around calls into reflectpde, recorded from outside the package.

The tracer replaces public functions and methods of the package's modules
with wrappers that record one span per call: name, start, end and the span
that was open when the call began (its parent).  Spans are kept in memory in
parallel lists and written out once, when the run ends.  ``install`` and
``uninstall`` swap the wrappers in and out, so one process can time a round
with tracing off and then the same round with tracing on.

The per-layer figures are sums over the spans of one traced round.  A
layer's self time is its spans' duration minus the durations of their direct
children; the engine's self time in ``run_paths`` is computed that way, with
observer callbacks and boundary projection as its children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np
from reflectpde import cli, coeffexpr, geometry, mesh_fem, picard, probeval, reflectsim

_clock = time.perf_counter_ns
_MISSING = object()

# observer class -> span name; each covers start_chunk, step and end_chunk
OBSERVERS = {
    "ResidualObserver": "probeval.residual_observer",
    "TerminalObserver": "probeval.terminal_observer",
    "TimeIntegralObserver": "probeval.time_observer",
    "BoundaryIntegralObserver": "probeval.boundary_observer",
}


class _SpluOnly:
    """Stands in for ``scipy.sparse.linalg`` inside mesh_fem, with splu traced,
    so that only factorizations made from mesh_fem are counted."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory span recorder plus the counts that span durations cannot give."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self._stack = [-1]
        self.counts: dict = defaultdict(int)
        self._patches: list = []
        self._targets = self._target_list()

    def _wrap(self, fn, name, count=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        start, end, parent, names, stack = (
            self.start, self.end, self.parent, self.name, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(end)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _counter(fn, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, kwargs, result)
            return result

        return counted

    def _target_list(self):
        """(owner, attribute, span name or None for a count-only wrapper, counter)."""
        c = self.counts

        def points(key):
            def count(args, kwargs, result):
                c[key + "_calls"] += 1
                c[key + "_points"] += int(np.atleast_2d(args[1]).shape[0])
            return count

        def outer_steps(args, kwargs, trace):
            c["picard.outer_steps"] += trace.n_iterations

        def path_steps(args, kwargs, n_steps):
            n_paths = args[1] if len(args) > 1 else kwargs["n_paths"]
            c["reflectsim.path_steps"] += int(n_paths) * int(n_steps)

        def hits(args, kwargs, result):
            c["reflectsim.boundary_hits"] += int(np.count_nonzero(result[2]))

        # a module imported by name elsewhere is patched under each binding
        targets = [
            (mesh_fem.Mesh, "find_triangles", "mesh_fem.find_triangles",
             points("mesh_fem.locate")),
            (mesh_fem.Mesh, "dual_norm", "mesh_fem.dual_norm", None),
            (mesh_fem.FemFunction, "value_grad_at", "mesh_fem.value_grad_at", None),
            (mesh_fem, "solve_semilinear_g_frozen", "mesh_fem.solve_semilinear_g_frozen", None),
            (mesh_fem, "residual_dual_norm", "mesh_fem.residual_dual_norm", None),
            (mesh_fem, "build_mesh", "mesh_fem.build_mesh", None),
            (cli, "build_mesh", "mesh_fem.build_mesh", None),
            (picard, "run_picard", "picard.run_picard", outer_steps),
            (cli, "validate_structure", "coeffexpr.validate_structure", None),
            (coeffexpr, "validate_structure", "coeffexpr.validate_structure", None),
            (cli, "export_mesh", "cli.export", None),
            (cli, "export_field", "cli.export", None),
            (cli, "_write_summary", "cli.export", None),
            (picard.PicardTrace, "export_csv", "cli.export", None),
            (cli, "cmd_solve", "cli.cmd_solve", None),
            (reflectsim, "project_points", "geometry.project_points",
             points("geometry.project")),
            (geometry, "project_points", "geometry.project_points",
             points("geometry.project")),
            (reflectsim, "run_paths", "reflectsim.run_paths", path_steps),
            (probeval, "run_paths", "reflectsim.run_paths", path_steps),
            (picard, "run_paths", "reflectsim.run_paths", path_steps),
            (reflectsim, "_reflect", None, hits),
            (probeval, "estimate_decay", "probeval.estimate_decay", None),
            (probeval, "martingale_residual_test", "probeval.martingale_residual_test", None),
            (probeval, "fk_linear_frozen", "probeval.fk_linear_frozen", None),
        ]
        for method in ("f_at", "g_at", "h_at", "q_at", "b_at"):
            targets.append((coeffexpr.CoefficientSet, method, "coeffexpr.eval",
                            points("coeffexpr.eval")))
        for cls_name, span in OBSERVERS.items():
            for method in ("start_chunk", "step", "end_chunk"):
                targets.append((getattr(probeval, cls_name), method, span, None))
        return targets

    def install(self):
        """Put the wrappers in place (no-op when they already are)."""
        if self._patches:
            return
        self._patches.append((mesh_fem, "spla", mesh_fem.spla))
        mesh_fem.spla = _SpluOnly(mesh_fem.spla, self._wrap(mesh_fem.spla.splu, "mesh_fem.splu"))
        for owner, attr, span, count in self._targets:
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            if span is None:
                setattr(owner, attr, self._counter(orig, count))
            else:
                setattr(owner, attr, self._wrap(orig, span, count))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    @staticmethod
    def span_cost_ns(calls: int = 20000) -> float:
        """Measured cost of one span: a traced no-op call minus a plain one."""
        def noop():
            return None

        traced = Tracer()._wrap(noop, "noop")
        t0 = _clock()
        for _ in range(calls):
            noop()
        t1 = _clock()
        for _ in range(calls):
            traced()
        t2 = _clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def mark(self) -> tuple:
        """Position to measure a round from: (next span index, counts so far)."""
        return len(self.end), dict(self.counts)

    def per_layer(self, mark: tuple) -> dict:
        """Per-layer figures of the spans and counts recorded after ``mark``."""
        since, counts_before = mark
        c = defaultdict(int, {k: v - counts_before.get(k, 0) for k, v in self.counts.items()})
        name = np.asarray(self.name, dtype=np.int64)
        start = np.asarray(self.start, dtype=np.int64)
        dur = 1e-9 * (np.asarray(self.end, dtype=np.int64) - start)
        parent = np.asarray(self.parent, dtype=np.int64)
        in_round = np.arange(len(name)) >= since

        def spans(key):
            nid = self._ids.get(key, -1)
            return in_round & (name == nid), nid

        def total(key):
            return float(dur[spans(key)[0]].sum())

        def count(key):
            return int(np.count_nonzero(spans(key)[0]))

        def self_time(key):
            mask, nid = spans(key)
            child = in_round & (parent >= since)
            child[child] = name[parent[child]] == nid
            return float(dur[mask].sum() - dur[child].sum())

        def per(seconds, n):
            return seconds * 1e9 / n if n else 0.0

        steps = c["reflectsim.path_steps"]
        locate_s = total("mesh_fem.find_triangles")
        project_s = total("geometry.project_points")
        engine_self = self_time("reflectsim.run_paths")
        builds = dur[name == self._ids.get("mesh_fem.build_mesh", -1)]
        out = {
            "mesh_fem.locate_calls": (c["mesh_fem.locate_calls"], "count"),
            "mesh_fem.locate_points": (c["mesh_fem.locate_points"], "count"),
            "mesh_fem.locate_s": (locate_s, "s"),
            "mesh_fem.locate_ns_per_point": (per(locate_s, c["mesh_fem.locate_points"]), "ns"),
            "mesh_fem.factorizations": (count("mesh_fem.splu"), "count"),
            "mesh_fem.factorize_s": (total("mesh_fem.splu"), "s"),
            "mesh_fem.dual_norms": (count("mesh_fem.dual_norm"), "count"),
            "mesh_fem.dual_norm_s": (total("mesh_fem.dual_norm"), "s"),
            # one call, wherever it happens: set-up builds the mesh of every disk workload
            "mesh_fem.build_mesh_s": (
                float(statistics.median(builds)) if builds.size else 0.0, "s"),
            "picard.outer_steps": (c["picard.outer_steps"], "count"),
            "picard.run_s": (total("picard.run_picard"), "s"),
            "picard.residual_norm_s": (total("mesh_fem.residual_dual_norm"), "s"),
            "coeffexpr.eval_calls": (c["coeffexpr.eval_calls"], "count"),
            "coeffexpr.eval_points": (c["coeffexpr.eval_points"], "count"),
            "coeffexpr.eval_s": (total("coeffexpr.eval"), "s"),
            "coeffexpr.validate_s": (total("coeffexpr.validate_structure"), "s"),
            "geometry.project_calls": (c["geometry.project_calls"], "count"),
            "geometry.project_points": (c["geometry.project_points"], "count"),
            "geometry.project_s": (project_s, "s"),
            "geometry.project_ns_per_point": (per(project_s, c["geometry.project_points"]), "ns"),
            "reflectsim.path_steps": (steps, "count"),
            "reflectsim.boundary_hits": (c["reflectsim.boundary_hits"], "count"),
            "reflectsim.engine_self_s": (engine_self, "s"),
            "reflectsim.engine_ns_per_path_step": (per(engine_self, steps), "ns"),
        }
        observer_s = 0.0
        for span in OBSERVERS.values():
            out[span + "_s"] = (total(span), "s")
            observer_s += out[span + "_s"][0]
        out["probeval.observer_ns_per_path_step"] = (per(observer_s, steps), "ns")
        out["probeval.decay_pilot_s"] = (total("probeval.estimate_decay"), "s")
        out["cli.export_s"] = (total("cli.export"), "s")
        out["trace.spans"] = (int(np.count_nonzero(in_round)), "count")
        return out

    def dump(self, path):
        """Write every span as parallel columns; times in ns from the first span."""
        t0 = self.start[0] if self.start else 0
        with open(path, "w") as out:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name,
                    "start_ns": [s - t0 for s in self.start],
                    "end_ns": [e - t0 for e in self.end],
                    "parent": self.parent,
                },
                out,
            )
