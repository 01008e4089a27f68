"""The benchmark reaches into the package by name; those names must keep working.

The tracer (perfbench/tracing.py) patches package attributes by name, and the
workloads (perfbench/workloads.py) call package functions with keyword
arguments.  Both live outside the package and are only imported by the
benchmark, so a renamed or deleted function, or a narrowed signature, would
otherwise fail only benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

from reflectpde import mesh_fem, reflectsim
from reflectpde.geometry import Domain
from reflectpde.reflectsim import PathObserver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
_MISSING = object()


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("perfbench_tracing", TRACING)


def test_tracer_installs_and_restores_every_patched_attribute():
    tracer = _load_tracing().Tracer()
    slots = [(mesh_fem, "spla")] + [(owner, attr) for owner, attr, _, _ in tracer._targets]
    before = [owner.__dict__.get(attr, _MISSING) for owner, attr in slots]
    try:
        tracer.install()
        patched = [owner.__dict__.get(attr, _MISSING) for owner, attr in slots]
        assert all(now is not then for now, then in zip(patched, before))
    finally:
        tracer.uninstall()
    after = [owner.__dict__.get(attr, _MISSING) for owner, attr in slots]
    assert all(now is then for now, then in zip(after, before))


def test_every_workload_sets_up(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports its sibling checks.py
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload(seed=1, workdir=workdir).setup()


class _HitCount(PathObserver):
    def __init__(self):
        self.hits = 0

    def step(self, blk):
        self.hits += int(np.count_nonzero(blk.hit))


def test_traced_hits_are_the_hits_observers_see():
    tracer = _load_tracing().Tracer()
    obs = _HitCount()
    tracer.install()
    try:
        mark = tracer.mark()
        reflectsim.run_paths(Domain.disk(), 300, 0.3, 1e-3, seed=1, observers=[obs])
        per_layer = tracer.per_layer(mark)
    finally:
        tracer.uninstall()
    assert obs.hits > 0
    assert per_layer["reflectsim.boundary_hits"] == (obs.hits, "count")
    assert per_layer["reflectsim.path_steps"] == (300 * 300, "count")
