"""The perfbench tracer patches package attributes by name; they must all exist.

The tracer lives outside the package (perfbench/tracing.py) and is only
imported by the benchmark, so a renamed or deleted function it wraps would
otherwise fail only traced benchmark runs.
"""

import importlib.util
from pathlib import Path

from reflectpde import mesh_fem

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_MISSING = object()


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
