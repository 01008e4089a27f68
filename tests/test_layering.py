"""Layering: the Monte-Carlo layers import numpy alone, and scipy loads with the first
mesh; point location stays inside mesh_fem."""

import json
import os
import subprocess
import sys
from pathlib import Path

import reflectpde
from .test_cli import BASE_A

SCRIPT = """
import json, sys
import reflectpde
import numpy as np
from reflectpde import cli, probeval
from reflectpde.geometry import Domain

def scipy_modules():
    return sorted(k for k in sys.modules if k.startswith("scipy"))

config, out = sys.argv[1:]
q = lambda x: -np.ones(len(x))
params = probeval.McParams(n_paths=64, horizon=2.0, step=1e-2, seed=1)
probeval.fk_linear_frozen(Domain.ellipse(1.5, 1.0), np.array([0.9, 0.0]), q,
                          lambda x: x[:, 0] ** 2, lambda x: np.ones(len(x)), params)
codes = [cli.main(["simulate", "--config", config, "--out", out, "--n-paths", "2",
                   "--horizon", "0.05"]),
         cli.main(["check-conditions", "--config", config])]
before = scipy_modules()
reflectpde.build_mesh(Domain.disk(), 0.2)
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


def test_monte_carlo_commands_load_no_scipy(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(BASE_A.replace("n_paths = 300", "n_paths = 20")
                      .replace("step = 1e-3", "step = 1e-2")
                      .replace("horizon = 6.0", "horizon = 3.0"))
    src = str(Path(reflectpde.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(config), str(tmp_path / "paths")],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                         timeout=300, check=True)
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert seen["codes"] == [0, 0]
    assert seen["before"] == []
    assert "scipy.spatial" in seen["after"]  # the mesh's Delaunay triangulation


def test_only_mesh_fem_locates_points():
    # a point's location (tri, barycentrics) is mesh_fem's format: the observers read
    # fields as values through FemFunction.value_grad_at
    src = Path(reflectpde.__file__).resolve().parent
    naming = sorted(p.name for p in src.glob("*.py") if "find_triangles" in p.read_text())
    assert naming == ["mesh_fem.py"]
