import filecmp
import json

import numpy as np
import pytest

from reflectpde.cli import main
from reflectpde.config import ConfigError, load_config
from .conftest import F_A, F_B, G_B, H_A, H_B

BASE_A = f"""
[domain]
kind = disk
radius = 1.0

[coefficients]
f = {F_A}
g1 = 0
g2 = 0
h = {H_A}
q = -1

[constants]
alpha = 1.0
beta = 1.0
K = 0.1
M = 4.0
k = 0.0
beta_prime = 1.0

[solver]
backend = fem
mesh_h = 0.1
tol = 1e-8
n_paths = 300
step = 1e-3
horizon = 6.0
seed = 7
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write(tmp_path, BASE_A))
    assert cfg.domain.kind == "disk"
    assert cfg.solver.mesh_h == 0.1
    assert cfg.consts.alpha == 1.0 and cfg.consts.K == 0.1 and cfg.consts.k == 0.0


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE_A + "bogus = 1\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE_A.replace("[domain]", "[domain]\nshape = x")))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE_A + "\n[extras]\na = 1\n"))


def test_bad_expression_diagnostic(tmp_path):
    bad = BASE_A.replace(f"f = {F_A}", "f = x1 +")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, bad))
    assert "offset" in str(err.value)


def test_nonzero_drift_blocks_stochastic_backend(tmp_path):
    text = BASE_A.replace("backend = fem", "backend = both")
    text = text.replace("g2 = 0\n", "g2 = 0\nb1 = 1\nb2 = 0\n")
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, text))


def test_solve_manufactured_and_outputs(tmp_path, capsys):
    cfg = write(tmp_path, BASE_A)
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["n_iterations"] == 2
    assert (out / "solution.csv").exists()
    assert (out / "trace.csv").exists()
    assert (out / "mesh.txt").exists()
    # load the field back and compare against the manufactured truth
    from reflectpde.mesh_fem import import_field, import_mesh

    mesh = import_mesh(out / "mesh.txt")
    u = import_field(out / "solution.csv", mesh)
    exact = mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2
    assert np.max(np.abs(u.values - exact)) < 0.05


def test_solve_deterministic_outputs(tmp_path):
    cfg = write(tmp_path, BASE_A)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("solution.csv", "trace.csv", "summary.json", "mesh.txt"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_solve_rejects_inadmissible_k(tmp_path, capsys):
    cfg = write(tmp_path, BASE_A.replace("k = 0.0", "k = 0.5"))
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "1/(2*sqrt(2))" in capsys.readouterr().err


def test_solve_override_admissibility(tmp_path):
    cfg = write(tmp_path, BASE_A.replace("k = 0.0", "k = 0.5"))
    code = main(
        ["solve", "--config", cfg, "--out", str(tmp_path / "o"),
         "--override-admissibility"]
    )
    assert code == 0  # the k = 0 corpus problem still converges


def test_solve_config_error_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, BASE_A.replace(f"f = {F_A}", "f = x1 +"))
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "offset" in capsys.readouterr().err


def test_check_conditions_paths(tmp_path, capsys):
    ok = write(tmp_path, BASE_A.replace("horizon = 6.0", "horizon = 5.0"), "ok.ini")
    code = main(["check-conditions", "--config", ok])
    assert code == 0

    div = BASE_A.replace("q = -1", "q = 0").replace("horizon = 6.0", "horizon = 3.0")
    cfg = write(tmp_path, div, "div.ini")
    assert main(["check-conditions", "--config", cfg]) != 0

    viol = BASE_A.replace(f"f = {F_A}", "f = y")
    cfg = write(tmp_path, viol, "viol.ini")
    assert main(["check-conditions", "--config", cfg]) != 0


def test_verify_solved_field(tmp_path):
    text = BASE_A.replace("mesh_h = 0.1", "mesh_h = 0.05").replace(
        "n_paths = 300", "n_paths = 500"
    ).replace("horizon = 6.0", "horizon = 7.0")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    code = main(
        ["verify", "--config", cfg, "--field", str(out / "solution.csv"),
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "verify_report.json").exists()
    probes = (out / "probes.csv").read_text().splitlines()
    assert probes[0] == "x1,x2,fem,mc,se,pass"
    assert len(probes) == 6


def test_verify_zero_field_fails(tmp_path):
    text = BASE_A.replace("n_paths = 300", "n_paths = 500").replace(
        "horizon = 6.0", "horizon = 7.0"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    # overwrite the field with zeros: the residual now has nonzero mean drift
    from reflectpde.mesh_fem import FemFunction, export_field, import_mesh

    mesh = import_mesh(out / "mesh.txt")
    export_field(FemFunction(mesh, np.zeros(mesh.n_nodes)), out / "zero.csv")
    code = main(["verify", "--config", cfg, "--field", str(out / "zero.csv")])
    assert code != 0


def test_verify_bad_mesh_file_is_a_load_error(tmp_path, capsys):
    cfg = write(tmp_path, BASE_A)
    mesh = tmp_path / "mesh.txt"
    mesh.write_text("mesh-p1 1\nnodes 1\n0 0.0 0.0\ntriangels 0\nboundary_edges 0\n")
    field = tmp_path / "field.csv"
    field.write_text("node,x,y,value\n0,0.0,0.0,0.0\n")
    code = main(["verify", "--config", cfg, "--field", str(field), "--mesh", str(mesh)])
    assert code == 1
    assert "triangles" in capsys.readouterr().err


def test_simulate_dumps(tmp_path):
    cfg = write(tmp_path, BASE_A)
    out = tmp_path / "paths"
    code = main(
        ["simulate", "--config", cfg, "--out", str(out), "--n-paths", "2",
         "--horizon", "0.1", "--npz"]
    )
    assert code == 0
    text = (out / "path_0000.csv").read_text().splitlines()
    assert text[0] == "step,t,x1,x2,dL"
    assert len(text) == 102
    assert (out / "path_0000.npz").exists()


def test_bench_smoke(tmp_path):
    cfg = write(tmp_path, BASE_A)
    code = main(
        ["bench", "--config", cfg, "--n-paths", "500", "--horizon", "1.5",
         "--step", "5e-4"]
    )
    assert code == 0


def test_solve_b_corpus_with_verification_backend(tmp_path):
    text = f"""
[domain]
kind = disk

[coefficients]
f = {F_B}
g1 = {G_B[0]}
g2 = {G_B[1]}
h = {H_B}
q = -1

[constants]
alpha = 1.0
beta = 1.0
K = 0.1
M = 4.0
k = 0.1
beta_prime = 1.0

[solver]
backend = both
mesh_h = 0.05
tol = 1e-9
n_paths = 500
step = 1e-3
horizon = 7.0
seed = 3
"""
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert "verification" in summary
