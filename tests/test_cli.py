import filecmp
import json

import numpy as np
import pytest

from reflectpde import probeval
from reflectpde.cli import main
from reflectpde.config import ConfigError, load_config
from reflectpde.geometry import Domain
from reflectpde.reflectsim import simulate_paths
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
    assert cfg.domain == Domain.disk()
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


def test_nonzero_drift_blocks_stochastic_backend(tmp_path, capsys):
    # the file is valid; the Monte-Carlo check that solve would run is not
    text = BASE_A.replace("backend = fem", "backend = both")
    text = text.replace("g2 = 0\n", "g2 = 0\nb1 = 1\nb2 = 0\n")
    cfg = write(tmp_path, text)
    assert not load_config(cfg).coeffs.b_is_zero
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: [coefficients]")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, old, new, name",
    [("solver", "backend = fem", "backend = stochastic-verify", "stochastic-verify"),
     ("constants", "k = 0.0", "k = 0.0\nC0 = 0", "C0")],
    ids=["stochastic-verify", "C0"],
)
def test_removed_settings_are_config_errors(tmp_path, capsys, section, old, new, name):
    cfg = write(tmp_path, BASE_A.replace(old, new))
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value).startswith(f"[{section}]") and name in str(err.value)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, old, key, value",
    [("domain", "radius = 1.0", "radius", "nan"),
     ("domain", "radius = 1.0", "radius", "-1"),
     ("constants", "alpha = 1.0", "alpha", "inf"),
     ("solver", "step = 1e-3", "step", "nan"),
     ("solver", "horizon = 6.0", "horizon", "-inf")],
    ids=["radius-nan", "radius-negative", "alpha-inf", "step-nan", "horizon-minus-inf"],
)
def test_non_finite_or_negative_number_is_a_config_error(tmp_path, section, old, key, value):
    # a nan radius once passed `radius <= 0` and hung the uniform sampler
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, BASE_A.replace(old, f"{key} = {value}")))
    assert str(err.value).startswith(f"[{section}] ") and key in str(err.value)
    assert not str(err.value).startswith(f"[{section}] [")


def test_domain_rejects_nan_sizes():
    nan = float("nan")
    for make in (lambda: Domain.disk(nan), lambda: Domain.ball(3, nan),
                 lambda: Domain.ellipse(nan, 1.0), lambda: Domain.ellipse(1.0, nan)):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize(
    "key, value",
    [("mesh_h", "-0.1"), ("tol", "-1"), ("inner_tol", "0"), ("step", "0"), ("horizon", "0"),
     ("residual_window", "0"), ("n_paths", "0"), ("max_iter", "0"),
     ("validate_budget", "0")],
)
def test_solver_value_out_of_range_rejected(tmp_path, capsys, key, value):
    lines = [line for line in BASE_A.splitlines() if not line.startswith(f"{key} =")]
    cfg = write(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert "[solver]" in str(err.value) and key in str(err.value)
    assert main(["check-conditions", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: [solver]")


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


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_override_admissibility_does_not_reach_the_residual_test(
    tmp_path, capsys, monkeypatch, command
):
    # the flag once ran the residual test on the underived constants, lam = mu = nan:
    # verify exited 4 after every path, on "terminal decay nan@T=... [FAIL]", and solve
    # with backend = both exited 0 with residual_pass false
    field = tmp_path / "field"
    assert main(["solve", "--config", write(tmp_path, BASE_A, "ok.ini"), "--out", str(field)]) == 0
    capsys.readouterr()
    text = (BASE_A.replace("k = 0.0", "k = 0.4").replace("n_paths = 300", "n_paths = 200")
            .replace("step = 1e-3", "step = 2e-3").replace("backend = fem", "backend = both"))
    runs = []
    monkeypatch.setattr(probeval, "run_paths", lambda *a, **k: runs.append(a))
    out = tmp_path / "out"
    flags = {"verify": ["--field", str(field / "solution.csv")], "solve": []}[command]
    code = main([command, "--config", write(tmp_path, text), "--out", str(out), *flags,
                 "--override-admissibility"])
    err = capsys.readouterr().err.splitlines()
    assert code == 3 and runs == [] and not out.exists()
    assert len(err) == 1 and err[0].startswith("inadmissible constants: ")
    assert "1/(2*sqrt(2))" in err[0] and "lam and mu" in err[0]


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


def test_check_conditions_fails_without_decay_at_a_short_horizon(tmp_path, capsys):
    # q = 0 does not decay at any horizon; a window test once passed it at T = 0.1
    text = BASE_A.replace("q = -1", "q = 0").replace("horizon = 6.0", "horizon = 0.1")
    assert main(["check-conditions", "--config", write(tmp_path, text)]) == 4
    out = capsys.readouterr().out
    assert "DIVERGENT fit C=" in out and "tail<= nan" not in out


def test_bench_stores_a_path_of_at_least_one_step(tmp_path, capsys):
    # the stored path once ran over min(T, 1) < h and raised from the engine
    text = BASE_A.replace("radius = 1.0", "radius = 10.0")
    argv = ["bench", "--config", write(tmp_path, text), "--horizon", "3", "--step", "1.5",
            "--n-paths", "4"]
    assert main(argv) in (0, 4)
    assert "constant-field star integral" in capsys.readouterr().out


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


def test_verify_refuses_a_mesh_off_the_configured_domain(tmp_path, capsys, monkeypatch):
    # a unit-disk field verified on the disk of radius 2: the paths once ran, then a
    # start beyond the mesh raised PointLocationError
    out = tmp_path / "out"
    assert main(["solve", "--config", write(tmp_path, BASE_A), "--out", str(out)]) == 0
    capsys.readouterr()
    runs = []
    monkeypatch.setattr(probeval, "run_paths", lambda *a, **k: runs.append(a))
    wide = write(tmp_path, BASE_A.replace("radius = 1.0", "radius = 2.0"), "wide.ini")
    code = main(["verify", "--config", wide, "--field", str(out / "solution.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and runs == []
    assert len(err) == 1 and err[0].startswith("cannot load field: ")
    assert "off the domain's boundary" in err[0]


def _solved_a(tmp_path, capsys):
    """Corpus A solved into tmp_path/out: the mesh and field lines, the config path."""
    out = tmp_path / "out"
    cfg = write(tmp_path, BASE_A)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    mesh = (out / "mesh.txt").read_text().splitlines(keepends=True)
    field = (out / "solution.csv").read_text().splitlines(keepends=True)
    return mesh, field, cfg


def _verify_refused(tmp_path, capsys, monkeypatch, cfg, mesh_lines, field_lines):
    """verify on the given files: its exit code, stderr lines and the path runs it made."""
    (tmp_path / "m.txt").write_text("".join(mesh_lines))
    (tmp_path / "f.csv").write_text("".join(field_lines))
    runs = []
    monkeypatch.setattr(probeval, "run_paths", lambda *a, **k: runs.append(a))
    code = main(["verify", "--config", cfg, "--field", str(tmp_path / "f.csv"),
                 "--mesh", str(tmp_path / "m.txt")])
    return code, capsys.readouterr().err.splitlines(), runs


@pytest.mark.parametrize("section, index", [("triangles", "999999"), ("triangles", "-1"),
                                            ("boundary_edges", "-1")])
def test_verify_refuses_a_mesh_naming_a_node_it_does_not_have(
    tmp_path, capsys, monkeypatch, section, index
):
    # 999999 escaped as an IndexError; -1 wrapped to the last node, and the paths ran
    mesh, field, cfg = _solved_a(tmp_path, capsys)
    head = next(i for i, line in enumerate(mesh) if line.startswith(section + " "))
    row = mesh[head + 1].split()
    row[-2] = index  # a triangle's second node, an edge's first
    mesh[head + 1] = " ".join(row) + "\n"
    code, err, runs = _verify_refused(tmp_path, capsys, monkeypatch, cfg, mesh, field)
    assert code == 1 and runs == []
    assert len(err) == 1 and err[0].startswith("cannot load field: ")
    assert section in err[0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_refuses_a_non_finite_field_value(tmp_path, capsys, monkeypatch, value):
    # a nan value once ran every path and printed nan rows
    mesh, field, cfg = _solved_a(tmp_path, capsys)
    field[4] = field[4].rsplit(",", 1)[0] + f",{value}\n"
    code, err, runs = _verify_refused(tmp_path, capsys, monkeypatch, cfg, mesh, field)
    assert code == 1 and runs == []
    assert len(err) == 1 and err[0].startswith("cannot load field: ")
    assert f"node {field[4].split(',')[0]} " in err[0]


@pytest.mark.parametrize("domain", ["disk", "ellipse"])
def test_simulate_dumps(tmp_path, domain):
    text = BASE_A
    if domain == "ellipse":
        text = BASE_A.replace("kind = disk\nradius = 1.0", "kind = ellipse\na = 1.5\nb = 1.0")
    cfg = write(tmp_path, text)
    out = tmp_path / "paths"
    code = main(
        ["simulate", "--config", cfg, "--out", str(out), "--n-paths", "2",
         "--horizon", "0.1", "--npz"]
    )
    assert code == 0
    paths = simulate_paths(load_config(cfg).domain, 2, 0.1, 1e-3, seed=7)
    for i, path in enumerate(paths):
        lines = (out / f"path_{i:04d}.csv").read_text().splitlines()
        assert lines[0] == "step,t,x1,x2,dL"
        assert len(lines) == 102
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 0], np.arange(101))
        assert np.array_equal(rows[:, 1], path.times)
        assert np.array_equal(rows[:, 2:4], path.states)
        assert np.array_equal(rows[1:, 4], path.local_time_increments)
        assert (out / f"path_{i:04d}.npz").exists()
    assert np.any(rows[:, 4] > 0)  # the dump records boundary hits


def test_bench_smoke(tmp_path):
    cfg = write(tmp_path, BASE_A)
    code = main(
        ["bench", "--config", cfg, "--n-paths", "500", "--horizon", "1.5",
         "--step", "5e-4"]
    )
    assert code == 0


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize(
    "flag, value", [("--horizon", "0"), ("--step", "0"), ("--step=-1e-3", None),
                    ("--n-paths", "0")],
)
def test_path_run_flags_out_of_range_rejected(tmp_path, capsys, command, flag, value):
    # an explicit 0 is not replaced by the default: it is an error, exit 1
    cfg = write(tmp_path, BASE_A)
    out = ["--out", str(tmp_path / "paths")] if command == "simulate" else []
    argv = [command, "--config", cfg, *out, "--n-paths", "2", "--horizon", "0.05", flag]
    assert main(argv + ([] if value is None else [value])) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --")
    assert not (tmp_path / "paths").exists()


@pytest.mark.parametrize("command", ["check-conditions", "simulate"])
@pytest.mark.parametrize("seed", ["-3", str(2**63), str(2**64 - 1)])
def test_seed_key_outside_the_stream_key_range_is_a_config_error(tmp_path, capsys, command,
                                                                 seed):
    # the path streams key Philox with the seed as a uint64: a negative seed once
    # crashed in SeedSequence, and 2^64 - 1 overflowed once an offset was added
    out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    text = BASE_A.replace("seed = 7", f"seed = {seed}")
    assert main([command, "--config", write(tmp_path, text), *out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: [solver] seed = {seed} must lie in [0, 2^63)"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check-conditions", "simulate"])
@pytest.mark.parametrize("seed", ["-1", str(2**63), "18446744073709551615"])
def test_seed_flag_outside_the_stream_key_range_is_a_config_error(tmp_path, capsys, command,
                                                                  seed):
    out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, "--config", write(tmp_path, BASE_A), *out, "--seed", seed]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: --seed {seed} must lie in [0, 2^63)"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, backend, flags",
    [
        ("check-conditions", "fem", []),
        ("verify", "fem", ["--field", "{tmp}/solution.csv"]),
        ("solve", "both", ["--out", "{tmp}/out"]),
        ("verify", "fem", ["--field", "{tmp}/solution.csv", "--out", "{tmp}/out"]),
        ("simulate", "fem", ["--out", "{tmp}/out", "--horizon", "1.0"]),
        ("simulate", "fem", ["--out", "{tmp}/out", "--horizon", "0.01", "--step", "0.02"]),
        ("bench", "fem", ["--horizon", "1.0"]),
        ("bench", "fem", ["--horizon", "0.01", "--step", "0.02"]),
    ],
)
def test_step_the_path_engine_refuses_is_a_config_error(tmp_path, capsys, command, backend, flags):
    # on the unit disk the engine refuses a step above (diameter/10)^2 = 0.04, and
    # one above the horizon: exit 1 with one line before any compute
    text = BASE_A.replace("step = 1e-3", "step = 0.5")
    text = text.replace("backend = fem", f"backend = {backend}")
    argv = [command, "--config", write(tmp_path, text), *(f.format(tmp=tmp_path) for f in flags)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_fem_solve_ignores_the_monte_carlo_step(tmp_path):
    cfg = write(tmp_path, BASE_A.replace("step = 1e-3", "step = 0.5"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


# small runs: the disk of BASE_A, the same with a drift, and the unit 3-ball
SMALL = BASE_A.replace("n_paths = 300", "n_paths = 40").replace("horizon = 6.0", "horizon = 0.5")
CASES = {
    "disk": SMALL,
    "drift": SMALL.replace("g2 = 0\n", "g2 = 0\nb1 = 0.5\n"),
    "ball": SMALL.replace("kind = disk", "kind = ball\ndimension = 3").replace(
        "g2 = 0\n", "g2 = 0\ng3 = 0\n"
    ),
}
RUNS = "runs"  # exit 0, or 4 where a statistical check may fail on so few paths


@pytest.mark.parametrize(
    "command, backend, flags, expected",
    [
        ("solve", "fem", ["--out", "{tmp}/out"],
         {"disk": 0, "drift": 0, "ball": "[domain]"}),
        ("solve", "both", ["--out", "{tmp}/out"],
         {"disk": 0, "drift": "[coefficients]", "ball": "[domain]"}),
        ("verify", "fem", ["--field", "{tmp}/field/solution.csv", "--out", "{tmp}/out"],
         {"disk": RUNS, "drift": "[coefficients]", "ball": "[domain]"}),
        ("check-conditions", "fem", [],
         {"disk": RUNS, "drift": "[coefficients]", "ball": RUNS}),
        ("simulate", "fem", ["--out", "{tmp}/out", "--n-paths", "2", "--horizon", "0.05"],
         {"disk": 0, "drift": 0, "ball": 0}),
        ("bench", "fem", ["--n-paths", "40", "--horizon", "0.5"],
         {"disk": RUNS, "drift": RUNS, "ball": RUNS}),
    ],
    ids=["solve-fem", "solve-both", "verify", "check-conditions", "simulate", "bench"],
)
@pytest.mark.parametrize("case", ["disk", "drift", "ball"])
def test_each_command_checks_what_it_runs(tmp_path, capsys, case, command, backend, flags,
                                          expected):
    # solve and verify need a 2-d domain for the mesh; a Monte-Carlo check of the
    # coefficients needs b = 0; a refusal is one config error line before any output
    text = CASES[case].replace("backend = fem", f"backend = {backend}")
    cfg = write(tmp_path, text)
    if command == "verify" and case == "disk":
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "field")]) == 0
    capsys.readouterr()
    code = main([command, "--config", cfg, *(f.format(tmp=tmp_path) for f in flags)])
    want = expected[case]
    if want == RUNS:
        assert code in (0, 4)
    elif isinstance(want, int):
        assert code == want
    else:
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {want} ")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [("check-conditions", []), ("bench", []),
                                            ("simulate", ["--out", "{tmp}/out"])],
                         ids=["check-conditions", "bench", "simulate"])
def test_a_ball_too_thin_in_its_box_is_a_config_error(tmp_path, capsys, command, flags):
    # each command draws uniform points by rejection from the bounding box, of which
    # the 20-ball fills 2.5e-8: the draws never finished
    g = "".join(f"g{i} = 0\n" for i in range(3, 21))
    cfg = write(tmp_path, SMALL.replace("kind = disk", "kind = ball\ndimension = 20")
                .replace("g2 = 0\n", "g2 = 0\n" + g))
    assert main([command, "--config", cfg, *(f.format(tmp=tmp_path) for f in flags)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: [domain] the 20-d ball fills 2.46e-08 of its bounding box, "
                   "below the 0.0001 that sampling it uniformly by rejection needs"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new",
    [("radius = 1.0", "radius = 1.0\ndimension = 3"),
     ("kind = disk\nradius = 1.0", "kind = ellipse\na = 1.5\nb = 1.0\nradius = 2"),
     ("kind = disk", "kind = ball\na = 1.5")],
    ids=["disk-dimension", "ellipse-radius", "ball-a"],
)
def test_domain_key_of_another_kind_is_a_config_error(tmp_path, capsys, old, new):
    # each kind takes its own keys; another kind's key was once accepted and ignored
    cfg = write(tmp_path, BASE_A.replace(old, new))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: [domain] kind = ")
    assert not (tmp_path / "out").exists()


def test_ellipse_with_longer_x2_axis_is_a_config_error(tmp_path, capsys):
    # a = 1, b = 1.5 once built the ellipse with the 1.5 semi-axis along x1
    text = BASE_A.replace("kind = disk\nradius = 1.0", "kind = ellipse\na = 1\nb = 1.5")
    cfg = write(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: [domain] need a >= b > 0")


def test_solve_on_the_2_ball_writes_the_disk_files(tmp_path, capsys):
    # the disk is the 2-ball; the ball once had no boundary rule in 2-d
    outs = {}
    for kind in ("disk", "ball\ndimension = 2"):
        text = SMALL.replace("kind = disk", f"kind = {kind}").replace(
            "backend = fem", "backend = both"
        )
        out = tmp_path / kind.split()[0]
        assert main(["solve", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        outs[kind] = (out, capsys.readouterr().out)
    (disk, disk_stdout), (ball, ball_stdout) = outs.values()
    assert ball_stdout == disk_stdout
    names = ["mesh.txt", "solution.csv", "trace.csv", "summary.json"]
    match, mismatch, errors = filecmp.cmpfiles(disk, ball, names, shallow=False)
    assert match == names and not mismatch and not errors
    assert "verification" in json.loads((ball / "summary.json").read_text())


def test_inadmissible_killing_weight_exits_as_a_failed_check(tmp_path, capsys):
    # with q = 0 the weight does not decay, so the probe comparison cannot truncate
    text = SMALL.replace("q = -1", "q = 0").replace("backend = fem", "backend = both")
    assert main(["solve", "--config", write(tmp_path, text), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("verification failed: ")
    assert "no exponential decay" in err[0]


def test_analytic_variant_without_drift_takes_sup_b_zero(tmp_path):
    # with sup|b| taken as M = 4 the Young terms make these constants inadmissible
    text = BASE_A.replace("k = 0.0", "k = 0.0\ntrace_norm = 0.5").replace(
        "backend = fem", "backend = fem\nvariant = analytic"
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["gamma"] == 0.0


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


@pytest.mark.parametrize("command", ["solve", "verify", "check-conditions"])
def test_coefficient_undefined_on_the_domain_is_a_config_error(tmp_path, capsys, command):
    # sqrt(x1) is undefined on the left half of the disk: a named error, not a traceback
    field = tmp_path / "field"
    assert main(["solve", "--config", write(tmp_path, SMALL, "ok.ini"), "--out", str(field)]) == 0
    cfg = write(tmp_path, SMALL.replace(f"f = {F_A}", "f = sqrt(x1) - y"))
    flags = {
        "solve": ["--out", str(tmp_path / "out")],
        "verify": ["--field", str(field / "solution.csv"), "--out", str(tmp_path / "out")],
        "check-conditions": [],
    }[command]
    capsys.readouterr()
    assert main([command, "--config", cfg, *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: [coefficients] f = sqrt(x1) - y: sqrt of a negative argument"]
    assert not (tmp_path / "out").exists()
