import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fmgeig
from fmgeig import cli
from fmgeig.errors import ConfigError, SolverError
from fmgeig.harness import (
    CSV_HEADER,
    compute_rates,
    config_from_dict,
    fitted_rate,
    load_config,
    measure_mg_contraction,
    report_to_string,
    run_experiment,
)


def test_default_config_is_valid():
    cfg = config_from_dict({})
    assert cfg.study == "convergence"
    assert cfg.mesh.n_levels == 5
    assert cfg.algorithm.m == 1 and cfg.algorithm.p == 1
    assert cfg.algorithm.pre_smooth == 3 and cfg.algorithm.post_smooth == 3


def test_unknown_field_reports_path():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"mesh": {"divisions": 4}})
    assert "mesh.divisions" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1})


@pytest.mark.parametrize("patch,field", [
    ({"problem": {"dim": 4}}, "problem.dim"),
    ({"problem": {"zeta": -1.0}}, "problem.zeta"),
    ({"problem": {"potential": "coulomb"}}, "problem.potential"),
    ({"mesh": {"n_levels": 0}}, "mesh.n_levels"),
    ({"algorithm": {"m": 0}}, "algorithm.m"),
    ({"algorithm": {"damping": 1.5}}, "algorithm.damping"),
    ({"study": "speedrun"}, "study"),
    ({"reference": "file"}, "reference_path"),
    ({"format": "xml"}, "format"),
])
def test_validation_errors_with_paths(patch, field):
    with pytest.raises(ConfigError) as err:
        config_from_dict(patch)
    assert err.value.field == field


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_compute_rates_halving():
    assert compute_rates([1.0, 0.5, 0.25], 2)[1:] == [1.0, 1.0]
    assert compute_rates([1.0, 0.25, 0.0625], 2)[1:] == [2.0, 2.0]


def test_compute_rates_undefined_entries():
    rates = compute_rates([1.0, 0.0, -2.0, 0.5], 2)
    assert np.isnan(rates[0]) and np.isnan(rates[1]) and np.isnan(rates[2])


def test_fitted_rate_exact_decay():
    errs = [16.0, 4.0, 1.0, 0.25]
    assert fitted_rate(errs, 2) == pytest.approx(2.0, abs=1e-12)


def test_element_ladder_config_3d():
    cfg = config_from_dict({
        "problem": {"dim": 3, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "study": "work-scaling",
    })
    rep = run_experiment(cfg)
    assert rep.column("n_elements") == [3072, 24576, 196608]


def test_linear_study_rates():
    # the distortion from the one-extra-level reference keeps the observed
    # orders a little above the asymptotic 2 and 1
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 0.0, "potential": "none"},
        "mesh": {"divisions_per_axis": 8, "n_levels": 4},
        "study": "convergence",
    })
    rep = run_experiment(cfg)
    assert 1.8 <= fitted_rate(rep.column("err_lambda"), 2) <= 2.4
    assert 0.9 <= fitted_rate(rep.column("err_a"), 2) <= 1.25
    assert rep.column("lambda")[-1] == pytest.approx(2 * math.pi ** 2, rel=2e-3)


def test_reference_file_study(tmp_path):
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"lambda": 2 * math.pi ** 2}))
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 0.0, "potential": "none"},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "study": "convergence",
        "reference": "file",
        "reference_path": str(ref),
    })
    rep = run_experiment(cfg)
    errs = rep.column("err_lambda")
    assert all(np.isfinite(e) for e in errs)
    assert all(np.isnan(e) for e in rep.column("err_a"))
    assert errs == sorted(errs, reverse=True)


def test_single_solve_matches_scf():
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 1},
        "study": "single-solve",
    })
    rep = run_experiment(cfg)
    from fmgeig.eigsolve import LevelSpace, scf_solve
    from fmgeig.harness import problem_spec_from
    from fmgeig.mesh import build_initial_mesh

    spec = problem_spec_from(cfg)
    mesh = build_initial_mesh(2, 8)
    ref = scf_solve(LevelSpace.build(mesh, spec), spec)
    assert rep.rows[0].lam == pytest.approx(ref.pair.lam, abs=1e-12)
    assert len(rep.rows) == 1


def test_contraction_study_gamma_column():
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "study": "contraction",
    })
    rep = run_experiment(cfg)
    gammas = rep.column("gamma_obs")[1:]
    assert all(np.isfinite(g) and g < 1.0 for g in gammas)


def test_csv_emission(tmp_path):
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 4, "n_levels": 1},
        "study": "single-solve",
        "output": str(tmp_path / "out.csv"),
    })
    run_experiment(cfg)
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_csv_row_count_matches_levels():
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "study": "work-scaling",
    })
    rep = run_experiment(cfg)
    text = report_to_string(rep, "csv")
    assert len(text.strip().splitlines()) == 1 + 3


def test_json_roundtrip_bit_for_bit(tmp_path):
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 2},
        "study": "work-scaling",
        "format": "json",
        "output": str(tmp_path / "out.json"),
    })
    rep = run_experiment(cfg)
    parsed = json.loads((tmp_path / "out.json").read_text())
    again = json.loads(report_to_string(rep, "json"))
    assert parsed == again
    row = parsed["rows"][0]
    assert row["lambda"] == float(f"{rep.rows[0].lam:.12g}")


def test_json_meta_reports_augmented_convergence(tmp_path):
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "algorithm": {"p": 2, "varpi": 30},
        "study": "work-scaling",
        "format": "json",
        "output": str(tmp_path / "out.json"),
    })
    run_experiment(cfg)
    meta = json.loads((tmp_path / "out.json").read_text())["meta"]
    assert meta["study"] == "work-scaling"
    assert meta["config"]["algorithm"]["varpi"] == 30
    # one flag per correction record; level 1 holds the first nonlinear
    # solve and has none
    assert meta["augmented_converged"] == [[], [True, True], [True, True]]


def test_determinism_ten_digits():
    cfg_dict = {
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "study": "convergence",
    }
    reps = [run_experiment(config_from_dict(cfg_dict)) for _ in range(2)]
    for name in ("lambda", "err_lambda", "err_a", "err_l2", "work_units"):
        a, b = reps[0].column(name), reps[1].column(name)
        for x, y in zip(a, b):
            if np.isnan(x) and np.isnan(y):
                continue
            assert f"{x:.10g}" == f"{y:.10g}"


def test_work_units_increase_with_level():
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 4},
        "study": "work-scaling",
    })
    rep = run_experiment(cfg)
    w = rep.column("work_units")
    assert w[1:] == sorted(w[1:])
    assert w[-1] > w[0]


def test_measure_mg_contraction_small():
    thetas = measure_mg_contraction(4, 3, seed=1, trials=5)
    assert all(t < 0.75 for t in thetas.values())


def test_cli_happy_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 4, "n_levels": 1},
        "study": "single-solve",
    }))
    code = cli.main(["--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "r.csv"
    code = cli.main(["--study", "single-solve", "--levels", "1",
                     "--zeta", "0.5", "--dim", "2", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"study": "nope"}))
    assert cli.main(["--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("config,field", [
    # the P1 weight^4 of sigma = 2 needs a degree-6 rule
    ({"problem": {"sigma": 2}}, "problem.sigma"),
    # one division per axis: the first FMG level has no interior vertex
    ({"mesh": {"divisions_per_axis": 1}}, "mesh.divisions_per_axis"),
    ({"mesh": {"divisions_per_axis": 1, "n_levels": 1}, "study": "single-solve"},
     "mesh.divisions_per_axis"),
])
def test_cli_unsolvable_config_exit_2(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"study": "work-scaling", **config}))
    assert cli.main(["--config", str(cfg)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"mesh": {"divisions_per_axis": 1, "n_levels": 2}, "study": "single-solve"},
    {"mesh": {"divisions_per_axis": 1, "n_levels": 2, "coarse_space_level": 1},
     "study": "work-scaling"},
])
def test_cli_one_division_solvable_exit_0(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("level,")


def test_cli_solver_failure_exit_3(monkeypatch, capsys):
    def boom(cfg):
        raise SolverError("forced failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["--study", "single-solve", "--levels", "1"]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mesh": {"divisions_per_axis": 4, "n_levels": 1},
        "study": "single-solve",
    }))
    # the child imports the package under test, however this process found it
    src = str(Path(fmgeig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fmgeig", "--config", str(cfg)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.startswith("level,")
