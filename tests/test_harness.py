import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
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
    # no damping option: the energy line search sets the step
    ({"algorithm": {"damping": 1.0}}, "algorithm.damping"),
    # each of these crashed in a solver or returned an unconverged ladder
    ({"reference_tol": 0}, "reference_tol"),
    ({"algorithm": {"max_scf_iter": 0}}, "algorithm.max_scf_iter"),
    ({"algorithm": {"pre_smooth": -1}}, "algorithm.pre_smooth"),
    ({"algorithm": {"post_smooth": -1}}, "algorithm.post_smooth"),
    ({"mesh": {"n_levels": 2.0}}, "mesh.n_levels"),
    ({"reference_extra_refinements": 1.5}, "reference_extra_refinements"),
    ({"problem": {"zeta": "1"}}, "problem.zeta"),
    # without smoothing every level repeats the first level's eigenpair
    ({"algorithm": {"pre_smooth": 0, "post_smooth": 0}}, "algorithm.post_smooth"),
    ({"mesh": {"n_levels": True}}, "mesh.n_levels"),
    ({"problem": {"zeta": float("nan")}}, "problem.zeta"),
    ({"output": 3}, "output"),
])
def test_validation_errors_with_paths(patch, field):
    with pytest.raises(ConfigError) as err:
        config_from_dict(patch)
    assert err.value.field == field


def test_validation_takes_ints_for_floats_and_null_for_paths():
    cfg = config_from_dict({"problem": {"zeta": 1}, "reference_tol": 1,
                            "reference_path": None, "output": None})
    assert cfg.problem.zeta == 1 and cfg.output is None


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
    assert rep.meta["fitted_rates"] == {name: fitted_rate(rep.column(name), 2)
                                        for name in ("err_lambda", "err_a", "err_l2")}
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
    # pinned values: any change to the same-level direct solves shows here
    pinned = {
        "gamma_obs": [np.nan, 0.012432825028943472, 0.0108750875330346],
        "err_a": [np.nan, 0.009501668651462618, 0.004126967111743143],
        "err_lambda": [3.197442310920451e-14, 0.00018454104912635216,
                       3.3118087511496697e-05],
    }
    for name, values in pinned.items():
        assert rep.column(name) == pytest.approx(values, rel=1e-12, nan_ok=True), name
    assert rep.column("work_units") == [38020, 79399, 289970]
    # one V-cycle contraction per level above the first
    thetas = measure_mg_contraction(8, 3)
    assert rep.meta["vcycle_theta"] == [thetas[1], thetas[2]]


def test_contraction_study_measures_the_vcycle_on_the_run_meshes():
    # V_H one refinement below the first level: the V-cycle runs on the
    # solve levels' meshes with the run's smoothing steps
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 2, "n_levels": 2, "coarse_space_level": 1},
        "algorithm": {"pre_smooth": 2, "post_smooth": 1},
        "study": "contraction",
    })
    rep = run_experiment(cfg)
    assert rep.column("n_dofs") == [3 ** 2, 7 ** 2]
    assert rep.meta["vcycle_theta"] == [measure_mg_contraction(4, 2, pre=2, post=1)[1]]


def test_contraction_reference_solves_stay_out_of_the_level_timings(monkeypatch):
    # the same-level direct solves measure the ladder and are not part of
    # it: a level's wall_seconds and work_units cover the ladder's own work
    from fmgeig import harness

    solve = harness.solve_reference
    calls = []

    def slow_solve(hierarchy, *args, **kwargs):
        calls.append(hierarchy.n_levels)
        time.sleep(0.3)
        return solve(hierarchy, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_reference", slow_solve)
    config = {"problem": {"dim": 2, "zeta": 1.0},
              "mesh": {"divisions_per_axis": 8, "n_levels": 4}}
    rep = run_experiment(config_from_dict({**config, "study": "contraction"}))
    plain = run_experiment(config_from_dict({**config, "study": "work-scaling"}))
    assert calls == [1, 2, 3, 4]
    assert all(t < 0.3 for t in rep.column("wall_seconds"))
    assert rep.column("work_units") == plain.column("work_units")


def test_contraction_study_assembles_each_level_once(monkeypatch):
    # the same-level reference solves reuse the ladder's assembled levels
    from fmgeig.eigsolve import LevelSpace

    build = LevelSpace.build.__func__
    meshes = []

    def counted(cls, mesh, *args, **kwargs):
        meshes.append(mesh.level_index)
        return build(cls, mesh, *args, **kwargs)

    monkeypatch.setattr(LevelSpace, "build", classmethod(counted))
    run_experiment(config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "study": "contraction",
    }))
    assert meshes == [0, 1, 2]


def test_contraction_study_raises_when_a_direct_solve_does_not_converge(monkeypatch, capsys):
    # an unconverged direct solve is a solver failure (exit 3), never a gamma
    from fmgeig import harness

    solve = harness.scf_solve

    def unconverged(*args, **kwargs):
        return replace(solve(*args, **kwargs), converged=False)

    monkeypatch.setattr(harness, "scf_solve", unconverged)
    cfg = config_from_dict({"mesh": {"divisions_per_axis": 8, "n_levels": 2},
                            "study": "contraction"})
    with pytest.raises(SolverError):
        run_experiment(cfg)
    assert cli.main(["--study", "contraction", "--levels", "2"]) == 3
    assert "solver failure" in capsys.readouterr().err


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


def test_json_reports_are_strict_json(tmp_path):
    # undefined errors and rates are null: JSON has no NaN
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"lambda": 2 * math.pi ** 2}))
    for extra in ({"study": "work-scaling"},
                  {"study": "convergence", "reference": "file", "reference_path": str(ref)}):
        cfg = config_from_dict({"mesh": {"divisions_per_axis": 4, "n_levels": 2}, **extra})
        parsed = json.loads(report_to_string(run_experiment(cfg), "json"),
                            parse_constant=reject)
        assert parsed["rows"][0]["err_a"] is None
    assert parsed["meta"]["fitted_rates"]["err_a"] is None


def test_json_meta_reports_augmented_convergence(tmp_path):
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "algorithm": {"p": 2, "varpi": 30},
        "study": "work-scaling",
        "format": "json",
        "output": str(tmp_path / "out.json"),
    })
    rep = run_experiment(cfg)
    meta = json.loads((tmp_path / "out.json").read_text())["meta"]
    assert meta["study"] == "work-scaling"
    assert meta["config"]["algorithm"]["varpi"] == 30
    # one flag per correction record; level 1 holds the first nonlinear
    # solve and has none
    assert meta["augmented_converged"] == [[], [True, True], [True, True]]
    work = [row.work_units for row in rep.rows]
    assert meta["work_per_dof"] == [w / row.n_dofs for w, row in zip(work, rep.rows)]
    assert meta["work_total_over_finest"] == sum(work) / work[-1]


@pytest.mark.parametrize("study, key", [("single-solve", "scf_history"),
                                        ("convergence", "reference_scf_history")])
def test_json_meta_holds_one_entry_per_scf_sweep(tmp_path, monkeypatch, study, key):
    # single-solve reports its level SCF, a convergence study its reference solve
    from fmgeig import harness
    from fmgeig.eigsolve import scf_solve

    results = []

    def recording_scf(*args, **kwargs):
        results.append(scf_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "scf_solve", recording_scf)
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 2},
        "study": study,
        "format": "json",
        "output": str(tmp_path / "out.json"),
    })
    run_experiment(cfg)
    history = json.loads((tmp_path / "out.json").read_text())["meta"][key]
    (res,) = results
    assert len(history) == res.iterations > 1
    for entry, sweep in zip(history, res.history):
        assert entry == {"delta_lambda": sweep.delta_lambda, "delta_u": sweep.delta_u,
                         "residual": sweep.residual, "eig_tol": sweep.eig_tol}


@pytest.mark.parametrize("study", ["convergence", "contraction", "work-scaling",
                                   "single-solve"])
def test_readme_report_section_names_every_meta_key(study):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Reports\n", 1)[1].split("\n## ", 1)[0]
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 2, "n_levels": 2},
        "study": study,
    })
    meta = run_experiment(cfg).meta
    missing = [key for key in meta if f"`{key}`" not in section]
    assert not missing, f"README's report section does not name {missing}"


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


@pytest.mark.slow
def test_cli_single_solve_at_zeta_1000_exits_0(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"dim": 2, "zeta": 1000.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 4},
        "algorithm": {"max_scf_iter": 300},
        "study": "single-solve",
        "format": "json",
    }))
    assert cli.main(["--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["meta"]["converged"]
    assert report["rows"][0]["n_dofs"] == 63 ** 2


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


def test_public_names_and_benchmark_span_targets_resolve(monkeypatch):
    # every exported name exists, and every function and method that the
    # benchmark's tracer (perfbench/spans.py) wraps is still defined where
    # the tracer looks for it, so a deletion cannot break traced runs
    import importlib.util
    from fmgeig import eigsolve, fem, fmg, harness, linalg, mesh

    for module in (fmgeig, eigsolve, fem, fmg, harness, linalg, mesh):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    found = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(found)
    monkeypatch.setitem(sys.modules, found.name, spans)
    found.loader.exec_module(spans)
    for home, attr, _, _ in spans._function_targets(fmgeig):
        assert callable(getattr(home, attr, None)), f"{home.__name__}.{attr}"
    for cls, attr, _ in spans._method_targets(fmgeig):
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
    original = eigsolve.smallest_eigpair
    with spans.Tracer(fmgeig):
        assert eigsolve.smallest_eigpair is not original
    assert eigsolve.smallest_eigpair is original
