import copy
import json
import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from spindd.analysis import pseudo_fidelity
from spindd.cli import main
from spindd.config import ConfigError, ExperimentConfig
from spindd.evolution import sweep_n
from spindd.presets import PRESETS, get_preset
from spindd.runner import errmap_experiment, run_experiment


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "spindd.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


SMALL = {
    "name": "tiny",
    "system": {"model": "generic", "omega00": 50.0,
               "targets": [{"omega0": 1.0, "azx": 0.2}]},
    "sequence": {"family": "cpmg", "tau": 0.5, "n_range": [1, 40], "t_pi": 0.1},
    "sim": {"dt": 0.002},
    "outputs": {"metrics": ["pseudo-fidelity"], "fit_observable": "Iz"},
}


def write_config(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def test_list_presets_names_everything():
    proc = run_cli("list-presets")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) >= 10
    assert any(ln.startswith("nv-polarize") for ln in lines)
    listed = {ln.split()[0] for ln in lines}
    assert listed == set(PRESETS)


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, spindd.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_cold_cli_loads_a_preset_without_jsonschema_or_yaml():
    code = ("import sys, spindd.cli\n"
            "from spindd.config import ExperimentConfig\n"
            "from spindd.presets import get_preset\n"
            "ExperimentConfig.from_dict(get_preset('ddgate'))\n"
            "print(sorted({'jsonschema', 'yaml'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_accepts_every_preset():
    for name in PRESETS:
        proc = run_cli("validate", "--config", name)
        assert proc.returncode == 0, proc.stderr
        assert name in proc.stdout
        expected = ExperimentConfig.from_dict(PRESETS[name]).config_hash()
        assert expected in proc.stdout


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_runs_with_finite_metrics(name, tmp_path):
    cfg = ExperimentConfig.from_dict(get_preset(name))
    run = errmap_experiment if name == "pulse-error-map" else run_experiment
    manifest = run(cfg, tmp_path)
    values = [v for v in manifest["metrics"].values() if v is not None]
    values += [v for v in manifest["extras"].values() if isinstance(v, (int, float))]
    values += [v for v in manifest["extras"].get("gate_time_by_azx", {}).values()]
    assert values and np.isfinite(values).all()
    assert manifest["extras"].get("failed_cells", 0) == 0
    for entry in manifest["outputs"]:
        rows = (tmp_path / entry["path"]).read_text().splitlines()[1:]
        assert np.isfinite([[float(v) for v in row.split(",")] for row in rows]).all()


def test_validate_rejects_bad_file_with_exit_2(tmp_path):
    raw = dict(SMALL)
    raw["sequence"] = dict(SMALL["sequence"])
    del raw["sequence"]["tau"]
    path = write_config(tmp_path, raw)
    proc = run_cli("validate", "--config", str(path))
    assert proc.returncode == 2
    assert "sequence.tau" in proc.stderr


@pytest.mark.parametrize("field", ["sequence.tau", "sequence.t_pi", "sim.dt", "system.omega00"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_number_is_exit_2(field, value, tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    section, key = field.split(".")
    raw[section][key] = value
    path = write_config(tmp_path, raw)  # written as .nan / .inf
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{field}: {value!r} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("metric", ["pseudo-fidelity", "inversion-fidelity", "concurrence",
                                    "polarization"])
def test_an_n_point_metric_on_a_tau_sweep_is_exit_2(metric, tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    del raw["sequence"]["tau"], raw["sequence"]["n_range"]
    raw["sequence"].update(n=4, tau_range=[0.4, 0.6, 11])
    raw["outputs"]["metrics"] = ["resonance", metric]
    path = write_config(tmp_path, raw)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "outputs.metrics: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, change, message", [
    ("ddgate", {"metrics": ["resonance"]}, "resonance needs a tau_range sweep"),
    ("three-qubit-q1", {"metrics": ["pseudo-fidelity", "concurrence"]},
     "concurrence needs a two-qubit register"),
    ("ddgate", {"fit_observable": "Sz", "metrics": ["inversion-fidelity"]},
     "'Sz' is not a target observable"),
    ("nv-polarize", {"fit_observable": "Sz"}, "'Sz' is not a target observable"),
    ("ddgate", {"fit_observable": "Jz"}, "outputs.fit_observable: unknown 'Jz'"),
], ids=["resonance-on-n", "concurrence-of-3-qubits", "inversion-of-Sz", "polarization-of-Sz",
        "unknown-fit-observable"])
def test_a_metric_the_run_cannot_compute_is_exit_2_before_the_sweep(preset, change, message,
                                                                    tmp_path, capsys):
    raw = get_preset(preset)
    raw["outputs"].update(change)
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_unknown_config_name_is_exit_2():
    proc = run_cli("run", "--config", "definitely-not-a-preset")
    assert proc.returncode == 2
    assert "neither a file nor a preset" in proc.stderr


def test_run_writes_csv_and_manifest(tmp_path):
    path = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr

    csv_path = out / "tiny.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,Sz,Iz"
    assert len(lines) == 41

    manifest = json.loads((out / "tiny-manifest.json").read_text())
    assert len(manifest["config_hash"]) == 64
    assert manifest["axis"] == "n"
    assert manifest["metrics"]["f_tilde"] > 0.5
    entry = manifest["outputs"][0]
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert entry["sha256"] == digest
    assert entry["bytes"] == csv_path.stat().st_size


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--out", str(out)).returncode == 0
    first = (out / "tiny.csv").read_bytes()
    assert run_cli("run", "--config", str(path), "--out", str(out)).returncode == 0
    assert (out / "tiny.csv").read_bytes() == first


def test_dt_override_too_coarse_is_exit_3(tmp_path):
    path = write_config(tmp_path, SMALL)
    proc = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"),
                   "--dt", "0.02")
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr


@pytest.mark.parametrize("verb, preset", [("run", "ddgate"), ("errmap", "pulse-error-map")])
@pytest.mark.parametrize("dt", ["nan", "inf", "0", "-0.001"])
def test_dt_override_breaking_the_sim_dt_rule_is_exit_2(verb, preset, dt, tmp_path, capsys):
    raw = get_preset(preset)
    raw["sim"]["dt"] = float(dt)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(raw)
    (problem,) = [p for p in info.value.problems if p.startswith("sim.dt: ")]
    out = tmp_path / "o"
    assert main([verb, "--config", preset, "--out", str(out), "--dt", dt]) == 2
    assert problem.replace("sim.dt: ", "--dt: ") in capsys.readouterr().err
    assert not out.exists()  # checked before any sweep


def test_errmap_single_cell_matches_direct_sweep(tmp_path):
    raw = dict(SMALL)
    raw["errmap"] = {"length_factors": [1.1], "freq_factors": [1.0]}
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    proc = run_cli("errmap", "--config", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr

    rows = (out / "tiny-errmap.csv").read_text().splitlines()
    assert rows[0] == "length_factor,1"
    lf, value = rows[1].split(",")
    assert float(lf) == 1.1

    cfg = ExperimentConfig.from_dict(raw)
    system = cfg.build_system()
    sweep = sweep_n(system, "cpmg", cfg.sweep_values(), 0.5, cfg.build_pulse(),
                    cfg.sim_config(), length_factor=1.1)
    f_tilde, _ = pseudo_fidelity(sweep, "Iz", (-0.5, 0.5))
    assert float(value) == pytest.approx(f_tilde, abs=1e-9)

    manifest = json.loads((out / "tiny-manifest.json").read_text())
    assert manifest["extras"]["rows"] == 1 and manifest["extras"]["cols"] == 1
    assert manifest["extras"]["failed_cells"] == 0


def test_errmap_failed_cell_marked_nan(tmp_path):
    raw = dict(SMALL)
    # sweep too short for a full oscillation: the fit fails, the cell is nan
    raw["sequence"] = dict(SMALL["sequence"], n_range=[1, 6])
    raw["errmap"] = {"length_factors": [1.0], "freq_factors": [1.0]}
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    proc = run_cli("errmap", "--config", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "tiny-errmap.csv").read_text().splitlines()
    assert rows[1].split(",")[1] == "nan"
    manifest = json.loads((out / "tiny-manifest.json").read_text())
    assert manifest["extras"]["failed_cells"] == 1

    # the manifest names the cell and the error its fit raised
    cfg = ExperimentConfig.from_dict(raw)
    sweep = sweep_n(cfg.build_system(), "cpmg", cfg.sweep_values(), 0.5, cfg.build_pulse(),
                    cfg.sim_config())
    with pytest.raises(ValueError) as exc:
        pseudo_fidelity(sweep, "Iz", (-0.5, 0.5))
    assert manifest["extras"]["failed_cell_causes"] == [
        {"length_factor": 1.0, "freq_factor": 1.0, "error": "ValueError",
         "message": str(exc.value)},
    ]


def test_dt_override_is_recorded_in_the_manifest(tmp_path):
    path = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(path), "--out", str(out), "--dt", "0.0005")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "tiny-manifest.json").read_text())
    assert manifest["effective"] == {"dt": 0.0005}
    # the hash stays the hash of the config, which does not change
    assert manifest["config_hash"] == ExperimentConfig.from_dict(SMALL).config_hash()


def test_run_preset_by_name(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--config", "ddgate", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "ddgate-manifest.json").read_text())
    assert manifest["metrics"]["f_tilde"] == pytest.approx(0.9886, abs=2e-3)
    assert manifest["metrics"]["n_pi"] == pytest.approx(19.93, abs=0.15)
