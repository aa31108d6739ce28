import copy
import json
import hashlib
import math
import subprocess
import sys
import warnings

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


def test_list_presets_names_everything(capsys):
    # one line per preset, sorted by name, each ending in its description
    assert main(["list-presets"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 10
    assert [line.split()[0] for line in lines] == sorted(PRESETS)
    for line in lines:
        assert line.endswith(f" {PRESETS[line.split()[0]]['description']}")


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, spindd.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_sweep_leaves_numpy_polynomial_unloaded():
    # nor numpy.ma, which a bare np.unique imports
    code = ("import sys, spindd.runner\n"
            "from spindd.evolution import sweep_n, sweep_tau\n"
            "from spindd.hamiltonians import (DrivePulse, GenericSystemParams, TargetParams,\n"
            "                                 generic_system)\n"
            "from spindd.sequences import SimConfig\n"
            "system = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, 0.2),)))\n"
            "pulse, cfg = DrivePulse(5.0, 50.0, 0.0, 0.1), SimConfig(dt=0.001)\n"
            "sweep_n(system, 'xyn', [1, 2], 0.5, pulse, cfg)\n"
            "sweep_tau(system, 'xyn', 4, [0.5, 0.4937], pulse, cfg)\n"
            "print(sorted({'numpy.polynomial', 'numpy.ma'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


# sha256 of every CSV the presets write, recorded with numpy 2.4.6 on
# OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, x86_64); another BLAS
# build may round a product differently and move these
PRESET_CSV_SHA256 = {
    "coupling-scaling-azx0.05.csv":
        "109c9be9fe17abf176b7a55ade0e35a96f66dc0f2be767f4da34b336f2418dcf",
    "coupling-scaling-azx0.1.csv":
        "a42a7d6b49b85a765b2c495389ce123783e6ffa708dffbb1f095aa29c27e7e7d",
    "coupling-scaling-azx0.15.csv":
        "ab923e5f27c0c175c7d963811a098fa3fe8a08c933497e8b89707d61b28db4d6",
    "coupling-scaling-azx0.2.csv":
        "52cf827743ad059e4375ffc674fa899e2037441e2c98be9feaac1bd51483a372",
    "coupling-scaling-azx0.25.csv":
        "0157d1b64ab11154d32068f7f72e4107e03aed022b36bee9503d571f5c75c0ed",
    "coupling-scaling-azx0.35.csv":
        "68aeb691a1e35d3ae16af49e33c33fd70e0f82455806334f77946e9d97adba12",
    "cpmg-spectrum.csv": "6a1fb41c679c97b7d12ae62c54e379044fadbf37a510c355d83ad38b1d8eec38",
    "ddgate-tomo.csv": "9b51a18b22ecc932136e408cda5f845592ebe8f4b45c5f62d16728eced978e6e",
    "ddgate.csv": "9b51a18b22ecc932136e408cda5f845592ebe8f4b45c5f62d16728eced978e6e",
    "gate-resonance.csv": "3f2839a3d0421933845782fbf3d7c57f9c62ff6cbe4c5df613ef9681c1cda98f",
    "nv-ddgate.csv": "600d498a9ca8ed548c90be70df6ba0785c7f6df3221fcd6ded2363cc3785e2c6",
    "nv-polarize.csv": "35af8948a34d1df85c5ad2608806758f7e1142d63983a13905ca7771a65a850f",
    "nv-xyn-spectrum.csv": "aea7e732c629d13741906bd078c454b27737e11fe13e022335f051326dfd8748",
    "pulse-error-map-errmap.csv":
        "c56c519079f4c6036f27d30bf17f9a8e75f78ffffe9e3cdea14612c83154c276",
    "three-qubit-q1.csv": "3a139c8a80c453e470e5437a087a6f3c60a3bcb394249fd373359c7c86d8b8b4",
    "three-qubit-q2.csv": "92d249965a855301e4393e4030fffa77d2ad5ed40195ad4595912a1f019adeb3",
}


def test_every_preset_csv_is_byte_pinned(tmp_path):
    """Every preset's CSVs, byte for byte: an engine change that reorders
    floating-point work shows here before it reaches a golden tolerance."""
    digests = {}
    for name in sorted(PRESETS):
        run = errmap_experiment if name == "pulse-error-map" else run_experiment
        manifest = run(ExperimentConfig.from_dict(get_preset(name)), tmp_path / name)
        for entry in manifest["outputs"]:
            path = tmp_path / name / entry["path"]
            digests[entry["path"]] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PRESET_CSV_SHA256


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
    ("coupling-scaling", {"metrics": ["polarization"], "fit_observable": "Sz"},
     "outputs.metrics: a coupling_scan computes only pseudo-fidelity"),
], ids=["resonance-on-n", "concurrence-of-3-qubits", "inversion-of-Sz", "polarization-of-Sz",
        "unknown-fit-observable", "polarization-in-a-coupling-scan"])
def test_a_metric_the_run_cannot_compute_is_exit_2_before_the_sweep(preset, change, message,
                                                                    tmp_path, capsys):
    raw = get_preset(preset)
    raw["outputs"].update(change)
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("verb", ["run", "errmap"])
def test_an_unknown_observable_is_exit_2_before_the_sweep(verb, tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    raw["outputs"]["observables"] = ["Jz"]
    raw["errmap"] = {"length_factors": [1.0], "freq_factors": [1.0]}
    out = tmp_path / "out"
    assert main([verb, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert "outputs.observables: unknown ['Jz']" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))
    assert not out.exists()


@pytest.mark.parametrize("n_range", [[40, 1], [40.0, 1.0]], ids=["ints", "floats"])
def test_an_n_range_upper_bound_below_its_lower_is_exit_2(n_range, tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    raw["sequence"]["n_range"] = n_range
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert "sequence.n_range: upper bound below lower bound" in capsys.readouterr().err
    assert not out.exists()


def test_the_listed_observables_are_the_csv_columns(tmp_path):
    raw = copy.deepcopy(SMALL)
    raw["outputs"]["observables"] = ["Iz"]
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
    assert (out / "tiny.csv").read_text().splitlines()[0] == "n,Iz"


def test_the_fit_observable_defaults_to_the_last_observable(tmp_path):
    raw = get_preset("ddgate")
    assert raw["outputs"]["fit_observable"] == "Iz"
    named = run_experiment(ExperimentConfig.from_dict(raw), tmp_path / "named")
    del raw["outputs"]["fit_observable"]
    default = run_experiment(ExperimentConfig.from_dict(raw), tmp_path / "default")
    assert default["metrics"] == named["metrics"]
    assert default["metrics"]["n_pi"] == pytest.approx(19.9068, abs=1e-4)


def test_errmap_without_a_grid_is_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["errmap", "--config", "ddgate", "--out", str(out)]) == 2
    assert "errmap: config has no errmap section" in capsys.readouterr().err
    assert not out.exists()


def test_a_coupling_tensor_runs_as_its_azx(tmp_path):
    raw = get_preset("ddgate")
    scalar = run_experiment(ExperimentConfig.from_dict(raw), tmp_path / "azx")
    raw["system"]["targets"] = [{"omega0": 1.0, "coupling": [[0, 0, 0], [0, 0, 0], [0.2, 0, 0]]}]
    tensor = run_experiment(ExperimentConfig.from_dict(raw), tmp_path / "tensor")
    written = [(tmp_path / run / "ddgate.csv").read_bytes() for run in ("azx", "tensor")]
    assert written[0] == written[1]
    assert (tensor["metrics"], tensor["extras"]) == (scalar["metrics"], scalar["extras"])


def test_the_gate_metrics_share_one_fit(monkeypatch, tmp_path):
    calls = []

    def counted(*args):
        calls.append(args)
        return pseudo_fidelity(*args)

    monkeypatch.setattr("spindd.runner.pseudo_fidelity", counted)
    raw = get_preset("ddgate-tomo")
    raw["outputs"]["metrics"] = ["inversion-fidelity", "concurrence", "pseudo-fidelity"]
    manifest = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    assert len(calls) == 1
    # the order the metrics are listed in does not change what they report
    preset = run_experiment(ExperimentConfig.from_dict(get_preset("ddgate-tomo")), tmp_path / "p")
    assert (manifest["metrics"], manifest["extras"]) == (preset["metrics"], preset["extras"])


def too_long_n_range(raw):
    raw["sequence"]["n_range"] = [1, 40, 1, 1]
    return raw


def no_omega00(raw):
    del raw["system"]["omega00"]
    return raw


def nv_without_b0(raw):
    raw["system"] = {"model": "nv"}
    return raw


def tau_sweep_without_n(raw):
    del raw["sequence"]["tau"], raw["sequence"]["n_range"], raw["outputs"]
    raw["sequence"]["tau_range"] = [0.3, 0.5, 3]
    return raw


def no_azx(raw):
    del raw["system"]["targets"][0]["azx"]
    return raw


def azx_zero_hash():
    raw = copy.deepcopy(SMALL)
    raw["system"]["targets"][0]["azx"] = 0.0
    return ExperimentConfig.from_dict(raw).config_hash()


@pytest.mark.parametrize("change, code, line", [
    (too_long_n_range, 2, "sequence.n_range: [1, 40, 1, 1] is too long"),
    (no_omega00, 2, "system.omega00: required for the generic model"),
    (nv_without_b0, 2, "system.b0: required for the nv model"),
    (tau_sweep_without_n, 2, "sequence.n: required for a tau_range sweep"),
    (lambda raw: [raw], 2, "<root>: expected a mapping"),
    (None, 2, "--config: 'no-such-preset' is neither a file nor a preset name"),
    # a generic target with neither azx nor coupling is an uncoupled one
    (no_azx, 0, f"OK tiny {azx_zero_hash()}"),
], ids=["too-long", "omega00", "b0", "n", "root", "unknown-name", "azx-default"])
def test_validate_prints_each_rule_s_outcome(change, code, line, tmp_path, capsys):
    spec = ("no-such-preset" if change is None
            else str(write_config(tmp_path, change(copy.deepcopy(SMALL)))))
    assert main(["validate", "--config", spec]) == code
    out, err = capsys.readouterr()
    assert (line if code == 0 else f"  - {line}") in (out if code == 0 else err).splitlines()


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


def test_an_overflowing_step_bound_is_exit_3_not_a_hang(tmp_path):
    raw = get_preset("nv-polarize")
    raw["sequence"]["omega1"] = 1e12
    path = write_config(tmp_path, raw)
    proc = subprocess.run([sys.executable, "-m", "spindd.cli", "run", "--config", str(path),
                           "--out", str(tmp_path / "o")], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3
    assert "Chebyshev step bound 2 y^K / K! overflows at y = pi dt omega1" in proc.stderr
    assert "lower omega1 or dt" in proc.stderr


def test_a_free_phase_that_overflows_is_exit_3_naming_its_delay(tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    raw["sequence"] = {"family": "cpmg", "n": 2, "tau_range": [1.5e306, 1.6e306, 2], "t_pi": 0.1}
    raw["outputs"] = {}
    path = write_config(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    # the inner gap of the first tau, after its opening gap and first pi pulse
    assert ("numeric failure: free evolution phase of the delay of 1.5e+306 is not finite"
            in capsys.readouterr().err)


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("omega00", [0.0, -50.0])
def test_a_defaulted_carrier_breaking_its_rule_is_exit_2(verb, omega00, tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    raw["system"]["omega00"] = omega00
    path = write_config(tmp_path, raw)
    out = ["--out", str(tmp_path / "o")] if verb == "run" else []
    assert main([verb, "--config", str(path), *out]) == 2
    assert (f"sequence.carrier: {omega00!r} is less than or equal to the minimum of 0 "
            f"(its default, system.omega00)" in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()
    raw["sequence"]["carrier"] = 50.0  # only the default is read off omega00
    assert main(["validate", "--config", str(write_config(tmp_path, raw))]) == 0


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


@pytest.mark.parametrize("metrics", [["inversion-fidelity", "concurrence"], ["polarization"]])
def test_an_errmap_computing_another_metric_is_exit_2(metrics, tmp_path, capsys):
    raw = get_preset("pulse-error-map")
    raw["outputs"].update(metrics=["pseudo-fidelity"], fit_observable="Sz")
    raw["errmap"] = {"length_factors": [1.0], "freq_factors": [1.0]}
    ExperimentConfig.from_dict(raw)  # pseudo-fidelity is what an errmap computes
    raw["outputs"]["metrics"] = metrics
    out = tmp_path / "out"
    assert main(["errmap", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert "outputs.metrics: an errmap computes only pseudo-fidelity" in capsys.readouterr().err
    assert not out.exists()


def test_a_grid_on_which_a_trial_period_aliases_still_fits(tmp_path):
    # T = 3 divides every N of 3, 6, ..., 60, so the fit skips that trial period
    raw = get_preset("ddgate")
    raw["sequence"]["n_range"] = [3, 60, 3]
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
    manifest = json.loads((out / "ddgate-manifest.json").read_text())
    assert manifest["metrics"]["n_pi"] == pytest.approx(19.9, abs=0.1)


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
