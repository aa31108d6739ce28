import copy
import json
import hashlib
import math
import random
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
from spindd import runner
from spindd.runner import errmap_experiment, run_experiment
from spindd.sequences import DRIVE_NORMS


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
        "d2c71faaed13e337fc031d7e3407f490982f48876c391fabbf508a8130a5afb3",
    "coupling-scaling-azx0.1.csv":
        "c6ebc957295da53cdd8f5ae01c49370e65461726a446bab984d6c430bd236502",
    "coupling-scaling-azx0.15.csv":
        "ea5d8cebd098b9d0c288f7103143ac00be5f5eec8e140ca12131ae661782d359",
    "coupling-scaling-azx0.2.csv":
        "677f3de244a2196898598e9322705fdf295ec87d64179db2e479eb7fc96aea29",
    "coupling-scaling-azx0.25.csv":
        "ae4aed0bc4c96c669e26ce5eab6072135e91139868ac1ebe45a61b863291de52",
    "coupling-scaling-azx0.35.csv":
        "e77e80a711fb587fcd323d888585814776a754c34361d05df98c75c55e03412a",
    "cpmg-spectrum.csv": "8718f37dff80405deee29c8507a67d84f4b0860415f2f97d5caf9d999adbc89a",
    "ddgate-tomo.csv": "9b51a18b22ecc932136e408cda5f845592ebe8f4b45c5f62d16728eced978e6e",
    "ddgate.csv": "9b51a18b22ecc932136e408cda5f845592ebe8f4b45c5f62d16728eced978e6e",
    "gate-resonance.csv": "4a39ecb6bedd1d8358fdbde47e4952d88585de036add5074e8306cc7f8c862bf",
    "nv-ddgate.csv": "a766a8350d0b29999e36cf322dff586b5f7eaabcb8a4919fd6b999e9b5c20c5e",
    "nv-polarize.csv": "10d55481c5c9ba732d3a4ef5281dad8f75c7944df8905642fec67a183120c630",
    "nv-xyn-spectrum.csv": "f82f2c654d24a2c855b82c88140350cef15c0218a2dd7ec5e2810806c4e6f7dc",
    "pulse-error-map-errmap.csv":
        "0e489b747dfb43f701ea61a3db08cc03a08f44f888b5d4380118fd2d4984d430",
    "three-qubit-q1.csv": "8280bbcae5585d939bcf51717071cd0870bb4e0fc06411289345192a3f82a7ee",
    "three-qubit-q2.csv": "13094e8f2ac099157374307c76bf995d3e1b4a49070524d82a194f05e0b5ad83",
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
    # validate and run both exit 2, and print the same problem lines
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert message in err
    assert not list(out.glob("*.csv"))


def verb_args(verb, path, out):
    return [verb, "--config", str(path)] + ([] if verb == "validate" else ["--out", str(out)])


@pytest.mark.parametrize("verb", ["run", "errmap", "validate"])
def test_an_unknown_observable_is_exit_2_before_the_sweep(verb, tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    raw["outputs"]["observables"] = ["Jz"]
    raw["errmap"] = {"length_factors": [1.0], "freq_factors": [1.0]}
    out = tmp_path / "out"
    assert main(verb_args(verb, write_config(tmp_path, raw), out)) == 2
    assert "  - outputs.observables: unknown ['Jz']; have ['Sz', 'Iz']" in (
        capsys.readouterr().err.splitlines())
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


def test_a_coupling_scan_is_fitted_in_one_call(monkeypatch, tmp_path):
    calls, stacked = [], runner.pseudo_fidelities

    def counted(n, ys, value_range):
        calls.append(len(ys))
        return stacked(n, ys, value_range)

    def refuse(*args):
        raise AssertionError("a scan fits its traces one by one")

    monkeypatch.setattr(runner, "pseudo_fidelities", counted)
    monkeypatch.setattr(runner, "pseudo_fidelity", refuse)
    run_experiment(ExperimentConfig.from_dict(get_preset("coupling-scaling")), tmp_path)
    assert calls == [6]


def test_a_coupling_scan_raises_its_first_failed_fit_before_any_csv(tmp_path):
    # azx 0.01 and 0.005 each invert far beyond N = 40; the first in scan order is raised
    raw = get_preset("coupling-scaling")
    raw["sequence"]["n_range"] = [1, 40]
    raw["coupling_scan"] = [0.2, 0.01, 0.005]
    cfg = ExperimentConfig.from_dict(raw)
    sweep = runner._run_sweep(cfg, cfg.build_system(azx_override=0.01), cfg.build_pulse(),
                              cfg.sim_config())
    with pytest.raises(ValueError) as alone:
        pseudo_fidelity(sweep, "Iz", (-0.5, 0.5))
    with pytest.raises(ValueError) as scanned:
        run_experiment(cfg, tmp_path / "out")
    assert str(scanned.value) == str(alone.value)
    assert "does not contain a full oscillation" in str(alone.value)
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("omega1, dt, line", [
    (1e12, None, "sequence.omega1: Chebyshev step bound 2 y^K / K! overflows at y = pi dt omega1 "
                 "|drive_op|_2 = 1.57693e+08; lower omega1 or dt"),
    # y = 628 passes the step bound; the pi pulse's phase series cannot resolve a = 8.1e18
    (1e20, 1e-18, "sequence.omega1: no phase sample count meets the bound at a = pi nsteps dt "
                  "omega1 |drive_op|_2 = 8.07389e+18; lower omega1 or the pulse duration"),
], ids=["step-bound", "phase-count"])
def test_an_overflowing_step_bound_is_exit_2_from_both_verbs(omega1, dt, line, tmp_path, capsys,
                                                            monkeypatch):
    refuse_to_sweep(monkeypatch)
    raw = get_preset("nv-polarize")
    raw["sequence"]["omega1"] = omega1
    if dt is not None:
        raw["sim"]["dt"] = dt
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid config:", f"  - {line}"]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


def test_each_model_drives_with_the_norm_its_step_rule_reads():
    for preset in ("ddgate", "three-qubit-q1", "nv-polarize"):
        raw = get_preset(preset)
        drive = ExperimentConfig.from_dict(raw).build_system().drive_op.mat
        assert np.linalg.norm(drive, 2) == DRIVE_NORMS[raw["system"]["model"]]


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
    assert manifest["effective"] == {"dt": 0.0005, "numpy": np.__version__, "python": PYTHON}
    # the hash stays the hash of the config, which does not change
    assert manifest["config_hash"] == ExperimentConfig.from_dict(SMALL).config_hash()


PYTHON = ".".join(map(str, sys.version_info[:3]))


def test_the_manifest_records_the_numeric_stack_and_reruns_write_the_same_bytes(tmp_path):
    # the byte pins belong to a numpy and Python build, so the manifest names both
    manifests = []
    for side in ("first", "second"):
        assert main(["run", "--config", "ddgate", "--out", str(tmp_path / side)]) == 0
        manifests.append(json.loads((tmp_path / side / "ddgate-manifest.json").read_text()))
    first, second = manifests
    assert first["effective"] == {"dt": 0.001, "numpy": np.__version__, "python": PYTHON}
    assert second["effective"] == first["effective"]
    assert [entry["sha256"] for entry in second["outputs"]] == \
        [entry["sha256"] for entry in first["outputs"]]
    assert (tmp_path / "first" / "ddgate.csv").read_bytes() == \
        (tmp_path / "second" / "ddgate.csv").read_bytes()


def test_run_preset_by_name(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--config", "ddgate", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "ddgate-manifest.json").read_text())
    assert manifest["metrics"]["f_tilde"] == pytest.approx(0.9886, abs=2e-3)
    assert manifest["metrics"]["n_pi"] == pytest.approx(19.93, abs=0.15)


# ---------------------------------------------------------------- one home for config rules

class Swept(Exception):
    """Raised in place of a sweep: the run passed every check before it."""


def refuse_to_sweep(monkeypatch):
    def swept(*args, **kwargs):
        raise Swept

    for name in ("_run_sweep", "sweep_n_cells"):
        monkeypatch.setattr(runner, name, swept)


def outputs_faults(raw, system) -> set:
    """The outputs faults of ``raw`` as the built ``system`` decides them:
    its observables, their sites and its register's dims."""
    outputs, faults = raw["outputs"], set()
    labels = [obs.label for obs in system.observables]
    metrics = outputs.get("metrics", [])
    if "resonance" in metrics:  # every base config is an N sweep
        faults.add("outputs.metrics: resonance needs a tau_range sweep")
    missing = [label for label in outputs.get("observables", []) if label not in labels]
    if missing:
        faults.add(f"outputs.observables: unknown {missing}; have {labels}")
    fit = outputs.get("fit_observable", labels[-1])
    obs = next((o for o in system.observables if o.label == fit), None)
    if obs is None:
        faults.add(f"outputs.fit_observable: unknown {fit!r}")
    elif obs.site is None and {"inversion-fidelity", "polarization"} & set(metrics):
        faults.add(f"outputs.fit_observable: {fit!r} is not a target observable")
    if "concurrence" in metrics and system.dims != (2, 2):
        faults.add("outputs.metrics: concurrence needs a two-qubit register")
    return faults


def mutate_outputs(outputs, rng):
    """Replace or drop one to three entries of an ``outputs`` section."""
    labels = ["Sz", "Iz", "Iz1", "Iz2", "Jz"]
    metrics = ["resonance", "pseudo-fidelity", "inversion-fidelity", "concurrence",
               "polarization"]
    choices = {
        "observables": lambda: rng.choice([None, rng.sample(labels, rng.randint(1, 3))]),
        "fit_observable": lambda: rng.choice([None, *labels]),
        "metrics": lambda: [rng.choice(metrics) for _ in range(rng.randint(0, 3))],
    }
    for key in rng.sample(list(choices), rng.randint(1, 3)):
        value = None if rng.random() < 0.2 else choices[key]()
        if value is None:  # a drawn None asks for the default: the key is left out
            outputs.pop(key, None)
        else:
            outputs[key] = value


def test_validate_exits_2_exactly_where_run_does_listing_every_outputs_fault(
        tmp_path, capsys, monkeypatch):
    refuse_to_sweep(monkeypatch)
    rng = random.Random(28)
    bases = {name: get_preset(name) for name in ("ddgate", "three-qubit-q1", "nv-polarize")}
    systems = {name: ExperimentConfig.from_dict(raw).build_system() for name, raw in bases.items()}
    several = refused = 0
    for k in range(120):
        name = rng.choice(sorted(bases))
        raw = copy.deepcopy(bases[name])
        mutate_outputs(raw["outputs"], rng)
        path = write_config(tmp_path, raw, f"cfg{k}.yaml")
        faults = outputs_faults(raw, systems[name])
        code = main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == (2 if faults else 0), raw
        assert {line[4:] for line in err.splitlines()[1:]} == faults, raw
        try:
            ran = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        except Swept:
            ran = "swept"
        assert ran == (2 if faults else "swept"), raw
        assert capsys.readouterr().err == err
        several += len(faults) > 1
        refused += bool(faults)
    assert not (tmp_path / "out").exists()
    assert several >= 15 and 40 <= refused <= 100


@pytest.mark.parametrize("name", ["../escape", "a/b", "a\\b", "", ".", ".."])
def test_a_name_that_is_not_a_file_name_is_exit_2_from_both_verbs(name, tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    raw["name"] = name
    path = write_config(tmp_path, raw)
    out = tmp_path / "runs" / "out"
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"  - name: {name!r} cannot name a file under --out" in err.splitlines()
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("verb, config", [("run", "ddgate"), ("errmap", "pulse-error-map")])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_an_out_that_cannot_be_a_directory_is_exit_2_before_the_sweep(
        verb, config, under, tmp_path, capsys, monkeypatch):
    refuse_to_sweep(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "out" if under else taken
    assert main([verb, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid config:", f"  - --out: {str(taken)!r} is not a directory"]
    assert taken.read_text() == ""


@pytest.mark.parametrize("scan", [[0.2, 0.2000001, 0.35], [0.2, 0.35, 0.2]],
                         ids=["same-label", "repeated"])
def test_coupling_scan_labels_that_collide_are_exit_2_from_both_verbs(scan, tmp_path, capsys):
    # each coupling's CSV and gate time are named by f"{azx:g}"; 0.2000001 prints as 0.2
    raw = get_preset("coupling-scaling")
    raw["coupling_scan"] = scan
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert ("  - coupling_scan: couplings share the labels ['0.2'] that name their CSVs and "
            "gate times") in err.splitlines()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


def test_a_config_that_sets_the_retired_carrier_reset_is_exit_2_from_both_verbs(tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    raw["sim"]["carrier_reset"] = False
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "invalid config:",
        "  - sim: Additional properties are not allowed ('carrier_reset' was unexpected)"]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("section, change, line", [
    ("sequence", {"length_factor": 1.1},
     "sequence: Additional properties are not allowed ('length_factor' was unexpected)"),
    ("sequence", {"freq_factor": 0.99},
     "sequence: Additional properties are not allowed ('freq_factor' was unexpected)"),
    ("sequence", {"wrapper_phase": None}, "sequence.wrapper_phase: None is not of type 'number'"),
    ("sequence", {"closing_rule": None},
     "sequence.closing_rule: None is not one of ['plain', 'xy8-parity']"),
    ("outputs", {"observables": None}, "outputs.observables: None is not of type 'array'"),
    ("outputs", {"fit_observable": None}, "outputs.fit_observable: None is not of type 'string'"),
], ids=["length-factor", "freq-factor", "null-wrapper", "null-closing", "null-observables",
        "null-fit-observable"])
def test_a_retired_input_is_exit_2_from_both_verbs(section, change, line, tmp_path, capsys):
    # the error factors live only in an errmap grid, and a default is asked for by leaving
    # its field out
    raw = copy.deepcopy(SMALL)
    raw[section].update(change)
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid config:", f"  - {line}"]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, preset, section, value, line", [
    ("run", "ddgate", "n_range", [1, 5], "sequence.n_range: 5 points; a fit needs 6"),
    ("run", "ddgate", "n_range", [1, 40, 10], "sequence.n_range: 4 points; a fit needs 6"),
    ("run", "coupling-scaling", "n_range", [1, 5],
     "sequence.n_range: 5 points; a fit needs 6"),
    ("errmap", "pulse-error-map", "n_range", [1, 5],
     "sequence.n_range: 5 points; a fit needs 6"),
    ("run", "gate-resonance", "tau_range", [0.4, 0.6, 2],
     "sequence.tau_range: 2 points; resonance needs 3"),
], ids=["ddgate-5", "ddgate-step-10", "coupling-scan-5", "errmap-5", "resonance-2"])
def test_a_sweep_too_short_for_its_fit_is_exit_2_from_both_verbs(
        verb, preset, section, value, line, tmp_path, capsys, monkeypatch):
    refuse_to_sweep(monkeypatch)
    raw = get_preset(preset)
    raw["sequence"][section] = value
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid config:", f"  - {line}"]
    assert main([verb, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, section, value", [
    ("ddgate", "n_range", [1, 6]), ("ddgate", "n_range", [1, 51, 10]),
    ("nv-polarize", "n_range", [1, 3]), ("gate-resonance", "tau_range", [0.4, 0.6, 3]),
], ids=["ddgate-6", "ddgate-step-10", "polarization-3", "resonance-3"])
def test_a_sweep_long_enough_for_its_metrics_validates(preset, section, value, tmp_path, capsys):
    # polarization reads its peak off the trace and fits nothing
    raw = get_preset(preset)
    raw["sequence"][section] = value
    assert main(["validate", "--config", str(write_config(tmp_path, raw))]) == 0
    assert capsys.readouterr().out.startswith(f"OK {preset} ")


@pytest.mark.parametrize("verb, preset, section, key, value, line", [
    ("run", "ddgate", "sim", "dt", 0.037,
     "sim.dt: dt=0.037 too coarse for pi duration 0.1: need dt <= t_pi/20"),
    ("run", "ddgate", "sequence", "t_pi", 7.0,
     "sequence.tau: opening gap is negative (-5): tau=0.5 too short for pulse length 7.0"),
    # only the 3 pi/2 closer of N = 2, 3, 6, 7, ... leaves too short a closing gap
    ("errmap", "pulse-error-map", "sequence", "t_pi", 0.25,
     "sequence.tau: closing gap is negative (-0.0625): tau=0.5 too short for pulse length 0.25"),
    ("run", "gate-resonance", "sequence", "tau_range", [0.1, 0.6, 101],
     "sequence.tau_range: opening gap is negative (-0.025): tau=0.1 too short for pulse "
     "length 0.1"),
], ids=["ddgate-dt", "ddgate-t-pi", "errmap-closing-class", "smallest-tau"])
def test_a_nominal_timing_fault_is_exit_2_from_both_verbs(
        verb, preset, section, key, value, line, tmp_path, capsys, monkeypatch):
    refuse_to_sweep(monkeypatch)
    raw = get_preset(preset)
    raw[section][key] = value
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid config:", f"  - {line}"]
    assert main([verb, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


def test_an_errmap_cell_that_breaks_a_timing_rule_by_its_length_factor_is_nan(tmp_path, capsys):
    raw = copy.deepcopy(SMALL)
    # 0.3 t_pi is under 20 steps of dt; 3.5 t_pi no longer fits into tau
    raw["errmap"] = {"length_factors": [0.3, 1.0, 3.5], "freq_factors": [1.0]}
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["errmap", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "tiny-manifest.json").read_text())
    causes = [(cause["length_factor"], cause["message"])
              for cause in manifest["extras"]["failed_cell_causes"]]
    assert causes == [
        (0.3, "dt=0.002 too coarse for pi duration 0.03: need dt <= t_pi/20"),
        (3.5, "opening gap is negative (-0.0125): tau=0.5 too short for pulse length "
              f"{0.1 * 3.5}"),
    ]
