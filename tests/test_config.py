import copy
import math
import random

import numpy as np
import pytest
import yaml

from spindd import config
from spindd.config import SCHEMA, ConfigError, ExperimentConfig, _schema_problems
from spindd.presets import PRESETS, get_preset, list_presets
from spindd.sequences import DrivePulse


def minimal(**overrides):
    raw = {
        "system": {"model": "generic", "omega00": 50.0,
                   "targets": [{"omega0": 1.0, "azx": 0.1}]},
        "sequence": {"family": "cpmg", "tau": 0.5, "n_range": [1, 20], "t_pi": 0.1},
        "sim": {"dt": 0.001},
    }
    for key, value in overrides.items():
        raw[key] = value
    return raw


def nv_minimal():
    return {
        "system": {"model": "nv", "b0": 32.0, "theta0_deg": 2.9},
        "initial_state": "mixed-target",
        "sequence": {"family": "xyn", "n": 8, "tau_range": [0.3, 0.4, 11],
                     "t_pi": 0.01285, "omega1": 27.5683, "carrier": 1975.6682},
        "sim": {"dt": 0.01285 / 512},
    }


def test_round_trip_dict_is_stable():
    cfg = ExperimentConfig.from_dict(minimal())
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert cfg.data == again.data
    assert cfg.config_hash() == again.config_hash()


def test_round_trip_through_yaml(tmp_path):
    cfg = ExperimentConfig.from_dict(minimal())
    path = tmp_path / "cfg.yaml"
    path.write_text(cfg.to_yaml())
    again = ExperimentConfig.from_yaml(path)
    assert again.config_hash() == cfg.config_hash()


def test_defaults_fill_in():
    cfg = ExperimentConfig.from_dict(minimal())
    seq = cfg.data["sequence"]
    # generic model: carrier tracks the central splitting, omega1 the pi time
    assert seq["carrier"] == 50.0
    assert seq["omega1"] == pytest.approx(5.0)
    # the error factors live only in an errmap grid
    assert "length_factor" not in seq and "freq_factor" not in seq
    # the generic model's y-axis wrapper phase and the CPMG family's closing rule
    assert seq["wrapper_phase"] == math.pi / 2 and seq["closing_rule"] == "plain"
    assert cfg.data["name"] == "run"
    assert cfg.data["initial_state"] == "polarized"
    assert cfg.data["sim"] == {"dt": 0.001}
    assert cfg.data["outputs"] == {"observables": ["Sz", "Iz"], "metrics": [],
                                   "fit_observable": "Iz"}
    nv = ExperimentConfig.from_dict(nv_minimal()).data
    assert nv["sequence"]["wrapper_phase"] == 3 * math.pi / 2
    assert nv["sequence"]["closing_rule"] == "xy8-parity"


def test_hash_ignores_default_spelling():
    explicit = minimal()
    explicit["sequence"]["carrier"] = 50.0
    explicit["sequence"]["omega1"] = 5.0
    explicit["name"] = "run"
    a = ExperimentConfig.from_dict(minimal())
    b = ExperimentConfig.from_dict(explicit)
    assert a.config_hash() == b.config_hash()

    # an integer spelled as a float, a number spelled as an int
    respelled = minimal()
    respelled["system"]["omega00"] = 50
    respelled["system"]["targets"][0]["omega0"] = 1
    respelled["sequence"]["n_range"] = [1.0, 20.0]
    assert ExperimentConfig.from_dict(respelled).config_hash() == a.config_hash()
    tau_sweep, respelled = nv_minimal(), nv_minimal()
    tau_sweep["sequence"]["tau_range"] = [1.0, 2.0, 11]
    respelled["system"]["b0"] = 32
    respelled["sequence"].update(n=8.0, tau_range=[1, 2, 11])
    assert (ExperimentConfig.from_dict(respelled).config_hash()
            == ExperimentConfig.from_dict(tau_sweep).config_hash())


def hash_of(raw):
    return ExperimentConfig.from_dict(raw).config_hash()


def with_changes(raw, **sections):
    """``raw`` with each section's entries updated (a new section where there is none)."""
    raw = copy.deepcopy(raw)
    for section, entries in sections.items():
        raw.setdefault(section, {}).update(entries)
    return raw


@pytest.mark.parametrize("base, sequence, outputs", [
    (minimal, {"wrapper_phase": math.pi / 2}, {}),
    (minimal, {"closing_rule": "plain"}, {}),
    (minimal, {}, {"observables": ["Sz", "Iz"], "fit_observable": "Iz"}),
    (nv_minimal, {"wrapper_phase": 3 * math.pi / 2, "closing_rule": "xy8-parity"}, {}),
    (nv_minimal, {}, {"observables": ["Sz", "Iz"], "fit_observable": "Iz"}),
], ids=["generic-wrapper", "cpmg-rule", "generic-outputs", "nv-sequence", "nv-outputs"])
def test_an_explicit_default_hashes_as_the_omitted_field(base, sequence, outputs):
    assert hash_of(with_changes(base(), sequence=sequence, outputs=outputs)) == hash_of(base())


def test_the_hash_ignores_the_description_and_the_metric_order():
    raw = minimal(description="one")
    assert hash_of(raw) == hash_of(minimal(description="two")) == hash_of(minimal())
    listed = with_changes(raw, outputs={"metrics": ["inversion-fidelity", "pseudo-fidelity"]})
    reordered = with_changes(raw, outputs={"metrics": ["pseudo-fidelity", "inversion-fidelity",
                                                       "pseudo-fidelity"]})
    assert hash_of(listed) == hash_of(reordered)
    assert ExperimentConfig.from_dict(reordered).data["outputs"]["metrics"] == [
        "pseudo-fidelity", "inversion-fidelity"]
    # what each field names still moves the hash
    assert hash_of(listed) != hash_of(with_changes(raw, outputs={"metrics": ["pseudo-fidelity"]}))
    assert hash_of(raw) != hash_of(with_changes(raw, sequence={"tau": 0.51}))
    assert hash_of(raw) != hash_of(with_changes(raw, sequence={"wrapper_phase": 0.0}))
    assert hash_of(raw) != hash_of(with_changes(raw, outputs={"fit_observable": "Sz"}))


def test_loaded_data_hold_no_null_default():
    for name in PRESETS:
        raw = get_preset(name)
        for section, key in [("sequence", "wrapper_phase"), ("sequence", "closing_rule"),
                             ("outputs", "observables"), ("outputs", "fit_observable")]:
            raw[section].pop(key, None)
        cfg = ExperimentConfig.from_dict(raw)
        seq, outputs = cfg.data["sequence"], cfg.data["outputs"]
        assert None not in (seq["wrapper_phase"], seq["closing_rule"], outputs["observables"],
                            outputs["fit_observable"]), name
        assert outputs["fit_observable"] == outputs["observables"][-1]
        preset = ExperimentConfig.from_dict(get_preset(name)).data  # sets only fit_observable
        assert seq == preset["sequence"]
        assert outputs["observables"] == preset["outputs"]["observables"]


def test_a_load_walks_the_schema_once(monkeypatch):
    walk, roots = config._walk, []

    def counted(value, schema, path, out):
        roots.extend([path] if schema is SCHEMA else [])
        return walk(value, schema, path, out)

    monkeypatch.setattr(config, "_walk", counted)
    for name in PRESETS:
        ExperimentConfig.from_dict(get_preset(name))
    assert roots == [()] * len(PRESETS)


def test_hash_changes_with_meaning():
    a = ExperimentConfig.from_dict(minimal())
    changed = minimal()
    changed["sequence"]["tau"] = 0.51
    b = ExperimentConfig.from_dict(changed)
    assert a.config_hash() != b.config_hash()


def test_exactly_one_sweep_axis():
    both = minimal()
    both["sequence"]["tau_range"] = [0.3, 0.6, 5]
    both["sequence"]["n"] = 4
    with pytest.raises(ConfigError, match="exactly one of n_range and tau_range"):
        ExperimentConfig.from_dict(both)
    neither = minimal()
    del neither["sequence"]["n_range"]
    neither["sequence"]["n"] = 4
    with pytest.raises(ConfigError, match="exactly one of n_range and tau_range"):
        ExperimentConfig.from_dict(neither)


def test_sweep_axis_fixed_value_required():
    raw = minimal()
    del raw["sequence"]["tau"]
    with pytest.raises(ConfigError, match="sequence.tau: required"):
        ExperimentConfig.from_dict(raw)


def test_conflicting_fixed_value_rejected():
    raw = minimal()
    raw["sequence"]["n"] = 3
    with pytest.raises(ConfigError, match="sequence.n: conflicts"):
        ExperimentConfig.from_dict(raw)


def test_tau_range_validation():
    raw = nv_minimal()
    raw["sequence"]["tau_range"] = [0.4, 0.3, 11]
    with pytest.raises(ConfigError, match="tau_range: upper bound not above lower bound"):
        ExperimentConfig.from_dict(raw)
    raw["sequence"]["tau_range"] = [0.3, 0.4, 11.5]
    with pytest.raises(ConfigError, match=r"tau_range.2: 11.5 is not of type 'integer'"):
        ExperimentConfig.from_dict(raw)
    raw["sequence"]["tau_range"] = [0.0, 0.4, 1]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.problems == [
        "sequence.tau_range.0: 0.0 is less than or equal to the minimum of 0",
        "sequence.tau_range.2: 1 is less than the minimum of 2"]
    # an integral float counts as integer points, as n: 8.0 does
    raw["sequence"]["tau_range"] = [0.3, 0.4, 11.0]
    tau_range = ExperimentConfig.from_dict(raw).data["sequence"]["tau_range"]
    assert tau_range == [0.3, 0.4, 11] and type(tau_range[2]) is int


def test_nv_requires_explicit_drive():
    raw = nv_minimal()
    del raw["sequence"]["carrier"]
    del raw["sequence"]["omega1"]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    joined = "\n".join(err.value.problems)
    assert "sequence.carrier" in joined and "sequence.omega1" in joined


def test_model_fields_do_not_mix():
    raw = minimal()
    raw["system"]["b0"] = 32.0
    with pytest.raises(ConfigError, match="system.b0: not a generic-model field"):
        ExperimentConfig.from_dict(raw)
    nv = nv_minimal()
    nv["system"]["targets"] = [{"omega0": 1.0}]
    with pytest.raises(ConfigError, match="system.targets: not an nv-model field"):
        ExperimentConfig.from_dict(nv)


def test_target_coupling_is_exclusive():
    raw = minimal()
    raw["system"]["targets"] = [{"omega0": 1.0, "azx": 0.1,
                                 "coupling": [[0.0] * 3] * 3}]
    with pytest.raises(ConfigError, match="either azx or coupling"):
        ExperimentConfig.from_dict(raw)


def test_errmap_needs_n_sweep():
    raw = nv_minimal()
    raw["errmap"] = {"length_factors": [1.0], "freq_factors": [1.0]}
    with pytest.raises(ConfigError, match="errmap: requires an n_range sweep"):
        ExperimentConfig.from_dict(raw)


def test_coupling_scan_needs_n_sweep():
    raw = minimal()
    del raw["sequence"]["tau"], raw["sequence"]["n_range"]
    raw["sequence"].update(n=4, tau_range=[0.4, 0.6, 11])
    raw["coupling_scan"] = [0.1, 0.2]
    with pytest.raises(ConfigError, match="coupling_scan: requires an n_range sweep"):
        ExperimentConfig.from_dict(raw)


def test_coupling_scan_restrictions():
    raw = minimal()
    raw["system"]["targets"].append({"omega0": 0.5, "azx": 0.1})
    raw["coupling_scan"] = [0.1, 0.2]
    with pytest.raises(ConfigError, match="single-target"):
        ExperimentConfig.from_dict(raw)


def test_coupling_scan_rejects_a_coupling_tensor():
    raw = minimal()
    raw["system"]["targets"] = [{"omega0": 1.0, "coupling": [[0, 0, 0], [0, 0, 0], [0.2, 0, 0]]}]
    ExperimentConfig.from_dict(raw)
    raw["coupling_scan"] = [0.1, 0.2]
    with pytest.raises(ConfigError, match="coupling_scan: incompatible with a full coupling tensor"):
        ExperimentConfig.from_dict(raw)


def test_error_reports_all_problems_with_paths():
    raw = minimal()
    del raw["sequence"]["tau"]
    raw["sequence"]["n"] = 0
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert any(p.startswith("sequence.n") for p in err.value.problems)


def test_unknown_key_rejected():
    raw = minimal()
    raw["sequence"]["taus"] = 0.5
    with pytest.raises(ConfigError, match="taus"):
        ExperimentConfig.from_dict(raw)


def test_from_yaml_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="<file>"):
        ExperimentConfig.from_yaml(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError, match="<yaml>"):
        ExperimentConfig.from_yaml(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        ExperimentConfig.from_yaml(empty)


def test_build_system_and_pulse():
    cfg = ExperimentConfig.from_dict(minimal())
    system = cfg.build_system()
    assert system.dims == (2, 2)
    assert [o.label for o in system.observables] == ["Sz", "Iz"]
    pulse = cfg.build_pulse()
    assert isinstance(pulse, DrivePulse)
    assert pulse.duration == 0.1 and pulse.omegap == 50.0
    stronger = cfg.build_system(azx_override=0.3)
    assert not np.allclose(stronger.h0.mat, system.h0.mat)


def test_sweep_values_n_and_tau():
    cfg = ExperimentConfig.from_dict(minimal())
    values = cfg.sweep_values()
    assert values.dtype.kind == "i"
    assert values[0] == 1 and values[-1] == 20 and len(values) == 20
    assert cfg.sweep_axis == "n"
    nv = ExperimentConfig.from_dict(nv_minimal())
    taus = nv.sweep_values()
    assert nv.sweep_axis == "tau"
    assert taus[0] == pytest.approx(0.3) and taus[-1] == pytest.approx(0.4)
    assert len(taus) == 11


def test_n_range_step():
    raw = minimal()
    raw["sequence"]["n_range"] = [2, 10, 2]
    cfg = ExperimentConfig.from_dict(raw)
    assert list(cfg.sweep_values()) == [2, 4, 6, 8, 10]


def test_sim_config_dt_override():
    cfg = ExperimentConfig.from_dict(minimal())
    assert cfg.sim_config().dt == 0.001
    assert cfg.sim_config(dt_override=0.0005).dt == 0.0005


def test_presets_all_validate():
    assert len(PRESETS) >= 10
    for name in PRESETS:
        cfg = ExperimentConfig.from_dict(get_preset(name))
        assert cfg.name == name


# canonical hashes of the presets; a normalization change that moves one
# must edit this table on purpose
PRESET_HASHES = {
    "coupling-scaling": "f5e126153b18a3991756d31a1dab0ba1752614fb88ddce6b7f67d4d1f4d24b1e",
    "cpmg-spectrum": "062c8915142ae9374c2399402929fe54cbee941c88c736af01cbff0641928acf",
    "ddgate": "d2146d4dd248f672b47d13c661dd6139f7903a586800b4a53ba393d9cc4028f4",
    "ddgate-tomo": "1a0c797a9698ee59d939deb90b049aa4654e9f8ad79839d990c67d8afa8194b1",
    "gate-resonance": "7d26a8410202bfa139fed105e74bc595df96615a4b99e097d4dbc7d03697c64f",
    "nv-ddgate": "185be1298d2c00659562629929551ac69bfc72febac0e7cc078ff8d9da78565a",
    "nv-polarize": "ff8bf60f7c095e2901ca7123a7384f61a64fb07d9a7154700dc3a660d20cf93b",
    "nv-xyn-spectrum": "3999a69bacb21bcf346f34666c31637bd2a990a40d3693d359bdcb2b87107e88",
    "pulse-error-map": "685573da5413098d7698c3336b9b2ee2cdee57183a66a09ed2fed84800d20f1e",
    "three-qubit-q1": "7aff2a5ed2751ec4f0011ca66ac1d690b7d1cfc9dc6ac98cd3c4dc2dbfcdda58",
    "three-qubit-q2": "1a5d441ed1ce001db13f731e732aed2e07d496d89b4565b12b0ff1b377776d50",
}


def test_preset_hashes_are_pinned():
    assert {name: ExperimentConfig.from_dict(get_preset(name)).config_hash()
            for name in PRESETS} == PRESET_HASHES


def test_preset_listing_sorted_with_descriptions():
    listing = list_presets()
    names = [name for name, _ in listing]
    assert names == sorted(names)
    assert all(desc for _, desc in listing)
    with pytest.raises(KeyError, match="unknown preset"):
        get_preset("nothere")


def test_get_preset_returns_copy():
    first = get_preset("ddgate")
    first["sequence"]["tau"] = 99.0
    assert get_preset("ddgate")["sequence"]["tau"] != 99.0


# ---------------------------------------------------------------- schema walker

# finite values only: unlike JSON Schema, the walker rejects nan and infinities
VALUES = [-2, -0.5, 0, 0.0, 1, 3, 2.0, 0.25, 1e3, True, False, None, "", "plain", "nv",
          "generic", "cpmg", "xyn", "Iz", "polarization", [], [1], [1, 2], [0.5, 1.0, 3],
          [1.0, 2.0, 3.0], [[0.0] * 3] * 3, {}, {"omega0": 1.0}, {"model": "generic"}]


def mutate(raw, rng):
    """Replace, delete or add one entry somewhere in ``raw``."""
    node = raw
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = rng.choice(keys)
        if not isinstance(node[key], (dict, list)) or rng.random() < 0.4:
            break
        node = node[key]
    value = copy.deepcopy(rng.choice(VALUES))
    action = rng.random()
    if not keys and isinstance(node, dict):
        node["bogus"] = value
    elif not keys:
        node.append(value)
    elif isinstance(node, dict) and action < 0.2:
        del node[key]
    elif isinstance(node, dict) and action < 0.3:
        node["bogus"] = value
    else:
        node[key] = value


def test_walker_reports_the_paths_jsonschema_reports():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    rng = random.Random(0)
    bases = [get_preset(name) for name in sorted(PRESETS)] + [minimal(), nv_minimal()]
    flagged = 0
    for _ in range(400):
        raw = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            mutate(raw, rng)
        errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
        expected = [".".join(map(str, e.absolute_path)) or "<root>" for e in errors]
        got = [problem.split(": ", 1)[0] for problem in _schema_problems(raw)[1]]
        assert got == expected, raw
        flagged += bool(expected)
    assert flagged > 200
