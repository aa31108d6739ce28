"""Experiment configuration: schema, normalization, canonical hashing.

A configuration is a YAML (or plain dict) description of one runnable
experiment: which system to build, which sequence family to sweep, how
to integrate it and what to report.  Loading validates against a JSON
schema (a small walker over the keywords ``SCHEMA`` uses, with JSON
Schema's semantics except that nan and infinities are not numbers), then
fills in every default and spells each number as its schema type, so that
two configs with the same meaning normalize to the same dictionary; the
canonical SHA-256 hash is taken over that normalized form.

Exactly one of ``sequence.n_range`` (pulse-number sweep at fixed
``tau``) and ``sequence.tau_range`` (spacing sweep at fixed ``n``) must
be present.  For the NV model, ``sequence.carrier`` and
``sequence.omega1`` are required explicitly, because their natural
defaults are derived quantities (hyperfine-split transition frequencies
and a calibrated drive amplitude) that belong in the config, not in a
hidden resolution step.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .hamiltonians import GenericSystemParams, NvParams, TargetParams, generic_system, nv_system
from .sequences import DrivePulse, SimConfig

# metrics read off an N sweep: its oscillation fit or its state at some N
_N_METRICS = ["pseudo-fidelity", "inversion-fidelity", "concurrence", "polarization"]

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "type": "object",
    "required": ["system", "sequence", "sim"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "system": {
            "type": "object",
            "required": ["model"],
            "additionalProperties": False,
            "properties": {
                "model": {"enum": ["generic", "nv"]},
                "omega00": _NUMBER,
                "targets": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["omega0"],
                        "additionalProperties": False,
                        "properties": {
                            "omega0": _NUMBER,
                            "azx": _NUMBER,
                            "coupling": {
                                "type": "array",
                                "minItems": 3,
                                "maxItems": 3,
                                "items": {
                                    "type": "array",
                                    "minItems": 3,
                                    "maxItems": 3,
                                    "items": _NUMBER,
                                },
                            },
                        },
                    },
                },
                "b0": _NUMBER,
                "theta0_deg": _NUMBER,
                "d_zfs": _NUMBER,
                "gamma_e": _NUMBER,
                "gamma_n": _NUMBER,
                "axx": _NUMBER,
                "ayy": _NUMBER,
                "azz": _NUMBER,
            },
        },
        "initial_state": {"enum": ["polarized", "mixed-target"]},
        "sequence": {
            "type": "object",
            "required": ["family", "t_pi"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["cpmg", "xyn"]},
                "n": {"type": "integer", "minimum": 1},
                "n_range": {
                    "type": "array",
                    "minItems": 2,
                    "maxItems": 3,
                    "items": {"type": "integer", "minimum": 1},
                },
                "tau": _POSITIVE,
                "tau_range": {"type": "array", "minItems": 3, "maxItems": 3},
                "t_pi": _POSITIVE,
                "omega1": _POSITIVE,
                "carrier": _POSITIVE,
                "length_factor": _POSITIVE,
                "freq_factor": _POSITIVE,
                "wrapper_phase": {"type": ["number", "null"]},
                "closing_rule": {"enum": ["plain", "xy8-parity", None]},
            },
        },
        "sim": {
            "type": "object",
            "required": ["dt"],
            "additionalProperties": False,
            "properties": {
                "dt": _POSITIVE,
                "carrier_reset": {"type": "boolean"},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "observables": {"type": ["array", "null"],
                                "items": {"type": "string"}, "minItems": 1},
                "metrics": {"type": "array", "items": {"enum": ["resonance", *_N_METRICS]}},
                "fit_observable": {"type": ["string", "null"]},
            },
        },
        "errmap": {
            "type": "object",
            "required": ["length_factors", "freq_factors"],
            "additionalProperties": False,
            "properties": {
                "length_factors": {"type": "array", "minItems": 1, "items": _POSITIVE},
                "freq_factors": {"type": "array", "minItems": 1, "items": _POSITIVE},
            },
        },
        "coupling_scan": {"type": "array", "minItems": 2, "items": _POSITIVE},
    },
}

# the defaults of NvParams after b0, with the field tilt theta0 in degrees
_NV_DEFAULTS = {"theta0_deg": math.degrees(NvParams.theta0),
                **{f.name: f.default for f in fields(NvParams)[2:]}}


class ConfigError(ValueError):
    """Invalid experiment configuration; ``problems`` lists field paths."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in self.problems))


def _is_number(value) -> bool:
    """A finite real; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, int) or math.isfinite(value)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    # an integral float is an integer
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or float(v).is_integer()),
}


def _walk(value, schema: dict, path: tuple, out: list) -> None:
    """Append ``(path, message)`` for every rule of ``schema`` that ``value``
    breaks, in keyword order.  As in JSON Schema, a keyword that constrains
    one kind of value ignores the others (``minimum`` passes a string)."""
    is_dict, is_list = isinstance(value, dict), isinstance(value, list)

    def fail(message):
        out.append((path, message))

    for key, rule in schema.items():
        if key == "type":
            names = [rule] if isinstance(rule, str) else rule
            if not any(_TYPES[name](value) for name in names):
                fail(f"{value!r} is not a finite number"
                     if isinstance(value, float) and not math.isfinite(value)
                     else f"{value!r} is not of type {', '.join(map(repr, names))}")
        elif key == "enum":
            if value not in rule:
                fail(f"{value!r} is not one of {rule!r}")
        elif key == "required":
            for name in rule if is_dict else ():
                if name not in value:
                    fail(f"{name!r} is a required property")
        elif key == "properties":
            for name, sub in rule.items() if is_dict else ():
                if name in value:
                    _walk(value[name], sub, path + (name,), out)
        elif key == "additionalProperties" and rule is False:
            extra = sorted(set(value) - set(schema["properties"]), key=str) if is_dict else []
            if extra:
                fail(f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                     f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        elif key == "items":
            for i, item in enumerate(value if is_list else ()):
                _walk(item, rule, path + (i,), out)
        elif key == "minItems":
            if is_list and len(value) < rule:
                fail(f"{value!r} should be non-empty" if rule == 1 else f"{value!r} is too short")
        elif key == "maxItems":
            if is_list and len(value) > rule:
                fail(f"{value!r} is too long")
        elif key == "minimum":
            if _is_number(value) and value < rule:
                fail(f"{value!r} is less than the minimum of {rule!r}")
        elif key == "exclusiveMinimum":
            if _is_number(value) and value <= rule:
                fail(f"{value!r} is less than or equal to the minimum of {rule!r}")
        else:
            raise ValueError(f"schema keyword {key!r} is not supported")


def _schema_problems(raw: dict) -> list:
    """``path: message`` for each schema violation, sorted by path."""
    found = []
    _walk(raw, SCHEMA, (), found)
    found.sort(key=lambda item: item[0])
    return [f"{'.'.join(map(str, path)) or '<root>'}: {message}" for path, message in found]


def _semantic_problems(raw: dict) -> list:
    problems = []
    system = raw.get("system", {})
    model = system.get("model")
    seq = raw.get("sequence", {})

    if model == "generic":
        for key in ("omega00", "targets"):
            if key not in system:
                problems.append(f"system.{key}: required for the generic model")
        for key in ("b0", *_NV_DEFAULTS):
            if key in system:
                problems.append(f"system.{key}: not a generic-model field")
        for i, tgt in enumerate(system.get("targets", [])):
            if isinstance(tgt, dict) and "azx" in tgt and "coupling" in tgt:
                problems.append(f"system.targets.{i}: give either azx or coupling, not both")
        if "carrier" not in seq and "omega00" in system:  # the default must pass its rule
            found, rule = [], SCHEMA["properties"]["sequence"]["properties"]["carrier"]
            _walk(float(system["omega00"]), rule, (), found)
            problems += [f"sequence.carrier: {message} (its default, system.omega00)"
                         for _, message in found]
    elif model == "nv":
        if "b0" not in system:
            problems.append("system.b0: required for the nv model")
        for key in ("omega00", "targets"):
            if key in system:
                problems.append(f"system.{key}: not an nv-model field")
        for key in ("carrier", "omega1"):
            if key not in seq:
                problems.append(f"sequence.{key}: required explicitly for the nv model")

    has_n_range = "n_range" in seq
    has_tau_range = "tau_range" in seq
    if has_n_range == has_tau_range:
        problems.append("sequence: exactly one of n_range and tau_range must be set")
    if has_n_range and "tau" not in seq:
        problems.append("sequence.tau: required for an n_range sweep")
    if has_tau_range and "n" not in seq:
        problems.append("sequence.n: required for a tau_range sweep")
    if has_n_range and "n" in seq:
        problems.append("sequence.n: conflicts with n_range")
    if has_tau_range and "tau" in seq:
        problems.append("sequence.tau: conflicts with tau_range")

    if has_n_range and len(seq.get("n_range", [])) >= 2:
        rng = seq["n_range"]
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in rng)
        if numbers and rng[1] < rng[0]:
            problems.append("sequence.n_range: upper bound below lower bound")
    if has_tau_range:
        rng = seq.get("tau_range", [])
        ok = (
            len(rng) == 3
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in rng)
            and isinstance(rng[2], int)
        )
        if not ok:
            problems.append("sequence.tau_range: expected [lo, hi, points] with integer points")
        elif rng[0] <= 0 or rng[1] <= rng[0] or rng[2] < 2:
            problems.append("sequence.tau_range: need 0 < lo < hi and at least 2 points")

    if "errmap" in raw and not has_n_range:
        problems.append("errmap: requires an n_range sweep to fit pseudo-fidelities")
    metrics = raw.get("outputs", {}).get("metrics", [])
    if "errmap" in raw and any(name != "pseudo-fidelity" for name in metrics):
        problems.append("outputs.metrics: an errmap computes only pseudo-fidelity")
    if has_tau_range and any(name in _N_METRICS for name in metrics):
        problems.append("outputs.metrics: pseudo-fidelity, inversion-fidelity, concurrence"
                        " and polarization need an n_range sweep")
    if has_n_range and "resonance" in metrics:
        problems.append("outputs.metrics: resonance needs a tau_range sweep")
    if "coupling_scan" in raw and not has_n_range:
        problems.append("coupling_scan: requires an n_range sweep to fit gate times")
    if "coupling_scan" in raw:
        targets = system.get("targets", [])
        if model != "generic" or len(targets) != 1:
            problems.append("coupling_scan: only defined for a generic single-target system")
        elif isinstance(targets[0], dict) and "coupling" in targets[0]:
            problems.append("coupling_scan: incompatible with a full coupling tensor")
        if any(name != "pseudo-fidelity" for name in metrics):
            problems.append("outputs.metrics: a coupling_scan computes only pseudo-fidelity")
    return problems


def _spell(value, schema: dict):
    """A copy of ``value`` with each number spelled as ``schema`` types it:
    an integer as an int, a number as a float."""
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        return {key: _spell(item, properties.get(key, {})) for key, item in value.items()}
    if isinstance(value, list):
        return [_spell(item, schema.get("items", {})) for item in value]
    kinds = schema.get("type", ())  # a type name or a list of them
    if _is_number(value) and ("integer" in kinds or "number" in kinds):
        return int(value) if "integer" in kinds else float(value)
    return value


def _normalize(raw: dict) -> dict:
    """``raw`` with every default filled in and every number spelled as typed."""
    cfg = _spell(raw, SCHEMA)
    cfg.setdefault("name", "run")
    cfg.setdefault("description", "")
    cfg.setdefault("initial_state", "polarized")

    system = cfg["system"]
    if system["model"] == "generic":
        for tgt in system["targets"]:
            if "azx" not in tgt and "coupling" not in tgt:
                tgt["azx"] = 0.0
    else:
        for key, value in _NV_DEFAULTS.items():
            system.setdefault(key, value)

    seq = cfg["sequence"]
    if system["model"] == "generic":
        seq.setdefault("carrier", float(system["omega00"]))
        seq.setdefault("omega1", 1.0 / (2.0 * float(seq["t_pi"])))
    seq.setdefault("length_factor", 1.0)
    seq.setdefault("freq_factor", 1.0)
    seq.setdefault("wrapper_phase", None)
    seq.setdefault("closing_rule", None)
    if "n_range" in seq and len(seq["n_range"]) == 2:
        seq["n_range"] = [seq["n_range"][0], seq["n_range"][1], 1]
    if "tau_range" in seq:  # [lo, hi, points]; the schema leaves its items untyped
        seq["tau_range"][:2] = [float(x) for x in seq["tau_range"][:2]]

    cfg["sim"].setdefault("carrier_reset", False)

    outputs = cfg.setdefault("outputs", {})
    outputs.setdefault("observables", None)
    outputs.setdefault("metrics", [])
    outputs.setdefault("fit_observable", None)
    return cfg


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized experiment description."""

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(["<root>: expected a mapping"])
        problems = _schema_problems(raw)
        if not problems:
            problems = _semantic_problems(raw)
        if problems:
            raise ConfigError(problems)
        return cls(_normalize(raw))

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        import yaml

        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError([f"<file>: {exc}"]) from exc
        except yaml.YAMLError as exc:
            raise ConfigError([f"<yaml>: {exc}"]) from exc
        if raw is None:
            raise ConfigError(["<file>: empty config"])
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def to_yaml(self) -> str:
        import yaml

        return yaml.safe_dump(self.data, sort_keys=True, default_flow_style=False)

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def model(self) -> str:
        return self.data["system"]["model"]

    @property
    def sweep_axis(self) -> str:
        return "n" if "n_range" in self.data["sequence"] else "tau"

    def system_params(self, azx_override: float | None = None):
        system = self.data["system"]
        if system["model"] == "generic":
            targets = []
            for tgt in system["targets"]:
                coupling = tgt.get("coupling")
                if coupling is None:
                    coupling = tgt["azx"] if azx_override is None else azx_override
                else:
                    coupling = np.asarray(coupling, dtype=float)
                targets.append(TargetParams(float(tgt["omega0"]), coupling))
            return GenericSystemParams(float(system["omega00"]), tuple(targets))
        return NvParams(float(system["b0"]), math.radians(float(system["theta0_deg"])),
                         **{key: float(system[key]) for key in list(_NV_DEFAULTS)[1:]})

    def build_system(self, azx_override: float | None = None):
        params = self.system_params(azx_override)
        initial = self.data["initial_state"]
        if self.model == "generic":
            return generic_system(params, initial=initial)
        return nv_system(params, initial=initial)

    def build_pulse(self) -> DrivePulse:
        seq = self.data["sequence"]
        return DrivePulse(
            omega1=float(seq["omega1"]),
            omegap=float(seq["carrier"]),
            phase=0.0,
            duration=float(seq["t_pi"]),
        )

    def sim_config(self, dt_override: float | None = None) -> SimConfig:
        """The integrator settings; ``dt_override`` (the CLI's ``--dt``)
        replaces ``sim.dt`` and must pass the same rule."""
        if dt_override is not None:
            found = []
            _walk(dt_override, SCHEMA["properties"]["sim"]["properties"]["dt"], (), found)
            if found:
                raise ConfigError([f"--dt: {message}" for _, message in found])
        sim = self.data["sim"]
        dt = float(sim["dt"]) if dt_override is None else float(dt_override)
        return SimConfig(dt=dt, carrier_reset=bool(sim["carrier_reset"]))

    def sweep_values(self) -> np.ndarray:
        seq = self.data["sequence"]
        if self.sweep_axis == "n":
            lo, hi, step = seq["n_range"]
            return np.arange(lo, hi + 1, step, dtype=int)
        lo, hi, num = seq["tau_range"]
        return np.linspace(float(lo), float(hi), int(num))
