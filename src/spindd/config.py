"""Experiment configuration: schema, normalization, canonical hashing.

A configuration is a YAML (or plain dict) description of one runnable
experiment: which system to build, which sequence family to sweep, how
to integrate it and what to report.  This module owns every config rule
and default.  Loading checks a JSON schema (a small walker over the
keywords ``SCHEMA`` uses, with JSON Schema's semantics except that nan
and infinities are not numbers), then the rules across fields, the
``outputs`` section's included, and reports every fault it finds.  The
same walk spells each number as its schema type, and loading resolves
every default to its value: the model's wrapper phase, the family's
closing rule, the register's observables and the fit observable.  Each
field has one type, so leaving a field out is the one way to ask for its
default.  Two configs with the same meaning so normalize to the same
dictionary; the canonical SHA-256 hash is taken over that form without
``description``, which no output reads.

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

from .analysis import FIT_MIN_POINTS, RESONANCE_MIN_POINTS
from .hamiltonians import (GenericSystemParams, NvParams, TargetParams, generic_system, nv_system,
                           observable_labels)
from .sequences import (DRIVE_NORMS, WRAPPER_PHASES, DrivePulse, SimConfig, closing_halves,
                        family_rule, node_count, phase_count, pulse_gaps)

# metrics read off an N sweep: its oscillation fit or its state at some N
_N_METRICS = ["pseudo-fidelity", "inversion-fidelity", "concurrence", "polarization"]
FIT_METRICS = {"pseudo-fidelity", "inversion-fidelity", "concurrence"}  # the ones that fit
_METRICS = ["resonance", *_N_METRICS]  # the order a loaded config lists its metrics in

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
                "tau_range": {  # [lo, hi, points]
                    "type": "array",
                    "minItems": 3,
                    "maxItems": 3,
                    "prefixItems": [_POSITIVE, _POSITIVE, {"type": "integer", "minimum": 2}],
                },
                "t_pi": _POSITIVE,
                "omega1": _POSITIVE,
                "carrier": _POSITIVE,
                "wrapper_phase": _NUMBER,
                "closing_rule": {"enum": ["plain", "xy8-parity"]},
            },
        },
        "sim": {
            "type": "object",
            "required": ["dt"],
            "additionalProperties": False,
            "properties": {
                "dt": _POSITIVE,
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "observables": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                "metrics": {"type": "array", "items": {"enum": _METRICS}},
                "fit_observable": {"type": "string"},
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
    "number": _is_number,
    # an integral float is an integer
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or float(v).is_integer()),
}


def _walk(value, schema: dict, path: tuple, out: list):
    """Append ``(path, message)`` for every rule of ``schema`` that ``value``
    breaks, in keyword order, and return a copy of ``value`` with each number
    that passes its ``type`` keyword spelled as that type: an integer as an
    int, a number as a float.  As in JSON Schema, a keyword that constrains
    one kind of value ignores the others (``minimum`` passes a string)."""
    is_dict, is_list = isinstance(value, dict), isinstance(value, list)
    spelled = dict(value) if is_dict else list(value) if is_list else value

    def fail(message):
        out.append((path, message))

    for key, rule in schema.items():
        if key == "type":
            if not _TYPES[rule](value):
                fail(f"{value!r} is not a finite number"
                     if isinstance(value, float) and not math.isfinite(value)
                     else f"{value!r} is not of type {rule!r}")
            elif rule == "integer":
                spelled = int(value)
            elif rule == "number":
                spelled = float(value)
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
                    spelled[name] = _walk(value[name], sub, path + (name,), out)
        elif key == "additionalProperties" and rule is False:
            extra = sorted(set(value) - set(schema["properties"]), key=str) if is_dict else []
            if extra:
                fail(f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                     f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        elif key == "items":
            for i, item in enumerate(value if is_list else ()):
                spelled[i] = _walk(item, rule, path + (i,), out)
        elif key == "prefixItems":
            for i, (item, sub) in enumerate(zip(value if is_list else (), rule)):
                spelled[i] = _walk(item, sub, path + (i,), out)
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
    return spelled


def _schema_problems(raw: dict) -> tuple:
    """``raw`` spelled as ``SCHEMA`` types it, and ``path: message`` for
    each schema violation, sorted by path: one walk of the schema."""
    found = []
    spelled = _walk(raw, SCHEMA, (), found)
    return spelled, [f"{'.'.join(map(str, path)) or '<root>'}: {message}"
                     for path, message in sorted(found, key=lambda item: item[0])]


def coupling_label(azx: float) -> str:
    """The label that names a ``coupling_scan`` coupling's CSV and gate time."""
    return f"{azx:g}"


def _semantic_problems(raw: dict) -> list:
    """The rules across fields of a config that passed the schema, read off its spelled copy."""
    problems = []
    system, seq = raw["system"], raw["sequence"]
    model = system["model"]

    name = raw.get("name", "run")
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        problems.append(f"name: {name!r} cannot name a file under --out")
    if model == "generic":
        for key in ("omega00", "targets"):
            if key not in system:
                problems.append(f"system.{key}: required for the generic model")
        for key in ("b0", *_NV_DEFAULTS):
            if key in system:
                problems.append(f"system.{key}: not a generic-model field")
        for i, tgt in enumerate(system.get("targets", [])):
            if "azx" in tgt and "coupling" in tgt:
                problems.append(f"system.targets.{i}: give either azx or coupling, not both")
        if "carrier" not in seq and "omega00" in system:  # the default must pass its rule
            found, rule = [], SCHEMA["properties"]["sequence"]["properties"]["carrier"]
            _walk(system["omega00"], rule, (), found)
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
    outputs = raw.get("outputs", {})
    metrics = outputs.get("metrics", [])
    fits = {"errmap", "coupling_scan"} & set(raw) or FIT_METRICS & set(metrics)
    if has_n_range:
        lo, hi, *step = seq["n_range"]
        n_values = range(lo, hi + 1, *step)
        if hi < lo:
            problems.append("sequence.n_range: upper bound below lower bound")
        elif fits and len(n_values) < FIT_MIN_POINTS:
            problems.append(f"sequence.n_range: {len(n_values)} points; a fit needs "
                            f"{FIT_MIN_POINTS}")
    if has_tau_range:
        lo, hi, points = seq["tau_range"]
        if hi <= lo:
            problems.append("sequence.tau_range: upper bound not above lower bound")
        elif "resonance" in metrics and points < RESONANCE_MIN_POINTS:
            problems.append(f"sequence.tau_range: {points} points; resonance needs "
                            f"{RESONANCE_MIN_POINTS}")

    # the nominal sequence's timing rules, as applying it checks them: the step
    # per pi pulse, and the gaps at the smallest tau and at each closing class
    # swept, which the first four N reach; error factors stay the cells' own
    dt = raw["sim"]["dt"]
    try:
        SimConfig(dt).validate_pi(seq["t_pi"])
    except ValueError as exc:
        problems.append(f"sim.dt: {exc}")
    # the pi pulse's step size, y = pi dt omega1 |drive_op|_2, and its phase
    # samples at nsteps y, as building it checks them; the generic default
    # omega1 = 1 / (2 t_pi) keeps y <= pi / 40 under the rule above
    if "omega1" in seq:
        y = math.pi * dt * seq["omega1"] * DRIVE_NORMS[model]
        try:
            node_count(y)
            phase_count(round(seq["t_pi"] / dt) * y)
        except ValueError as exc:
            problems.append(f"sequence.omega1: {exc}")
    swept = []
    if has_n_range and "tau" in seq:
        swept = [("sequence.tau", seq["tau"], n) for n in n_values[:4]]
    elif has_tau_range and "n" in seq:
        swept = [("sequence.tau_range", seq["tau_range"][0], seq["n"])]
    rule = family_rule(seq["family"], seq.get("closing_rule"))
    try:
        for path, tau, n in swept:
            pulse_gaps(tau, seq["t_pi"], closing_halves(n, rule))
    except ValueError as exc:
        problems.append(f"{path}: {exc}")

    if "errmap" in raw and not has_n_range:
        problems.append("errmap: requires an n_range sweep to fit pseudo-fidelities")
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
        elif "coupling" in targets[0]:
            problems.append("coupling_scan: incompatible with a full coupling tensor")
        if any(name != "pseudo-fidelity" for name in metrics):
            problems.append("outputs.metrics: a coupling_scan computes only pseudo-fidelity")
        labels = [coupling_label(azx) for azx in raw["coupling_scan"]]
        shared = sorted({label for label in labels if labels.count(label) > 1})
        if shared:
            problems.append(f"coupling_scan: couplings share the labels {shared} that name "
                            "their CSVs and gate times")

    # the register's observables, where the system's fields give it
    targets = 1 if model == "nv" else len(system.get("targets", []))
    if targets:
        labels = observable_labels(targets)
        missing = [label for label in outputs.get("observables", []) if label not in labels]
        if missing:
            problems.append(f"outputs.observables: unknown {missing}; have {labels}")
        fit = outputs.get("fit_observable", labels[-1])
        if fit not in labels:
            problems.append(f"outputs.fit_observable: unknown {fit!r}")
        elif fit == labels[0] and {"inversion-fidelity", "polarization"} & set(metrics):
            problems.append(f"outputs.fit_observable: {fit!r} is not a target observable")
        if "concurrence" in metrics and (model, targets) != ("generic", 1):
            problems.append("outputs.metrics: concurrence needs a two-qubit register")
    return problems


def _normalize(cfg: dict) -> dict:
    """``cfg``, a spelled copy that passed every rule, with every default
    resolved to its value in place."""
    cfg.setdefault("name", "run")
    cfg.setdefault("description", "")
    cfg.setdefault("initial_state", "polarized")

    system, seq = cfg["system"], cfg["sequence"]
    model = system["model"]
    if model == "generic":
        for tgt in system["targets"]:
            if "coupling" not in tgt:
                tgt.setdefault("azx", 0.0)
        seq.setdefault("carrier", system["omega00"])
        seq.setdefault("omega1", 1.0 / (2.0 * seq["t_pi"]))
    else:
        for key, value in _NV_DEFAULTS.items():
            system.setdefault(key, value)
    seq.setdefault("wrapper_phase", WRAPPER_PHASES[model])
    seq["closing_rule"] = family_rule(seq["family"], seq.get("closing_rule"))
    if len(seq.get("n_range", ())) == 2:
        seq["n_range"].append(1)

    outputs = cfg.setdefault("outputs", {})
    labels = observable_labels(len(system["targets"]) if model == "generic" else 1)
    outputs.setdefault("observables", labels)
    outputs.setdefault("fit_observable", labels[-1])
    outputs["metrics"] = [name for name in _METRICS if name in outputs.get("metrics", [])]
    return cfg


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized experiment description."""

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(["<root>: expected a mapping"])
        cfg, problems = _schema_problems(raw)
        problems = problems or _semantic_problems(cfg)
        if problems:
            raise ConfigError(problems)
        return cls(_normalize(cfg))

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

    def config_hash(self) -> str:
        """SHA-256 of the canonical JSON of the loaded config, less its ``description``."""
        data = {key: value for key, value in self.data.items() if key != "description"}
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def sweep_axis(self) -> str:
        return "n" if "n_range" in self.data["sequence"] else "tau"

    def build_system(self, azx_override: float | None = None):
        system, initial = self.data["system"], self.data["initial_state"]
        if system["model"] == "nv":
            params = NvParams(system["b0"], math.radians(system["theta0_deg"]),
                              **{key: system[key] for key in list(_NV_DEFAULTS)[1:]})
            return nv_system(params, initial=initial)
        targets = []
        for tgt in system["targets"]:
            if "coupling" in tgt:
                coupling = np.asarray(tgt["coupling"], dtype=float)
            else:
                coupling = tgt["azx"] if azx_override is None else azx_override
            targets.append(TargetParams(tgt["omega0"], coupling))
        return generic_system(GenericSystemParams(system["omega00"], tuple(targets)),
                              initial=initial)

    def build_pulse(self) -> DrivePulse:
        seq = self.data["sequence"]
        return DrivePulse(omega1=seq["omega1"], omegap=seq["carrier"], phase=0.0,
                          duration=seq["t_pi"])

    def sim_config(self, dt_override: float | None = None) -> SimConfig:
        """The integrator settings; ``dt_override`` (the CLI's ``--dt``)
        replaces ``sim.dt`` and must pass the same rule."""
        if dt_override is None:
            return SimConfig(dt=self.data["sim"]["dt"])
        found = []
        _walk(dt_override, SCHEMA["properties"]["sim"]["properties"]["dt"], (), found)
        if found:
            raise ConfigError([f"--dt: {message}" for _, message in found])
        return SimConfig(dt=float(dt_override))

    def sweep_values(self) -> np.ndarray:
        seq = self.data["sequence"]
        if self.sweep_axis == "n":
            lo, hi, step = seq["n_range"]
            return np.arange(lo, hi + 1, step, dtype=int)
        return np.linspace(*seq["tau_range"])
