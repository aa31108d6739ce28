"""Experiment execution: sweeps to CSV files plus a JSON manifest.

CSV values are written with 12 significant digits and newline-terminated
rows, so identical configs produce byte-identical files.  The manifest
records the canonical config hash, the settings actually used
(``effective``), the package version, wall-clock time, a checksum for
every emitted file and the computed metric summary.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import DensityMatrix, Operator, basis_dm, partial_trace
from .analysis import GateMetrics, concurrence, find_resonance, pseudo_fidelity, state_fidelity
from .config import ConfigError, ExperimentConfig
from .evolution import sweep_n, sweep_n_cells, sweep_tau
# unused here; benchmarks/spans.py patches these names on this module
from .evolution import apply_sequence, inject_errors  # noqa: F401


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    return format(value, ".12g")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _observable_labels(cfg: ExperimentConfig, system) -> list:
    available = [obs.label for obs in system.observables]
    wanted = cfg.data["outputs"]["observables"]
    if wanted is None:
        return available
    missing = [w for w in wanted if w not in available]
    if missing:
        raise ConfigError([f"outputs.observables: unknown {missing}; have {available}"])
    return list(wanted)


def _fit_observable(cfg: ExperimentConfig, system):
    label = cfg.data["outputs"]["fit_observable"]
    if label is None:
        label = system.observables[-1].label
    for obs in system.observables:
        if obs.label == label:
            return obs
    raise ConfigError([f"outputs.fit_observable: unknown {label!r}"])


def _run_sweep(cfg, system, pulse, sim_cfg):
    seq = cfg.data["sequence"]
    keys = ("wrapper_phase", "closing_rule", "length_factor", "freq_factor")
    kwargs = {key: seq[key] for key in keys}
    values = cfg.sweep_values()
    if cfg.sweep_axis == "n":
        return sweep_n(system, seq["family"], values, float(seq["tau"]), pulse, sim_cfg, **kwargs)
    return sweep_tau(system, seq["family"], int(seq["n"]), values, pulse, sim_cfg, **kwargs)


def _target_site(system, label: str) -> int:
    if label == "Iz":
        return 1
    if label.startswith("Iz") and label[2:].isdigit():
        return int(label[2:])
    raise ConfigError([f"outputs.fit_observable: {label!r} is not a target observable"])


def _polarization_target(system, site: int) -> DensityMatrix:
    dims = system.dims
    if dims[0] == 3:
        central = np.diag([0.0, 0.5, 0.5]).astype(complex)  # qubit manifold m_S in {0, -1}
    else:
        central = np.eye(dims[0], dtype=complex) / dims[0]
    mat = central
    for j, d in enumerate(dims[1:], start=1):
        part = np.zeros((d, d), dtype=complex)
        if j == site:
            part[0, 0] = 1.0
        else:
            part = np.eye(d, dtype=complex) / d
        mat = np.kron(mat, part)
    return DensityMatrix(Operator(mat, dims))


def _metric_inputs(cfg, system) -> tuple:
    """The fit observable and, for the metrics that read one, the target
    site; raises the metrics' config errors before any sweep runs."""
    obs, site = _fit_observable(cfg, system), None
    for name in cfg.data["outputs"]["metrics"]:
        if name in ("inversion-fidelity", "polarization"):
            site = _target_site(system, obs.label)
        elif name == "concurrence" and system.dims != (2, 2):
            raise ConfigError(["outputs.metrics: concurrence needs a two-qubit register"])
    return obs, site


def _compute_metrics(cfg, system, sweep, obs, site):
    metrics = GateMetrics()
    extras = {}
    value_range = (obs.lo, obs.hi)
    tau = cfg.data["sequence"].get("tau")
    n_pi = None

    def state(k: int) -> DensityMatrix:
        return DensityMatrix(Operator(sweep.states[k], system.dims))

    def nearest(n: float) -> tuple:
        """The swept N nearest ``round(n)`` (the smaller on a tie) and its state."""
        k = int(np.argmin(np.abs(sweep.values - round(n))))
        return int(sweep.values[k]), state(k)

    def fitted_n_pi():
        nonlocal n_pi
        if n_pi is None:
            _, n_pi = pseudo_fidelity(sweep, obs.label, value_range)
        return n_pi

    for name in cfg.data["outputs"]["metrics"]:
        if name == "pseudo-fidelity":
            f_tilde, n_pi = pseudo_fidelity(sweep, obs.label, value_range)
            metrics.f_tilde = f_tilde
            metrics.n_pi = n_pi
            metrics.t_pi = n_pi * float(tau)
        elif name == "resonance":
            extras["resonance_tau"] = find_resonance(sweep, obs.label)
        elif name == "inversion-fidelity":
            n_star, rho = nearest(fitted_n_pi())
            reduced = partial_trace(rho, {site})
            target = basis_dm(reduced.dims, (1,))
            metrics.state_fidelity = state_fidelity(reduced, target)
            extras["inversion_n"] = n_star
        elif name == "concurrence":
            n_half, rho = nearest(fitted_n_pi() / 2.0)
            metrics.concurrence = concurrence(rho)
            extras["concurrence_n"] = n_half
        elif name == "polarization":
            trace = sweep.trace(obs.label)
            idx = int(np.argmax(trace))
            n_star = int(sweep.values[idx])
            extras["iz_max"] = float(trace[idx])
            extras["iz_max_n"] = n_star
            extras["efficiency"] = float(trace[idx] / obs.hi)
            extras["t_pol"] = n_star * float(tau)
            metrics.state_fidelity = state_fidelity(state(idx), _polarization_target(system, site))
    return metrics, extras


def _sweep_rows(sweep, labels):
    rows = []
    for i, value in enumerate(sweep.values):
        axis_value = int(value) if sweep.axis == "n" else value
        rows.append([_fmt(axis_value)] + [_fmt(sweep.traces[lab][i]) for lab in labels])
    return rows


def _manifest(cfg, verb, out_dir, files, metrics, extras, sim_cfg, wall_clock):
    entries = []
    for path in files:
        entries.append({"path": path.name, "sha256": _sha256(path), "bytes": path.stat().st_size})
    payload = {
        "name": cfg.name,
        "verb": verb,
        "config_hash": cfg.config_hash(),
        "effective": {"dt": sim_cfg.dt},
        "version": __version__,
        "wall_clock_s": round(wall_clock, 3),
        "axis": cfg.sweep_axis,
        "outputs": entries,
        "metrics": asdict(metrics),
        "extras": extras,
    }
    path = out_dir / f"{cfg.name}-manifest.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def run_experiment(cfg: ExperimentConfig, out_dir, dt_override: float | None = None) -> dict:
    """Execute one sweep config; returns the manifest dictionary."""
    start = time.perf_counter()
    sim_cfg = cfg.sim_config(dt_override)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pulse = cfg.build_pulse()
    scan = cfg.data.get("coupling_scan")

    if scan is None:
        system = cfg.build_system()
        labels = _observable_labels(cfg, system)
        obs, site = _metric_inputs(cfg, system)
        sweep = _run_sweep(cfg, system, pulse, sim_cfg)
        csv_path = out / f"{cfg.name}.csv"
        _write_csv(csv_path, [sweep.axis] + labels, _sweep_rows(sweep, labels))
        metrics, extras = _compute_metrics(cfg, system, sweep, obs, site)
        return _manifest(cfg, "run", out, [csv_path], metrics, extras, sim_cfg,
                         time.perf_counter() - start)

    # one sweep per coupling value, then the inverse-coupling gate-time fit
    def run_one(azx: float):
        system = cfg.build_system(azx_override=azx)
        labels = _observable_labels(cfg, system)
        obs = _fit_observable(cfg, system)
        sweep = _run_sweep(cfg, system, pulse, sim_cfg)
        _, n_pi = pseudo_fidelity(sweep, obs.label, (obs.lo, obs.hi))
        return sweep, labels, n_pi

    azx_values = [float(a) for a in scan]
    results = [run_one(a) for a in azx_values]

    files = []
    gate_times = {}
    for azx, (sweep, labels, n_pi) in zip(azx_values, results):
        csv_path = out / f"{cfg.name}-azx{azx:g}.csv"
        _write_csv(csv_path, [sweep.axis] + labels, _sweep_rows(sweep, labels))
        files.append(csv_path)
        gate_times[f"{azx:g}"] = n_pi * float(cfg.data["sequence"]["tau"])

    from .analysis import tpi_scaling

    c_fit, residuals = tpi_scaling([(float(a), gate_times[f"{a:g}"]) for a in azx_values])
    metrics = GateMetrics()
    extras = {
        "c_fit": c_fit,
        "worst_residual": float(np.abs(residuals).max()),
        "gate_time_by_azx": gate_times,
    }
    return _manifest(cfg, "run", out, files, metrics, extras, sim_cfg,
                     time.perf_counter() - start)


def errmap_experiment(cfg: ExperimentConfig, out_dir, dt_override: float | None = None) -> dict:
    """Pseudo-fidelity over a pulse-error grid.

    A cell whose sweep or fit raises ``ValueError`` becomes nan in the
    CSV; the manifest lists its factors and the error.
    """
    start = time.perf_counter()
    grid = cfg.data.get("errmap")
    if grid is None:
        raise ConfigError(["errmap: config has no errmap section"])
    sim_cfg = cfg.sim_config(dt_override)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    system = cfg.build_system()
    pulse = cfg.build_pulse()
    obs = _fit_observable(cfg, system)
    seq = cfg.data["sequence"]
    length_factors = [float(x) for x in grid["length_factors"]]
    freq_factors = [float(x) for x in grid["freq_factors"]]

    failures = []
    values = np.empty((len(length_factors), len(freq_factors)))
    # one walk per row: its cells share every delay, and so one cache
    for i, lf in enumerate(length_factors):
        cells = [(lf * seq["length_factor"], ff * seq["freq_factor"]) for ff in freq_factors]
        sweeps = sweep_n_cells(system, seq["family"], cfg.sweep_values(), float(seq["tau"]),
                               pulse, sim_cfg, cells, seq["wrapper_phase"],
                               seq["closing_rule"])
        for j, (ff, sweep) in enumerate(zip(freq_factors, sweeps)):
            try:
                if isinstance(sweep, ValueError):
                    raise sweep
                values[i, j], _ = pseudo_fidelity(sweep, obs.label, (obs.lo, obs.hi))
            except ValueError as exc:
                failures.append({"length_factor": lf, "freq_factor": ff,
                                 "error": type(exc).__name__, "message": str(exc)})
                values[i, j] = math.nan

    csv_path = out / f"{cfg.name}-errmap.csv"
    header = ["length_factor"] + [_fmt(ff) for ff in freq_factors]
    rows = [[_fmt(lf)] + [_fmt(v) for v in row] for lf, row in zip(length_factors, values)]
    _write_csv(csv_path, header, rows)

    finite = values[np.isfinite(values)]
    extras = {
        "rows": len(length_factors),
        "cols": len(freq_factors),
        "failed_cells": int(np.isnan(values).sum()),
        "failed_cell_causes": failures,
        "min_f_tilde": float(finite.min()) if finite.size else math.nan,
        "max_f_tilde": float(finite.max()) if finite.size else math.nan,
    }
    return _manifest(cfg, "errmap", out, [csv_path], GateMetrics(), extras, sim_cfg,
                     time.perf_counter() - start)
