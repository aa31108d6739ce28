"""Experiment execution: sweeps to CSV files plus a JSON manifest.

CSV values are written with 12 significant digits and newline-terminated
rows, so identical configs produce byte-identical files.  The manifest
records the canonical config hash, the settings actually used
(``effective``: the step ``dt`` and the numpy and Python versions that
computed it), the package version, wall-clock time, a checksum for
every emitted file and the computed metric summary.  A loaded config has
passed every config rule, its ``outputs`` section's included, and holds
each default's value, so a verb raises ``ConfigError`` only for an
``errmap`` config with no grid.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import DensityMatrix, Operator, basis_dm, partial_trace
from .analysis import (GateMetrics, concurrence, find_resonance, pseudo_fidelities,
                       pseudo_fidelity, state_fidelity, tpi_scaling)
from .config import FIT_METRICS, ConfigError, ExperimentConfig, coupling_label
from .evolution import sweep_n, sweep_n_cells, sweep_tau
from .hamiltonians import polarization_target
# unused here; benchmarks/spans.py patches these names on this module
from .evolution import apply_sequence, inject_errors  # noqa: F401


def _pin_heap_thresholds() -> None:
    """Fix glibc's heap thresholds for the sweeps this module runs.

    glibc serves a block from ``mmap`` above its threshold, which starts at
    128 kB and rises only to the largest mapped block freed so far, and it
    returns the heap's top to the system once more than twice that is free.
    A sweep allocates and frees its propagator stacks (0.37 MB each on the NV
    register) at the top every pass, so with the threshold they set it gave
    back and faulted in again about 1.3 MB per ``nv-ddgate`` pass (326 minor
    page faults), or not, by the accident of what was freed before.  Blocks
    below 4 MB now stay on the heap and 8 MB may stay free on it.  Where the
    C library has no ``mallopt``, its own policy stays."""
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
            mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


_pin_heap_thresholds()


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fit_observable(cfg: ExperimentConfig, system):
    """The observable of ``system`` that ``outputs.fit_observable`` names."""
    return next(obs for obs in system.observables
                if obs.label == cfg.data["outputs"]["fit_observable"])


def _run_sweep(cfg, system, pulse, sim_cfg):
    seq = cfg.data["sequence"]
    kwargs = {key: seq[key] for key in ("wrapper_phase", "closing_rule")}
    values = cfg.sweep_values()
    if cfg.sweep_axis == "n":
        return sweep_n(system, seq["family"], values, seq["tau"], pulse, sim_cfg, **kwargs)
    return sweep_tau(system, seq["family"], seq["n"], values, pulse, sim_cfg, **kwargs)


def _compute_metrics(cfg, system, sweep, obs):
    metrics = GateMetrics()
    extras = {}
    seq = cfg.data["sequence"]

    def state(k: int) -> DensityMatrix:
        return DensityMatrix(Operator(sweep.states[k], system.dims))

    def nearest(n: float) -> tuple:
        """The swept N nearest ``round(n)`` (the smaller on a tie) and its state."""
        k = int(np.argmin(np.abs(sweep.values - round(n))))
        return int(sweep.values[k]), state(k)

    names = cfg.data["outputs"]["metrics"]
    if FIT_METRICS & set(names):
        f_tilde, n_pi = pseudo_fidelity(sweep, obs.label, (obs.lo, obs.hi))

    for name in names:
        if name == "pseudo-fidelity":
            metrics.f_tilde = f_tilde
            metrics.n_pi = n_pi
            metrics.t_pi = n_pi * seq["tau"]
        elif name == "resonance":
            extras["resonance_tau"] = find_resonance(sweep, obs.label)
        elif name == "inversion-fidelity":
            n_star, rho = nearest(n_pi)
            reduced = partial_trace(rho, {obs.site})
            target = basis_dm(reduced.dims, (1,))
            metrics.state_fidelity = state_fidelity(reduced, target)
            extras["inversion_n"] = n_star
        elif name == "concurrence":
            n_half, rho = nearest(n_pi / 2.0)
            metrics.concurrence = concurrence(rho)
            extras["concurrence_n"] = n_half
        elif name == "polarization":
            trace = sweep.trace(obs.label)
            idx = int(np.argmax(trace))
            n_star = int(sweep.values[idx])
            extras["iz_max"] = float(trace[idx])
            extras["iz_max_n"] = n_star
            extras["efficiency"] = float(trace[idx] / obs.hi)
            extras["t_pol"] = n_star * seq["tau"]
            target = polarization_target(system, obs.site)
            metrics.state_fidelity = state_fidelity(state(idx), target)
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
        "effective": {"dt": sim_cfg.dt, "numpy": np.__version__,
                      "python": ".".join(map(str, sys.version_info[:3]))},
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
    """Execute one sweep config, or one sweep per coupling of its
    ``coupling_scan`` and then the inverse-coupling gate-time fit; returns
    the manifest dictionary."""
    start = time.perf_counter()
    sim_cfg = cfg.sim_config(dt_override)
    pulse = cfg.build_pulse()
    scan = cfg.data.get("coupling_scan")
    labels = cfg.data["outputs"]["observables"]

    sweeps = []
    for azx in [None] if scan is None else scan:
        system = cfg.build_system(azx_override=azx)
        obs = _fit_observable(cfg, system)
        sweeps.append(_run_sweep(cfg, system, pulse, sim_cfg))
    gate_times = {}
    if scan is not None:  # one fit call for the scan; every fit passes before any CSV is written
        fits = pseudo_fidelities(sweeps[0].values, [sweep.trace(obs.label) for sweep in sweeps],
                                 (obs.lo, obs.hi))
        for azx, fit in zip(scan, fits):
            if isinstance(fit, ValueError):
                raise fit
            gate_times[coupling_label(azx)] = fit[1] * cfg.data["sequence"]["tau"]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # only once every sweep and fit passed
    files = ([out / f"{cfg.name}.csv"] if scan is None
             else [out / f"{cfg.name}-azx{label}.csv" for label in gate_times])
    for path, sweep in zip(files, sweeps):
        _write_csv(path, [sweep.axis] + labels, _sweep_rows(sweep, labels))
    if scan is None:
        metrics, extras = _compute_metrics(cfg, system, sweep, obs)
    else:
        c_fit, residuals = tpi_scaling(list(zip(scan, gate_times.values())))
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
    system = cfg.build_system()
    pulse = cfg.build_pulse()
    obs = _fit_observable(cfg, system)
    seq = cfg.data["sequence"]
    length_factors, freq_factors = grid["length_factors"], grid["freq_factors"]

    # one walk over the whole map, which plans each row's entries on their
    # own.  A cell keeps its walk's error or a copy of its fit trace, not its
    # states, and one call fits the whole map
    errors, traces = [], []
    for sweep in sweep_n_cells(system, seq["family"], cfg.sweep_values(), seq["tau"], pulse,
                               sim_cfg, list(itertools.product(length_factors, freq_factors)),
                               seq["wrapper_phase"], seq["closing_rule"]):
        walked = not isinstance(sweep, ValueError)
        errors.append(None if walked else sweep)
        if walked:
            n = sweep.values
            traces.append(sweep.trace(obs.label).copy())
    del sweep  # it holds a view of every cell's states
    fits = iter(pseudo_fidelities(n, traces, (obs.lo, obs.hi)) if traces else [])

    failures, values = [], []
    for (lf, ff), error in zip(itertools.product(length_factors, freq_factors), errors):
        fit = error or next(fits)
        if isinstance(fit, ValueError):
            failures.append({"length_factor": lf, "freq_factor": ff,
                             "error": type(fit).__name__, "message": str(fit)})
        values.append(math.nan if isinstance(fit, ValueError) else fit[0])
    values = np.reshape(values, (len(length_factors), len(freq_factors)))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
