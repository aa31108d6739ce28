"""Correctness gate of the benchmark, written apart from the package.

Sweep points are recomputed with a plain per-step midpoint Trotter
product: the timing of each sequence is restated here from the
documented rules (pi-pulse centres ``tau`` apart, half-pi wrappers
``tau/2`` from the outer pi pulses, XY axes alternating with the wrapper
axis, the ``xy8-parity`` closing rule), every step unitary comes from
numpy ``eigh``, pulse durations snap to whole steps of ``dt`` and the
carrier runs on one continuous clock that advances by the snapped
durations.  Only the static register (``H0``, drive operator, initial
state, observables) is taken from the package's ``build_system``.

Oscillation fits are redone with an independent least-squares scan over
the period grid the package documents (600 trial periods on
``[3, 1.5 span]``, then 400 on ``[max(2.5, 0.9 T), min(1.6 span, 1.1 T)]``),
solving the 3x3 normal equations of all trial periods at once.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9


def _family_rule(family: str, closing_rule):
    if closing_rule is not None:
        return closing_rule
    return "plain" if family == "cpmg" else "xy8-parity"


def timeline(seq: dict, n: int, tau: float, wrapper_phase: float, length_factor: float):
    """Elements of one sequence as ``(duration, phase)``; phase None is free."""
    family = seq["family"]
    t_pi = float(seq["t_pi"]) * length_factor
    t_half = t_pi / 2.0
    three_halves = (_family_rule(family, seq["closing_rule"]) == "xy8-parity"
                    and (n // 2) % 2 == 1)
    t_close = t_half * (3.0 if three_halves else 1.0)
    if family == "cpmg":
        axes = [0.0] * n
    else:
        axes = [0.0 if k % 2 == 0 else wrapper_phase for k in range(n)]
    open_gap = tau / 2.0 - t_pi / 2.0 - t_half / 2.0
    close_gap = tau / 2.0 - t_pi / 2.0 - t_close / 2.0
    inner_gap = tau - t_pi
    if min(open_gap, close_gap, inner_gap) < -1e-12:
        raise ValueError("pulses do not fit into tau")

    out = [(t_half, wrapper_phase), (max(open_gap, 0.0), None)]
    for k, axis in enumerate(axes):
        out.append((t_pi, axis))
        if k < n - 1:
            out.append((inner_gap, None))
    out.append((max(close_gap, 0.0), None))
    out.append((t_close, wrapper_phase))
    return out


def final_state(system, seq: dict, dt: float, n: int, tau: float,
                length_factor: float = 1.0, freq_factor: float = 1.0) -> np.ndarray:
    """Density matrix after one sequence, by the per-step product."""
    h0 = system.h0.mat
    drive = system.drive_op.mat
    w0, v0 = np.linalg.eigh(h0)
    omega1 = float(seq["omega1"])
    omegap = float(seq["carrier"]) * freq_factor
    wrapper = seq["wrapper_phase"]
    if wrapper is None:
        wrapper = system.wrapper_phase

    u = np.eye(h0.shape[0], dtype=complex)
    t = 0.0
    for duration, phase in timeline(seq, n, tau, wrapper, length_factor):
        if phase is None:
            if duration > 0:
                u = (v0 * np.exp(-2j * np.pi * duration * w0)) @ v0.conj().T @ u
            t += duration
            continue
        steps = int(round(duration / dt))
        t_mid = t + (np.arange(steps) + 0.5) * dt
        amp = omega1 * np.cos(2.0 * np.pi * omegap * t_mid + phase)
        w, v = np.linalg.eigh(h0[None] + amp[:, None, None] * drive[None])
        step_u = (v * np.exp(-2j * np.pi * dt * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        for k in range(steps):
            u = step_u[k] @ u
        t += steps * dt
    return u @ system.rho0.mat @ u.conj().T


def observables(system, rho: np.ndarray) -> dict:
    return {obs.label: float(np.real(np.trace(rho @ obs.op.mat))) for obs in system.observables}


def fit_scan(n, y, lo: float, hi: float):
    """``(f_tilde, n_pi)`` of ``a + b cos(2 pi n / T) + c sin(2 pi n / T)``."""
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    span = n.max() - n.min()

    def best(periods):
        arg = 2.0 * np.pi * n[None, :] / periods[:, None]
        x = np.stack([np.ones_like(arg), np.cos(arg), np.sin(arg)], axis=-1)
        coeff = np.linalg.solve(np.einsum("pki,pkj->pij", x, x),
                                np.einsum("pki,k->pi", x, y)[..., None])[..., 0]
        rms = np.sqrt(np.mean((y[None, :] - np.einsum("pki,pi->pk", x, coeff)) ** 2, axis=1))
        i = int(np.argmin(rms))
        return periods[i], rms[i], coeff[i]

    t1, r1, c1 = best(np.linspace(3.0, 1.5 * span, 600))
    t2, r2, c2 = best(np.linspace(max(2.5, t1 * 0.9), min(1.6 * span, t1 * 1.1), 400))
    period, coeff = (t2, c2) if r2 < r1 else (t1, c1)
    amp = math.hypot(coeff[1], coeff[2])
    return min(2.0 * amp / (hi - lo), 1.0), period / 2.0


def agrees(a: float, b: float) -> bool:
    return abs(a - b) <= TOL
