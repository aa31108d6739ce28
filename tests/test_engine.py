"""The incremental sweep engine against references kept in this file.

Golden outputs under ``golden/`` were written by the sequential engine
this one replaced (one full compile and product per N, pulses keyed by
start time, a per-step loop, one ``lstsq`` per trial period), with the
rank-aware ``state_fidelity`` already in place, except the tau spectrum,
whose every pulse phase was built exactly; see ``golden/README``.
"""

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spindd import analysis, evolution
from spindd.algebra import basis_dm, partial_trace
from spindd.analysis import SweepResult, pseudo_fidelity, state_fidelity
from spindd.config import ExperimentConfig
from spindd.evolution import (PropagatorCache, apply_sequence, pulse_propagator, sweep_n,
                              sweep_tau)
from spindd.hamiltonians import (
    DrivePulse,
    GenericSystemParams,
    NvParams,
    TargetParams,
    generic_system,
    nv_system,
)
from spindd.presets import get_preset
from spindd.runner import errmap_experiment, run_experiment
from spindd.sequences import SimConfig, compile_cpmg, compile_xyn, inject_errors

GOLDEN = Path(__file__).parent / "golden"
GENERIC = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, 0.2),)))
PI_PULSE = DrivePulse(5.0, 50.0, 0.0, 0.1)
CFG = SimConfig(dt=0.001)


# ---------------------------------------------------------------- golden outputs

def golden_config(name):
    if name != "errmap-cell":
        return ExperimentConfig.from_dict(get_preset(name))
    raw = get_preset("pulse-error-map")
    del raw["errmap"]
    raw["name"] = "errmap-cell"
    raw["sequence"].update(length_factor=1.1, freq_factor=0.99)
    raw["outputs"]["metrics"] = ["pseudo-fidelity"]
    return ExperimentConfig.from_dict(raw)


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def numbers(tree, prefix=""):
    """Flat ``{path: float}`` of every number in a JSON tree."""
    if isinstance(tree, dict):
        out = {}
        for key, value in tree.items():
            out.update(numbers(value, f"{prefix}/{key}"))
        return out
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return {prefix: float(tree)}
    return {}


@pytest.mark.parametrize("name", ["ddgate", "nv-polarize", "nv-ddgate", "errmap-cell",
                                  "nv-xyn-spectrum"])
def test_run_matches_golden_outputs(name, tmp_path):
    manifest = run_experiment(golden_config(name), tmp_path)
    header, table = read_table(tmp_path / f"{name}.csv")
    gold_header, gold = read_table(GOLDEN / f"{name}.csv")
    assert header == gold_header
    assert np.max(np.abs(table - gold)) <= 1e-10

    expected = numbers(json.loads((GOLDEN / f"{name}-metrics.json").read_text()))
    got = numbers({"metrics": manifest["metrics"], "extras": manifest["extras"]})
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, abs=1e-10), key


@pytest.mark.parametrize("n_range", [[2, 40, 2], [1, 40, 2]])
def test_inversion_fidelity_reads_the_state_at_a_swept_n(n_range, tmp_path):
    # the fitted n_pi is about 19.9: 20 is swept on the even grid, not on the odd one
    raw = get_preset("ddgate")
    raw["sequence"]["n_range"] = n_range
    cfg = ExperimentConfig.from_dict(raw)
    manifest = run_experiment(cfg, tmp_path)
    n_star = manifest["extras"]["inversion_n"]
    assert n_star in cfg.sweep_values().tolist()
    assert abs(n_star - round(manifest["metrics"]["n_pi"])) <= 1
    system = cfg.build_system()
    seq = compile_cpmg(n_star, 0.5, cfg.build_pulse(), system.wrapper_phase)
    reduced = partial_trace(apply_sequence(system, seq, cfg.sim_config()).rho_final, {1})
    expected = state_fidelity(reduced, basis_dm(reduced.dims, (1,)))
    assert manifest["metrics"]["state_fidelity"] == pytest.approx(expected, abs=1e-13)


def test_errmap_cell_matches_golden_f_tilde(tmp_path):
    raw = get_preset("pulse-error-map")
    raw["errmap"] = {"length_factors": [1.1], "freq_factors": [0.99]}
    errmap_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    _, table = read_table(tmp_path / "pulse-error-map-errmap.csv")
    gold = json.loads((GOLDEN / "errmap-cell-metrics.json").read_text())
    assert table[0, 1] == pytest.approx(gold["metrics"]["f_tilde"], abs=1e-10)


def test_errmap_matches_golden_map(tmp_path):
    # every cell: rows walked together on one cache each, fits sharing tables
    errmap_experiment(ExperimentConfig.from_dict(get_preset("pulse-error-map")), tmp_path)
    header, table = read_table(tmp_path / "pulse-error-map-errmap.csv")
    gold_header, gold = read_table(GOLDEN / "pulse-error-map-errmap.csv")
    assert header == gold_header
    assert np.max(np.abs(table - gold)) <= 1e-10


def test_errmap_records_a_failed_sweep_with_the_sweep_n_message(tmp_path):
    raw = get_preset("pulse-error-map")
    raw["errmap"] = {"length_factors": [5.0, 1.0], "freq_factors": [1.0]}
    manifest = errmap_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    _, table = read_table(tmp_path / "pulse-error-map-errmap.csv")
    _, gold = read_table(GOLDEN / "pulse-error-map-errmap.csv")
    assert np.isnan(table[0, 1]) and table[1, 1] == pytest.approx(gold[6, 4], abs=1e-10)
    cfg = ExperimentConfig.from_dict(raw)
    message = error_of(lambda: sweep_n(cfg.build_system(), "xyn", cfg.sweep_values(), 0.5,
                                       cfg.build_pulse(), cfg.sim_config(), length_factor=5.0))
    assert manifest["extras"]["failed_cell_causes"] == [
        {"length_factor": 5.0, "freq_factor": 1.0, "error": "ValueError", "message": message},
    ]


# ---------------------------------------------------------------- prefix products

def per_n_sweep(system, family, n_values, tau, pulse, cfg, lf, ff, cache):
    """Central and target traces and the final states, one compiled sequence per N."""
    compiler = compile_cpmg if family == "cpmg" else compile_xyn
    traces = {obs.label: [] for obs in system.observables}
    states = []
    for n in n_values:
        seq = compiler(int(n), tau, pulse, system.wrapper_phase)
        if lf != 1.0 or ff != 1.0:
            seq = inject_errors(seq, lf, ff)
        rho = apply_sequence(system, seq, cfg, cache).rho_final.mat
        states.append(rho)
        for obs in system.observables:
            traces[obs.label].append(float(np.real(np.trace(rho @ obs.op.mat))))
    return traces, np.array(states)


@pytest.mark.parametrize("family", ["cpmg", "xyn"])
@pytest.mark.parametrize("tau", [0.5, 0.4937])
@pytest.mark.parametrize("factors", [(1.0, 1.0), (1.1, 0.99), (0.8, 1.02)])
def test_sweep_n_equals_per_n_sequences(family, tau, factors):
    n_values = [7, 3, 12, 3, 1, 12, 5, 2]
    cache = PropagatorCache(GENERIC)
    sweep = sweep_n(GENERIC, family, n_values, tau, PI_PULSE, CFG,
                    length_factor=factors[0], freq_factor=factors[1], cache=cache)
    expected, states = per_n_sweep(GENERIC, family, n_values, tau, PI_PULSE, CFG, *factors, cache)
    assert sweep.values.tolist() == [float(n) for n in n_values]
    for label, trace in expected.items():
        assert np.max(np.abs(sweep.trace(label) - trace)) <= 1e-13
    assert sweep.states.shape == states.shape
    assert np.max(np.abs(sweep.states - states)) <= 1e-13


@pytest.mark.parametrize("carrier_reset", [False, True])
def test_sweep_n_equals_per_n_sequences_on_the_nv_center(carrier_reset):
    system = nv_system(NvParams(b0=32.0, theta0=math.radians(2.9)))
    t_pi = 0.01285
    pulse = DrivePulse(27.5683, 1975.6682, 0.0, t_pi)
    cfg = SimConfig(dt=t_pi / 512.0, carrier_reset=carrier_reset)
    n_values = [4, 1, 6, 4]
    cache = PropagatorCache(system)
    sweep = sweep_n(system, "xyn", n_values, 0.364, pulse, cfg, cache=cache)
    expected, states = per_n_sweep(system, "xyn", n_values, 0.364, pulse, cfg, 1.0, 1.0, cache)
    for label, trace in expected.items():
        assert np.max(np.abs(sweep.trace(label) - trace)) <= 1e-13
    assert sweep.states.shape == states.shape
    assert np.max(np.abs(sweep.states - states)) <= 1e-13


def error_of(fn):
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("family, n_values, tau, factors, dt", [
    ("xyn", [1, 4, 3, 2], 0.2, (1.0, 1.0), 0.001),     # 3 pi/2 closer of n = 3 does not fit
    ("xyn", [4, 3], 0.2, (1.0, 1.0), 0.01),            # dt too coarse, found before n = 3
    ("cpmg", [5, 2], 0.15, (1.3, 1.0), 0.001),         # stretched pulses overlap
    ("cpmg", [2, 3], 0.1, (0.5, 1.0), 0.001),          # the nominal pulses already overlap
    ("cpmg", [2, 3], 0.5, (0.0, 1.0), 0.001),          # non-positive error factor
    ("cpmg", [3], 0.5, (0.3, 1.0), 0.002),             # dt too coarse for the shortened pulse
])
def test_sweep_n_raises_what_compiling_each_n_raised(family, n_values, tau, factors, dt):
    cfg = SimConfig(dt=dt)
    expected = error_of(lambda: per_n_sweep(GENERIC, family, n_values, tau, PI_PULSE, cfg,
                                            *factors, PropagatorCache(GENERIC)))
    assert expected is not None
    got = error_of(lambda: sweep_n(GENERIC, family, n_values, tau, PI_PULSE, cfg,
                                   length_factor=factors[0], freq_factor=factors[1]))
    assert got == expected


# ---------------------------------------------------------------- error-cell walk

def outcome(fn):
    """What ``fn`` returns, or the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return exc


def assert_walk_matches_each_cell(family, n_values, tau, cells, failing):
    """The walk against ``sweep_n`` and the per-N sequences of each cell."""
    got = evolution.sweep_n_cells(GENERIC, family, n_values, tau, PI_PULSE, CFG, cells)
    assert len(got) == len(cells)
    for j, ((lf, ff), result) in enumerate(zip(cells, got)):
        alone = outcome(lambda: sweep_n(GENERIC, family, n_values, tau, PI_PULSE, CFG,
                                        length_factor=lf, freq_factor=ff))
        per_n = outcome(lambda: per_n_sweep(GENERIC, family, n_values, tau, PI_PULSE, CFG,
                                            lf, ff, PropagatorCache(GENERIC)))
        if j in failing:
            assert type(result) is ValueError
            assert str(result) == str(alone) == str(per_n)
            continue
        assert result.values.tolist() == [float(n) for n in n_values]
        traces, states = per_n
        for label, trace in traces.items():
            assert np.max(np.abs(result.trace(label) - alone.trace(label))) <= 1e-13
            assert np.max(np.abs(result.trace(label) - trace)) <= 1e-13
        assert np.max(np.abs(result.states - alone.states)) <= 1e-13
        assert np.max(np.abs(result.states - states)) <= 1e-13


SHUFFLED = [7, 3, 12, 3, 1, 12, 5, 2]


@pytest.mark.parametrize("family, n_values, tau, cells, failing", [
    # at 1.0 the opening gap is empty, at 0.9 it is not, at 1.3 it is negative
    ("cpmg", SHUFFLED, 0.15, [(0.9, 1.0), (1.0, 1.0), (1.3, 1.0)], {2}),
    ("cpmg", SHUFFLED, 0.15, [(1.3, 1.0), (1.0, 1.0), (1.3, 0.99)], {0, 2}),
    # both closing classes, a 3 pi/2 closer, one carrier per cell
    ("xyn", SHUFFLED, 0.5, [(1.1, 0.99), (1.1, 1.0), (1.1, 1.02)], set()),
    # at 1.1 only the 3 pi/2 closer of the second class (N = 3) does not fit
    ("xyn", [1, 4, 3, 2], 0.25, [(1.0, 1.0), (1.1, 1.0)], {1}),
    # the nominal 3 pi/2 closer of N = 3 does not fit, the shortened one would
    ("xyn", [1, 4, 3, 2], 0.2, [(0.8, 1.0), (1.0, 1.0)], {0, 1}),
    ("cpmg", SHUFFLED, 0.15, [(1.3, 1.0)], {0}),    # no cell left to walk
])
def test_walk_equals_each_cell_alone(family, n_values, tau, cells, failing):
    assert_walk_matches_each_cell(family, n_values, tau, cells, failing)


def test_a_failing_build_fails_only_its_cell(monkeypatch):
    original = PropagatorCache.pulse

    def pulse(self, drive, t_start, dt):
        if drive.omegap == 50.0 * 1.02 and t_start > 1.0:
            raise ValueError("no pulse after the second")
        return original(self, drive, t_start, dt)

    monkeypatch.setattr(PropagatorCache, "pulse", pulse)
    cells = [(1.1, 0.99), (1.1, 1.02), (1.1, 1.0)]
    assert_walk_matches_each_cell("xyn", [7, 3, 12, 1], 0.5, cells, {1})


# ---------------------------------------------------------------- tau walk

def per_tau_sweep(system, family, n, taus, pulse, cfg, lf, ff, cache):
    """Central and target traces and the final states, one compiled sequence per tau."""
    compiler = compile_cpmg if family == "cpmg" else compile_xyn
    traces = {obs.label: [] for obs in system.observables}
    states = []
    for tau in taus:
        seq = compiler(n, tau, pulse, system.wrapper_phase)
        if lf != 1.0 or ff != 1.0:
            seq = inject_errors(seq, lf, ff)
        rho = apply_sequence(system, seq, cfg, cache).rho_final.mat
        states.append(rho)
        for obs in system.observables:
            traces[obs.label].append(float(np.real(np.trace(rho @ obs.op.mat))))
    return traces, np.array(states)


def assert_sweep_tau_matches_per_tau(system, family, n, taus, pulse, cfg, factors=(1.0, 1.0)):
    sweep = sweep_tau(system, family, n, taus, pulse, cfg, length_factor=factors[0],
                      freq_factor=factors[1])
    expected, states = per_tau_sweep(system, family, n, taus, pulse, cfg, *factors,
                                     PropagatorCache(system))
    assert sweep.values.tolist() == taus
    for label, trace in expected.items():
        assert np.max(np.abs(sweep.trace(label) - trace)) <= 1e-13
    assert sweep.states.shape == states.shape
    assert np.max(np.abs(sweep.states - states)) <= 1e-13


@pytest.mark.parametrize("family, n", [("cpmg", 4), ("xyn", 6), ("xyn", 3)])
@pytest.mark.parametrize("factors", [(1.0, 1.0), (1.1, 0.99), (0.8, 1.02)])
def test_sweep_tau_equals_per_tau_sequences(family, n, factors):
    taus = [0.5, 0.4937, 0.62, 0.45, 0.5, 0.3]  # unsorted, with a repeat
    assert_sweep_tau_matches_per_tau(GENERIC, family, n, taus, PI_PULSE, CFG, factors)


@pytest.mark.parametrize("carrier_reset", [False, True])
def test_sweep_tau_equals_per_tau_sequences_on_the_nv_center(carrier_reset):
    cfg = SimConfig(dt=NV_PI.duration / 512.0, carrier_reset=carrier_reset)
    assert_sweep_tau_matches_per_tau(NV, "xyn", 8, [0.364, 0.2, 0.41, 0.3655], NV_PI, cfg)


def test_walks_look_up_in_the_order_of_one_sequence_after_another(monkeypatch):
    # the order decides which phases of a shape are built exactly and which
    # come from its interpolant, so it keeps the walk's states bit for bit
    requests = []

    def logging(name):
        original = getattr(PropagatorCache, name)

        def logged(self, *args):
            requests.append((name,) + args)
            return original(self, *args)
        return logged

    for name in ("pulse", "free"):
        monkeypatch.setattr(PropagatorCache, name, logging(name))

    def requested(fn):
        requests.clear()
        fn()
        return list(requests)

    taus = [0.5, 0.4937, 0.62, 0.45]
    walked = requested(lambda: sweep_tau(GENERIC, "xyn", 6, taus, PI_PULSE, CFG,
                                         length_factor=1.1))
    assert walked == requested(lambda: per_tau_sweep(GENERIC, "xyn", 6, taus, PI_PULSE, CFG,
                                                     1.1, 1.0, PropagatorCache(GENERIC)))
    cells, cache = [(1.1, 0.99), (1.1, 1.02)], PropagatorCache(GENERIC)
    walked = requested(lambda: evolution.sweep_n_cells(GENERIC, "xyn", [7, 3, 12], 0.5,
                                                       PI_PULSE, CFG, cells))
    assert walked == requested(lambda: [
        sweep_n(GENERIC, "xyn", [7, 3, 12], 0.5, PI_PULSE, CFG, length_factor=lf,
                freq_factor=ff, cache=cache) for lf, ff in cells])


@pytest.mark.parametrize("family, n, taus, factors, dt", [
    ("cpmg", 2, [0.5, 0.08, 0.6], (1.0, 1.0), 0.001),          # the nominal pulses overlap
    ("xyn", 3, [0.3, 0.2, 0.1], (1.0, 1.0), 0.001),            # only the 3 pi/2 closer fails
    ("cpmg", 2, [0.5, 0.15, 0.3, 0.1], (1.3, 1.0), 0.001),     # stretched pulses overlap
    ("cpmg", 2, [0.5, 0.6], (0.3, 1.0), 0.002),                # dt too coarse for short pulses
    ("cpmg", 2, [0.5, 0.6], (0.0, 1.0), 0.001),                # non-positive error factor
    ("cpmg", 2, [0.5, math.nan, 0.08], (1.0, 1.0), 0.001),     # a bad state before a failing tau
])
def test_sweep_tau_raises_what_the_first_failing_tau_raises(family, n, taus, factors, dt):
    cfg = SimConfig(dt=dt)
    expected = error_of(lambda: per_tau_sweep(GENERIC, family, n, taus, PI_PULSE, cfg,
                                              *factors, PropagatorCache(GENERIC)))
    assert expected is not None
    got = error_of(lambda: sweep_tau(GENERIC, family, n, taus, PI_PULSE, cfg,
                                     length_factor=factors[0], freq_factor=factors[1]))
    assert got == expected


def test_a_failing_build_fails_its_tau_before_a_later_failing_tau(monkeypatch):
    original = PropagatorCache.pulse

    def pulse(self, drive, t_start, dt):
        if t_start > 1.2:  # tau 0.7's closing wrapper and tau 0.9's last two pulses
            raise ValueError(f"no pulse at {t_start}")
        return original(self, drive, t_start, dt)

    monkeypatch.setattr(PropagatorCache, "pulse", pulse)
    taus = [0.5, 0.7, 0.9, 0.08]
    expected = error_of(lambda: per_tau_sweep(GENERIC, "cpmg", 2, taus, PI_PULSE, CFG, 1.0, 1.0,
                                              PropagatorCache(GENERIC)))
    assert expected.startswith("no pulse at 1.4")  # tau 0.7's closing wrapper
    assert error_of(lambda: sweep_tau(GENERIC, "cpmg", 2, taus, PI_PULSE, CFG)) == expected


# ---------------------------------------------------------------- phase-keyed cache

def counting_builds(monkeypatch):
    calls = []
    original = evolution.pulse_propagator

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(evolution, "pulse_propagator", counted)
    return calls


def test_pulse_cache_shares_builds_across_whole_carrier_periods(monkeypatch):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(GENERIC)
    pulse = DrivePulse(5.0, 50.0, 0.3, 0.1)
    t0 = 0.1374
    starts = (t0, t0 + 7 / 50.0, t0 + 400 / 50.0)
    for t in starts:
        ref = pulse_propagator(GENERIC.h0, pulse, GENERIC.drive_op, t, 0.001).mat
        assert np.max(np.abs(cache.pulse(pulse, t, 0.001) - ref)) <= 1e-11
    assert len(builds) == 1

    off_grid = t0 + 0.0031
    ref = pulse_propagator(GENERIC.h0, pulse, GENERIC.drive_op, off_grid, 0.001).mat
    assert np.max(np.abs(cache.pulse(pulse, off_grid, 0.001) - ref)) <= 1e-11
    assert len(builds) == 2


def test_pulse_cache_wraps_a_full_cycle_to_zero(monkeypatch):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(GENERIC)
    pulse = DrivePulse(5.0, 50.0, 0.0, 0.1)
    # one period minus rounding lands on the same key as the start
    a = cache.pulse(pulse, 0.0, 0.001)
    b = cache.pulse(pulse, 1.0 / 50.0 - 1e-16, 0.001)
    assert len(builds) == 1 and a is b


# ---------------------------------------------------------------- step product

def eigh_step_product(system, pulse, t_start, dt):
    """Pulse propagator with one ``eigh`` per Trotter step, multiplied in a loop."""
    steps = int(round(pulse.duration / dt))
    t_mid = t_start + (np.arange(steps) + 0.5) * dt
    coeff = pulse.omega1 * np.cos(2.0 * np.pi * pulse.omegap * t_mid + pulse.phase)
    h = system.h0.mat[None] + coeff[:, None, None] * system.drive_op.mat[None]
    w, v = np.linalg.eigh(h)
    step_us = (v * np.exp(-2j * np.pi * dt * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    u = np.eye(system.h0.shape[0], dtype=complex)
    for step in step_us:
        u = step @ u
    return u


@pytest.mark.parametrize("duration", [0.001, 0.051, 0.1, 0.101, 0.128])
def test_log_depth_step_product_equals_the_sequential_loop(duration):
    pulse = DrivePulse(5.0, 50.0, 0.7, duration)
    u = eigh_step_product(GENERIC, pulse, 0.213, 0.001)
    got = pulse_propagator(GENERIC.h0, pulse, GENERIC.drive_op, 0.213, 0.001).mat
    assert np.max(np.abs(got - u)) <= 1e-13


# ---------------------------------------------------------------- Chebyshev steps

NV = nv_system(NvParams(b0=32.0, theta0=math.radians(2.9)))
NV_PI = DrivePulse(27.5683, 1975.6682, 0.0, 0.01285)
SX_IY = np.zeros((3, 3))
SX_IY[2, 0], SX_IY[0, 1] = 0.2, 0.07  # azx plus an Sx Iy entry: a complex h0
THREE = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, SX_IY),
                                                  TargetParams(1.6, 0.15))))


@pytest.mark.parametrize("system, pulse, dt", [
    (NV, NV_PI, 0.01285 / 512),                             # NV pi pulse, 512 steps
    (GENERIC, DrivePulse(5.0, 50.0, 0.7, 0.07), 0.001),     # length factor 0.7
    (GENERIC, DrivePulse(5.0, 50.0, 0.7, 0.13), 0.001),     # length factor 1.3
    (THREE, DrivePulse(5.0, 50.0, 1.9, 0.1), 0.001),        # 3 qubits, complex coupling
    (GENERIC, DrivePulse(5.0, 50.0, 0.3, 0.1), 0.01),       # coarse dt = t_pulse / 10
    (GENERIC, DrivePulse(5.0, 50.0, 0.3, 0.001), 0.001),    # one step
], ids=["nv-pi", "generic-0.7", "generic-1.3", "three-qubit-complex", "coarse-dt", "one-step"])
def test_chebyshev_steps_match_the_per_step_eigh_product(system, pulse, dt):
    t_start = 0.0173
    ref = eigh_step_product(system, pulse, t_start, dt)
    got = pulse_propagator(system.h0, pulse, system.drive_op, t_start, dt).mat
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert np.max(np.abs(got.conj().T @ got - np.eye(len(got)))) <= 1e-12


@pytest.mark.parametrize("y", [0.0043, 0.0157, 0.157, 0.9, 3.0])
def test_node_count_is_the_smallest_meeting_the_bound(y):
    k = evolution._node_count(y)
    assert 2.0 * y**k / math.factorial(k) <= evolution._CHEB_TOL
    assert 2.0 * y**(k - 1) / math.factorial(k - 1) > evolution._CHEB_TOL


def test_node_counts_of_the_nv_generic_and_coarse_pulses():
    # y = pi dt omega1 |drive_op|_2; |2 Sx| is 2 on the spin-1, 1 on the spin-1/2
    assert evolution._node_count(np.pi * 0.01285 / 512 * 27.5683 * 2.0) == 7
    assert evolution._node_count(np.pi * 0.001 * 5.0) == 8
    assert evolution._node_count(np.pi * 0.01 * 5.0) == 12


def test_nv_pulse_eigendecomposes_the_nodes_not_the_steps(monkeypatch):
    seen = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        seen.append(1 if np.ndim(a) == 2 else len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cfg = ExperimentConfig.from_dict(get_preset("nv-ddgate"))
    system, pulse, dt = cfg.build_system(), cfg.build_pulse(), cfg.sim_config().dt
    assert round(pulse.duration / dt) == 512
    pulse_propagator(system.h0, pulse, system.drive_op, 0.0, dt)
    assert seen == [7]  # one batched eigh of the K = 7 nodes, not of 512 steps


# ---------------------------------------------------------------- phase interpolant

NV_HALF = replace(NV_PI, duration=0.01285 / 2.0)
NV_DT = 0.01285 / 512


def keyed_cycles(pulse, t_start):
    """The carrier phase in cycles that ``PropagatorCache.pulse`` keys on."""
    cycles = round((pulse.omegap * t_start + pulse.phase / (2.0 * math.pi)) % 1.0, 12)
    return 0.0 if cycles == 1.0 else cycles


def keyed_build(system, pulse, t_start, dt):
    keyed = replace(pulse, phase=2.0 * math.pi * keyed_cycles(pulse, t_start))
    return pulse_propagator(system.h0, keyed, system.drive_op, 0.0, dt).mat


def phase_bound(a, h):
    q = math.e * a / (h + 1)
    return 2.0 * q ** (h + 1) / (1.0 - q) if q < 1.0 else math.inf


@pytest.mark.parametrize("a", [0.0, 0.01, 0.3, np.pi * 0.1 * 5.0, 2.2, 7.0, 40.0])
def test_phase_count_is_the_smallest_meeting_the_bound(a):
    m = evolution._phase_count(a)
    assert m % 2 == 1
    h = (m - 1) // 2
    assert phase_bound(a, h) <= evolution._PHASE_TOL
    assert all(phase_bound(a, j) > evolution._PHASE_TOL for j in range(h))


def test_phase_counts_of_the_nv_and_generic_pulses():
    # a = pi nsteps dt omega1 |drive_op|_2
    assert evolution._phase_count(np.pi * 0.01285 * 27.5683 * 2.0) == 51        # NV pi
    assert evolution._phase_count(np.pi * 0.01285 / 2 * 27.5683 * 2.0) == 39    # NV pi/2
    assert evolution._phase_count(np.pi * 0.1 * 5.0) == 43                      # generic pi


def request_phases(cache, pulse, dt, cycles):
    return [cache.pulse(pulse, c / pulse.omegap, dt) for c in cycles]


@pytest.mark.parametrize("system, pulse, dt, m", [
    (NV, NV_PI, NV_DT, 51),
    (NV, NV_HALF, NV_DT, 39),
    (GENERIC, DrivePulse(5.0, 50.0, 0.0, 0.05), 0.001, 35),    # length factor 0.5
    (GENERIC, DrivePulse(5.0, 50.0, 0.0, 0.13), 0.001, 49),    # length factor 1.3
], ids=["nv-pi", "nv-half-pi", "generic-0.5", "generic-1.3"])
def test_interpolated_entries_match_the_keyed_exact_build(monkeypatch, system, pulse, dt, m):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(system)
    rng = np.random.default_rng(5)
    request_phases(cache, pulse, dt, rng.random(2 * m + 1))
    assert len(builds) == 3 * m
    starts = rng.random(200) / pulse.omegap
    got = [cache.pulse(pulse, t, dt) for t in starts]
    assert len(builds) == 3 * m  # every later phase comes from the interpolant
    worst = max(np.max(np.abs(u - keyed_build(system, pulse, t, dt))) for u, t in zip(got, starts))
    assert worst <= 1e-13


def test_a_shape_switches_to_the_interpolant_after_2m_phases(monkeypatch):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(GENERIC)
    m = 43  # generic pi pulse
    cycles = np.arange(2 * m + 1) / (2 * m + 1) + 0.001
    got = request_phases(cache, PI_PULSE, 0.001, cycles[:2 * m])
    assert len(builds) == 2 * m
    # no samples: each build is one requested phase
    requested = [2.0 * np.pi * keyed_cycles(PI_PULSE, c / PI_PULSE.omegap) for c in cycles[:2 * m]]
    assert [args[1].phase for args in builds] == requested
    # below the switch every entry is the keyed exact build, bit for bit
    for u, c in zip(got, cycles):
        assert np.array_equal(u, keyed_build(GENERIC, PI_PULSE, c / PI_PULSE.omegap, 0.001))
    request_phases(cache, PI_PULSE, 0.001, cycles[:2 * m])  # repeats are cache hits
    assert len(builds) == 2 * m
    request_phases(cache, PI_PULSE, 0.001, cycles[2 * m:])
    assert len(builds) == 3 * m
    samples = [args[1].phase for args in builds[2 * m:]]
    assert samples == pytest.approx([2.0 * np.pi * j / m for j in range(m)], abs=1e-15)


# ---------------------------------------------------------------- walk-planned phases

def logged_requests(monkeypatch):
    requests = []
    original = PropagatorCache.pulse

    def logged(self, drive, t_start, dt):
        requests.append((drive, t_start, dt))
        return original(self, drive, t_start, dt)

    monkeypatch.setattr(PropagatorCache, "pulse", logged)
    return requests


def preset_inputs(name):
    cfg = ExperimentConfig.from_dict(get_preset(name))
    return cfg, cfg.build_system(), cfg.build_pulse(), cfg.sim_config()


def test_a_tau_sweep_builds_only_the_samples_of_each_shape(monkeypatch):
    cfg, system, pulse, sim = preset_inputs("nv-xyn-spectrum")
    taus = cfg.sweep_values().tolist()
    builds = counting_builds(monkeypatch)
    sweep = sweep_tau(system, "xyn", 8, taus, pulse, sim)
    # 1096 pi phases > 2 x 51 and 142 pi/2 phases > 2 x 39: no exact build
    assert len(builds) == 90
    phases = {}
    for args in builds:
        phases.setdefault(args[1].duration, []).append(args[1].phase)
    assert sorted(phases) == [pulse.duration / 2.0, pulse.duration]
    for duration, m in ((pulse.duration, 51), (pulse.duration / 2.0, 39)):
        assert phases[duration] == pytest.approx([2.0 * np.pi * j / m for j in range(m)],
                                                 abs=1e-15)
    _, states = per_tau_sweep(system, "xyn", 8, taus, pulse, sim, 1.0, 1.0,
                              PropagatorCache(system))
    assert np.max(np.abs(sweep.states - states)) <= 1e-13


@pytest.mark.parametrize("name", ["nv-ddgate", "pulse-error-map"])
def test_a_walk_within_2m_phases_builds_each_phase_exactly(monkeypatch, name):
    cfg, system, pulse, sim = preset_inputs(name)
    seq = cfg.data["sequence"]
    grid = cfg.data.get("errmap")
    cells = [(seq["length_factor"], seq["freq_factor"])] if grid is None else [
        (grid["length_factors"][0] * seq["length_factor"], ff * seq["freq_factor"])
        for ff in grid["freq_factors"]]  # one row of the error map
    builds, requests = counting_builds(monkeypatch), logged_requests(monkeypatch)
    cache = PropagatorCache(system)
    results = evolution.sweep_n_cells(system, seq["family"], cfg.sweep_values(), seq["tau"],
                                      pulse, sim, cells, cache=cache)
    assert not any(isinstance(result, ValueError) for result in results)
    phases = {cache.pulse_key(*request): request for request in requests}
    assert len(builds) == len(phases)  # one build per requested phase, no samples
    for drive, t_start, dt in phases.values():
        assert np.array_equal(cache.pulse(drive, t_start, dt),
                              keyed_build(system, drive, t_start, dt))


def test_a_second_walk_counts_only_the_phases_the_cache_lacks(monkeypatch):
    builds, requests = counting_builds(monkeypatch), logged_requests(monkeypatch)
    cache = PropagatorCache(GENERIC)
    # per tau 4 pi phases and one closing pi/2 phase; all taus share the opening one
    taus = [0.4937 + 0.00131 * k for k in range(30)]

    def walk(k):
        held = len(builds)
        requests.clear()
        sweep_tau(GENERIC, "cpmg", 4, taus[:k], PI_PULSE, CFG, cache=cache)
        return sorted(args[1].duration for args in builds[held:])

    assert walk(10) == [0.05] * 11 + [0.1] * 40
    # 40 pi phases held plus 40 new stay within 2 x 43, though 40 + 80 would not
    assert walk(20) == [0.05] * 10 + [0.1] * 40
    for drive, t_start, dt in list(requests):
        assert np.array_equal(cache.pulse(drive, t_start, dt),
                              keyed_build(GENERIC, drive, t_start, dt))
    # 80 held plus 40 new do not: the pi shape builds its 43 samples instead
    assert walk(30) == [0.05] * 10 + [0.1] * 43


def test_a_failing_sample_build_fails_only_the_cells_of_its_shape(monkeypatch):
    failed = []
    original = evolution.pulse_propagator

    def failing(h0, drive, *args):
        if drive.omegap == 50.0 * 1.02 and drive.duration == 0.1:
            failed.append(drive.phase)
            raise ValueError("no build of the detuned pi pulse")
        return original(h0, drive, *args)

    monkeypatch.setattr(evolution, "pulse_propagator", failing)
    # N = 90 at an incommensurate tau: each pi shape has more than 2 x 43 phases
    cells = [(1.0, 1.0), (1.0, 1.02), (1.1, 1.0), (1.0, 1.02)]
    assert_walk_matches_each_cell("xyn", [90, 3, 47], 0.4937, cells, {1, 3})
    assert failed[:2] == [0.0, 0.0]  # the walk's two cells each tried the first sample


# ---------------------------------------------------------------- batched fit

def scalar_fit(n, y, value_range):
    """The period scan with one ``lstsq`` per trial period."""
    def lsq(t):
        arg = 2.0 * np.pi * n / t
        design = np.column_stack([np.ones_like(n), np.cos(arg), np.sin(arg)])
        coeff, *_ = np.linalg.lstsq(design, y, rcond=None)
        return coeff, float(np.sqrt(np.mean((y - design @ coeff) ** 2)))

    span = n.max() - n.min()
    best_t, best_rms = None, np.inf
    for t in np.linspace(3.0, 1.5 * span, 600):
        _, rms = lsq(t)
        if rms < best_rms:
            best_t, best_rms = t, rms
    for t in np.linspace(max(2.5, best_t * 0.9), min(1.6 * span, best_t * 1.1), 400):
        _, rms = lsq(t)
        if rms < best_rms:
            best_t, best_rms = t, rms
    coeff, _ = lsq(best_t)
    rng = value_range[1] - value_range[0]
    return min(2.0 * float(np.hypot(coeff[1], coeff[2])) / rng, 1.0), best_t / 2.0


@pytest.mark.parametrize("period, noise, amp", [
    (24.0, 0.0, 0.45),    # clean
    (19.3, 0.03, 0.4),    # noisy
    (47.0, 0.01, 0.3),    # longer than the sweep
    (7.7, 0.05, 0.5),     # fast, near full contrast
])
def test_batched_fit_equals_scalar_lstsq_scan(period, noise, amp):
    rng = np.random.default_rng(11)
    n = np.arange(1, 41, dtype=float)
    y = 0.02 + amp * np.cos(2.0 * np.pi * n / period + 0.4) + noise * rng.normal(size=n.size)
    sweep = SweepResult(axis="n", values=n, traces={"Iz": y})
    got = pseudo_fidelity(sweep, "Iz", (-0.5, 0.5))
    expected = scalar_fit(n, y, (-0.5, 0.5))
    assert got == pytest.approx(expected, abs=1e-9)


def test_coarse_fit_tables_are_shared_and_read_only():
    n = np.arange(1, 41, dtype=float)
    noise = 0.01 * np.random.default_rng(3).normal(size=n.size)
    first = SweepResult("n", n, {"Iz": 0.4 * np.cos(2.0 * np.pi * n / 31.0) + noise})
    second = SweepResult("n", n, {"Iz": 0.45 * np.cos(2.0 * np.pi * n / 17.0 + 0.3)})
    analysis._coarse_tables.cache_clear()
    fresh = pseudo_fidelity(second, "Iz", (-0.5, 0.5))
    analysis._coarse_tables.cache_clear()
    pseudo_fidelity(first, "Iz", (-0.5, 0.5))
    assert pseudo_fidelity(second, "Iz", (-0.5, 0.5)) == fresh  # bit for bit
    info = analysis._coarse_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    for table in analysis._coarse_tables(n.tobytes()):
        assert not table.flags.writeable
    # another n replaces the one entry
    pseudo_fidelity(SweepResult("n", n + 1.0, second.traces), "Iz", (-0.5, 0.5))
    assert analysis._coarse_tables.cache_info().currsize == 1
