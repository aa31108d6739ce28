"""Time evolution: Trotterized pulses, exact delays, sweeps, caching."""

import math

import numpy as np
import pytest

from spindd.algebra import herm_propagator
from spindd.evolution import (PropagatorCache, apply_sequence, pulse_propagator, sweep_n,
                              sweep_n_cells, sweep_tau)
from spindd.hamiltonians import (
    DrivePulse,
    GenericSystemParams,
    NvParams,
    TargetParams,
    generic_system,
    nv_system,
)
from spindd.sequences import Delay, PulseSequence, SimConfig, compile_cpmg, compile_xyn

GENERIC = GenericSystemParams(50.0, (TargetParams(1.0, 0.1),))
UNCOUPLED = GenericSystemParams(50.0, (TargetParams(1.0, 0.0),))
PI_PULSE = DrivePulse(5.0, 50.0, 0.0, 0.1)
CFG = SimConfig(dt=0.001)


def central_sz(system, rho):
    for obs in system.observables:
        if obs.label == "Sz":
            return float(np.real(np.trace(obs.op.mat @ rho.mat)))
    raise KeyError("Sz")


def test_resonant_pi_pulse_flips_the_central_spin():
    sys = generic_system(UNCOUPLED)
    u = pulse_propagator(sys.h0, PI_PULSE, sys.drive_op, 0.0, 0.001)
    rho = u.mat @ sys.rho0.mat @ u.mat.conj().T
    sz = np.real(np.trace(np.diag([0.25, 0.25, -0.25, -0.25]) @ rho)) * 2.0
    assert sz < -0.49


def test_pulse_propagator_is_unitary():
    sys = generic_system(GENERIC)
    u = pulse_propagator(sys.h0, PI_PULSE, sys.drive_op, 0.3, 0.001)
    assert np.max(np.abs(u.mat @ u.mat.conj().T - np.eye(4))) < 1e-12


def test_pulse_propagator_validation():
    sys = generic_system(GENERIC)
    with pytest.raises(ValueError, match="positive dt"):
        pulse_propagator(sys.h0, PI_PULSE, sys.drive_op)
    short = DrivePulse(5.0, 50.0, 0.0, 1e-4)
    with pytest.raises(ValueError, match="shorter than half a step"):
        pulse_propagator(sys.h0, short, sys.drive_op, 0.0, 0.001)
    other = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, 0.1),) * 2))
    with pytest.raises(ValueError, match="different registers"):
        pulse_propagator(sys.h0, PI_PULSE, other.drive_op, 0.0, 0.001)


def test_trotter_step_halving_converges_on_observables():
    sys = generic_system(GENERIC)
    seq = compile_cpmg(2, 0.5, PI_PULSE)
    coarse = apply_sequence(sys, seq, SimConfig(dt=0.001)).rho_final
    fine = apply_sequence(sys, seq, SimConfig(dt=0.0005)).rho_final
    for obs in sys.observables:
        a = np.real(np.trace(obs.op.mat @ coarse.mat))
        b = np.real(np.trace(obs.op.mat @ fine.mat))
        assert abs(a - b) < 1e-3


def test_trotter_is_second_order_in_dt():
    sys = generic_system(GENERIC)
    diffs = []
    for dt in (0.001, 0.0005, 0.00025):
        u1 = pulse_propagator(sys.h0, PI_PULSE, sys.drive_op, 0.0, dt)
        u2 = pulse_propagator(sys.h0, PI_PULSE, sys.drive_op, 0.0, dt / 2.0)
        diffs.append(np.max(np.abs(u1.mat - u2.mat)))
    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.05)
    # at an eightfold refinement the halving residual drops below 1e-4
    u8 = pulse_propagator(sys.h0, PI_PULSE, sys.drive_op, 0.0, 0.001 / 8.0)
    u16 = pulse_propagator(sys.h0, PI_PULSE, sys.drive_op, 0.0, 0.001 / 16.0)
    assert np.max(np.abs(u8.mat - u16.mat)) < 1e-4


def test_echo_inverts_an_uncoupled_spin():
    # pi-pulse pairs cancel and the two half-pi wrappers add up to a pi
    # rotation; free phases are refocused by the echo timing
    sys = generic_system(UNCOUPLED)
    res = apply_sequence(sys, compile_cpmg(2, 0.5, PI_PULSE), CFG)
    assert central_sz(sys, res.rho_final) == pytest.approx(-0.5, abs=0.01)


def test_sequence_propagator_is_unitary_and_preserves_purity():
    sys = generic_system(GENERIC)
    res = apply_sequence(sys, compile_cpmg(4, 0.5, PI_PULSE), CFG)
    u = res.unitary.mat
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-8
    assert abs(res.rho_final.purity() - 1.0) < 1e-8


def test_free_evolution_is_exact():
    sys = generic_system(GENERIC)
    cache = PropagatorCache(sys)
    ref = herm_propagator(sys.h0, 0.37)
    assert np.max(np.abs(cache.free(0.37) - ref.mat)) < 1e-12


def test_wrapper_pair_with_zero_net_rotation_restores_the_pole():
    # a half-pi opener and a counter-rotating closer, timed so both
    # start at integer carrier periods, bring |0> back to the pole
    sys = generic_system(GENERIC)
    base = DrivePulse(6.25, 50.0, 0.0, 0.08)

    def wrapper(phase):
        return DrivePulse(6.25, 50.0, phase, 0.04)

    seq = PulseSequence(
        elements=(wrapper(math.pi / 2.0), Delay(0.02), wrapper(3.0 * math.pi / 2.0)),
        family="cpmg", n_pulses=1, tau=0.1,
        base_pulse=base, wrapper_phase=math.pi / 2.0, closing_rule="plain",
    )
    res = apply_sequence(sys, seq, CFG)
    assert central_sz(sys, res.rho_final) == pytest.approx(0.5, abs=0.01)


def test_apply_sequence_rejects_foreign_cache_and_elements():
    sys = generic_system(GENERIC)
    other = generic_system(UNCOUPLED)
    seq = compile_cpmg(2, 0.5, PI_PULSE)
    with pytest.raises(ValueError, match="different system"):
        apply_sequence(sys, seq, CFG, cache=PropagatorCache(other))
    broken = PulseSequence(
        elements=("not an element",), family="cpmg", n_pulses=1, tau=0.5,
        base_pulse=PI_PULSE, wrapper_phase=math.pi / 2.0, closing_rule="plain",
    )
    with pytest.raises(TypeError, match="unknown sequence element"):
        apply_sequence(sys, broken, CFG)


def test_sweeps_reject_a_cache_of_another_system():
    sys = generic_system(GENERIC)
    foreign = PropagatorCache(generic_system(UNCOUPLED))
    with pytest.raises(ValueError, match="cache was built for a different system"):
        sweep_n(sys, "cpmg", [1, 2, 4], 0.5, PI_PULSE, CFG, cache=foreign)
    with pytest.raises(ValueError, match="cache was built for a different system"):
        sweep_tau(sys, "cpmg", 2, [0.4, 0.5], PI_PULSE, CFG, cache=foreign)
    # a cell that fails its own checks keeps their error, as apply_sequence would
    got = sweep_n_cells(sys, "cpmg", [1, 2, 4], 0.5, PI_PULSE, CFG, [(1.0, 1.0), (0.0, 1.0)],
                        cache=foreign)
    assert [str(exc) for exc in got] == ["cache was built for a different system",
                                         "error factors must be positive"]


def test_shared_cache_reproduces_fresh_runs():
    sys = generic_system(GENERIC)
    taus = [0.4, 0.5, 0.6]
    cache = PropagatorCache(sys)
    shared = sweep_tau(sys, "cpmg", 2, taus, PI_PULSE, CFG, cache=cache)
    fresh = sweep_tau(sys, "cpmg", 2, taus, PI_PULSE, CFG)
    for label in ("Sz", "Iz"):
        assert shared.traces[label] == pytest.approx(fresh.traces[label], abs=1e-12)


def test_sweep_tau_layout_and_provenance():
    sys = generic_system(GENERIC)
    res = sweep_tau(sys, "xyn", 4, [0.45, 0.5], PI_PULSE, CFG)
    assert res.axis == "tau"
    assert res.values == pytest.approx([0.45, 0.5])
    assert set(res.traces) == {"Sz", "Iz"}
    assert res.traces["Sz"].shape == (2,)
    assert res.states.shape == (2, 4, 4)
    for state, tau in zip(res.states, [0.45, 0.5]):
        seq = compile_xyn(4, tau, PI_PULSE, sys.wrapper_phase)
        assert np.max(np.abs(state - apply_sequence(sys, seq, CFG).rho_final.mat)) <= 1e-13
    with pytest.raises(ValueError, match="empty tau grid"):
        sweep_tau(sys, "cpmg", 2, [], PI_PULSE, CFG)


def test_sweep_n_layout():
    sys = generic_system(GENERIC)
    res = sweep_n(sys, "cpmg", [1, 2, 4], 0.5, PI_PULSE, CFG)
    assert res.axis == "n"
    assert res.values == pytest.approx([1.0, 2.0, 4.0])
    assert res.traces["Iz"].shape == (3,)
    with pytest.raises(ValueError, match="positive integers"):
        sweep_n(sys, "cpmg", [0, 2], 0.5, PI_PULSE, CFG)
    with pytest.raises(ValueError, match="positive integers"):
        sweep_n(sys, "cpmg", [], 0.5, PI_PULSE, CFG)
    assert sweep_n_cells(sys, "cpmg", [1, 2], 0.5, PI_PULSE, CFG, []) == []


def test_sweep_error_injection_changes_the_trace():
    sys = generic_system(GENERIC)
    clean = sweep_tau(sys, "cpmg", 2, [0.5], PI_PULSE, CFG)
    off = sweep_tau(sys, "cpmg", 2, [0.5], PI_PULSE, CFG, length_factor=1.3)
    assert abs(clean.traces["Sz"][0] - off.traces["Sz"][0]) > 1e-3


def test_sweep_wrapper_phase_defaults_to_the_system_convention():
    params = NvParams(b0=32.0, theta0=math.radians(2.9))
    sys = nv_system(params)
    t_pi = 0.01285
    pulse = DrivePulse(27.5683, 1975.6682, 0.0, t_pi)
    cfg = SimConfig(dt=t_pi / 512.0)
    taus = [0.36, 0.37]
    cache = PropagatorCache(sys)
    default = sweep_tau(sys, "xyn", 2, taus, pulse, cfg, cache=cache)
    explicit = sweep_tau(sys, "xyn", 2, taus, pulse, cfg,
                         wrapper_phase=1.5 * math.pi, cache=cache)
    flipped = sweep_tau(sys, "xyn", 2, taus, pulse, cfg,
                        wrapper_phase=0.5 * math.pi, cache=cache)
    assert default.traces["Iz"] == pytest.approx(explicit.traces["Iz"], abs=1e-12)
    assert np.max(np.abs(default.traces["Iz"] - flipped.traces["Iz"])) > 1e-4
