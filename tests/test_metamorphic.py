"""Physical symmetries of the sweep, which hold for any integrator and need no
oracle: each compares two runs of the program that physics says must agree.

- Flipping the sign of every coupling ``azx Sz Ix`` leaves ``Sz`` and
  ``Iz`` unchanged: a rotation by pi about the target's z axis maps ``Ix``
  to ``-Ix`` and leaves the rest of the Hamiltonian, the drive on the
  central spin, the initial state and the observables as they are.
- Multiplying every frequency (``omega00``, ``omega0``, ``azx``, and with
  them the default carrier and nutation frequency) by ``s`` and dividing
  every time (``tau``, ``t_pi``, ``dt``) by ``s`` leaves every phase
  ``2 pi f t`` and every step count as it was.  For ``s`` a power of two
  the scaling is exact in floating point, so the traces are the same bits;
  for ``s = 3`` they agree to rounding.
- Exchanging the two targets of a register (their ``omega0`` and ``azx``)
  exchanges their traces ``Iz1`` and ``Iz2`` and leaves ``Sz`` as it is:
  relabelling the sites is a permutation of the tensor factors, and the
  polarized initial state is symmetric under it.
- A target with ``azx = 0`` factors out: its ``omega0 Iz`` commutes with
  everything else, so the other spins evolve as in the register without
  it, and its own ``Iz`` stays at its initial 0.5.
"""

import copy

import numpy as np
import pytest

from spindd import runner
from spindd.config import ExperimentConfig
from spindd.presets import get_preset

# measured worst |delta| at s = 3: 1.3e-12 (ddgate), 9.0e-13 (pulse-error-map's
# nominal XY-n sweep) and 3.3e-13 (gate-resonance)
SCALE_3_BOUND = 5e-12
# measured worst |delta| on three-qubit-q1: 7.3e-13 for the target exchange;
# 1.23e-12 for Sz and Iz1 against the one-target run and 1.01e-12 for the
# uncoupled Iz2 against 0.5
EXCHANGE_BOUND = 2e-12
UNCOUPLED_BOUND = 3e-12


def traces(raw) -> dict:
    cfg = ExperimentConfig.from_dict(raw)
    sweep = runner._run_sweep(cfg, cfg.build_system(), cfg.build_pulse(), cfg.sim_config())
    return sweep.traces


def flipped(raw) -> dict:
    raw = copy.deepcopy(raw)
    for target in raw["system"]["targets"]:
        target["azx"] = -target["azx"]
    return raw


def scaled(raw, s: float) -> dict:
    raw = copy.deepcopy(raw)
    system, seq = raw["system"], raw["sequence"]
    system["omega00"] *= s
    for target in system["targets"]:
        target["omega0"] *= s
        target["azx"] *= s
    seq["t_pi"] /= s
    if "tau" in seq:
        seq["tau"] /= s
    else:
        lo, hi, points = seq["tau_range"]
        seq["tau_range"] = [lo / s, hi / s, points]
    raw["sim"]["dt"] /= s
    return raw


@pytest.fixture(params=["ddgate", "pulse-error-map", "gate-resonance"])
def preset(request):
    """A CPMG and an XY-n N sweep, and a CPMG tau sweep, as plain runs."""
    raw = get_preset(request.param)
    raw.pop("errmap", None)
    return raw, traces(raw)


def test_flipping_every_coupling_sign_changes_no_bit(preset):
    raw, base = preset
    got = traces(flipped(raw))
    assert all(np.array_equal(got[label], base[label]) for label in base)


@pytest.mark.parametrize("s", [2.0, 0.5])
def test_scaling_frequencies_up_and_times_down_by_a_power_of_two_changes_no_bit(preset, s):
    raw, base = preset
    got = traces(scaled(raw, s))
    assert all(np.array_equal(got[label], base[label]) for label in base)


def test_scaling_frequencies_up_and_times_down_by_3_changes_only_rounding(preset):
    raw, base = preset
    got = traces(scaled(raw, 3.0))
    assert all(np.abs(got[label] - base[label]).max() <= SCALE_3_BOUND for label in base)


@pytest.fixture(scope="module")
def register():
    """``three-qubit-q1``, a CPMG N sweep of two coupled targets, as a plain run."""
    raw = get_preset("three-qubit-q1")
    return raw, traces(raw)


def test_exchanging_the_two_targets_exchanges_their_traces(register):
    raw, base = register
    swapped = copy.deepcopy(raw)
    swapped["system"]["targets"].reverse()
    got = traces(swapped)
    pairs = [("Sz", "Sz"), ("Iz1", "Iz2"), ("Iz2", "Iz1")]
    assert all(np.abs(got[a] - base[b]).max() <= EXCHANGE_BOUND for a, b in pairs)


def test_an_uncoupled_target_leaves_the_rest_as_the_register_without_it(register):
    raw, _ = register
    uncoupled = copy.deepcopy(raw)
    uncoupled["system"]["targets"][1]["azx"] = 0.0
    alone = copy.deepcopy(raw)
    alone["system"]["targets"] = alone["system"]["targets"][:1]
    alone["outputs"]["fit_observable"] = "Iz"
    got, want = traces(uncoupled), traces(alone)
    assert np.abs(got["Sz"] - want["Sz"]).max() <= UNCOUPLED_BOUND
    assert np.abs(got["Iz1"] - want["Iz"]).max() <= UNCOUPLED_BOUND
    assert np.abs(got["Iz2"] - 0.5).max() <= UNCOUPLED_BOUND
