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
