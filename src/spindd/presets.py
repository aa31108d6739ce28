"""Ready-made experiment configurations.

Each preset is a complete config dictionary; ``get_preset`` returns a
deep copy so callers can modify freely.  The NV presets carry explicit
carrier and drive-amplitude numbers: the carrier is the mean of the two
hyperfine-split 0 to -1 transition frequencies at 32 mT and 2.9 degrees
misalignment, and ``omega1`` is the calibrated amplitude that makes a
12.85 ns pulse a pi pulse on that transition (close to the
``1 / (2 sqrt(2) t_pi)`` estimate from the spin-1 matrix element).
"""

from __future__ import annotations

import copy

_GENERIC_ONE = {"model": "generic", "omega00": 50.0, "targets": [{"omega0": 1.0, "azx": 0.1}]}
_GENERIC_STRONG = {"model": "generic", "omega00": 50.0, "targets": [{"omega0": 1.0, "azx": 0.2}]}
_GENERIC_THREE = {
    "model": "generic",
    "omega00": 50.0,
    "targets": [{"omega0": 1.0, "azx": 0.15}, {"omega0": 0.5, "azx": 0.1}],
}
_NV = {"model": "nv", "b0": 32.0, "theta0_deg": 2.9}

_NV_T_PI = 0.01285
_NV_SEQ = {
    "t_pi": _NV_T_PI,
    "omega1": 27.5683,
    "carrier": 1975.6682,
}
_NV_SIM = {"dt": _NV_T_PI / 512.0}

PRESETS = {
    "cpmg-spectrum": {
        "name": "cpmg-spectrum",
        "description": "CPMG-10 spacing sweep; central-spin dips at odd multiples of 1/(2 omega01)",
        "system": _GENERIC_ONE,
        "sequence": {"family": "cpmg", "n": 10, "tau_range": [0.3, 3.8, 176], "t_pi": 0.1},
        "sim": {"dt": 0.001},
        "outputs": {"metrics": ["resonance"], "fit_observable": "Sz"},
    },
    "gate-resonance": {
        "name": "gate-resonance",
        "description": "CPMG-10 fine spacing sweep across the first resonance at azx=0.2",
        "system": _GENERIC_STRONG,
        "sequence": {"family": "cpmg", "n": 10, "tau_range": [0.4, 0.6, 101], "t_pi": 0.1},
        "sim": {"dt": 0.001},
        "outputs": {"metrics": ["resonance"], "fit_observable": "Iz"},
    },
    "ddgate": {
        "name": "ddgate",
        "description": "Two-qubit gate pulse-number sweep at tau=0.5; anti-phase inversion of both spins",
        "system": _GENERIC_STRONG,
        "sequence": {"family": "cpmg", "tau": 0.5, "n_range": [1, 40], "t_pi": 0.1},
        "sim": {"dt": 0.001},
        "outputs": {"metrics": ["pseudo-fidelity", "inversion-fidelity"], "fit_observable": "Iz"},
    },
    "ddgate-tomo": {
        "name": "ddgate-tomo",
        "description": "Gate sweep used for tomography snapshots: entangled at half gate, inverted at full gate",
        "system": _GENERIC_STRONG,
        "sequence": {"family": "cpmg", "tau": 0.5, "n_range": [1, 40], "t_pi": 0.1},
        "sim": {"dt": 0.001},
        "outputs": {
            "metrics": ["pseudo-fidelity", "concurrence", "inversion-fidelity"],
            "fit_observable": "Iz",
        },
    },
    "pulse-error-map": {
        "name": "pulse-error-map",
        "description": "XYN pulse-error map: pseudo-fidelity over length and frequency miscalibration",
        "system": _GENERIC_STRONG,
        "sequence": {"family": "xyn", "tau": 0.5, "n_range": [1, 40], "t_pi": 0.1},
        "sim": {"dt": 0.001},
        "outputs": {"metrics": [], "fit_observable": "Iz"},
        "errmap": {
            "length_factors": [0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0,
                               1.05, 1.1, 1.15, 1.2, 1.25, 1.3],
            "freq_factors": [0.97, 0.98, 0.99, 1.0, 1.01, 1.02, 1.03],
        },
    },
    "three-qubit-q1": {
        "name": "three-qubit-q1",
        "description": "Three-qubit register, gate on target 1 at tau=0.5 (omega01=1)",
        "system": _GENERIC_THREE,
        "sequence": {"family": "cpmg", "tau": 0.5, "n_range": [1, 52], "t_pi": 0.1},
        "sim": {"dt": 0.001},
        "outputs": {"metrics": ["pseudo-fidelity", "inversion-fidelity"], "fit_observable": "Iz1"},
    },
    "three-qubit-q2": {
        "name": "three-qubit-q2",
        "description": "Three-qubit register, gate on target 2 at tau=1.0 (omega02=0.5)",
        "system": _GENERIC_THREE,
        "sequence": {"family": "cpmg", "tau": 1.0, "n_range": [1, 40], "t_pi": 0.1},
        "sim": {"dt": 0.001},
        "outputs": {"metrics": ["pseudo-fidelity", "inversion-fidelity"], "fit_observable": "Iz2"},
    },
    "nv-xyn-spectrum": {
        "name": "nv-xyn-spectrum",
        "description": "NV XY8 spacing sweep around the N-15 resonance near 0.365 us",
        "system": _NV,
        "sequence": {"family": "xyn", "n": 8, "tau_range": [0.2, 0.55, 141], **_NV_SEQ},
        "sim": _NV_SIM,
        "outputs": {"metrics": ["resonance"], "fit_observable": "Sz"},
    },
    "nv-ddgate": {
        "name": "nv-ddgate",
        "description": "NV XYN gate at tau=0.364 us; nuclear inversion near N=24",
        "system": _NV,
        "sequence": {"family": "xyn", "tau": 0.364, "n_range": [1, 40], **_NV_SEQ},
        "sim": _NV_SIM,
        "outputs": {"metrics": ["pseudo-fidelity"], "fit_observable": "Sz"},
    },
    "nv-polarize": {
        "name": "nv-polarize",
        "description": "NV CPMG polarization transfer to the N-15 nucleus at tau=0.3534 us",
        "system": _NV,
        "initial_state": "mixed-target",
        "sequence": {"family": "cpmg", "tau": 0.3534, "n_range": [1, 40], **_NV_SEQ},
        "sim": _NV_SIM,
        "outputs": {"metrics": ["polarization"], "fit_observable": "Iz"},
    },
    "coupling-scaling": {
        "name": "coupling-scaling",
        "description": "Gate-time scaling with coupling strength: T_pi fit against azx",
        "system": _GENERIC_ONE,
        "sequence": {"family": "cpmg", "tau": 0.5, "n_range": [1, 125], "t_pi": 0.1},
        "sim": {"dt": 0.001},
        "outputs": {"metrics": ["pseudo-fidelity"], "fit_observable": "Iz"},
        "coupling_scan": [0.05, 0.1, 0.15, 0.2, 0.25, 0.35],
    },
}


def get_preset(name: str) -> dict:
    """Config dictionary of a named preset (deep copy)."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])


def list_presets():
    """Sorted ``(name, description)`` pairs of every preset."""
    return [(name, PRESETS[name]["description"]) for name in sorted(PRESETS)]
