"""Dense-matrix simulator for dynamical-decoupling mediated multi-qubit gates.

The package models a driven central spin coupled to one or more target
spins, evolves the full register through pulse sequences in the lab frame
(explicit carrier, no rotating-wave approximation) and provides the
analysis tools needed to characterize the resulting conditional gates:
sweep post-processing, state tomography, fidelity and concurrence metrics,
and pulse-error maps.

Frequencies are ordinary (not angular) throughout; a propagator for a
Hamiltonian ``H`` over time ``t`` is ``expm(-i 2 pi t H)``.  Times are
expressed in the inverse unit of the frequencies (dimensionless model:
arbitrary units; NV model: MHz and microseconds).
"""

from .algebra import (
    DensityMatrix,
    Operator,
    SpinOperators,
    basis_ket,
    basis_dm,
    eig_hermitian,
    embed,
    herm_propagator,
    identity,
    partial_trace,
    spin_ops,
    tensor,
)
from .hamiltonians import (
    DrivePulse,
    GenericSystemParams,
    NvParams,
    Observable,
    SpinSystem,
    TargetParams,
    calibrate_rabi,
    drive_h1,
    generic_h0,
    generic_system,
    nv_h0,
    nv_rotated_tensor,
    nv_system,
    transition_frequency,
)
from .sequences import (
    Delay,
    PulseSequence,
    SimConfig,
    compile_cpmg,
    compile_xyn,
    inject_errors,
)
from .evolution import (
    EvolutionResult,
    PropagatorCache,
    apply_sequence,
    pulse_propagator,
    sweep_n,
    sweep_tau,
)
from .analysis import (
    GateMetrics,
    SweepResult,
    concurrence,
    expval,
    find_resonance,
    pauli_expectations,
    pseudo_fidelity,
    state_fidelity,
    tomography,
    tpi_scaling,
)

__version__ = "0.1.0"
