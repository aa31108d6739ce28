"""Static Hamiltonians, drive terms and ready-made spin systems.

Two models are provided.  The generic model is a central spin-1/2 with
Larmor frequency ``omega00`` coupled to target spin-1/2 qubits through
``azx Sz Ix`` terms (or a full coupling tensor); all frequencies are in
one arbitrary unit and times in its inverse.  The NV model is the
spin-1 electron of a nitrogen-15 vacancy center hyperfine-coupled to
its host nucleus, with a zero-field splitting and a static field of
adjustable misalignment; units are MHz, microseconds and millitesla.

The drive couples through twice the central spin-x operator,

    H1(t) = omega1 cos(2 pi omegap t + phase) * (2 Sx),

so ``omega1`` is the nutation frequency of a resonantly driven
spin-1/2: a pi pulse takes ``t_pi = 1 / (2 omega1)``.  On the spin-1
electron the 0 to -1 transition has a sqrt(2) larger matrix element,
which ``calibrate_rabi`` picks up automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DensityMatrix,
    Operator,
    basis_ket,
    eig_hermitian,
    embed,
    partial_trace,
    spin_ops,
)
from .sequences import DrivePulse

__all__ = [
    "TargetParams", "GenericSystemParams", "NvParams", "Observable",
    "SpinSystem", "DrivePulse", "generic_h0", "drive_h1", "nv_h0",
    "nv_rotated_tensor", "transition_frequency", "calibrate_rabi",
    "generic_system", "nv_system", "polarization_target",
]


@dataclass(frozen=True)
class TargetParams:
    """One target qubit: Larmor frequency and coupling to the center.

    ``coupling`` is either the scalar ``azx`` (secular approximation,
    coupling term ``azx Sz Ix``) or a full 3x3 tensor ``A`` giving
    ``sum_ab A[a, b] S_a I_b``.
    """

    omega0: float
    coupling: object = 0.0

    def coupling_matrix(self) -> np.ndarray:
        arr = np.asarray(self.coupling, dtype=float)
        if arr.ndim == 0:
            full = np.zeros((3, 3))
            full[2, 0] = float(arr)  # z of the center, x of the target
            return full
        if arr.shape != (3, 3):
            raise ValueError(f"coupling must be scalar or 3x3, got shape {arr.shape}")
        return arr


@dataclass(frozen=True)
class GenericSystemParams:
    """Central spin plus targets of the dimensionless model."""

    omega00: float
    targets: tuple

    def __post_init__(self):
        if not self.targets:
            raise ValueError("need at least one target qubit")
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class NvParams:
    """NV center with a nitrogen-15 nucleus.

    ``b0`` in mT, ``theta0`` in radians (field tilt from the NV axis),
    all frequencies in MHz.  Gyromagnetic ratios are negative for both
    the electron and nitrogen-15.
    """

    b0: float
    theta0: float = 0.0
    d_zfs: float = 2870.0
    gamma_e: float = -28.025
    gamma_n: float = -4.316e-3
    axx: float = 3.65
    ayy: float = 3.65
    azz: float = 3.03


@dataclass(frozen=True)
class Observable:
    """Labeled Hermitian observable with its full value range.

    ``site`` is the register site of the target spin it measures, or
    ``None`` for an observable of the central spin.
    """

    label: str
    op: Operator
    lo: float
    hi: float
    site: int | None = None


@dataclass(frozen=True)
class SpinSystem:
    """Everything the evolution layer needs about one register.

    ``wrapper_phase`` records the carrier phase that realizes a y-axis
    wrapper pulse for this system.  It is ``pi/2`` when the monitored
    level of the driven transition lies above the other one and
    ``3 pi / 2`` when it lies below, where the effective rotating frame
    is conjugated and carrier phases map to drive axes with a minus
    sign.  Sweeps use it as their default wrapper setting.
    """

    h0: Operator
    drive_op: Operator
    rho0: DensityMatrix
    observables: tuple
    time_unit: str = "arb"
    wrapper_phase: float = math.pi / 2.0

    @property
    def dims(self):
        return self.h0.dims


def _add_coupling(h: np.ndarray, amat: np.ndarray, site: int, dims) -> np.ndarray:
    """``h`` plus ``sum_ab amat[a, b] S_a I_b`` between the central spin
    and the target at ``site``, the terms added in (a, b) order."""
    s, i = spin_ops(dims[0]), spin_ops(dims[site])
    s_comps, i_comps = [s.sx, s.sy, s.sz], [i.sx, i.sy, i.sz]
    for a in range(3):
        for b in range(3):
            if amat[a, b] != 0.0:
                term = embed(s_comps[a], 0, dims) @ embed(i_comps[b], site, dims)
                h = h + amat[a, b] * term.mat
    return h


def generic_h0(params: GenericSystemParams) -> Operator:
    """Static Hamiltonian of the generic model.

    ``omega00 Sz + sum_j (omega0j Iz_j + coupling_j)`` over a register
    of qubits with the central spin at site 0.
    """
    dims = (2,) * (1 + len(params.targets))
    sz = spin_ops(2).sz
    h = params.omega00 * embed(sz, 0, dims).mat
    for j, tgt in enumerate(params.targets, start=1):
        h = h + tgt.omega0 * embed(sz, j, dims).mat
        h = _add_coupling(h, tgt.coupling_matrix(), j, dims)
    return Operator(h, dims, herm=True)


def drive_h1(t: float, pulse: DrivePulse, drive_op: Operator) -> Operator:
    """Drive Hamiltonian at lab time ``t``.

    ``DrivePulse.carrier(t)``, ``omega1 cos(2 pi omegap t + phase)``,
    times the system's drive operator (twice the central spin-x,
    embedded).
    """
    return Operator(float(pulse.carrier(t)) * drive_op.mat, drive_op.dims, herm=True)


def nv_rotated_tensor(params: NvParams) -> np.ndarray:
    """Hyperfine tensor in the frame whose z axis follows the field.

    Rotating the NV-frame diagonal tensor by ``theta0`` about y gives

        A'xx = Axx cos^2 + Azz sin^2      A'yy = Ayy
        A'zz = Axx sin^2 + Azz cos^2      A'xz = A'zx = (Axx - Azz) sin cos
    """
    c, s = math.cos(params.theta0), math.sin(params.theta0)
    a = np.zeros((3, 3))
    a[0, 0] = params.axx * c * c + params.azz * s * s
    a[1, 1] = params.ayy
    a[2, 2] = params.axx * s * s + params.azz * c * c
    a[0, 2] = a[2, 0] = (params.axx - params.azz) * s * c
    return a


def nv_h0(params: NvParams, frame: str = "nv") -> Operator:
    """Static NV Hamiltonian on the (electron, nucleus) register.

    In the ``"nv"`` frame the zero-field-splitting axis is z and the
    static field is tilted by ``theta0``; in the ``"field"`` frame the
    field is along z, the splitting axis is tilted and the hyperfine
    tensor is the rotated ``nv_rotated_tensor``.  Both frames have the
    same spectrum.
    """
    dims = (3, 2)
    e = spin_ops(3)
    n = spin_ops(2)
    ge_b = params.gamma_e * params.b0
    gn_b = params.gamma_n * params.b0
    c, s = math.cos(params.theta0), math.sin(params.theta0)

    if frame == "nv":
        h = params.d_zfs * (e.sz.mat @ e.sz.mat)
        h = np.kron(h, np.eye(2))
        h = h - ge_b * embed(c * e.sz + s * e.sx, 0, dims).mat
        h = h - gn_b * embed(c * n.sz + s * n.sx, 1, dims).mat
        amat = np.diag([params.axx, params.ayy, params.azz])
    elif frame == "field":
        # the NV axis sits at (-sin, 0, cos) in field coordinates; this
        # tilt direction is what makes A'zx come out positive below
        sz_t = c * e.sz - s * e.sx
        h = params.d_zfs * (sz_t.mat @ sz_t.mat)
        h = np.kron(h, np.eye(2))
        h = h - ge_b * embed(e.sz, 0, dims).mat
        h = h - gn_b * embed(n.sz, 1, dims).mat
        amat = nv_rotated_tensor(params)
    else:
        raise ValueError(f"unknown frame {frame!r}; expected 'nv' or 'field'")
    return Operator(_add_coupling(h, amat, 1, dims), dims, herm=True)


def _label_eigenstates(h0: Operator):
    """Assign each product-basis label to its closest eigenstate."""
    w, v = eig_hermitian(h0)
    overlaps = np.abs(v.mat) ** 2  # overlaps[basis, k]
    assignment = {}
    for basis in range(h0.shape[0]):
        order = np.argsort(overlaps[basis])[::-1]
        best, second = overlaps[basis, order[0]], overlaps[basis, order[1]]
        if best - second < 0.1:
            raise ValueError(
                f"basis state {basis} has no clear eigenstate: overlaps "
                f"{best:.3f} vs {second:.3f} (strong mixing)"
            )
        assignment[basis] = int(order[0])
    return w, assignment


def transition_frequency(h0: Operator, from_levels, to_levels) -> float:
    """Frequency of a transition between two product-basis-labeled levels.

    Eigenstates are matched to basis states by maximum overlap; states
    mixed too strongly to label (overlap gap below 0.1) raise.  Returns
    the absolute energy difference.
    """
    w, assignment = _label_eigenstates(h0)
    idx_from = assignment[np.argmax(basis_ket(h0.dims, from_levels))]
    idx_to = assignment[np.argmax(basis_ket(h0.dims, to_levels))]
    if idx_from == idx_to:
        raise ValueError("both labels map to the same eigenstate")
    return float(abs(w[idx_to] - w[idx_from]))


def _central_level(system: SpinSystem) -> int:
    """The central level initially populated in rho0."""
    central = partial_trace(system.rho0.op, {0})
    return int(np.argmax(np.real(np.diag(central.mat))))


def _central_projector(dims, level: int) -> Operator:
    """Projector on one level of the central spin, embedded in the register."""
    proj = np.zeros((dims[0], dims[0]), dtype=complex)
    proj[level, level] = 1.0
    return embed(Operator(proj, (dims[0],), herm=True), 0, dims)


def _product_dm(dims, central_levels, polarized_sites, label: str = "") -> DensityMatrix:
    """Product state: the central spin evenly mixed over ``central_levels``,
    each target at ``polarized_sites`` in its level 0 (spin up) and every
    other target maximally mixed."""
    mat = np.zeros((dims[0], dims[0]), dtype=complex)
    mat[central_levels, central_levels] = 1.0 / len(central_levels)
    for j, d in enumerate(dims[1:], start=1):
        mat = np.kron(mat, np.diag(np.eye(d)[0]) if j in polarized_sites else np.eye(d) / d)
    return DensityMatrix(Operator(mat, tuple(dims)), label=label)


def polarization_target(system: SpinSystem, site: int) -> DensityMatrix:
    """The state that polarizes the target at ``site`` and nothing else.

    The target is in its level 0 (spin up), the other targets are
    maximally mixed and the central spin is evenly mixed over its driven
    pair of levels: the initially populated one and the one with ``m``
    lower by one (the whole generic qubit, ``m_S`` in {0, -1} of the NV).
    """
    if not 1 <= site < len(system.dims):
        raise ValueError(f"site {site} is not a target of a {len(system.dims)}-site register")
    level = _central_level(system)
    return _product_dm(system.dims, [level, level + 1], (site,))


_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1 / golden ratio squared


def _golden_max(f, lo: float, hi: float, xatol: float) -> float:
    """Maximizer of a unimodal ``f`` on ``[lo, hi]`` by golden-section search.

    The bracket shrinks by the golden ratio per evaluation until it is
    at most ``xatol`` wide; its midpoint is returned.
    """
    x1, x2 = lo + _INV_PHI2 * (hi - lo), hi - _INV_PHI2 * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xatol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = lo + _INV_PHI2 * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = hi - _INV_PHI2 * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def calibrate_rabi(system: SpinSystem, target_tpi: float, carrier: float,
                   dt: float | None = None) -> float:
    """Drive amplitude that makes a ``target_tpi`` pulse a pi pulse.

    Simulates a single resonant pulse of the requested duration and
    maximizes the population transferred out of the initial central
    level over ``omega1`` (golden-section search on
    ``[0.15, 0.65] / target_tpi`` to ``1e-6 / target_tpi``).  Raises if the best
    transfer stays below 0.99, which signals an unresolvable transition
    or a too-coarse ``dt``.
    """
    from .evolution import pulse_propagator

    if target_tpi <= 0:
        raise ValueError(f"target pi duration must be positive, got {target_tpi}")
    if dt is None:
        dt = target_tpi / 512.0
    proj0 = _central_projector(system.dims, _central_level(system))
    rho0 = system.rho0.mat

    def transfer(omega1: float) -> float:
        pulse = DrivePulse(omega1, carrier, 0.0, target_tpi)
        u = pulse_propagator(system.h0, pulse, system.drive_op, 0.0, dt).mat
        rho_f = u @ rho0 @ u.conj().T
        return 1.0 - float(np.real(np.trace(proj0.mat @ rho_f)))

    best = _golden_max(transfer, 0.15 / target_tpi, 0.65 / target_tpi, 1e-6 / target_tpi)
    achieved = transfer(best)
    if achieved < 0.99:
        raise ValueError(
            f"calibration failed: best transfer {achieved:.4f} at omega1={best:.4g} "
            "(transition not resolvable at this carrier, or dt too coarse)"
        )
    return best


def _system(h0: Operator, level: int, central_obs: Observable, initial: str,
            **kwargs) -> SpinSystem:
    """The ready-to-evolve system around ``h0``: the 2 Sx drive on the
    central spin, ``central_obs`` and one ``Iz`` per target (``Iz1``,
    ``Iz2``, ... when there are several), and the ``initial`` state with
    the central spin in ``level``."""
    dims = h0.dims
    drive = Operator((2.0 * embed(spin_ops(dims[0]).sx, 0, dims)).mat, dims, herm=True)
    sz = spin_ops(2).sz
    targets = [Observable("Iz" if len(dims) == 2 else f"Iz{j}", embed(sz, j, dims),
                          -0.5, 0.5, site=j) for j in range(1, len(dims))]
    if initial not in ("polarized", "mixed-target"):
        raise ValueError(f"unknown initial state {initial!r}")
    polarized = range(1, len(dims)) if initial == "polarized" else ()
    rho0 = _product_dm(dims, [level], polarized, initial)
    return SpinSystem(h0, drive, rho0, (central_obs, *targets), **kwargs)


def generic_system(params: GenericSystemParams,
                   initial: str = "polarized") -> SpinSystem:
    """Build the generic model as a ready-to-evolve system.

    ``initial`` is ``"polarized"`` (all spins up, ``|0...0>``) or
    ``"mixed-target"`` (central spin up, targets maximally mixed).
    """
    h0 = generic_h0(params)
    sz = Observable("Sz", embed(spin_ops(2).sz, 0, h0.dims), -0.5, 0.5)
    return _system(h0, 0, sz, initial, time_unit="arb")


def nv_system(params: NvParams, initial: str = "polarized") -> SpinSystem:
    """Build the NV model as a ready-to-evolve system.

    The central-observable label ``Sz`` is the fluorescence-normalized
    population of the ``m_S = 0`` level (range 0 to 1); ``Iz`` is the
    nuclear spin projection.  ``initial`` is ``"polarized"``
    (``|m_S=0, m_I=+1/2>``) or ``"mixed-target"`` (electron in
    ``m_S = 0``, nucleus maximally mixed).

    Driving the 0 to -1 transition puts the monitored ``m_S = 0`` level
    at the bottom of the working manifold, so the effective rotating
    frame is conjugated: the system's ``wrapper_phase`` is ``3 pi / 2``,
    which realizes y-axis wrappers there (see ``sequences``).  The register
    is built in ``nv_h0``'s NV frame, whose z axis the ``Sz`` projector and
    the drive share.
    """
    h0 = nv_h0(params)
    # basis order is m_S = +1, 0, -1: the monitored m_S = 0 level is 1
    fluor = Observable("Sz", _central_projector(h0.dims, 1), 0.0, 1.0)
    return _system(h0, 1, fluor, initial, time_unit="us",
                   wrapper_phase=3.0 * math.pi / 2.0)
