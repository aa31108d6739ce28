"""Model Hamiltonians: generic central spin register and the NV center."""

import math

import numpy as np
import pytest

from spindd.algebra import Operator, eig_hermitian, spin_ops
from spindd.hamiltonians import (
    DrivePulse,
    GenericSystemParams,
    NvParams,
    TargetParams,
    calibrate_rabi,
    drive_h1,
    generic_h0,
    generic_system,
    nv_h0,
    nv_rotated_tensor,
    nv_system,
    polarization_target,
    transition_frequency,
)

GENERIC = GenericSystemParams(omega00=50.0, targets=(TargetParams(1.0, 0.1),))


def test_generic_h0_matches_hand_built_matrix():
    h = generic_h0(GENERIC)
    ops = spin_ops(2)
    ref = (
        50.0 * np.kron(ops.sz.mat, np.eye(2))
        + 1.0 * np.kron(np.eye(2), ops.sz.mat)
        + 0.1 * np.kron(ops.sz.mat, ops.sx.mat)
    )
    assert h.dims == (2, 2)
    assert np.max(np.abs(h.mat - ref)) < 1e-14
    assert h.mat[0, 0] == pytest.approx(25.5)


def test_generic_h0_uncoupled_eigenvalues():
    params = GenericSystemParams(50.0, (TargetParams(1.0, 0.0),))
    w, _ = eig_hermitian(generic_h0(params))
    assert np.allclose(sorted(w), [-25.5, -24.5, 24.5, 25.5])


def test_generic_h0_full_coupling_tensor():
    a = np.zeros((3, 3))
    a[2, 0] = 0.1
    a[2, 2] = 0.05
    params = GenericSystemParams(50.0, (TargetParams(1.0, a),))
    h = generic_h0(params)
    ops = spin_ops(2)
    ref = generic_h0(GENERIC).mat + 0.05 * np.kron(ops.sz.mat, ops.sz.mat)
    assert np.max(np.abs(h.mat - ref)) < 1e-14


def test_generic_h0_three_targets():
    params = GenericSystemParams(
        50.0, (TargetParams(1.0, 0.1), TargetParams(1.5, 0.15), TargetParams(2.0, 0.2))
    )
    h = generic_h0(params)
    assert h.dims == (2, 2, 2, 2)
    # |0000>: all spins up
    assert h.mat[0, 0] == pytest.approx(25.0 + 0.5 + 0.75 + 1.0)


def test_target_params_coupling_matrix():
    scalar = TargetParams(1.0, 0.1).coupling_matrix()
    assert scalar[2, 0] == pytest.approx(0.1)
    assert np.count_nonzero(scalar) == 1
    with pytest.raises(ValueError, match="3x3"):
        TargetParams(1.0, np.eye(2)).coupling_matrix()
    with pytest.raises(ValueError, match="at least one target"):
        GenericSystemParams(50.0, ())


def test_drive_h1_and_cosine_zero():
    sys = generic_system(GENERIC)
    ops = spin_ops(2)
    assert np.max(np.abs(sys.drive_op.mat - 2.0 * np.kron(ops.sx.mat, np.eye(2)))) < 1e-14
    pulse = DrivePulse(5.0, 50.0, 0.0, 0.1)
    h_t0 = drive_h1(0.0, pulse, sys.drive_op)
    assert np.max(np.abs(h_t0.mat - 5.0 * sys.drive_op.mat)) < 1e-14
    # quarter carrier period later the drive coefficient vanishes
    h_quarter = drive_h1(1.0 / (4.0 * 50.0), pulse, sys.drive_op)
    assert np.max(np.abs(h_quarter.mat)) < 1e-12


def test_generic_system_initial_states():
    pol = generic_system(GENERIC, initial="polarized")
    assert pol.rho0.mat[0, 0] == pytest.approx(1.0)
    assert pol.rho0.purity() == pytest.approx(1.0)
    mixed = generic_system(GENERIC, initial="mixed-target")
    assert mixed.rho0.purity() == pytest.approx(0.5)
    assert mixed.rho0.mat[0, 0] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="unknown initial state"):
        generic_system(GENERIC, initial="thermal")


def test_generic_system_observable_labels():
    one = generic_system(GENERIC)
    assert [o.label for o in one.observables] == ["Sz", "Iz"]
    three = generic_system(
        GenericSystemParams(50.0, (TargetParams(1.0, 0.1),) * 3)
    )
    assert [o.label for o in three.observables] == ["Sz", "Iz1", "Iz2", "Iz3"]
    assert one.wrapper_phase == pytest.approx(math.pi / 2.0)


def test_observable_sites():
    one = generic_system(GENERIC)
    assert [o.site for o in one.observables] == [None, 1]
    three = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, 0.1),) * 3))
    assert [o.site for o in three.observables] == [None, 1, 2, 3]
    nv = nv_system(NvParams(b0=32.0))
    assert [(o.label, o.site) for o in nv.observables] == [("Sz", None), ("Iz", 1)]


UP = np.diag([1.0, 0.0])
MIXED = np.eye(2) / 2.0


def test_polarization_target_generic_three_targets():
    three = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, 0.1),) * 3))
    expected = np.kron(np.kron(np.kron(MIXED, MIXED), UP), MIXED)
    target = polarization_target(three, 2)
    assert target.dims == (2, 2, 2, 2)
    np.testing.assert_array_equal(target.mat, expected)
    for site in (0, 4):
        with pytest.raises(ValueError, match="not a target"):
            polarization_target(three, site)


def test_polarization_target_nv_mixes_the_driven_manifold():
    # basis order m_S = +1, 0, -1: the driven qubit is m_S in {0, -1}
    target = polarization_target(nv_system(NvParams(b0=32.0)), 1)
    np.testing.assert_array_equal(target.mat, np.kron(np.diag([0.0, 0.5, 0.5]), UP))


NV = NvParams(b0=32.0, theta0=math.radians(2.9))


def test_nv_zero_field_spectrum():
    w, _ = eig_hermitian(nv_h0(NvParams(b0=0.0)))
    w = np.sort(w)
    # m_S = 0 doublet near zero, m_S = +-1 quartet near the zero-field splitting
    assert np.all(np.abs(w[:2]) < 2.0)
    assert np.all(np.abs(w[2:] - 2870.0) < 4.0)


def test_nv_aligned_transition_without_hyperfine():
    params = NvParams(b0=32.0, theta0=0.0, axx=0.0, ayy=0.0, azz=0.0)
    f = transition_frequency(nv_h0(params), (1, 0), (2, 0))
    # D - |gamma_e| B0 for the 0 to -1 transition (negative gamma_e)
    assert f == pytest.approx(2870.0 - 28.025 * 32.0, abs=1e-9)


def test_nv_hyperfine_branches():
    h = nv_h0(NV)
    f_up = transition_frequency(h, (1, 0), (2, 0))
    f_dn = transition_frequency(h, (1, 1), (2, 1))
    assert f_up == pytest.approx(1974.1314, abs=1e-3)
    assert f_dn == pytest.approx(1977.2049, abs=1e-3)
    # the splitting is set by the hyperfine coupling, about Azz
    assert f_dn - f_up == pytest.approx(3.07, abs=0.05)


def test_nv_rotated_tensor_small_angle():
    a = nv_rotated_tensor(NV)
    th = NV.theta0
    assert a[0, 2] == pytest.approx((3.65 - 3.03) * math.sin(th) * math.cos(th), abs=1e-12)
    assert a[0, 2] == pytest.approx(0.03133, abs=5e-5)
    assert a[2, 0] == a[0, 2]
    assert a[1, 1] == pytest.approx(3.65)
    assert a[0, 0] + a[2, 2] == pytest.approx(3.65 + 3.03)


def test_nv_rotated_tensor_right_angle_swaps_axes():
    a = nv_rotated_tensor(NvParams(b0=32.0, theta0=math.pi / 2.0))
    assert a[0, 0] == pytest.approx(3.03, abs=1e-12)
    assert a[2, 2] == pytest.approx(3.65, abs=1e-12)
    assert abs(a[0, 2]) < 1e-12


def test_nv_frames_share_a_spectrum():
    wn, _ = eig_hermitian(nv_h0(NV, frame="nv"))
    wf, _ = eig_hermitian(nv_h0(NV, frame="field"))
    assert np.max(np.abs(np.sort(wn) - np.sort(wf))) < 1e-6
    with pytest.raises(ValueError, match="unknown frame"):
        nv_h0(NV, frame="lab")


def test_transition_frequency_rejects_mixed_states():
    ops = spin_ops(2)
    h = Operator(ops.sx.mat, (2,), herm=True)
    with pytest.raises(ValueError, match="strong mixing"):
        transition_frequency(h, (0,), (1,))


def test_nv_system_layout():
    sys = nv_system(NV)
    assert sys.dims == (3, 2)
    assert sys.wrapper_phase == pytest.approx(3.0 * math.pi / 2.0)
    labels = {o.label: o for o in sys.observables}
    assert set(labels) == {"Sz", "Iz"}
    # fluorescence observable projects on m_S = 0 (middle level)
    assert labels["Sz"].lo == 0.0 and labels["Sz"].hi == 1.0
    assert labels["Sz"].op.mat[2, 2] == pytest.approx(1.0)
    assert labels["Sz"].op.mat[0, 0] == pytest.approx(0.0)
    assert sys.rho0.mat[2, 2] == pytest.approx(1.0)  # |m_S=0, m_I=+1/2>
    mixed = nv_system(NV, initial="mixed-target")
    assert mixed.rho0.purity() == pytest.approx(0.5)


# omega1 that scipy's bounded Brent search (``minimize_scalar`` with the
# same bounds and xatol) returns for these two calibrations
BRENT_OMEGA1_GENERIC = 5.001020516070087
BRENT_OMEGA1_NV = 27.568326386242003


def test_calibrate_rabi_generic():
    sys = generic_system(GENERIC)
    omega1 = calibrate_rabi(sys, 0.1, 50.0)
    # resonant spin-1/2: t_pi = 1 / (2 omega1)
    assert omega1 == pytest.approx(5.0, rel=0.02)
    assert omega1 == pytest.approx(BRENT_OMEGA1_GENERIC, rel=1e-6)


def test_calibrate_rabi_nv_picks_up_sqrt2():
    sys = nv_system(NV)
    t_pi = 0.01285
    omega1 = calibrate_rabi(sys, t_pi, 1975.6682)
    assert omega1 == pytest.approx(1.0 / (2.0 * math.sqrt(2.0) * t_pi), rel=0.05)
    assert omega1 == pytest.approx(BRENT_OMEGA1_NV, rel=1e-6)


def test_calibrate_rabi_fails_off_resonance():
    sys = generic_system(GENERIC)
    with pytest.raises(ValueError, match="calibration failed"):
        calibrate_rabi(sys, 0.1, 30.0)
