"""Post-processing: expectations, tomography, fidelities, sweep fits."""

import numpy as np
import pytest

from spindd.algebra import DensityMatrix, Operator, basis_dm, basis_ket
from spindd.analysis import (
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


def bell_dm():
    psi = (basis_ket((2, 2), (0, 0)) + basis_ket((2, 2), (1, 1))) / np.sqrt(2)
    return DensityMatrix(Operator(np.outer(psi, psi.conj()), (2, 2)))


def random_dm(seed, dims=(2, 2)):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho), dims))


def sweep_of(values, y, label="Iz", axis="n"):
    return SweepResult(axis=axis, values=np.asarray(values, dtype=float),
                       traces={label: np.asarray(y, dtype=float)})


def test_expval_hand_values_and_linearity():
    rho = random_dm(0)
    a = Operator(np.diag([1.0, 2.0, 3.0, 4.0]), (2, 2))
    b = Operator(np.kron(np.diag([1.0, -1.0]), np.eye(2)), (2, 2))
    lhs = expval(rho, Operator(a.mat + 2.0 * b.mat, (2, 2)))
    assert lhs == pytest.approx(expval(rho, a) + 2.0 * expval(rho, b), abs=1e-12)
    pure = basis_dm((2,), (0,))
    assert expval(pure, Operator(np.diag([1.0, -1.0]))) == pytest.approx(1.0)


def test_expval_rejects_bad_input():
    with pytest.raises(ValueError, match="do not match"):
        expval(basis_dm((2,), (0,)), Operator(np.eye(4), (2, 2)))
    skew = Operator(np.diag([1.0j, 0.0]))
    with pytest.raises(ValueError, match="non-real"):
        expval(basis_dm((2,), (0,)), skew)


def test_pauli_expectations_bell_state():
    vals = pauli_expectations(bell_dm())
    assert len(vals) == 15
    assert vals["XX"] == pytest.approx(1.0)
    assert vals["YY"] == pytest.approx(-1.0)
    assert vals["ZZ"] == pytest.approx(1.0)
    assert vals["ZI"] == pytest.approx(0.0)
    single = pauli_expectations(basis_dm((2,), (0,)))
    assert single == pytest.approx({"X": 0.0, "Y": 0.0, "Z": 1.0})


def test_pauli_expectations_requires_qubits():
    rho = DensityMatrix(Operator(np.eye(3) / 3.0, (3,)))
    with pytest.raises(ValueError, match="register of qubits"):
        pauli_expectations(rho)


def test_tomography_round_trip():
    rho = random_dm(42)
    recon = tomography(pauli_expectations(rho))
    assert np.max(np.abs(recon.mat - rho.mat)) < 1e-9


def test_tomography_projects_noisy_data_to_a_physical_state():
    rng = np.random.default_rng(5)
    vals = pauli_expectations(bell_dm())
    noisy = {k: v + rng.uniform(-0.02, 0.02) for k, v in vals.items()}
    recon = tomography(noisy)
    w = np.linalg.eigvalsh(recon.mat)
    assert w.min() > -1e-12
    assert np.trace(recon.mat).real == pytest.approx(1.0, abs=1e-12)
    assert state_fidelity(recon, bell_dm()) > 0.95


def test_tomography_rejects_incomplete_sets():
    vals = pauli_expectations(bell_dm())
    vals.pop("XY")
    with pytest.raises(ValueError, match="incomplete Pauli set"):
        tomography(vals)
    with pytest.raises(ValueError, match="empty"):
        tomography({})


def test_state_fidelity_pure_states():
    up = basis_dm((2,), (0,))
    down = basis_dm((2,), (1,))
    plus = DensityMatrix(Operator(np.full((2, 2), 0.5)))
    assert state_fidelity(up, up) == pytest.approx(1.0)
    assert state_fidelity(up, down) == pytest.approx(0.0, abs=1e-12)
    # squared-overlap convention for pure states
    assert state_fidelity(up, plus) == pytest.approx(0.5)


def test_state_fidelity_diagonal_states_and_symmetry():
    p = DensityMatrix(Operator(np.diag([0.7, 0.3])))
    q = DensityMatrix(Operator(np.diag([0.4, 0.6])))
    expected = (np.sqrt(0.7 * 0.4) + np.sqrt(0.3 * 0.6)) ** 2
    assert state_fidelity(p, q) == pytest.approx(expected, abs=1e-12)
    assert state_fidelity(p, q) == pytest.approx(state_fidelity(q, p), abs=1e-12)
    rho = random_dm(7)
    assert state_fidelity(rho, rho) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="different registers"):
        state_fidelity(p, bell_dm())


def perturbed(rho, size, seed):
    rng = np.random.default_rng(seed)
    d = rho.mat.shape[0]
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = h + h.conj().T
    h -= np.trace(h) / d * np.eye(d)
    return DensityMatrix(Operator(rho.mat + size * h / np.abs(h).max(), rho.dims))


def test_state_fidelity_against_a_pure_target_is_the_overlap():
    for seed in range(5):
        rho = random_dm(seed)
        rng = np.random.default_rng(100 + seed)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        target = DensityMatrix(Operator(np.outer(psi, psi.conj()), (2, 2)))
        overlap = float(np.real(psi.conj() @ rho.mat @ psi))
        assert abs(state_fidelity(rho, target) - overlap) <= 1e-14
    # a nearly pure qubit against |1>, as in the gate-inversion metric
    rho = DensityMatrix(Operator(np.array([[0.009096875813, 0.0934j],
                                           [-0.0934j, 0.990903124187]])))
    assert abs(state_fidelity(rho, basis_dm((2,), (1,))) - 0.990903124187) <= 1e-14


def pure_dm(*amplitudes):
    psi = np.array(amplitudes, dtype=complex)
    psi /= np.linalg.norm(psi)
    n = int(np.log2(psi.size))
    return DensityMatrix(Operator(np.outer(psi, psi.conj()), (2,) * n))


def test_state_fidelity_ignores_rounding_level_perturbations():
    nearly_one = pure_dm(0.0953, 0.9954j)
    rank_two = DensityMatrix(Operator(np.kron(np.diag([0.5, 0.5, 0.0]),
                                              np.diag([1.0, 0.0])).astype(complex), (3, 2)))
    pairs = [
        (nearly_one, basis_dm((2,), (1,))),
        (nearly_one, nearly_one),
        (random_dm(3), basis_dm((2, 2), (0, 1))),
        (rank_two, rank_two),
        (rank_two, DensityMatrix(Operator(np.eye(6) / 6.0, (3, 2)))),
    ]
    for k, (rho, sigma) in enumerate(pairs):
        base = state_fidelity(rho, sigma)
        for seed in range(3):
            moved = state_fidelity(perturbed(rho, 1e-15, 10 * k + seed), sigma)
            assert abs(moved - base) <= 1e-12, (k, seed, moved - base)


def test_concurrence_ignores_rounding_level_perturbations():
    for k, rho in enumerate((bell_dm(), pure_dm(0.8, 0.0, 0.3j, 0.52), basis_dm((2, 2), (0, 1)))):
        base = concurrence(rho)
        for seed in range(3):
            moved = concurrence(perturbed(rho, 1e-15, 10 * k + seed))
            assert abs(moved - base) <= 1e-12, (k, seed, moved - base)


def test_concurrence_reference_states():
    assert concurrence(bell_dm()) == pytest.approx(1.0)
    assert concurrence(basis_dm((2, 2), (0, 1))) == pytest.approx(0.0, abs=1e-12)
    # Werner state: concurrence max(0, (3p - 1) / 2)
    p = 0.5
    werner = DensityMatrix(Operator(p * bell_dm().mat + (1 - p) * np.eye(4) / 4.0, (2, 2)))
    assert concurrence(werner) == pytest.approx((3 * p - 1) / 2.0, abs=1e-12)
    with pytest.raises(ValueError, match="two-qubit"):
        concurrence(DensityMatrix(Operator(np.eye(6) / 6.0, (3, 2))))


def test_concurrence_is_local_unitary_invariant():
    rng = np.random.default_rng(9)
    rho = random_dm(13)
    locals_ = []
    for _ in range(2):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        locals_.append(q)
    u = np.kron(locals_[0], locals_[1])
    rotated = DensityMatrix(Operator(u @ rho.mat @ u.conj().T, (2, 2)))
    assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


def test_pseudo_fidelity_recovers_a_clean_cosine():
    n = np.arange(1, 41, dtype=float)
    y = 0.05 + 0.45 * np.cos(2.0 * np.pi * n / 24.0 + 0.3)
    f, n_pi = pseudo_fidelity(sweep_of(n, y), "Iz", (-0.5, 0.5))
    assert f == pytest.approx(0.9, abs=0.01)
    assert n_pi == pytest.approx(12.0, abs=0.05)


def test_pseudo_fidelity_clips_full_contrast_to_one():
    n = np.arange(1, 41, dtype=float)
    y = 0.5 * np.cos(2.0 * np.pi * n / 20.0)
    f, n_pi = pseudo_fidelity(sweep_of(n, y), "Iz", (-0.5, 0.5))
    assert f == pytest.approx(1.0)
    assert n_pi == pytest.approx(10.0, abs=0.05)


def test_pseudo_fidelity_failure_modes():
    short = sweep_of([1, 2, 3, 4, 5], np.zeros(5))
    with pytest.raises(ValueError, match="at least 6 points"):
        pseudo_fidelity(short, "Iz", (-0.5, 0.5))
    n = np.arange(1, 31, dtype=float)
    slow = sweep_of(n, 0.5 * np.cos(2.0 * np.pi * n / 90.0))
    with pytest.raises(ValueError, match="full oscillation"):
        pseudo_fidelity(slow, "Iz", (-0.5, 0.5))
    rng = np.random.default_rng(3)
    noise = sweep_of(n, rng.uniform(-0.5, 0.5, n.size))
    with pytest.raises(ValueError, match="residual"):
        pseudo_fidelity(noise, "Iz", (-0.5, 0.5))
    with pytest.raises(ValueError, match="non-finite"):
        pseudo_fidelity(sweep_of(n, np.where(n == 7, np.nan, np.cos(n))), "Iz", (-0.5, 0.5))
    with pytest.raises(ValueError, match="invalid observable range"):
        pseudo_fidelity(sweep_of(n, np.cos(n)), "Iz", (0.5, 0.5))


def test_find_resonance_refines_between_grid_points():
    x = np.arange(0.40, 0.60, 0.004)
    y = 1.0 - 1.0 / (1.0 + ((x - 0.5213) / 0.01) ** 2)
    found = find_resonance(sweep_of(x, y, axis="tau"), "Iz")
    assert found == pytest.approx(0.5213, abs=0.002)


def test_find_resonance_boundary_and_size_guards():
    x = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="boundary"):
        find_resonance(sweep_of(x, np.exp(x), axis="tau"), "Iz")
    with pytest.raises(ValueError, match="at least 3"):
        find_resonance(sweep_of([0.0, 1.0], [0.0, 1.0], axis="tau"), "Iz")


def test_tpi_scaling_exact_inverse_law():
    azx = np.array([0.05, 0.1, 0.2, 0.4])
    c, residuals = tpi_scaling(list(zip(azx, 0.2 / azx)))
    assert c == pytest.approx(0.2, abs=1e-12)
    assert np.max(np.abs(residuals)) < 1e-12


def test_tpi_scaling_rejects_non_inverse_data():
    with pytest.raises(ValueError, match="worst relative residual"):
        tpi_scaling([(0.1, 1.0), (0.2, 1.0)])
    with pytest.raises(ValueError, match="at least two"):
        tpi_scaling([(0.1, 1.0)])
    with pytest.raises(ValueError, match="positive"):
        tpi_scaling([(0.1, 1.0), (-0.2, 0.5)])


def test_sweep_result_trace_lookup():
    sw = sweep_of([1, 2, 3], [0.0, 0.5, 1.0], label="Sz")
    assert sw.trace("Sz") == pytest.approx([0.0, 0.5, 1.0])
    with pytest.raises(KeyError, match="no trace 'Iz'"):
        sw.trace("Iz")


def test_gate_metrics_defaults():
    gm = GateMetrics()
    assert gm.f_tilde is None and gm.n_pi is None and gm.t_pi is None
    assert gm.state_fidelity is None and gm.concurrence is None
