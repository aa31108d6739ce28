"""Operator algebra: spin matrices, tensor products, exact propagators."""

import numpy as np
import pytest
import scipy.linalg

from spindd.algebra import (
    DensityMatrix,
    Operator,
    basis_dm,
    basis_ket,
    check_states,
    eig_hermitian,
    embed,
    herm_propagator,
    identity,
    partial_trace,
    spin_ops,
    state_errors,
    tensor,
)


def test_spin_half_matrices():
    ops = spin_ops(2)
    assert np.allclose(np.diag(ops.sz.mat), [0.5, -0.5])
    assert np.allclose(ops.sx.mat, [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(ops.sy.mat, [[0.0, -0.5j], [0.5j, 0.0]])


def test_spin_one_matrices():
    ops = spin_ops(3)
    assert np.allclose(np.diag(ops.sz.mat), [1.0, 0.0, -1.0])
    # raising element <m+1|Sx|m> = sqrt(2)/2 for spin 1
    assert abs(ops.sx.mat[0, 1] - 1.0 / np.sqrt(2)) < 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_spin_commutators_and_casimir(d):
    ops = spin_ops(d)
    comm = ops.sx.mat @ ops.sy.mat - ops.sy.mat @ ops.sx.mat
    assert np.allclose(comm, 1j * ops.sz.mat, atol=1e-14)
    s = (d - 1) / 2.0
    casimir = ops.sx.mat @ ops.sx.mat + ops.sy.mat @ ops.sy.mat + ops.sz.mat @ ops.sz.mat
    assert np.allclose(casimir, s * (s + 1) * np.eye(d), atol=1e-14)


def test_spin_ops_rejects_other_dimensions():
    with pytest.raises(ValueError, match="expected 2 or 3"):
        spin_ops(4)


def test_operator_infers_single_site_dims():
    op = Operator(np.eye(2))
    assert op.dims == (2,)
    assert op.shape == (2, 2)


def test_operator_validation():
    with pytest.raises(ValueError, match="square"):
        Operator(np.ones((2, 3)))
    with pytest.raises(ValueError, match="multiply"):
        Operator(np.eye(3), dims=(2, 2))
    with pytest.raises(ValueError, match="Hermitian"):
        Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), herm=True)


def test_operator_is_immutable():
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0
    with pytest.raises(AttributeError):
        op.herm = True


def test_operator_arithmetic_and_dagger():
    a = Operator(np.array([[0.0, 1.0j], [0.0, 0.0]]))
    b = Operator(np.eye(2))
    assert np.allclose((a + b).mat, a.mat + np.eye(2))
    assert np.allclose((a - b).mat, a.mat - np.eye(2))
    assert np.allclose((2.0 * a).mat, 2.0 * a.mat)
    assert np.allclose((-a).mat, -a.mat)
    assert np.allclose((a @ b).mat, a.mat)
    assert np.allclose(a.dag().mat, a.mat.conj().T)
    assert abs(b.trace() - 2.0) < 1e-15
    assert b.is_hermitian()
    assert not a.is_hermitian()
    assert a.allclose(Operator(a.mat.copy()))
    assert not a.allclose(b)


def test_tensor_product_entries_by_hand():
    ops = spin_ops(2)
    t = tensor([ops.sz, ops.sx])
    assert t.dims == (2, 2)
    # sz (x) sx: upper-left block +sx/2, lower-right block -sx/2
    assert t.mat[0, 1] == pytest.approx(0.25)
    assert t.mat[1, 0] == pytest.approx(0.25)
    assert t.mat[2, 3] == pytest.approx(-0.25)
    assert t.mat[0, 2] == 0.0
    with pytest.raises(ValueError, match="empty"):
        tensor([])


def test_embed_matches_explicit_kron():
    ops = spin_ops(2)
    dims = (2, 2, 2)
    at0 = embed(ops.sz, 0, dims)
    at2 = embed(ops.sx, 2, dims)
    assert np.allclose(at0.mat, np.kron(ops.sz.mat, np.eye(4)))
    assert np.allclose(at2.mat, np.kron(np.eye(4), ops.sx.mat))
    assert at0.dims == dims
    with pytest.raises(ValueError, match="outside"):
        embed(ops.sz, 3, (2, 2))


def test_identity():
    op = identity((2, 3))
    assert op.dims == (2, 3)
    assert np.allclose(op.mat, np.eye(6))


def test_basis_states():
    k = basis_ket((2, 2), (0, 1))
    assert k.shape == (4,)
    assert np.allclose(k, [0.0, 1.0, 0.0, 0.0])
    dm = basis_dm((3, 2), (1, 0), label="ms0")
    assert dm.label == "ms0"
    assert dm.mat[2, 2] == pytest.approx(1.0)
    assert abs(np.trace(dm.mat) - 1.0) < 1e-15
    with pytest.raises(ValueError, match="outside dimension"):
        basis_dm((2, 2), (0, 2))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(Operator(2.0 * np.eye(2)))  # trace 4
    with pytest.raises(ValueError):
        DensityMatrix(Operator(np.array([[0.5, 0.3], [0.1, 0.5]])))
    neg = np.diag([1.2, -0.2])
    with pytest.raises(ValueError):
        DensityMatrix(Operator(neg))


def one_state_error(m):
    """Message of the first failing check on one state, checked on its own."""
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > 1e-10:
        return f"density matrix trace {tr} deviates from 1"
    if not Operator(m).is_hermitian(1e-10):
        return "density matrix is not Hermitian"
    evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if evals.min() < -1e-9:
        return f"density matrix has negative eigenvalue {evals.min():.3e}"
    return None


def stack_error(mats):
    """The first state's message for the first check that any state fails."""
    errors = [one_state_error(m) for m in mats]
    for check in ("trace", "Hermitian", "negative"):
        for error in errors:
            if error is not None and check in error:
                return error
    return None


PURE = np.diag([1.0, 0.0]).astype(complex)
MIXED = np.full((2, 2), 0.25) + np.diag([0.25, 0.25])
NEGATIVE = np.diag([1.2, -0.2]).astype(complex)
TRACE_4 = 2.0 * np.eye(2, dtype=complex)
SKEW = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
NAN = np.array([[1.0, np.nan], [np.nan, 0.0]], dtype=complex)


@pytest.mark.parametrize("stack", [
    [PURE, MIXED],
    [PURE, NEGATIVE, TRACE_4],
    [MIXED, NEGATIVE, SKEW],
    [PURE, SKEW, NEGATIVE],
    [NEGATIVE, NAN],
    [PURE, MIXED, 0.7 * NEGATIVE + 0.3 * PURE, NEGATIVE],
    [TRACE_4],
])
def test_check_states_raises_the_single_state_messages(stack):
    def error_of(fn):
        try:
            fn()
        except ValueError as exc:
            return str(exc)
        return None

    assert error_of(lambda: check_states(np.array(stack))) == stack_error(stack)
    for m in stack:
        assert error_of(lambda: DensityMatrix(Operator(m))) == one_state_error(m)


def test_state_errors_give_each_stack_what_check_states_raises_on_it_alone():
    # one pass over every stack: a bad state in one stack leaves the others alone
    stacks = [[PURE, MIXED, PURE], [PURE, NEGATIVE, TRACE_4], [MIXED, NEGATIVE, SKEW],
              [PURE, SKEW, NEGATIVE], [NEGATIVE, NAN, PURE], [MIXED, PURE, MIXED],
              [PURE, MIXED, 0.7 * NEGATIVE + 0.3 * PURE]]
    errors = state_errors(np.array(stacks))
    assert [None if error is None else str(error) for error in errors] == [
        stack_error(stack) for stack in stacks]


def rotated(evals, seed):
    """``U diag(evals) U^dag`` for a seeded random unitary U."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(len(evals),) * 2) + 1j * rng.normal(size=(len(evals),) * 2)
    u, _ = np.linalg.qr(z)
    return (u * np.asarray(evals, dtype=float)) @ u.conj().T


LOW = {lam: rotated([0.6 + abs(lam), 0.4, 0.0, lam], 7) for lam in (-1.0001e-9, -0.9999e-9, -5e-10)}
PURE_4 = rotated([1.0, 0.0, 0.0, 0.0], 8)
MIXED_4 = rotated([0.5, 0.5, 0.0, 0.0], 9)


def test_the_cholesky_certificate_gives_the_eigvalsh_verdicts():
    trace_off, skew = 1.1 * MIXED_4, MIXED_4 + 1e-6 * np.triu(np.ones((4, 4)), 1)
    stacks = [[PURE_4, MIXED_4, PURE_4], [PURE_4, LOW[-1.0001e-9], MIXED_4],
              [LOW[-0.9999e-9], PURE_4, MIXED_4], [MIXED_4, LOW[-5e-10], PURE_4],
              [PURE_4, trace_off, LOW[-1.0001e-9]], [skew, MIXED_4, PURE_4],
              [LOW[-0.9999e-9], LOW[-5e-10], LOW[-0.9999e-9]]]
    expected = [stack_error(stack) for stack in stacks]
    assert expected[1].startswith("density matrix has negative eigenvalue -1.000e-09")
    assert expected[2] is expected[3] is expected[6] is None
    for cut in range(1, len(stacks) + 1):  # with and without each failing stack
        errors = state_errors(np.array(stacks[:cut]))
        assert [None if e is None else str(e) for e in errors] == expected[:cut]


def test_a_healthy_stack_skips_eigvalsh(monkeypatch):
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    healthy = np.array([[PURE_4, MIXED_4, rotated([0.25] * 4, 10)]] * 5)
    assert state_errors(healthy) == [None] * 5
    assert calls == []
    # a lowest eigenvalue just above the floor fails the certificate, not the check
    assert state_errors(np.array([[PURE_4, LOW[-0.9999e-9], MIXED_4]])) == [None]
    assert calls == [(1, 3, 4, 4)]


def test_density_matrix_purity():
    pure = basis_dm((2,), (0,))
    assert pure.purity() == pytest.approx(1.0)
    mixed = DensityMatrix(Operator(np.eye(4) / 4.0, dims=(2, 2)))
    assert mixed.purity() == pytest.approx(0.25)


def test_eig_hermitian_ascending_and_reconstruction():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = Operator(a + a.conj().T)
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    recon = v.mat @ np.diag(w) @ v.mat.conj().T
    assert np.allclose(recon, h.mat, atol=1e-12)


def test_herm_propagator_matches_expm():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = Operator(a + a.conj().T, dims=(2, 2))
    u = herm_propagator(h, 0.37)
    ref = scipy.linalg.expm(-2j * np.pi * 0.37 * h.mat)
    assert np.allclose(u.mat, ref, atol=1e-12)
    assert np.max(np.abs(u.mat @ u.mat.conj().T - np.eye(4))) < 1e-12
    with pytest.raises(ValueError, match="negative"):
        herm_propagator(h, -0.1)


def test_herm_propagator_zero_duration_is_identity():
    h = Operator(np.diag([1.0, -1.0]), herm=True)
    assert np.allclose(herm_propagator(h, 0.0).mat, np.eye(2))


def test_partial_trace_product_state():
    a = basis_dm((2,), (0,)).mat
    b = np.array([[0.75, 0.1], [0.1, 0.25]])
    rho = DensityMatrix(Operator(np.kron(a, b), dims=(2, 2)))
    red0 = partial_trace(rho, {0})
    red1 = partial_trace(rho, {1})
    assert isinstance(red0, DensityMatrix)
    assert np.max(np.abs(red0.mat - a)) < 1e-12
    assert np.max(np.abs(red1.mat - b)) < 1e-12


def test_partial_trace_bell_state_is_maximally_mixed():
    psi = (basis_ket((2, 2), (0, 0)) + basis_ket((2, 2), (1, 1))) / np.sqrt(2)
    rho = DensityMatrix(Operator(np.outer(psi, psi.conj()), dims=(2, 2)))
    red = partial_trace(rho, {1})
    assert np.max(np.abs(red.mat - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_three_sites_and_trace_preservation():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho_m = a @ a.conj().T
    rho_m = rho_m / np.trace(rho_m)
    rho = DensityMatrix(Operator(rho_m, dims=(3, 2, 2)))
    red = partial_trace(rho, {0, 2})
    assert red.dims == (3, 2)
    assert abs(np.trace(red.mat) - 1.0) < 1e-12
    # summing the middle site by hand
    by_hand = np.zeros((6, 6), dtype=complex)
    full = rho_m.reshape(3, 2, 2, 3, 2, 2)
    for j in range(2):
        by_hand += full[:, j, :, :, j, :].reshape(6, 6)
    assert np.max(np.abs(red.mat - by_hand)) < 1e-12
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(rho, set())


def test_partial_trace_operator_input_returns_operator():
    op = identity((2, 2))
    red = partial_trace(op, {0})
    assert isinstance(red, Operator)
    assert np.allclose(red.mat, 2.0 * np.eye(2))
