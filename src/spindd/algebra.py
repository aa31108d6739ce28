"""Operators on small multi-spin Hilbert spaces.

Everything is dense: registers stay below a handful of spins, so the
whole module is a thin layer over numpy arrays that keeps track of the
subsystem dimensions and enforces the invariants the rest of the package
relies on (Hermiticity, unit trace, positivity).  Matrix exponentials of
Hermitian generators go through an eigendecomposition, which keeps the
resulting propagators exactly unitary instead of merely close to it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

HERM_TOL = 1e-12  # relative, for operators declared Hermitian
DM_TRACE_TOL = 1e-10
DM_HERM_TOL = 1e-10
DM_EIG_FLOOR = -1e-9


class Operator:
    """Square matrix tagged with the dimensions of its subsystems.

    Parameters
    ----------
    mat
        Square array, coerced to complex.
    dims
        Dimension of each subsystem; their product must equal the matrix
        side.  Defaults to a single subsystem.
    herm
        Declare the operator Hermitian.  Validated on construction with a
        relative tolerance of ``1e-12``.
    """

    __slots__ = ("mat", "dims", "herm")

    def __init__(self, mat, dims=None, herm: bool = False):
        arr = np.array(mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
        if dims is None:
            dims = (arr.shape[0],)
        dims = tuple(int(d) for d in dims)
        if int(np.prod(dims)) != arr.shape[0]:
            raise ValueError(f"dims {dims} do not multiply to matrix side {arr.shape[0]}")
        if herm:
            scale = max(np.abs(arr).max(), 1.0)
            drift = np.abs(arr - arr.conj().T).max()
            if drift > HERM_TOL * scale:
                raise ValueError(f"operator declared Hermitian but |H - H^dag| = {drift:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "herm", bool(herm))

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def shape(self):
        return self.mat.shape

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, self.dims, herm=self.herm)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        scale = max(np.abs(self.mat).max(), 1.0)
        return bool(np.abs(self.mat - self.mat.conj().T).max() <= tol * scale)

    def _coerce(self, other):
        if isinstance(other, Operator):
            if other.dims != self.dims:
                raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
            return other.mat
        return other

    def __add__(self, other):
        return Operator(self.mat + self._coerce(other), self.dims)

    def __sub__(self, other):
        return Operator(self.mat - self._coerce(other), self.dims)

    def __mul__(self, scalar):
        return Operator(self.mat * scalar, self.dims)

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(-self.mat, self.dims)

    def __matmul__(self, other):
        return Operator(self.mat @ self._coerce(other), self.dims)

    def allclose(self, other, atol: float = 1e-12) -> bool:
        return bool(np.allclose(self.mat, self._coerce(other), atol=atol))

    def __repr__(self):
        return f"Operator(dims={self.dims}, shape={self.shape})"


class DensityMatrix:
    """Validated quantum state.

    Construction checks unit trace (within ``1e-10``), Hermiticity (within
    ``1e-10``) and positivity (eigenvalues above ``-1e-9``); anything
    further from a physical state raises ``ValueError``.
    """

    __slots__ = ("op", "label")

    def __init__(self, op: Operator, label: str = ""):
        if not isinstance(op, Operator):
            op = Operator(op)
        check_states(op.mat[None])
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def mat(self) -> NDArray[np.complex128]:
        return self.op.mat

    @property
    def dims(self):
        return self.op.dims

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"DensityMatrix(dims={self.dims}{tag})"


def check_states(mats) -> None:
    """Check that every matrix of a ``(n, d, d)`` stack is a physical state.

    The checks, tolerances and messages are those of ``DensityMatrix``:
    unit trace, then Hermiticity (relative to the largest entry, at
    least 1), then eigenvalues above the floor, each over the whole
    stack.  The first state failing the first failing check raises
    ``ValueError``.
    """
    error = state_errors(np.asarray(mats)[None])[0]
    if error is not None:
        raise error


def state_errors(stacks) -> list:
    """Per stack of a ``(g, n, d, d)`` array, None or the ``ValueError`` that
    ``check_states`` raises on that stack alone; every stack is checked in
    one pass over all ``g n`` matrices.

    The eigenvalue floor is certified first by one batched Cholesky of the
    Hermitian parts shifted by half the floor's size, ``H + 5e-10``.  One
    that completes in floating point factors a matrix within about
    ``d eps |H|`` of the shifted one (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10), so every lowest eigenvalue is
    above ``-5e-10 - O(d eps)`` and ``eigvalsh`` would pass them all.  Only
    when a factorization fails does ``eigvalsh`` run, as the check itself."""
    stacks = np.asarray(stacks)
    g, n, d = stacks.shape[:3]
    mats = stacks.reshape(g * n, d, d)
    tr = np.trace(mats, axis1=1, axis2=2).reshape(g, n)
    adj = np.swapaxes(mats, 1, 2).conj()
    scale = np.maximum(np.abs(mats).max(axis=(1, 2)), 1.0)
    # "not within" so that a nan entry fails here, before eigvalsh
    hermitian = (np.abs(mats - adj).max(axis=(1, 2)) <= DM_HERM_TOL * scale).reshape(g, n)
    off = np.abs(tr - 1.0) > DM_TRACE_TOL
    errors = [None] * g
    for r in np.flatnonzero(off.any(axis=1) | ~hermitian.all(axis=1)).tolist():
        if off[r].any():
            trace = complex(tr[r, off[r].argmax()])
            errors[r] = ValueError(f"density matrix trace {trace} deviates from 1")
        else:
            errors[r] = ValueError("density matrix is not Hermitian")
    live = [j for j, error in enumerate(errors) if error is None]
    herm = 0.5 * (mats + adj).reshape(g, n, d, d)[live]
    try:  # certificate: every live state is a Cholesky-positive shift above the floor
        np.linalg.cholesky(herm + (0.5 * abs(DM_EIG_FLOOR)) * np.eye(d))
        return errors
    except np.linalg.LinAlgError:
        pass
    lowest = np.linalg.eigvalsh(herm)[..., 0]
    for j, values in zip(live, lowest):
        bad = np.flatnonzero(values < DM_EIG_FLOOR)
        if bad.size:
            errors[j] = ValueError(f"density matrix has negative eigenvalue {values[bad[0]]:.3e}")
    return errors


@dataclass(frozen=True)
class SpinOperators:
    """The three spin components for one subsystem dimension."""

    sx: Operator
    sy: Operator
    sz: Operator


@functools.cache
def spin_ops(d: int) -> SpinOperators:
    """Spin operators for a ``d``-level spin, ``d`` in {2, 3}.

    Spin-1/2 operators are the Pauli matrices over two; spin-1 operators
    are the standard spin-1 matrices.  ``sz`` is diagonal with descending
    spin projections, so basis index 0 is the highest projection.  The
    operators are immutable, so every call for one ``d`` returns the same set.
    """
    if d == 2:
        sx = np.array([[0.0, 0.5], [0.5, 0.0]])
        sy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
        sz = np.diag([0.5, -0.5]).astype(complex)
    elif d == 3:
        f = 1.0 / np.sqrt(2.0)
        sx = f * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        sy = f * np.array([[0.0, -1.0j, 0.0], [1.0j, 0.0, -1.0j], [0.0, 1.0j, 0.0]])
        sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    else:
        raise ValueError(f"unsupported spin dimension {d}; expected 2 or 3")
    return SpinOperators(
        Operator(sx, (d,), herm=True),
        Operator(sy, (d,), herm=True),
        Operator(sz, (d,), herm=True),
    )


def identity(dims) -> Operator:
    """Identity operator over the given subsystem dimensions."""
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    return Operator(np.eye(n, dtype=complex), dims, herm=True)


def tensor(ops) -> Operator:
    """Kronecker product of a sequence of operators, left factor first.

    The subsystem dimension lists concatenate, so site indices follow
    the argument order.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("tensor of an empty sequence is undefined")
    mat = ops[0].mat
    dims = list(ops[0].dims)
    herm = all(o.herm for o in ops)
    for o in ops[1:]:
        mat = np.kron(mat, o.mat)
        dims.extend(o.dims)
    return Operator(mat, tuple(dims), herm=herm)


def embed(op: Operator, site: int, dims) -> Operator:
    """Place ``op`` at ``site`` of a register, identity elsewhere."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= site < len(dims):
        raise ValueError(f"site {site} outside register of {len(dims)} subsystems")
    if op.shape[0] != dims[site]:
        raise ValueError(f"operator dimension {op.shape[0]} does not match site dimension {dims[site]}")
    factors = [
        op if i == site else identity((d,))
        for i, d in enumerate(dims)
    ]
    return tensor(factors)


def eig_hermitian(h: Operator, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian operator.

    Returns ``(evals, evecs)`` with eigenvalues ascending and the
    eigenvector matrix as a unitary ``Operator`` (columns are
    eigenvectors).  Raises ``ValueError`` when the input is not Hermitian
    within ``tol`` (relative).
    """
    if not h.is_hermitian(tol):
        raise ValueError("eig_hermitian requires a Hermitian operator")
    w, v = np.linalg.eigh(0.5 * (h.mat + h.mat.conj().T))
    return w, Operator(v, h.dims)


def herm_propagator(h: Operator, duration: float) -> Operator:
    """Propagator ``expm(-i 2 pi duration h)`` for Hermitian ``h``.

    Built from the eigendecomposition so the result is unitary to
    machine precision for any duration.
    """
    if duration < 0:
        raise ValueError(f"negative evolution duration {duration}")
    w, v = eig_hermitian(h)
    return Operator(eig_propagator(w, v.mat, duration), h.dims)


def eig_propagator(w, v, duration: float) -> NDArray[np.complex128]:
    """Propagator ``v exp(-i 2 pi duration w) v^dag`` from an eigendecomposition.

    ``w`` holds eigenvalues with shape ``(..., d)`` and ``v`` the matching
    eigenvector columns with shape ``(..., d, d)``; leading axes are a
    batch.  Unitary to machine precision for any duration.
    """
    phases = np.exp(-2j * np.pi * duration * w)
    return (v * phases[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def partial_trace(rho, keep):
    """Trace out all subsystems not listed in ``keep``.

    ``keep`` is a set of site indices; the result keeps those sites in
    their original order.  Accepts an ``Operator`` or a
    ``DensityMatrix`` and returns the same type.
    """
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(partial_trace(rho.op, keep), label=rho.label)
    dims = rho.dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep sites {keep} outside register of {n} subsystems")
    if not keep:
        raise ValueError("must keep at least one subsystem")
    tensor_form = rho.mat.reshape(*dims, *dims)
    # trace axis pairs (i, i + n) for every site not kept, highest first
    # so the remaining axis numbers stay valid
    traced = tensor_form
    removed = 0
    for site in range(n - 1, -1, -1):
        if site in keep:
            continue
        cur_n = n - removed
        traced = np.trace(traced, axis1=site, axis2=site + cur_n)
        removed += 1
    new_dims = tuple(dims[k] for k in keep)
    side = int(np.prod(new_dims))
    return Operator(traced.reshape(side, side), new_dims)


def basis_ket(dims, levels) -> NDArray[np.complex128]:
    """Column vector for the product basis state with the given levels."""
    dims = tuple(int(d) for d in dims)
    levels = tuple(int(x) for x in levels)
    if len(levels) != len(dims):
        raise ValueError("one level index per subsystem required")
    for lv, d in zip(levels, dims):
        if not 0 <= lv < d:
            raise ValueError(f"level {lv} outside dimension {d}")
    index = 0
    for lv, d in zip(levels, dims):
        index = index * d + lv
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    vec[index] = 1.0
    return vec


def basis_dm(dims, levels, label: str = "") -> DensityMatrix:
    """Pure product state density matrix for the given basis levels."""
    vec = basis_ket(dims, levels)
    return DensityMatrix(Operator(np.outer(vec, vec.conj()), tuple(dims)), label=label)
