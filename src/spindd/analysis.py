"""Post-processing: observables, tomography, fidelities, sweep fits.

Works on plain arrays and the small value types from ``algebra``; no
dependency on how the data was produced, so the same fits run on
simulated sweeps and on externally measured traces.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .algebra import DensityMatrix, Operator

# relative eigenvalue floor for counting the rank of a state; rounding in
# an evolved state stays orders of magnitude below it
_RANK_RTOL = 1e-12

# the fewest sweep points an oscillation fit and a resonance search take
FIT_MIN_POINTS = 6
RESONANCE_MIN_POINTS = 3

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


@dataclass(frozen=True)
class SweepResult:
    """Observable traces along one swept axis.

    ``traces`` maps observable labels to arrays aligned with ``values``.
    ``states`` holds a simulated sweep's ``(len(values), d, d)`` final
    density matrices, and is None for traces produced elsewhere.
    """

    axis: str
    values: NDArray[np.float64]
    traces: dict
    states: NDArray[np.complex128] | None = None

    def trace(self, label: str) -> NDArray[np.float64]:
        if label not in self.traces:
            raise KeyError(f"no trace {label!r}; have {sorted(self.traces)}")
        return self.traces[label]


@dataclass
class GateMetrics:
    """Summary numbers for one characterized gate."""

    f_tilde: float | None = None
    n_pi: float | None = None
    t_pi: float | None = None
    state_fidelity: float | None = None
    concurrence: float | None = None


def expval(rho: DensityMatrix, obs: Operator) -> float:
    """Expectation value ``Tr(rho obs)`` for a Hermitian observable."""
    if rho.dims != obs.dims:
        raise ValueError(f"state dims {rho.dims} do not match observable dims {obs.dims}")
    return float(expvals(rho.mat[None], obs.mat[None])[0, 0])


def expvals(rhos, obs) -> np.ndarray:
    """``Tr(rho obs)`` for a ``(n, d, d)`` stack of states and a
    ``(m, d, d)`` stack of Hermitian observables, shape ``(n, m)``."""
    vals = np.einsum("nij,mji->nm", rhos, obs)
    scale = np.maximum(np.abs(obs).max(axis=(1, 2)), 1.0)
    bad = np.abs(vals.imag) > 1e-10 * scale
    if bad.any():
        raise ValueError(f"non-real expectation value {vals[bad][0]}; observable not Hermitian?")
    return vals.real


def _pauli_labels(n: int):
    for combo in itertools.product("IXYZ", repeat=n):
        label = "".join(combo)
        if label != "I" * n:
            yield label


def _pauli_matrix(label: str) -> NDArray[np.complex128]:
    mat = _PAULI[label[0]]
    for ch in label[1:]:
        mat = np.kron(mat, _PAULI[ch])
    return mat


def pauli_expectations(rho: DensityMatrix) -> dict:
    """All ``4^n - 1`` non-identity Pauli-product expectations."""
    if any(d != 2 for d in rho.dims):
        raise ValueError("Pauli expectations require a register of qubits")
    n = len(rho.dims)
    return {
        label: float(np.real(np.trace(rho.mat @ _pauli_matrix(label))))
        for label in _pauli_labels(n)
    }


def tomography(values: dict) -> DensityMatrix:
    """Linear-inversion state reconstruction with positivity projection.

    ``values`` maps Pauli-product labels (strings over ``IXYZ``) to
    measured expectations; the set must be complete for the register.
    The linear estimate ``(1 + sum_P <P> P) / 2^n`` is projected to the
    physical set by clipping negative eigenvalues and renormalizing.
    """
    if not values:
        raise ValueError("empty expectation set")
    n = len(next(iter(values)))
    expected = set(_pauli_labels(n))
    got = set(values)
    if got != expected:
        missing = sorted(expected - got)[:6]
        extra = sorted(got - expected)[:6]
        raise ValueError(f"incomplete Pauli set: missing {missing}, unexpected {extra}")

    dim = 2 ** n
    mat = np.eye(dim, dtype=complex)
    for label, val in values.items():
        mat += float(val) * _pauli_matrix(label)
    mat /= dim

    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0:
        raise ValueError("reconstruction collapsed to the zero matrix")
    w /= total
    projected = (v * w[None, :]) @ v.conj().T
    return DensityMatrix(Operator(projected, (2,) * n), label="tomography")


def _truncated_eigh(mat: NDArray[np.complex128]) -> tuple:
    """Spectrum of a state with its rounding-level eigenvalues set to zero.

    Returns ``(w, v, rank)``: eigenvalues at or below ``_RANK_RTOL`` of
    the largest become 0 and ``rank`` counts the rest.
    """
    w, v = np.linalg.eigh(mat)
    w = np.where(w > _RANK_RTOL * w.max(), w, 0.0)
    return w, v, int(np.count_nonzero(w))


def state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``.

    Squared convention: coincident states give 1 and for pure states
    this is the squared overlap.  ``sqrt(rho) sigma sqrt(rho)`` has rank
    at most ``min(rank rho, rank sigma)``; only that many of its largest
    eigenvalues enter the trace, since the square root would lift the
    rounding-level rest to about ``1e-8``.  Against a pure ``sigma =
    |psi><psi|`` the result is ``<psi|rho|psi>``.
    """
    if rho.dims != sigma.dims:
        raise ValueError("states live on different registers")
    w, v, rank_rho = _truncated_eigh(rho.mat)
    sqrt_rho = (v * np.sqrt(w)[None, :]) @ v.conj().T
    inner = sqrt_rho @ sigma.mat @ sqrt_rho
    w2 = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    keep = min(rank_rho, _truncated_eigh(sigma.mat)[2])
    f = float(np.sqrt(np.clip(w2[w2.size - keep:], 0.0, None)).sum() ** 2)
    return min(f, 1.0) if f < 1.0 + 1e-9 else f


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence via the spin-flipped product spectrum.

    Rounding-level eigenvalues of ``rho`` are dropped first; the product
    then has rank at most ``rank rho``, and only that many of its
    eigenvalues enter, for the same reason as in ``state_fidelity``.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence requires a two-qubit state, got dims {rho.dims}")
    yy = np.kron(_PAULI["Y"], _PAULI["Y"])
    w, v, rank = _truncated_eigh(rho.mat)
    clean = (v * w[None, :]) @ v.conj().T
    r = clean @ yy @ clean.conj() @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    lam.sort()
    lam[:lam.size - rank] = 0.0
    return float(max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4]))


# bytes of each stacked array of the fit (512 kB): a table pass's phasors and
# the working set of a screen chunk (see _best_fits), so that the fit's peak
# stays below the walk's whatever the number of traces
_CHUNK = 2 ** 19


def _trig_tables(n: np.ndarray, periods: np.ndarray) -> tuple:
    """The periods, their ``(m, *periods.shape)`` phasors ``exp(2 pi i n / p)``,
    whose real and imaginary views are the cos and sin tables, the ``(5,
    *periods.shape)`` sums over n of cos, sin, cos^2, cos sin and sin^2, and the
    entries 00 01 02 11 12 22 of the inverse normal matrices of ``a + b cos + c
    sin``, as ``(6, *periods.shape)`` cofactors over the determinant.  A period
    aliasing on the N grid (determinant not safely positive) gets nan, and so
    an infinite rms.  A period's column, sums and cofactors are formed from
    that period alone, so they are the same bits in any table that holds it.

    On an evenly spaced grid ``n0 + s k`` the phasors are filled by doubling,
    N rows ``[k, 2 k)`` being rows ``[0, k)`` times ``w^k`` with ``w = exp(2 pi i
    s / p)`` squared at each level: ``ceil(log2 m)`` products over contiguous
    rows of all periods, and no libm trig on the table.  Products of
    unit-modulus factors round in proportion to their count, so an entry stays
    within a few ``m`` ulp of libm's.  Any other grid takes ``np.cos`` and
    ``np.sin`` of every entry."""
    step = np.diff(n)
    z = np.empty(n.shape + periods.shape, dtype=complex)
    if step.size and (step == step[0]).all():
        w = np.exp(1j * (2.0 * np.pi * step[0] / periods))
        z[0] = w if n[0] == step[0] else np.exp(1j * (2.0 * np.pi * n[0] / periods))
        k = 1
        while k < n.size:
            np.multiply(z[:min(k, n.size - k)], w, out=z[k:2 * k])
            k *= 2
            if k < n.size:
                np.multiply(w, w, out=w)
    else:
        arg = 2.0 * np.pi * n.reshape(n.shape + (1,) * periods.ndim) / periods
        z.real, z.imag = np.cos(arg), np.sin(arg)
    # column reductions of the entries, (cos, sin) and (cos^2, sin^2) side by
    # side on the float view
    sums, planes = np.empty((5,) + periods.shape), z.view(float)
    pair = planes.sum(axis=0).reshape(periods.shape + (2,))
    sums[0], sums[1] = pair[..., 0], pair[..., 1]
    pair = np.einsum("i...,i...->...", planes, planes).reshape(periods.shape + (2,))
    sums[2], sums[4] = pair[..., 0], pair[..., 1]
    np.einsum("i...,i...->...", z.real, z.imag, out=sums[3])
    m, (c, s, cc, cs, ss) = float(n.size), sums
    inv = np.empty((6,) + periods.shape)
    for out, (u, v) in zip(inv, [(cc * ss, cs * cs), (s * cs, c * ss), (c * cs, cc * s),
                                 (m * ss, s * s), (c * s, m * cs), (m * cc, c * c)]):
        np.subtract(u, v, out=out)
    det = m * inv[0] + c * inv[1] + s * inv[2]
    # m^3 bounds the determinant, and its rounding error is about 1e-15 m^3
    inv /= np.where(det > 1e-12 * m ** 3, det, np.nan)
    return periods, z, sums, inv


@functools.lru_cache(maxsize=1)
def _coarse_tables(key: bytes) -> tuple:
    """Read-only trig tables of the coarse period grid, which depends only
    on the float64 ``n`` whose bytes are ``key``."""
    n = np.frombuffer(key)
    tables = _trig_tables(n, np.linspace(3.0, 1.5 * (n.max() - n.min()), 600))
    for table in tables:
        table.flags.writeable = False
    return tables


_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _best_fits(ys: np.ndarray, tables: tuple, windows: np.ndarray) -> tuple:
    """The ``(3, T)`` rows ``rms``, ``period`` and ``hypot(b, c)`` of the
    least-squares ``a + b cos + c sin`` of each trace of the ``(T, m)`` ``ys``
    at the trial period of least rms in its window of the tables, the first
    on a tie; ``windows`` indexes the rows of the tables' ``(W, P)`` periods
    (one window if they are ``(P,)``), in ascending order.  The
    residual is explicit, as the normal-equation identity for it cancels
    badly on near-perfect fits; it is formed only for the (trace, period)
    pairs the identity cannot rule out.

    The identity ``|y - a - b cos - c sin|^2 = y.y - 2 (a ty + b tc + c ts) +
    m a^2 + cc b^2 + ss c^2 + 2 (c1 a b + s1 a c + cs b c)`` holds for any
    coefficients; ``c1``, ``s1``, ``cc``, ``cs`` and ``ss`` are the sums over n
    of cos, sin, cos^2, cos sin and sin^2 in the tables.  With ``R = max|y| +
    |a| + |b| + |c|``, which bounds every residual entry, the explicit
    residual and its sum are off the exact sum of the computed coefficients
    by at most ``(m + 7) m eps R^2``, and the identity, with its products
    and sums, by at most about ``(m^2 + 10 m) eps R^2``, whatever the order
    of each sum; for m >= 6 both fit in ``E = 16 m^2 eps R^2``, which also
    covers the rounding of ``rss -+ E`` (``tiny`` covers underflow).  A period
    whose ``rss - E`` exceeds the least ``rss + E`` by more than 16 ulp has an
    explicit sum above that period's by a margin that survives ``/ m`` and
    ``sqrt``, so it can neither be the least rms nor tie it.  A period whose
    bound is not finite (an aliasing one, or an overflowing scale) is always
    formed.

    The traces go in chunks whose ``(traces, P)`` arrays, some sixteen at
    once, fit in ``_CHUNK`` bytes.  A trace's ``tc`` and ``ts`` are its own
    ``(1, m) @ (m, 2 P)`` product with its window's float view, and every
    other step works entry by entry or along one trace, so a trace's result
    is the same bits whatever else its chunk holds."""
    periods, z, sums, inv = tables
    if periods.ndim == 1:  # one window
        periods, z, sums, inv = periods[None], z[:, None], sums[:, None], inv[:, None]
    m, (count, width) = ys.shape[1], periods.shape
    planes = z.view(float)  # (m, W, 2 P): each period's cos and sin side by side
    size = max(1, _CHUNK // (128 * width))
    fits = np.empty((3, len(ys)))
    for lo in range(0, len(ys), size):
        y, wins = ys[lo:lo + size], windows[lo:lo + size]
        prod = np.empty((len(y), 1, 2 * width))
        cuts = [0] + [k for k in range(1, len(y)) if wins[k] != wins[k - 1]] + [len(y)]
        for i, j in zip(cuts[:-1], cuts[1:]):
            np.matmul(y[i:j, None], planes[:, wins[i]], out=prod[i:j])
        tc, ts = prod.reshape(len(y), width, 2).transpose(2, 0, 1).copy()
        # one window's sums broadcast over the traces; several are gathered
        c1, s1, cc, cs, ss = sums if count == 1 else sums[:, wins]
        i00, i01, i02, i11, i12, i22 = inv if count == 1 else inv[:, wins]
        ty, yy = np.add.reduce(y, axis=1, keepdims=True), np.einsum("ij,ij->i", y, y)[:, None]
        top = np.maximum.reduce(np.abs(y), axis=1, keepdims=True)
        a = i00 * ty + i01 * tc + i02 * ts
        b = i01 * ty + i11 * tc + i12 * ts
        c = i02 * ty + i12 * tc + i22 * ts
        with np.errstate(over="ignore", invalid="ignore"):  # such rows have no finite scale
            rss = (a * (m * a + 2.0 * (c1 * b + s1 * c - ty)) + b * (cc * b + 2.0 * (cs * c - tc))
                   + c * (ss * c - 2.0 * ts) + yy)
            r = top + np.abs(a) + np.abs(b) + np.abs(c)
            scale = 16.0 * m * m * r * r
            err = _EPS * scale + 16.0 * m * m * _TINY
            ok = np.isfinite(scale)
            least = np.minimum.reduce(rss + err, axis=1, where=ok, initial=np.inf, keepdims=True)
            keep = ~ok | (rss - err <= least * (1.0 + 16.0 * _EPS) + m * _TINY)
        # each trace keeps at least the period of its least rss + E; of its
        # formed pairs it takes the least rms, the first on a tie
        t, p = np.nonzero(keep)
        entries = z[:, wins[t], p].T
        a, b, c = a[t, p], b[t, p], c[t, p]
        resid = y[t] - a[:, None]
        resid -= b[:, None] * entries.real
        resid -= c[:, None] * entries.imag
        rms = np.sqrt(np.einsum("ij,ij->i", resid, resid) / m)
        rms[np.isnan(rms)] = np.inf
        best = np.lexsort((rms, t))[np.searchsorted(t, np.arange(len(y)))]
        fits[0, lo:lo + size] = rms[best]
        fits[1, lo:lo + size] = periods[wins, p[best]]
        fits[2, lo:lo + size] = np.hypot(b[best], c[best])
    return fits


def pseudo_fidelities(n, ys, value_range) -> list:
    """``pseudo_fidelity`` of each trace of ``ys`` on one N grid ``n``: per
    trace ``(f_tilde, n_pi)`` or the ``ValueError`` that ``pseudo_fidelity``
    raises for it, with the same checks in the same order.  The coarse stage
    screens the traces against the cached coarse table in chunks.  The fine
    stage builds the windows of several distinct coarse best periods in one
    table pass of at most ``_CHUNK`` bytes, each window once, and screens
    each trace against its own."""
    n = np.asarray(n, dtype=float)
    rng = float(value_range[1] - value_range[0])
    results, fitted = [], []
    for k, y in enumerate(ys):
        y = np.asarray(y, dtype=float)
        if rng <= 0:
            results.append(ValueError(f"invalid observable range {value_range}"))
        elif n.size < FIT_MIN_POINTS:
            results.append(ValueError(
                f"need at least {FIT_MIN_POINTS} points to fit an oscillation"))
        elif not np.isfinite(y).all():
            results.append(ValueError("trace has non-finite values"))
        else:
            fitted.append(k)
            results.append(y)
    if not fitted:
        return results
    # the coarse grid's first minimum, then a refinement that wins only when strictly better
    y = np.array([results[k] for k in fitted])
    coarse = _best_fits(y, _coarse_tables(n.tobytes()), np.zeros(len(y), dtype=int)).T.tolist()
    centers = {}  # distinct coarse best period -> the traces that have it
    for k, (_, period, _) in enumerate(coarse):
        centers.setdefault(period, []).append(k)
    span = n.max() - n.min()
    count = max(1, _CHUNK // (16 * 400 * n.size))  # windows per table pass
    groups = list(centers.items())
    for first in range(0, len(groups), count):
        group = groups[first:first + count]
        tables = _trig_tables(n, np.array([
            np.linspace(max(2.5, t * 0.9), min(1.6 * span, t * 1.1), 400) for t, _ in group]))
        rows = [k for _, members in group for k in members]
        windows = np.array([w for w, (_, members) in enumerate(group) for _ in members])
        refined = _best_fits(y[rows], tables, windows).T.tolist()
        del tables
        for k, fine in zip(rows, refined):
            rms, period, amp = fine if fine[0] < coarse[k][0] else coarse[k]
            if period > 1.26 * span:
                results[fitted[k]] = ValueError(
                    f"series spans {span:.1f} pulses but the best-fit period is {period:.1f}; "
                    "sweep does not contain a full oscillation")
            elif rms > 0.15 * rng:
                results[fitted[k]] = ValueError(
                    f"cosine fit residual {rms:.3g} exceeds 0.15 of the observable range "
                    f"{rng:.3g} (period {period:.2f}, amplitude {amp:.3g})")
            else:
                results[fitted[k]] = (min(2.0 * amp / rng, 1.0), period / 2.0)
    return results


def pseudo_fidelity(sweep: SweepResult, label: str, value_range) -> tuple:
    """Oscillation contrast and inversion period of an N-sweep trace.

    Fits ``a + b cos(2 pi n / T + phi)`` by scanning the period over a
    dense grid (linear least squares at each trial period, then a local
    refinement); the coarse grid's tables depend only on N.  Returns
    ``(f_tilde, n_pi)`` where ``f_tilde = 2|b|`` normalized by the declared
    observable range and clipped to 1, and ``n_pi = T / 2`` is the
    inversion period in pulses.  Raises when the series is shorter than
    one period or the fit residual exceeds 0.15 of the range.  This is the
    one-trace case of ``pseudo_fidelities``.
    """
    (result,) = pseudo_fidelities(sweep.values, [sweep.trace(label)], value_range)
    if isinstance(result, ValueError):
        raise result
    return result


def find_resonance(sweep: SweepResult, label: str) -> float:
    """Axis position of the strongest feature, parabolically refined.

    The feature is the global extremum of the deviation from the median
    level.  A maximum on the sweep boundary raises, since it cannot be
    bracketed.
    """
    x = np.asarray(sweep.values, dtype=float)
    y = np.asarray(sweep.trace(label), dtype=float)
    if x.size < RESONANCE_MIN_POINTS:
        raise ValueError(f"need at least {RESONANCE_MIN_POINTS} sweep points")
    dev = np.abs(y - np.median(y))
    idx = int(np.argmax(dev))
    if idx == 0 or idx == x.size - 1:
        raise ValueError(f"extremum at sweep boundary (index {idx}); widen the grid")
    # quadratic through the bracketing triple
    xs, ys = x[idx - 1: idx + 2], y[idx - 1: idx + 2]
    a, b, _ = np.polyfit(xs - xs[1], ys, 2)
    if a == 0:
        return float(xs[1])
    vertex = -b / (2.0 * a)
    vertex = float(np.clip(vertex, xs[0] - xs[1], xs[2] - xs[1]))
    return float(xs[1] + vertex)


def tpi_scaling(fits) -> tuple:
    """Fit gate times against coupling: ``t_pi = c / azx``.

    ``fits`` is a sequence of ``(azx, t_pi)`` pairs.  Returns the
    least-squares constant and the per-point relative residuals; a
    relative residual above 10 percent raises, since then the inverse
    scaling does not describe the data.
    """
    pairs = [(float(a), float(t)) for a, t in fits]
    if len(pairs) < 2:
        raise ValueError("need at least two (azx, t_pi) pairs")
    a = np.array([p[0] for p in pairs])
    t = np.array([p[1] for p in pairs])
    if (a <= 0).any() or (t <= 0).any():
        raise ValueError("couplings and gate times must be positive")
    c = float(np.sum(t / a) / np.sum(1.0 / a ** 2))
    model = c / a
    residuals = (t - model) / model
    worst = float(np.abs(residuals).max())
    if worst > 0.10:
        raise ValueError(
            f"inverse-coupling fit fails: worst relative residual {worst:.3f} "
            f"(c={c:.4g}, data={pairs})"
        )
    return c, residuals
