"""Time evolution through compiled pulse sequences.

Free evolution is a single exact exponential of the static Hamiltonian.
Driven intervals are Trotterized: the lab-frame Hamiltonian including
the oscillating carrier is sampled at the midpoint of each step of
length ``dt`` and the step exponentials are multiplied, later steps on
the left, by a pairwise reduction.  A step Hamiltonian
``h0 + omega1 x drive_op`` depends on the step only through the carrier
amplitude ``x`` in [-1, 1], so each step exponential is read off a
Chebyshev interpolant in ``x`` through a few exactly exponentiated
nodes; the node count is chosen so that the interpolation error bound
``2 y^K / K!`` stays below 1e-17, far under rounding (see
``pulse_propagator``).  The lab clock runs continuously across the whole
sequence, so the carrier phase of later pulses follows from their start
time; ``SimConfig.carrier_reset`` restarts the carrier at every pulse
instead, for comparison.  A pulse's propagator depends on its start time
only through that carrier phase, so the cache keys pulses by phase.

Every sweep is one walk over cells ``(tau, length_factor, freq_factor)``:
the taus of a tau sweep, or the error cells of N sweeps at one tau.  Each
cell walks the pi train of its largest N once and closes it at each
wanted N with a tail built once per closing class.  Before anything is
built, the walk times every cell's lookups and hands the cache their
pulse keys; the cells then look up their propagators in the order that
applying their sequences one after another would, and advance by one
batched product of ``(cells, d, d)`` stacks per element, the identity
standing for an empty delay or a failed cell.

A tau sweep moves every carrier phase, so a pulse shape requested at
many phases is served from a trigonometric interpolant in the phase.
The Trotter product ``U(phi)`` is a Laurent series in ``z = exp(i phi)``
bounded by ``exp(a (r - 1/r))`` on ``|z| = r``, ``a = nsteps y``; the
Cauchy estimate at ``r = m / a`` bounds its m-th Fourier coefficient by
``(e a / m)^m``, so with ``q = e a / (h + 1)`` those beyond h sum to at
most ``2 q^(h+1) / (1 - q)``, kept below 1e-15 by M = 2 h + 1 samples.
A shape whose exact builds, held and still wanted, would pass 2 M phases
takes its samples at once; the walk's keys tell the cache how many
phases each shape still wants (see ``PropagatorCache``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .algebra import DensityMatrix, Operator, check_states, eig_hermitian, eig_propagator
from .analysis import SweepResult, expvals
from .sequences import (
    Delay,
    DrivePulse,
    Pulse,
    PulseSequence,
    SimConfig,
    check_error_factors,
    closing_class,
    closing_tail,
    compile_train,
    family_rule,
    sequence_timing,
)
# unused here; benchmarks/spans.py patches these names on this module
from .sequences import compile_cpmg, compile_xyn, inject_errors  # noqa: F401

_KEY_DIGITS = 12

# Error bound of an interpolated step exponential.  Interpolating a
# smooth f at the K Chebyshev nodes misses it by at most
# max|f^(K)| / (2^(K-1) K!), here in each real and imaginary part of each
# entry.  For U(x) = exp(-2 pi i dt (h0 + omega1 x drive_op)) the
# Duhamel expansion bounds the K-th derivative in x by
# (2 pi dt omega1 |drive_op|_2)^K = (2 y)^K, which gives 2 y^K / K!.
_CHEB_TOL = 1e-17


# bound on the Fourier coefficients beyond a phase interpolant's; see above
_PHASE_TOL = 1e-15


def _node_count(y: float) -> int:
    """Smallest K with ``2 y^K / K! <= _CHEB_TOL``."""
    k, bound = 1, 2.0 * y
    while bound > _CHEB_TOL:
        k += 1
        bound *= y / k
    return k


def _phase_count(a: float) -> int:
    """Smallest odd M = 2 h + 1 with ``q = e a / (h + 1) < 1`` and
    ``2 q^(h+1) / (1 - q) <= _PHASE_TOL``."""
    h = 0
    while True:
        q = np.e * a / (h + 1)
        if q < 1.0 and 2.0 * q ** (h + 1) / (1.0 - q) <= _PHASE_TOL:
            return 2 * h + 1
        h += 1


@dataclass(frozen=True)
class EvolutionResult:
    """Final state and total propagator."""

    rho_final: DensityMatrix
    unitary: Operator


def _step_coefficients(h0: Operator, drive_op: Operator, omega1: float, dt: float) -> tuple:
    """``y`` and the ``(K, d^2)`` Chebyshev coefficient matrices of one
    Trotter step in the carrier amplitude (see ``pulse_propagator``)."""
    y = np.pi * dt * omega1 * np.linalg.norm(drive_op.mat, 2)
    k = _node_count(y)
    theta = np.pi * (np.arange(k) + 0.5) / k
    nodes = h0.mat[None] + (omega1 * np.cos(theta))[:, None, None] * drive_op.mat[None]
    w, v = np.linalg.eigh(nodes)
    u_nodes = eig_propagator(w, v, dt).reshape(k, -1)
    # c_m = (2 / K) sum_j U(x_j) T_m(x_j), halved for m = 0
    transform = (2.0 / k) * chebvander(np.cos(theta), k - 1).T
    transform[0] *= 0.5
    return y, transform @ u_nodes


def pulse_propagator(h0: Operator, pulse: DrivePulse, drive_op: Operator,
                     t_start: float = 0.0, dt: float = None,
                     coefficients: np.ndarray | None = None) -> Operator:
    """Propagator of one driven interval.

    The pulse duration is snapped to an integer number of steps; the
    snap never moves the duration by more than half a step, and a pulse
    shorter than half a step is rejected.  Each step evolves under
    ``h0 + pulse.carrier(t) * drive_op`` with ``t`` taken at the step
    midpoint.

    The step exponential ``U(x) = exp(-2 pi i dt (h0 + omega1 x drive_op))``
    is an entire function of the carrier amplitude ``x`` in [-1, 1].  It
    is computed exactly (one batched ``eigh``) at the K Chebyshev nodes
    ``x_j = cos(pi (j + 1/2) / K)``, turned into Chebyshev coefficient
    matrices by the discrete cosine transform, and evaluated at every
    step as ``sum_m T_m(x) c_m``.  With ``y = pi dt omega1 |drive_op|_2``,
    K is the smallest node count with ``2 y^K / K! <= 1e-17``.  Those
    coefficient matrices depend on neither the start nor the phase; a
    caller that holds them for this ``h0``, ``drive_op``, ``omega1`` and
    ``dt`` passes them as ``coefficients``.
    """
    if dt is None or dt <= 0:
        raise ValueError("pulse_propagator requires a positive dt")
    nsteps = int(round(pulse.duration / dt))
    if nsteps < 1:
        raise ValueError(f"pulse duration {pulse.duration} shorter than half a step dt={dt}")
    drift = abs(pulse.duration - nsteps * dt)
    if drift > 0.5 * dt * (1.0 + 1e-9):
        raise ValueError(f"pulse duration {pulse.duration} drifts {drift} from the dt grid")
    if h0.dims != drive_op.dims:
        raise ValueError("h0 and drive operator live on different registers")

    if coefficients is None:
        coefficients = _step_coefficients(h0, drive_op, pulse.omega1, dt)[1]
    t_mid = t_start + (np.arange(nsteps) + 0.5) * dt
    x = pulse.carrier(t_mid) / pulse.omega1
    d = h0.shape[0]
    us = (chebvander(x, len(coefficients) - 1) @ coefficients).reshape(nsteps, d, d)

    # pairwise reduction in time order; an odd last step waits a level
    while len(us) > 1:
        paired = us[1::2] @ us[0:len(us) - 1:2]
        us = np.concatenate((paired, us[-1:])) if len(us) % 2 else paired
    return Operator(us[0], h0.dims)


@dataclass
class _Shape:
    """Phase bookkeeping of one pulse shape: its sample count M, how many
    phases were built exactly, and its Fourier series once sampled."""

    samples: int
    built: int = 0
    series: np.ndarray | None = None


class PropagatorCache:
    """Memoizes element propagators for one system.

    Free propagators reuse a single eigendecomposition of the static
    Hamiltonian.  Pulse propagators are keyed by carrier phase in cycles,
    ``(omegap t_start + phase / 2 pi) mod 1``, plus duration, amplitude,
    carrier frequency and ``dt``: a step's Hamiltonian sees ``t_start``
    only through that phase.  Pulses whose starts differ by whole carrier
    periods therefore share one build, which is what makes a carrier
    commensurate with ``tau`` cheap.  Each entry is built at ``t_start = 0``
    with the keyed phase, so it does not depend on which request built it.
    The Chebyshev step coefficients are computed once per amplitude and
    ``dt``; the phase and the shape (the key without its phase) are each
    rounded once per unrounded value.

    A shape's new phase is built exactly while the phases it has built
    plus its demand stay within 2 M, M from ``_phase_count(nsteps y)``.
    The demand is the number of distinct phases of the shape that a walk
    will request and the cache lacks, given by ``expect`` before the walk
    builds anything; an unplanned request's demand is 1.  Otherwise the
    shape builds M samples at phases ``2 pi j / M``, one
    ``pulse_propagator`` call each, and takes their FFT; that phase and
    every later one is ``sum_m c_m exp(2 pi i m cycles)``, within twice
    ``_PHASE_TOL`` of the exact build (measured: 1.3e-14, rounding).  A
    shape never takes more than 3 M builds, nor 1.5 times as many as
    building each of its phases exactly would.
    """

    def __init__(self, system):
        self.system = system
        self._evals, evecs = eig_hermitian(system.h0)
        self._evecs = evecs.mat
        self._free = {}
        self._pulses = {}      # (cycles, shape) -> propagator
        self._rounded = {}     # unrounded phase or (duration, omega1, omegap, dt) -> key part
        self._steps = {}       # (omega1, dt) -> (y, Chebyshev step coefficients)
        self._shapes = {}      # shape -> _Shape
        self._demand = {}      # shape -> distinct phases a walk requests and this lacks

    def free(self, duration: float) -> np.ndarray:
        key = round(duration, _KEY_DIGITS)
        u = self._free.get(key)
        if u is None:
            u = eig_propagator(self._evals, self._evecs, duration)
            self._free[key] = u
        return u

    def pulse_key(self, pulse: DrivePulse, t_start: float, dt: float) -> tuple:
        """``(cycles, shape)`` of a pulse started at ``t_start``; each part is
        rounded once per unrounded value and then looked up."""
        raw = (pulse.omegap * t_start + pulse.phase / (2.0 * np.pi)) % 1.0
        cycles = self._rounded.get(raw)
        if cycles is None:
            cycles = round(raw, _KEY_DIGITS)
            cycles = self._rounded[raw] = 0.0 if cycles == 1.0 else cycles
        raw = (pulse.duration, pulse.omega1, pulse.omegap, dt)
        shape = self._rounded.get(raw)
        if shape is None:
            shape = self._rounded[raw] = tuple(round(x, _KEY_DIGITS) for x in raw[:3]) + (dt,)
        return cycles, shape

    def expect(self, keys) -> None:
        """Take the demand of a walk that will request the pulse keys ``keys``."""
        self._demand = {}
        for _, shape in set(keys).difference(self._pulses):
            self._demand[shape] = self._demand.get(shape, 0) + 1

    def pulse(self, pulse: DrivePulse, t_start: float, dt: float) -> np.ndarray:
        key = self.pulse_key(pulse, t_start, dt)
        u = self._pulses.get(key)
        if u is None:
            u = self._pulses[key] = self._new_phase(pulse, key, dt)
        return u

    def _new_phase(self, pulse: DrivePulse, key: tuple, dt: float) -> np.ndarray:
        cycles, shape = key
        steps = self._steps.get((pulse.omega1, dt))
        if steps is None:
            steps = _step_coefficients(self.system.h0, self.system.drive_op, pulse.omega1, dt)
            self._steps[(pulse.omega1, dt)] = steps
        state = self._shapes.get(shape)
        if state is None:
            state = _Shape(_phase_count(round(pulse.duration / dt) * steps[0]))
            self._shapes[shape] = state
        m = state.samples
        if state.series is None:
            if state.built + self._demand.get(shape, 1) <= 2 * m:
                # every phase the walk still wants fits: the rest count as unplanned
                self._demand.pop(shape, None)
                state.built += 1
                return self._build(pulse, cycles, dt, steps[1])
            samples = [self._build(pulse, j / m, dt, steps[1]) for j in range(m)]
            state.series = np.fft.fft(np.array(samples).reshape(m, -1), axis=0) / m
        d = self.system.h0.shape[0]
        harmonics = np.exp(2j * np.pi * np.fft.fftfreq(m, 1.0 / m) * cycles)
        return (harmonics @ state.series).reshape(d, d)

    def _build(self, pulse: DrivePulse, cycles: float, dt: float, coefficients) -> np.ndarray:
        keyed = replace(pulse, phase=2.0 * np.pi * cycles)
        return pulse_propagator(self.system.h0, keyed, self.system.drive_op, 0.0, dt,
                                coefficients).mat


def _start(el, t: float, cfg: SimConfig) -> tuple:
    """The start that element ``el`` at clock ``t`` is looked up at (None for
    a delay) and the clock after it."""
    if isinstance(el, Delay):
        return None, t + el.duration
    if isinstance(el, Pulse):
        # the clock advances by the snapped duration so later carrier
        # phases stay consistent with the actual evolution
        return (0.0 if cfg.carrier_reset else t), t + round(el.duration / cfg.dt) * cfg.dt
    raise TypeError(f"unknown sequence element {el!r}")


def _lookup(cache: PropagatorCache, el, start, dt: float):
    """Propagator of element ``el`` looked up at ``start``, None for an empty delay."""
    if start is None:
        return cache.free(el.duration) if el.duration > 0 else None
    return cache.pulse(el.pulse, start, dt)


def apply_sequence(system, seq: PulseSequence, cfg: SimConfig,
                   cache: PropagatorCache | None = None) -> EvolutionResult:
    """Evolve ``system.rho0`` through a compiled sequence."""
    cfg.validate_for(seq)
    if cache is None:
        cache = PropagatorCache(system)
    elif cache.system is not system:
        raise ValueError("cache was built for a different system")

    dim = system.h0.shape[0]
    u_total = np.eye(dim, dtype=complex)
    t = 0.0
    for el in seq.elements:
        start, t = _start(el, t, cfg)
        u_el = _lookup(cache, el, start, cfg.dt)
        if u_el is not None:
            u_total = u_el @ u_total

    rho_f = u_total @ system.rho0.mat @ u_total.conj().T
    return EvolutionResult(
        rho_final=DensityMatrix(Operator(rho_f, system.h0.dims), label=system.rho0.label),
        unitary=Operator(u_total, system.h0.dims),
    )


def _open_cell(family, n_values, firsts, pulse, cfg, wrapper_phase, closing_rule, cell) -> tuple:
    """One cell's pi train of max N and closing tail per closing class, after
    the checks of compiling, injecting errors into and applying each N's
    sequence.  Those read N only through N >= 1 and its closing class, so
    running them at ``firsts``, each class's first N, raises the same error."""
    tau, length_factor, freq_factor = cell
    if n_values.size == 0 or n_values.min() < 1:
        raise ValueError("n values must be positive integers")
    rule = family_rule(family, closing_rule)
    args = (tau, pulse, wrapper_phase, rule, length_factor, freq_factor)
    for i, n in enumerate(firsts.values()):
        sequence_timing(family, n, tau, pulse, rule)
        if length_factor != 1.0 or freq_factor != 1.0:
            check_error_factors(length_factor, freq_factor)
            sequence_timing(family, n, tau, pulse, rule, length_factor, freq_factor)
        if i == 0:
            cfg.validate_for(compile_train(family, n, *args))
    train = compile_train(family, int(n_values.max()), *args)
    return train.elements, {c: closing_tail(train, n) for c, n in firsts.items()}


def _lookups(cfg, train, tails, wanted) -> list:
    """One cell's lookups in time order, each ``(slot, element, start)`` (see
    ``_start``): train element i at slot i, and the k-th of the closing tail
    after the n-th pi pulse (element 2 n) at (n, k)."""
    t, out = 0.0, []
    for i, el in enumerate(train):
        start, t = _start(el, t, cfg)
        out.append((i, el, start))
        if i % 2 == 0 and i // 2 in wanted:
            end = t
            for k, closer in enumerate(tails[closing_class(i // 2)]):
                start, end = _start(closer, end, cfg)
                out.append(((i // 2, k), closer, start))
    return out


def _walk(system, family, n_values, pulse, cfg, cells, wrapper_phase, closing_rule,
          cache) -> tuple:
    """Final states of the N sweeps of ``cells``, each ``(tau, length_factor,
    freq_factor)``, walked together: a ``(cells, len(n_values), d, d)``
    stack, and per cell None or the ``ValueError`` that its checks, the
    cache's system or a build raised; a failed cell's states are undefined."""
    if wrapper_phase is None:
        wrapper_phase = system.wrapper_phase
    if cache is None:
        cache = PropagatorCache(system)
    firsts = {}  # closing class -> its first N
    for n in n_values.tolist():
        firsts.setdefault(closing_class(n), n)
    wanted = {n: k for k, n in enumerate(sorted(set(n_values.tolist())))}
    errors, looked = [None] * len(cells), [None] * len(cells)
    for j, cell in enumerate(cells):
        try:
            train, tails = _open_cell(family, n_values, firsts, pulse, cfg, wrapper_phase,
                                      closing_rule, cell)
            if cache.system is not system:
                raise ValueError("cache was built for a different system")
            looked[j] = _lookups(cfg, train, tails, wanted)
        except ValueError as exc:
            errors[j] = exc
    # every pulse key before the first build, then the lookups cell after cell
    cache.expect(cache.pulse_key(el.pulse, start, cfg.dt) for plan in looked if plan
                 for _, el, start in plan if start is not None)
    for j, plan in enumerate(looked):
        if plan is None:
            continue
        try:
            looked[j] = {slot: _lookup(cache, el, start, cfg.dt) for slot, el, start in plan}
        except ValueError as exc:
            errors[j], looked[j] = exc, None
    cache.expect(())

    d = system.h0.shape[0]
    states = np.empty((len(cells), len(wanted), d, d), dtype=complex)
    rows = [wanted[n] for n in n_values.tolist()]
    if None not in errors:
        return states[:, rows], errors
    eye = np.eye(d, dtype=complex)
    u = np.array([eye] * len(cells))  # running products
    spare, factors = np.empty_like(u), u.copy()  # a failed cell's factors stay the identity
    live = [(j, found) for j, found in enumerate(looked) if found is not None]

    def stack(key):  # the identity for an empty delay
        for j, found in live:
            u_el = found[key]
            factors[j] = eye if u_el is None else u_el
        return factors

    for i in range(2 * max(wanted) + 1):
        u, spare = np.matmul(stack(i), u, out=spare), u
        n = i // 2
        if i % 2 or n not in wanted:
            continue
        closed = stack((n, 0)) @ u  # closing gap, then closing wrapper
        closed = stack((n, 1)) @ closed
        states[:, wanted[n]] = closed @ system.rho0.mat @ closed.conj().transpose(0, 2, 1)
    return states[:, rows], errors


def _sweep_result(system, axis: str, values, rhos) -> SweepResult:
    """The traces of final states ``rhos`` along ``values``, once each is checked."""
    check_states(rhos)
    traces = expvals(rhos, np.array([obs.op.mat for obs in system.observables]))
    labels = [obs.label for obs in system.observables]
    return SweepResult(axis, np.asarray(values, dtype=float), dict(zip(labels, traces.T)), rhos)


def sweep_tau(system, family: str, n: int, tau_grid, pulse: DrivePulse,
              cfg: SimConfig, wrapper_phase: float | None = None,
              closing_rule: str | None = None,
              length_factor: float = 1.0, freq_factor: float = 1.0,
              cache: PropagatorCache | None = None) -> SweepResult:
    """Observable traces versus inter-pulse spacing ``tau``, one walk cell per
    tau; raises what the first failing tau in grid order raises on its own.
    ``wrapper_phase`` defaults to the system's own convention."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size == 0:
        raise ValueError("empty tau grid")
    cells = [(tau, length_factor, freq_factor) for tau in tau_grid.tolist()]
    states, errors = _walk(system, family, np.array([n]), pulse, cfg, cells, wrapper_phase,
                           closing_rule, cache)
    k = next((j for j, exc in enumerate(errors) if exc is not None), len(cells))
    # a bad state at a tau before the first failure is raised first
    sweep = _sweep_result(system, "tau", tau_grid[:k], states[:k, 0])
    if k < len(cells):
        raise errors[k]
    return sweep


def sweep_n_cells(system, family: str, n_values, tau: float, pulse: DrivePulse,
                  cfg: SimConfig, cells, wrapper_phase: float | None = None,
                  closing_rule: str | None = None,
                  cache: PropagatorCache | None = None) -> list:
    """N sweeps of error cells ``(length_factor, freq_factor)`` that share
    everything else, in one walk: per cell its ``SweepResult``, or the
    ``ValueError`` that ``sweep_n`` raises for it (see the module docstring)."""
    n_values = np.asarray(n_values, dtype=int)
    states, results = _walk(system, family, n_values, pulse, cfg,
                            [(tau, lf, ff) for lf, ff in cells], wrapper_phase, closing_rule, cache)
    for j, rhos in enumerate(states):
        if results[j] is None:
            try:
                results[j] = _sweep_result(system, "n", n_values, rhos)
            except ValueError as exc:
                results[j] = exc
    return results


def sweep_n(system, family: str, n_values, tau: float, pulse: DrivePulse,
            cfg: SimConfig, wrapper_phase: float | None = None,
            closing_rule: str | None = None,
            length_factor: float = 1.0, freq_factor: float = 1.0,
            cache: PropagatorCache | None = None) -> SweepResult:
    """Observable traces versus pulse count at fixed ``tau``: the one-cell
    case of ``sweep_n_cells``.  ``wrapper_phase`` defaults to the system's
    own convention."""
    (result,) = sweep_n_cells(system, family, n_values, tau, pulse, cfg,
                              [(length_factor, freq_factor)], wrapper_phase, closing_rule, cache)
    if isinstance(result, ValueError):
        raise result
    return result
