"""Time evolution through compiled pulse sequences.

Free evolution is a single exact exponential of the static Hamiltonian.
Driven intervals are Trotterized: the lab-frame Hamiltonian including
the oscillating carrier is sampled at the midpoint of each step of
length ``dt``, and the step exponentials, read off a Chebyshev
interpolant in the carrier amplitude (see ``pulse_propagator``), are
multiplied, later steps on the left, by a pairwise reduction.  One
kernel, ``_trotter``, does both for a stack of pulses that share their
step count and coefficients; ``pulse_propagator`` is its one-row case.
The lab clock runs continuously across the whole sequence, so a pulse's
carrier phase follows from its start time (``SimConfig.carrier_reset``
restarts the carrier at every pulse instead), and the cache keys pulses
by that phase.

Every sweep is one walk over cells ``(tau, length_factor, freq_factor)``:
the taus of a tau sweep, or the error cells of N sweeps at one tau.  Each
cell walks the pi train of its largest N once and closes it at each
wanted N with the closing tail of its class, in an order of lookups that
is the same for every cell.  The walk times and keys the lookups of all
its cells at once, in array passes (see ``_lookups``): starts are running
sums of snapped durations, which ``np.cumsum`` adds in the order of
``apply_sequence``'s clock, raw carrier cycles are one array expression,
and each distinct raw value and pulse shape is rounded once.  One
``PropagatorCache.plan`` builds every pulse entry the cells lack, and one
batched product every free propagator.  The distinct entries form a
``(K, d, d)`` table, row 0 the identity, and the lookups a ``(cells, L)``
index array; every cell advances by one batched product per position, its
factors gathered a chunk of positions at a time, and the states of all
wanted N come from one product over the closed propagators after the walk.
``apply_sequence`` stays the per-element reference.

Many phases of one pulse shape are read off a trigonometric interpolant
in the phase.  The Trotter product ``U(phi)`` is a Laurent series in
``z = exp(i phi)`` bounded by ``exp(a (r - 1/r))`` on ``|z| = r``,
``a = nsteps y``; the Cauchy estimate at ``r = m / a`` bounds its m-th
Fourier coefficient by ``(e a / m)^m``, so with ``q = e a / (h + 1)``
those beyond h sum to at most ``2 q^(h+1) / (1 - q)``, kept below 1e-15
by M = 2 h + 1 samples.  The same bound serves the blocks of B = 32 steps
that long pulses are multiplied from (see ``PropagatorCache``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (DensityMatrix, Operator, check_states, eig_hermitian, eig_propagator,
                      state_errors)
from .analysis import SweepResult, expvals
from .sequences import (Delay, DrivePulse, PulseSequence, SimConfig, closing_class,
                        compile_sequence)
# unused here; benchmarks/spans.py patches these names on this module
from .sequences import compile_cpmg, compile_xyn, inject_errors  # noqa: F401

_KEY_DIGITS = 12
_RAW_PHASE = "carrier phase of the pulse started at {} is not finite"
_FREE_PHASE = "free evolution phase of the delay of {} is not finite"

# Error bound of an interpolated step exponential.  Interpolating a
# smooth f at the K Chebyshev nodes misses it by at most
# max|f^(K)| / (2^(K-1) K!), here in each real and imaginary part of each
# entry.  For U(x) = exp(-2 pi i dt (h0 + omega1 x drive_op)) the
# Duhamel expansion bounds the K-th derivative in x by
# (2 pi dt omega1 |drive_op|_2)^K = (2 y)^K, which gives 2 y^K / K!.
_CHEB_TOL = 1e-17

# bound on the Fourier coefficients beyond a phase interpolant's; see above
_PHASE_TOL = 1e-15

# Trotter steps per block of a blocked pulse family (see PropagatorCache);
# a power of two, so that the blocks are subtrees of the steps' reduction
_BLOCK = 32

# complex entries per stack of exact builds and per gathered chunk of a
# walk's factors (256 kB), so that neither grows with the stack it serves
_CHUNK = 2 ** 14


def _node_count(y: float) -> int:
    """Smallest K with ``2 y^K / K! <= _CHEB_TOL``; raises where the bound
    overflows on the way (or ``y`` is not finite)."""
    k, bound = 1, 2.0 * y
    while not bound <= _CHEB_TOL:
        if not bound < math.inf:
            raise ValueError(f"Chebyshev step bound 2 y^K / K! overflows at y = pi dt omega1 "
                             f"|drive_op|_2 = {y:g}; lower omega1 or dt")
        k += 1
        bound *= y / k
    return k


@functools.cache
def _phase_count(a: float) -> int:
    """Smallest odd M = 2 h + 1 with ``q = e a / (h + 1) < 1`` and ``2 q^(h+1) /
    (1 - q) <= _PHASE_TOL``.  No h below ``e a`` has q < 1 and a reachable h lies
    a few dozen above it; raises if ``e a`` is not finite or the next 1000 h miss."""
    ea = float(np.e * a)
    if ea < math.inf:
        first = max(0, int(ea))
        for h in range(first, first + 1000):
            q = ea / (h + 1)
            if q < 1.0 and 2.0 * q ** (h + 1) / (1.0 - q) <= _PHASE_TOL:
                return 2 * h + 1
    raise ValueError(f"no phase sample count meets the bound at a = pi nsteps dt omega1 "
                     f"|drive_op|_2 = {a:g}; lower omega1 or the pulse duration")


def _cycles(raw: float) -> float:
    """Carrier cycles ``raw`` in [0, 1) rounded, a full cycle wrapped to 0."""
    cycles = round(raw, _KEY_DIGITS)
    return 0.0 if cycles == 1.0 else cycles


@dataclass(frozen=True)
class EvolutionResult:
    """Final state and total propagator."""

    rho_final: DensityMatrix
    unitary: Operator


def _chebyshev(x: np.ndarray, k: int) -> np.ndarray:
    """``(k, *x.shape)`` values ``T_m(x)``, m < k, by the three-term recurrence
    ``T_m = 2 x T_(m-1) - T_(m-2)``."""
    v = np.empty((k,) + x.shape)
    v[0] = 1.0
    if k > 1:
        v[1] = x
        x2 = 2.0 * x
        for m in range(2, k):
            v[m] = v[m - 1] * x2 - v[m - 2]
    return v


def _step_coefficients(h0: Operator, drive_op: Operator, omega1: float, dt: float) -> tuple:
    """``y`` and the ``(K, d^2)`` Chebyshev coefficient matrices of one
    Trotter step in the carrier amplitude (see ``pulse_propagator``)."""
    y = float(np.pi * dt * omega1 * np.linalg.norm(drive_op.mat, 2))
    k = _node_count(y)
    theta = np.pi * (np.arange(k) + 0.5) / k
    nodes = h0.mat[None] + (omega1 * np.cos(theta))[:, None, None] * drive_op.mat[None]
    w, v = np.linalg.eigh(nodes)
    u_nodes = eig_propagator(w, v, dt).reshape(k, -1)
    # c_m = (2 / K) sum_j U(x_j) T_m(x_j), halved for m = 0
    transform = (2.0 / k) * _chebyshev(np.cos(theta), k)
    transform[0] *= 0.5
    return y, transform @ u_nodes


def _step_count(h0: Operator, pulse: DrivePulse, drive_op: Operator, dt: float) -> int:
    """Trotter steps of ``pulse``, once ``pulse_propagator``'s checks pass."""
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
    return nsteps


def _amplitudes(rows: np.ndarray, nsteps: int, dt: float) -> np.ndarray:
    """``(S, nsteps)`` carrier amplitudes at the step midpoints of ``(S, 4)`` rows
    ``(omega1, omegap, phase, t_start)``: ``DrivePulse.carrier`` over ``omega1``,
    in its order of operations."""
    omega1, omegap, phase, t_start = rows.T[..., None]
    t = t_start + (np.arange(nsteps) + 0.5) * dt
    return omega1 * np.cos(2.0 * np.pi * omegap * t + phase) / omega1


def _trotter(x: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """The ``(S, d, d)`` Trotter products of pulses with ``(S, nsteps)`` carrier
    amplitudes ``x`` and ``(K, d^2)`` step coefficients: one Chebyshev
    evaluation, then one pairwise reduction of the ``(S, nsteps, d, d)``
    stack.  Each row is a ``(nsteps, K) @ (K, d^2)`` product of its own, so
    it is the same bits whatever else the stack holds."""
    s, n = x.shape
    d = math.isqrt(coefficients.shape[1])
    us = _chebyshev(x, len(coefficients)).transpose(1, 2, 0) @ coefficients
    return _reduce(us.reshape(s, n, d, d))


def _exact(rows: np.ndarray, nsteps: int, coefficients: np.ndarray, dt: float) -> np.ndarray:
    """The ``(S, d, d)`` exact builds of checked ``(S, 4)`` rows ``(omega1,
    omegap, phase, t_start)`` of ``nsteps`` steps each, in stacks of at most
    ``_CHUNK`` complex step entries."""
    d = math.isqrt(coefficients.shape[1])
    out = np.empty((len(rows), d, d), dtype=complex)
    size = max(1, _CHUNK // (nsteps * d * d))
    for lo in range(0, len(rows), size):
        out[lo:lo + size] = _trotter(_amplitudes(rows[lo:lo + size], nsteps, dt), coefficients)
    return out


def pulse_propagator(h0: Operator, pulse: DrivePulse, drive_op: Operator,
                     t_start: float = 0.0, dt: float = None) -> Operator:
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
    K is the smallest node count with ``2 y^K / K! <= 1e-17``.  This is
    ``_trotter`` on one row.
    """
    nsteps = _step_count(h0, pulse, drive_op, dt)
    coefficients = _step_coefficients(h0, drive_op, pulse.omega1, dt)[1]
    x = _amplitudes(np.array([[pulse.omega1, pulse.omegap, pulse.phase, t_start]]), nsteps, dt)
    return Operator(_trotter(x, coefficients)[0], h0.dims)


def _reduce(us: np.ndarray) -> np.ndarray:
    """Product of the ``(..., n, d, d)`` factors ``us`` along their n axis,
    later ones on the left, by pairwise reduction in time order; an odd last
    factor waits a level."""
    while us.shape[-3] > 1:
        n = us.shape[-3]
        paired = us[..., 1::2, :, :] @ us[..., 0:n - 1:2, :, :]
        us = np.concatenate((paired, us[..., -1:, :, :]), axis=-3) if n % 2 else paired
    return us[..., 0, :, :]


@dataclass
class _Series:
    """Phase interpolant of one pulse shape or block family: its sample
    count M, how many phases a shape built exactly, and once sampled its
    Fourier coefficients and their frequencies ``2 pi i m``."""

    samples: int
    built: int = 0
    series: np.ndarray | None = None
    harmonics: np.ndarray | None = None

    def phases(self) -> list:
        """The sample phases ``j / M`` in cycles, j < M."""
        return [j / self.samples for j in range(self.samples)]

    def sample(self, samples) -> None:
        """Take the FFT of the entries at ``phases()``."""
        m = self.samples
        self.harmonics = 2j * np.pi * np.fft.fftfreq(m, 1.0 / m)
        self.series = np.fft.fft(np.array(samples).reshape(m, -1), axis=0) / m

    def at(self, cycles: np.ndarray) -> np.ndarray:
        """The flattened series at phases ``cycles`` of shape ``(..., 1)``: one
        ``exp(harmonics cycles) @ series`` product per stacked row vector."""
        return np.exp(self.harmonics * cycles) @ self.series


class PropagatorCache:
    """Memoizes element propagators for one system.

    Free propagators reuse a single eigendecomposition of the static
    Hamiltonian; ``plan_free`` builds all that a walk lacks in one batched
    product, bit for bit the single builds.  Pulse propagators are keyed by carrier phase in cycles,
    ``(omegap t_start + phase / 2 pi) mod 1``, plus their shape: duration,
    amplitude, carrier frequency and ``dt``.  Pulses whose starts differ
    by whole carrier periods share one build, which is what makes a
    carrier commensurate with ``tau`` cheap.  Each entry is built at
    ``t_start = 0`` with the keyed phase, so it does not depend on which
    request built it.  Step coefficients are computed once per amplitude
    and ``dt``, and each shape is rounded once per unrounded shape.

    ``plan`` builds every entry that a list of keyed requests lacks; a
    lookup that misses is a plan of its own key.  A plan groups the
    missing keys by shape and by carrier family ``(omega1, omegap, dt)``
    and applies two rules once:

    - a shape builds each missing phase while the phases it has built plus
      its missing ones stay within 2 M, M = ``_phase_count(nsteps y)``;
      otherwise it builds M samples at phases ``2 pi j / M``, and every
      phase is then its FFT series ``sum_m c_m exp(2 pi i m cycles)``,
      within twice ``_PHASE_TOL`` of the exact build (measured: 1.3e-14).
      So a shape takes at most 3 M builds, or 1.5 times its phases.
    - a family is blocked once it holds its block series, or when the
      Trotter steps of its missing keys exceed the ``M_B B`` steps of that
      series, ``M_B = _phase_count(B y)`` samples of a block of B =
      ``_BLOCK`` steps.  A blocked shape reads each phase's ``nsteps // B``
      blocks off the series at their start phases, ``cycles + j omegap B
      dt``, in one batched ``(S, q, M_B) @ (M_B, d^2)`` product, and
      reduces them with its trailing ``nsteps % B`` steps, built exactly,
      as subtrees of the steps' pairwise product (measured: within 2.3e-14).

    Every exact build of a plan is a row of one stack per step count and
    amplitude, built by ``_trotter`` in chunks of ``_CHUNK`` complex step
    entries after every shape of the plan ran ``pulse_propagator``'s checks.
    Every product is batched so that each row is its own, and an entry is
    the same bits whatever else its stack holds.
    """

    def __init__(self, system):
        self.system = system
        self._evals, evecs = eig_hermitian(system.h0)
        self._evecs = evecs.mat
        self._free = {}
        self._free_keys = {}   # unrounded duration -> key
        self._pulses = {}      # (cycles, shape) -> propagator
        self._rounded = {}     # (duration, omega1, omegap, dt) -> shape
        self._steps = {}       # (omega1, dt) -> (y, Chebyshev step coefficients)
        self._shapes = {}      # shape -> _Series of its phases
        self._families = {}    # shape[1:], (omega1, omegap, dt) -> _Series of its blocks

    def free(self, duration: float) -> np.ndarray:
        self.plan_free([duration])
        return self._free[self._free_keys[duration]]

    def plan_free(self, durations) -> None:
        """Build the free propagators that ``durations`` lack in one batched
        product, each key, a duration rounded once per unrounded value, from
        its first duration; raises, building none, if one is ``_unbuildable``."""
        missing = {}
        for duration in durations:
            key = self._free_keys.get(duration)
            if key is None:
                key = self._free_keys[duration] = round(duration, _KEY_DIGITS)
            if key not in self._free:
                missing.setdefault(key, duration)
        if missing:
            durations = np.array(list(missing.values()))[:, None]
            if (bad := self._unbuildable(durations)).any():
                raise ValueError(_FREE_PHASE.format(float(durations[bad.argmax(), 0])))
            self._free.update(zip(missing, eig_propagator(self._evals, self._evecs, durations)))

    def _unbuildable(self, durations: np.ndarray) -> np.ndarray:
        """Per row of ``(n, 1)`` ``durations``: is the phase ``-2j pi duration w``
        of its free propagator, formed as ``eig_propagator`` forms it, not finite?"""
        with np.errstate(over="ignore", invalid="ignore"):
            return ~np.isfinite(-2j * np.pi * durations * self._evals).all(axis=1)

    def pulse_key(self, pulse: DrivePulse, t_start: float, dt: float) -> tuple:
        """``(cycles, shape)`` of a pulse started at ``t_start``; each part is
        rounded once per unrounded value and then looked up."""
        raw = (pulse.omegap * t_start + pulse.phase / (2.0 * np.pi)) % 1.0
        if math.isnan(raw):  # t_start, or omegap t_start, is not finite
            raise ValueError(_RAW_PHASE.format(t_start))
        return _cycles(raw), self._shape(pulse, dt)

    def _shape(self, pulse: DrivePulse, dt: float) -> tuple:
        """``(duration, omega1, omegap)`` of ``pulse`` rounded, and ``dt``."""
        raw = (pulse.duration, pulse.omega1, pulse.omegap, dt)
        shape = self._rounded.get(raw)
        if shape is None:
            shape = self._rounded[raw] = tuple(round(x, _KEY_DIGITS) for x in raw[:3]) + (dt,)
        return shape

    def pulse(self, pulse: DrivePulse, t_start: float, dt: float) -> np.ndarray:
        key = self.pulse_key(pulse, t_start, dt)
        if key not in self._pulses and (failed := self.plan([(key, pulse)], dt)):
            raise failed[key]
        return self._pulses[key]

    def plan(self, requests, dt: float) -> dict:
        """Build every entry that the keyed requests ``(pulse_key(pulse,
        t_start, dt), pulse)`` lack, shape after shape in request order, each
        from the pulse of its first request; per key whose shape raised, that
        ``ValueError``.  A failing shape is checked once, before any of its
        family's block samples are queued, and stores no entry; a plan whose
        stacks raise keeps nothing."""
        wanted, steps = {}, {}  # shape -> {cycles: first pulse}, family -> Trotter steps
        for key, pulse in requests:
            if key not in self._pulses:
                wanted.setdefault(key[1], {}).setdefault(key[0], pulse)
        for shape, phases in wanted.items():
            steps[shape[1:]] = steps.get(shape[1:], 0) + len(phases) * round(shape[0] / dt)
        failed, stacks, sampled, reads = {}, {}, {}, []
        for shape, phases in wanted.items():
            try:
                reads.append(self._route(shape, phases, dt, steps[shape[1:]], stacks, sampled))
            except ValueError as exc:
                failed.update(dict.fromkeys([(c, shape) for c in phases], exc))
        built = {(n, omega1): _exact(np.concatenate(rows), n, self._steps[(omega1, dt)][1], dt)
                 for (n, omega1), rows in stacks.items()}
        for family, span in sampled.items():
            self._families[family].sample(built[span[0]][span[1]])
        for read in reads:
            self._pulses.update(read(built))
        return failed

    def _route(self, shape: tuple, phases: dict, dt: float, planned: int,
               stacks: dict, sampled: dict):
        """Route one shape's missing ``phases``, cycles -> first pulse, on a
        family whose missing keys hold ``planned`` Trotter steps; queue its
        exact builds on ``stacks``, (nsteps, omega1) -> row arrays, and the family's
        block samples, if taken, on ``sampled``, family -> their rows.
        Returns what reads the shape's entries off the built stacks."""
        family, pulse = shape[1:], next(iter(phases.values()))
        steps = self._steps.get((pulse.omega1, dt))
        if steps is None:
            steps = self._steps[(pulse.omega1, dt)] = _step_coefficients(
                self.system.h0, self.system.drive_op, pulse.omega1, dt)
        keys, state = [(c, shape) for c in phases], self._shapes.get(shape)
        d, cycles = self.system.h0.shape[0], np.array(list(phases))[:, None, None]
        if state is not None and state.series is not None:
            return lambda built: dict(zip(keys, state.at(cycles).reshape(-1, d, d)))
        nsteps = _step_count(self.system.h0, pulse, self.system.drive_op, dt)
        blocks = self._families.get(family)
        if blocks is None:
            blocks = self._families[family] = _Series(_phase_count(_BLOCK * steps[0]))
        if blocks.series is None and family not in sampled and planned > _BLOCK * blocks.samples:
            # each sample is built exactly: the series is set once all are
            sampled[family] = self._queue(stacks, dict.fromkeys(blocks.phases(), pulse), dt, _BLOCK)
        if state is None:
            state = self._shapes[shape] = _Series(_phase_count(nsteps * steps[0]))
        sample = state.built + len(phases) > 2 * state.samples
        drives = dict.fromkeys(state.phases(), pulse) if sample else phases
        blocked = nsteps >= _BLOCK and (blocks.series is not None or family in sampled)
        q, r = divmod(nsteps, _BLOCK) if blocked else (0, nsteps)  # blocks, exact steps
        span = r and self._queue(stacks, drives, dt, r, q * _BLOCK * dt)

        def read(built) -> dict:
            us = built[span[0]][span[1]][:, None] if span else np.empty((len(drives), 0, d, d))
            if blocked:  # every block of every phase in one (S, q, M_B) @ (M_B, d^2) product
                rates = [drive.omegap * _BLOCK * dt for drive in drives.values()]
                starts = (np.array(list(drives))[:, None] + np.outer(rates, np.arange(q))) % 1.0
                us = np.concatenate((blocks.at(starts[..., None]).reshape(-1, q, d, d), us), 1)
            us = _reduce(us)
            if sample:
                state.sample(us)
                us = state.at(cycles).reshape(-1, d, d)
            else:
                state.built += len(us)
            return dict(zip(keys, us))
        return read

    def _queue(self, stacks: dict, drives: dict, dt: float, nsteps: int,
               t_start: float = 0.0) -> tuple:
        """Queue the ``nsteps``-step builds from ``t_start`` of ``drives``, cycles
        -> pulse, on their stack unchecked: whole steps of a shape that passed
        ``_step_count``, at finite phases; returns the stack's key and their rows."""
        key = (nsteps, next(iter(drives.values())).omega1)
        rows = np.array([(p.omega1, p.omegap, 2.0 * np.pi * c, t_start) for c, p in drives.items()])
        stack = stacks.setdefault(key, [])
        start = sum(map(len, stack))
        stack.append(rows)
        return key, slice(start, start + len(rows))


def _start(el, t: float, cfg: SimConfig) -> tuple:
    """The lookup start of element ``el`` at clock ``t`` (None for a delay), and the next clock."""
    if isinstance(el, Delay):
        return None, t + el.duration
    if isinstance(el, DrivePulse):
        # the clock advances by the snapped duration, as the evolution does
        return (0.0 if cfg.carrier_reset else t), t + round(el.duration / cfg.dt) * cfg.dt
    raise TypeError(f"unknown sequence element {el!r}")


def apply_sequence(system, seq: PulseSequence, cfg: SimConfig,
                   cache: PropagatorCache | None = None) -> EvolutionResult:
    """Evolve ``system.rho0`` through a compiled sequence."""
    cfg.validate_for(seq)
    if cache is None:
        cache = PropagatorCache(system)
    elif cache.system is not system:
        raise ValueError("cache was built for a different system")

    u_total, t = np.eye(system.h0.shape[0], dtype=complex), 0.0
    for el in seq.elements:
        start, t = _start(el, t, cfg)
        if start is not None:
            u_total = cache.pulse(el, start, cfg.dt) @ u_total
        elif el.duration > 0:
            u_total = cache.free(el.duration) @ u_total

    rho_f, dims = u_total @ system.rho0.mat @ u_total.conj().T, system.h0.dims
    return EvolutionResult(DensityMatrix(Operator(rho_f, dims), label=system.rho0.label),
                           Operator(u_total, dims))


def _cell(family, wanted, firsts, pulse, cfg, wrapper_phase, closing_rule, cell) -> tuple:
    """One cell's elements: the pi train of max N, then the closing gap and wrapper
    of each closing class, in ``firsts`` order.  Each class's first N, ``firsts``,
    is compiled once with the cell's errors, which raises what compiling and
    then injecting them would, and the first one validated for ``cfg``, as
    applying each N's sequence would; those checks read N only through N >= 1
    and its closing class, so they raise what every N would."""
    tau, length_factor, freq_factor = cell
    if not wanted or min(wanted) < 1:
        raise ValueError("n values must be positive integers")
    seqs = {}
    for n in firsts.values():
        seq = compile_sequence(family, n, tau, pulse, wrapper_phase, closing_rule,
                               length_factor, freq_factor)
        if not seqs:
            cfg.validate_for(seq)
        seqs[n] = seq
    top = max(wanted)  # a tau sweep's only N: its sequence is compiled once
    train = seqs[top] if top in seqs else compile_sequence(
        family, top, tau, pulse, wrapper_phase, closing_rule, length_factor, freq_factor)
    return train.elements[:2 * top + 1] + tuple(
        el for seq in seqs.values() for el in seq.elements[-2:])


def _lookups(cache, elements: dict, closes: dict, cfg, errors: list) -> tuple:
    """Time and key the lookups of cells ``elements``, cell -> its ``_cell``
    elements, all at once, and plan the entries they lack.  A cell looks up
    its train in time order, with the closing gap at element ``closes[2 N]``
    and the wrapper after it following train element 2 N, the N-th pi pulse.

    Returns the keys of table rows 1, 2, ...: each distinct pulse key in
    first-lookup order, cell after cell (None where its build failed), then
    each distinct positive delay duration; and the ``(cells, L)`` index of
    each lookup's row, 0 for an empty delay.  A cell fails, with that error in
    ``errors``, at its first lookup whose raw carrier cycles or free phase is not
    finite or whose build failed; nothing reads its index."""
    dt, cells = cfg.dt, list(elements)
    flat = list(itertools.chain.from_iterable(elements.values()))
    # each distinct element object once, and per cell its elements' codes
    _, first, codes = np.unique(np.fromiter(map(id, flat), np.int64, len(flat)),
                                return_index=True, return_inverse=True)
    objects, codes = [flat[f] for f in first.tolist()], codes.reshape(len(cells), -1)
    shapes, rows = {}, []  # per object: a pulse?, clock advance, omegap, phase cycles, shape
    for el in objects:
        if isinstance(el, DrivePulse):  # the clock advances by a pulse's snapped duration
            shape = shapes.setdefault(cache._shape(el, dt), len(shapes))
            rows.append((1, round(el.duration / dt) * dt, el.omegap, el.phase / (2.0 * np.pi),
                         shape))
        else:
            rows.append((0, el.duration, 0.0, 0.0, 0))
    pulses, span, omegap, phase, shape_of = np.array(rows).T
    unbuildable = (pulses == 0) & cache._unbuildable(span[:, None])  # per delay object
    # per lookup the element it reads; where the train's elements sit, and
    # each closing wrapper with its pi pulse and closing gap
    src, train_at, wrap_at, pis, gaps = [], [], [], [], []
    for i in range(max(closes) + 1):
        train_at.append(len(src))
        src.append(i)
        if i in closes:
            wrap_at.append(len(src) + 1)
            pis.append(i)
            gaps.append(closes[i])
            src += [closes[i], closes[i] + 1]
    obj = codes[:, src]
    starts = np.zeros(obj.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # a lookup with a nan raw fails its cell
        if not cfg.carrier_reset:
            ends = np.cumsum(span[codes[:, :len(train_at)]], axis=1)
            starts[:, train_at[1:]] = ends[:, :-1]
            starts[:, wrap_at] = ends[:, pis] + span[codes[:, gaps]]
        raw = (omegap[obj] * starts + phase[obj]) % 1.0
    lookups = pulses[obj] == 1
    # where a pulse's raw cycles, or a delay's free phase, are not finite
    bad = lookups & np.isnan(raw) | unbuildable[obj]
    for r in np.flatnonzero(bad.any(axis=1)).tolist():
        o, start = obj[r, bad[r].argmax()], float(starts[r, bad[r].argmax()])
        errors[cells[r]] = ValueError(_FREE_PHASE.format(float(span[o])) if unbuildable[o]
                                      else _RAW_PHASE.format(start))
    keyed = lookups & np.array([errors[j] is None for j in cells])[:, None]
    at = obj[keyed]
    raws, raw_of = np.unique(raw[keyed], return_inverse=True)
    cycles, cycle_ids = [_cycles(raw) for raw in raws.tolist()], {}
    cycle_of = np.array([cycle_ids.setdefault(c, len(cycle_ids)) for c in cycles], dtype=np.intp)
    # one code per distinct key, its shape and rounded cycles, ranked in first-lookup order
    _, first, key_of = np.unique(shape_of[at].astype(np.intp) * len(cycle_ids) + cycle_of[raw_of],
                                 return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    shape_keys = list(shapes)
    requests = [((cycles[raw_of[f]], shape_keys[int(shape_of[at[f]])]), objects[at[f]])
                for f in np.sort(first).tolist()]
    index = np.zeros(obj.shape, dtype=np.intp)
    index[keyed] = 1 + rank[key_of]
    failed = cache.plan(requests, dt)
    if failed:
        hit = np.array([False] + [key in failed for key, _ in requests])[index]
        for r in np.flatnonzero(hit.any(axis=1)).tolist():
            errors[cells[r]] = failed[requests[index[r, hit[r].argmax()] - 1][0]]
    live = np.array([errors[j] is None for j in cells])
    # each distinct positive delay duration of the live cells, in first-lookup order
    delays = ~lookups & live[:, None]
    held, first = np.unique(obj[delays], return_index=True)
    durations, free_row = {}, np.zeros(len(objects), dtype=np.intp)
    for o in held[np.argsort(first)].tolist():
        if span[o] > 0:
            row = durations.setdefault(objects[o].duration, len(durations))
            free_row[o] = 1 + len(requests) + row
    cache.plan_free(list(durations))
    index[delays] = free_row[obj[delays]]
    return [None if key in failed else key for key, _ in requests] + list(durations), index


def _walk(system, family, n_values, pulse, cfg, cells, wrapper_phase, closing_rule,
          cache) -> tuple:
    """Final states of the N sweeps of ``cells``, each ``(tau, length_factor,
    freq_factor)``, walked together: a ``(cells, len(n_values), d, d)``
    stack, and per cell None or the ``ValueError`` that its checks, the
    cache's system or a build raised; a failed cell's states are undefined."""
    wrapper_phase = system.wrapper_phase if wrapper_phase is None else wrapper_phase
    cache = cache or PropagatorCache(system)
    firsts = {}  # closing class -> its first N
    for n in n_values.tolist():
        firsts.setdefault(closing_class(n), n)
    wanted = {n: k for k, n in enumerate(sorted(set(n_values.tolist())))}
    errors, elements = [None] * len(cells), {}
    for j, cell in enumerate(cells):
        try:
            els = _cell(family, wanted, firsts, pulse, cfg, wrapper_phase, closing_rule, cell)
            if cache.system is not system:
                raise ValueError("cache was built for a different system")
            elements[j] = els
        except ValueError as exc:
            errors[j] = exc
    d = system.h0.shape[0]
    closed = np.empty((len(cells), len(wanted), d, d), dtype=complex)
    order = [wanted[n] for n in n_values.tolist()]
    if elements:
        top = 2 * max(wanted) + 1  # the train's elements; each class's closers follow
        slots = {c: top + 2 * k for k, c in enumerate(firsts)}
        closes = {2 * n: slots[closing_class(n)] for n in wanted}
        keys, rows = _lookups(cache, elements, closes, cfg, errors)
    if all(error is not None for error in errors):
        return closed[:, order], errors
    index = np.zeros((len(cells), rows.shape[1]), dtype=np.intp)
    index[list(elements)] = rows
    eye = np.eye(d, dtype=complex)
    table = np.array([eye] + [eye if key is None else cache.free(key) if isinstance(key, float)
                              else cache._pulses[key] for key in keys])
    del cache  # one this walk made is freed here, so its entries are not held twice
    # the (cells, d, d) factors of one position after another, gathered a chunk at a time
    size = max(1, _CHUNK // (len(cells) * d * d))
    factors = (f for lo in range(0, index.shape[1], size) for f in table[index[:, lo:lo + size].T])
    u, spare = np.array([eye] * len(cells)), np.empty((len(cells), d, d), dtype=complex)
    for i in range(top):
        u, spare = np.matmul(next(factors), u, out=spare), u
        if i in closes:
            gap = next(factors) @ u  # closing gap, then closing wrapper
            closed[:, wanted[i // 2]] = next(factors) @ gap
    states = closed @ system.rho0.mat @ closed.conj().swapaxes(-1, -2)
    return states[:, order], errors


def _sweep_result(system, axis: str, values, rhos) -> SweepResult:
    """The traces of checked final states ``rhos`` along ``values``."""
    traces = expvals(rhos, np.array([obs.op.mat for obs in system.observables]))
    labels = [obs.label for obs in system.observables]
    return SweepResult(axis, np.asarray(values, dtype=float), dict(zip(labels, traces.T)), rhos)


def sweep_tau(system, family: str, n: int, tau_grid, pulse: DrivePulse, cfg: SimConfig,
              wrapper_phase: float | None = None, closing_rule: str | None = None,
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
    check_states(states[:k, 0])
    sweep = _sweep_result(system, "tau", tau_grid[:k], states[:k, 0])
    if k < len(cells):
        raise errors[k]
    return sweep


def sweep_n_cells(system, family: str, n_values, tau: float, pulse: DrivePulse,
                  cfg: SimConfig, cells, wrapper_phase: float | None = None,
                  closing_rule: str | None = None, cache: PropagatorCache | None = None) -> list:
    """N sweeps of error cells ``(length_factor, freq_factor)`` that share
    everything else, in one walk: per cell its ``SweepResult``, or the
    ``ValueError`` that ``sweep_n`` raises for it; their states are checked in one pass."""
    n_values = np.asarray(n_values, dtype=int)
    states, results = _walk(system, family, n_values, pulse, cfg,
                            [(tau, lf, ff) for lf, ff in cells], wrapper_phase, closing_rule, cache)
    live = [j for j, error in enumerate(results) if error is None]
    for j, error in zip(live, state_errors(states[live])):
        try:
            results[j] = error or _sweep_result(system, "n", n_values, states[j])
        except ValueError as exc:
            results[j] = exc
    return results


def sweep_n(system, family: str, n_values, tau: float, pulse: DrivePulse, cfg: SimConfig,
            wrapper_phase: float | None = None, closing_rule: str | None = None,
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
