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
wanted N with the closing tail of its class.  One function compiles a
cell, with the reference path's checks (each closing class's first N
compiled, given the cell's errors and validated), and times its lookups,
in an order that is the same for every cell.  Before anything is built,
the walk hands every cell's pulse requests to one ``PropagatorCache.plan``,
which builds every entry the cache lacks; the cells then look up their
propagators in the order that applying their sequences one after another
would, and advance by one batched product per element of a ``(cells, d,
d)`` stack of each cell's propagator at that position, the identity
standing for an empty delay or a failed cell.

A tau sweep moves every carrier phase, so a pulse shape requested at
many phases is served from a trigonometric interpolant in the phase.
The Trotter product ``U(phi)`` is a Laurent series in ``z = exp(i phi)``
bounded by ``exp(a (r - 1/r))`` on ``|z| = r``, ``a = nsteps y``; the
Cauchy estimate at ``r = m / a`` bounds its m-th Fourier coefficient by
``(e a / m)^m``, so with ``q = e a / (h + 1)`` those beyond h sum to at
most ``2 q^(h+1) / (1 - q)``, kept below 1e-15 by M = 2 h + 1 samples.
The same bound serves a block of B = 32 steps, which makes an
incommensurate N sweep cheap too: a pulse of a blocked carrier family
``(omega1, omegap, dt)`` is the pairwise product of blocks read off one
series in the block's start phase, times its ``nsteps % B`` trailing
steps built exactly.  A plan picks each route once, from the keys it
lacks (see ``PropagatorCache``): a shape takes its M samples when its
exact phases, held and missing, would pass 2 M, and a family is blocked
when it holds its ``M_B = _phase_count(B y)`` block samples or its
missing keys' Trotter steps exceed their ``M_B B``.  Either series is
read once per shape: every block of every phase a blocked shape builds
in one batched product and one stacked pairwise reduction, every phase
of a sampled shape in one batched product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .algebra import DensityMatrix, Operator, check_states, eig_hermitian, eig_propagator
from .analysis import SweepResult, expvals
from .sequences import (
    Delay,
    DrivePulse,
    Pulse,
    PulseSequence,
    SimConfig,
    closing_class,
    compile_sequence,
    inject_errors,
)
# unused here; benchmarks/spans.py patches these names on this module
from .sequences import compile_cpmg, compile_xyn  # noqa: F401

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

# Trotter steps per block of a blocked pulse family (see PropagatorCache);
# a power of two, so that the blocks are subtrees of the steps' reduction
_BLOCK = 32


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


def _chebyshev(x: np.ndarray, k: int) -> np.ndarray:
    """``(k, len(x))`` rows ``T_m(x)``, m < k, by the three-term recurrence
    ``T_m = 2 x T_(m-1) - T_(m-2)``."""
    v = np.empty((k, len(x)))
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
    y = np.pi * dt * omega1 * np.linalg.norm(drive_op.mat, 2)
    k = _node_count(y)
    theta = np.pi * (np.arange(k) + 0.5) / k
    nodes = h0.mat[None] + (omega1 * np.cos(theta))[:, None, None] * drive_op.mat[None]
    w, v = np.linalg.eigh(nodes)
    u_nodes = eig_propagator(w, v, dt).reshape(k, -1)
    # c_m = (2 / K) sum_j U(x_j) T_m(x_j), halved for m = 0
    transform = (2.0 / k) * _chebyshev(np.cos(theta), k)
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
    us = (_chebyshev(x, len(coefficients)).T @ coefficients).reshape(nsteps, d, d)

    return Operator(_reduce(us), h0.dims)


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
    Hamiltonian.  Pulse propagators are keyed by carrier phase in cycles,
    ``(omegap t_start + phase / 2 pi) mod 1``, plus duration, amplitude,
    carrier frequency and ``dt``: a step's Hamiltonian sees ``t_start``
    only through that phase.  Pulses whose starts differ by whole carrier
    periods therefore share one build, which is what makes a carrier
    commensurate with ``tau`` cheap.  Each entry is built at ``t_start = 0``
    with the keyed phase, so it does not depend on which request built it.
    The Chebyshev step coefficients are computed once per amplitude and
    ``dt``; a free duration, the phase and the shape (the key without its
    phase) are each rounded once per unrounded value.

    ``plan`` builds every entry that a list of requests lacks, and a
    lookup that misses is a plan of its own key.  A plan groups the
    missing keys by shape and by carrier family ``(omega1, omegap, dt)``
    and applies two rules once:

    - a shape builds each missing phase exactly while the phases it has
      built exactly plus its missing ones stay within 2 M, M from
      ``_phase_count(nsteps y)``; otherwise it builds M samples at phases
      ``2 pi j / M`` and takes their FFT, and every phase is then
      ``sum_m c_m exp(2 pi i m cycles)``, within twice ``_PHASE_TOL`` of the
      exact build (measured: 1.3e-14, rounding).  A shape never takes more
      than 3 M builds, nor 1.5 times as many as building each of its phases
      would.
    - a family is blocked once it holds its block series, or when the
      Trotter steps of its missing keys, nsteps summed over them, exceed the
      ``M_B B`` steps of that series, ``M_B = _phase_count(B y)`` samples of
      one block of B = ``_BLOCK`` steps each.  A blocked shape builds all
      its phases at once, its missing ones or its M samples: it reads each
      phase's first ``nsteps // B`` blocks off the series at their start
      phases, ``cycles + j omegap B dt`` for block j, in one batched
      ``(S, q, M_B) @ (M_B, d^2)`` product, builds each phase's trailing
      ``nsteps % B`` steps with one ``pulse_propagator`` call, and multiplies
      the ``(S, q[+1], d, d)`` stack by the steps' pairwise reduction, whose
      subtrees the blocks are (measured: block-built entries within 2.3e-14
      of the exact build).  Any other build is one ``pulse_propagator`` call.

    A sampled shape reads all its missing phases off its series in one
    ``(S, 1, M) @ (M, d^2)`` product.  Both products are batched so that
    each phase is its own product, and an entry is the same bits whatever
    else its stack holds; in a flat 2-D stack numpy would multiply a single
    row (one block or one phase) on another path, about 5e-15 apart.
    """

    def __init__(self, system):
        self.system = system
        self._evals, evecs = eig_hermitian(system.h0)
        self._evecs = evecs.mat
        self._free = {}
        self._free_keys = {}   # unrounded duration -> key
        self._pulses = {}      # (cycles, shape) -> propagator
        self._rounded = {}     # unrounded phase or (duration, omega1, omegap, dt) -> key part
        self._steps = {}       # (omega1, dt) -> (y, Chebyshev step coefficients)
        self._shapes = {}      # shape -> _Series of its phases
        self._families = {}    # shape[1:], (omega1, omegap, dt) -> _Series of its blocks

    def free(self, duration: float) -> np.ndarray:
        key = self._free_keys.get(duration)
        if key is None:
            key = self._free_keys[duration] = round(duration, _KEY_DIGITS)
        u = self._free.get(key)
        if u is None:
            u = self._free[key] = eig_propagator(self._evals, self._evecs, duration)
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

    def pulse(self, pulse: DrivePulse, t_start: float, dt: float) -> np.ndarray:
        key = self.pulse_key(pulse, t_start, dt)
        u = self._pulses.get(key)
        if u is None:  # a plan of this one key
            u = self._pulses[key] = self._entries(key[1], {key[0]: pulse}, {}, dt)[key]
        return u

    def plan(self, requests, dt: float) -> dict:
        """Build every entry that the pulse requests ``(pulse, t_start)`` lack,
        shape after shape in request order, each from the pulse of its first
        request; per key whose shape or family raised, that ``ValueError``.
        A failing shape or family is tried once and keeps no half-built series."""
        wanted, steps = {}, {}  # shape -> {cycles: first pulse}, family -> Trotter steps
        for pulse, t_start in requests:
            key = self.pulse_key(pulse, t_start, dt)
            if key not in self._pulses:
                wanted.setdefault(key[1], {}).setdefault(key[0], pulse)
        for shape, phases in wanted.items():
            steps[shape[1:]] = steps.get(shape[1:], 0) + len(phases) * round(shape[0] / dt)
        failed, broken = {}, {}  # family -> the ValueError of its block samples
        for shape, phases in wanted.items():
            try:
                self._pulses.update(self._entries(shape, phases, broken, dt, steps[shape[1:]]))
            except ValueError as exc:
                failed.update(dict.fromkeys([(c, shape) for c in phases], exc))
        return failed

    def _entries(self, shape: tuple, phases: dict, broken: dict, dt: float,
                 family_steps: int | None = None) -> dict:
        """The entries of one shape's missing ``phases``, cycles -> first pulse,
        on a family whose missing keys hold ``family_steps`` Trotter steps
        (None for a plan of one key: its own steps)."""
        family, pulse = shape[1:], next(iter(phases.values()))
        steps = self._steps.get((pulse.omega1, dt))
        if steps is None:
            steps = self._steps[(pulse.omega1, dt)] = _step_coefficients(
                self.system.h0, self.system.drive_op, pulse.omega1, dt)
        nsteps = round(pulse.duration / dt)
        state = self._shapes.get(shape)
        if state is None:
            state = self._shapes[shape] = _Series(_phase_count(nsteps * steps[0]))
        if state.series is None:
            blocks = self._families.get(family)
            if blocks is None:
                blocks = self._families[family] = _Series(_phase_count(_BLOCK * steps[0]))
            if family in broken:
                raise broken[family]
            if blocks.series is None and (family_steps or nsteps) > _BLOCK * blocks.samples:
                block = replace(pulse, duration=_BLOCK * dt)
                try:  # each sample is built exactly: the series is set once all are
                    blocks.sample(self._build(dict.fromkeys(blocks.phases(), block), dt, steps[1]))
                except ValueError as exc:
                    broken[family] = exc
                    raise
            build = self._build
            if blocks.series is not None and nsteps >= _BLOCK:
                build = partial(self._blocked, blocks)
            if state.built + len(phases) <= 2 * state.samples:
                entries = dict(zip([(c, shape) for c in phases], build(phases, dt, steps[1])))
                state.built += len(entries)
                return entries
            state.sample(build(dict.fromkeys(state.phases(), pulse), dt, steps[1]))
        us = state.at(np.array(list(phases))[:, None, None])
        return dict(zip([(c, shape) for c in phases], us.reshape(-1, *self.system.h0.shape)))

    def _build(self, phases: dict, dt: float, coefficients) -> list:
        """One exact build per phase of ``phases``, cycles -> pulse."""
        return [pulse_propagator(self.system.h0, replace(drive, phase=2.0 * np.pi * c),
                                 self.system.drive_op, 0.0, dt, coefficients).mat
                for c, drive in phases.items()]

    def _blocked(self, blocks: _Series, phases: dict, dt: float, coefficients) -> np.ndarray:
        """The ``(S, d, d)`` block products of one shape at ``phases``,
        cycles -> pulse, on a family whose block series is ``blocks``."""
        h0, drive_op = self.system.h0, self.system.drive_op
        q, r = divmod(round(next(iter(phases.values())).duration / dt), _BLOCK)
        # every block of every phase in one batched product, (S, q, M) @ (M, d^2):
        # each phase's rows are a product of their own, as a single phase's would be
        cycles = np.array(list(phases))[:, None]
        rates = np.array([drive.omegap * _BLOCK * dt for drive in phases.values()])[:, None]
        starts = (cycles + np.arange(q) * rates) % 1.0
        us = blocks.at(starts[..., None]).reshape(len(phases), q, *h0.shape)
        if r:
            tails = [pulse_propagator(h0, replace(drive, phase=2.0 * np.pi * c, duration=r * dt),
                                      drive_op, q * _BLOCK * dt, dt, coefficients).mat
                     for c, drive in phases.items()]
            us = np.concatenate((us, np.array(tails)[:, None]), axis=1)
        return _reduce(us)


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


def _lookup(cache: PropagatorCache, el, start, dt: float, failed=None):
    """Propagator of element ``el`` looked up at ``start``, None for an empty
    delay; a pulse whose key a plan ``failed`` raises that plan's error."""
    if start is None:
        return cache.free(el.duration) if el.duration > 0 else None
    if failed and (key := cache.pulse_key(el.pulse, start, dt)) in failed:
        raise failed[key]
    return cache.pulse(el.pulse, start, dt)


def apply_sequence(system, seq: PulseSequence, cfg: SimConfig,
                   cache: PropagatorCache | None = None) -> EvolutionResult:
    """Evolve ``system.rho0`` through a compiled sequence."""
    cfg.validate_for(seq)
    if cache is None:
        cache = PropagatorCache(system)
    elif cache.system is not system:
        raise ValueError("cache was built for a different system")

    u_total = np.eye(system.h0.shape[0], dtype=complex)
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


def _cell(family, wanted, firsts, pulse, cfg, wrapper_phase, closing_rule, cell) -> list:
    """One cell's lookups in time order, each ``(element, start)`` (see
    ``_start``): the pi train of max N, with the closing tail of its class
    after each wanted N's N-th pi pulse.  Its checks are the reference path's
    own: each class's first N, ``firsts``, is compiled, given the cell's
    errors by ``inject_errors`` and, the first one, validated for ``cfg``, as
    applying each N's sequence would.  Those read N only through N >= 1 and
    its closing class, so they raise what every N would."""
    tau, length_factor, freq_factor = cell
    if not wanted or min(wanted) < 1:
        raise ValueError("n values must be positive integers")
    seqs = {}
    for n in firsts.values():
        seq = compile_sequence(family, n, tau, pulse, wrapper_phase, closing_rule)
        if length_factor != 1.0 or freq_factor != 1.0:
            seq = inject_errors(seq, length_factor, freq_factor)
        if not seqs:
            cfg.validate_for(seq)
        seqs[n] = seq
    top = max(wanted)  # a tau sweep's only N: its sequence is compiled once
    train = seqs[top] if top in seqs else compile_sequence(
        family, top, tau, pulse, wrapper_phase, closing_rule, length_factor, freq_factor)
    t, out = 0.0, []
    for i, el in enumerate(train.elements[:2 * top + 1]):
        start, t = _start(el, t, cfg)
        out.append((el, start))
        if i % 2 == 0 and i // 2 in wanted:
            end = t
            for closer in seqs[firsts[closing_class(i // 2)]].elements[-2:]:
                start, end = _start(closer, end, cfg)
                out.append((closer, start))
    return out


def _walk(system, family, n_values, pulse, cfg, cells, wrapper_phase, closing_rule,
          cache) -> tuple:
    """Final states of the N sweeps of ``cells``, each ``(tau, length_factor,
    freq_factor)``, walked together: a ``(cells, len(n_values), d, d)``
    stack, and per cell None or the ``ValueError`` that its checks, the
    cache's system or a build raised; a failed cell's states are undefined."""
    if wrapper_phase is None:
        wrapper_phase = system.wrapper_phase
    cache = cache or PropagatorCache(system)
    firsts = {}  # closing class -> its first N
    for n in n_values.tolist():
        firsts.setdefault(closing_class(n), n)
    wanted = {n: k for k, n in enumerate(sorted(set(n_values.tolist())))}
    errors, timed = [None] * len(cells), [None] * len(cells)
    for j, cell in enumerate(cells):
        try:
            timed[j] = _cell(family, wanted, firsts, pulse, cfg, wrapper_phase, closing_rule, cell)
            if cache.system is not system:
                raise ValueError("cache was built for a different system")
        except ValueError as exc:
            errors[j], timed[j] = exc, None
    # every pulse built before the first lookup, then the lookups cell after cell
    failed = cache.plan([(el.pulse, start) for lookups in timed if lookups
                         for el, start in lookups if start is not None], cfg.dt)
    found = {}  # live cell -> its propagators in lookup order
    for j, lookups in enumerate(timed):
        if lookups is None:
            continue
        try:
            found[j] = [_lookup(cache, el, start, cfg.dt, failed) for el, start in lookups]
        except ValueError as exc:
            errors[j] = exc

    d = system.h0.shape[0]
    states = np.empty((len(cells), len(wanted), d, d), dtype=complex)
    rows = [wanted[n] for n in n_values.tolist()]
    if not found:
        return states[:, rows], errors
    eye = np.eye(d, dtype=complex)
    u = np.array([eye] * len(cells))  # running products
    spare, factors = np.empty_like(u), u.copy()  # a failed cell's factors stay the identity
    columns = zip(*found.values())  # the k-th propagator of every live cell

    def stack():  # the next factor of every live cell, the identity for an empty delay
        for j, u_el in zip(found, next(columns)):
            factors[j] = eye if u_el is None else u_el
        return factors

    for i in range(2 * max(wanted) + 1):
        u, spare = np.matmul(stack(), u, out=spare), u
        n = i // 2
        if i % 2 or n not in wanted:
            continue
        closed = stack() @ u  # closing gap, then closing wrapper
        closed = stack() @ closed
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
