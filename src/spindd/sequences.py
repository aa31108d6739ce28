"""Pulse-sequence construction: timing, phases and error injection.

A compiled sequence is a tuple of ``DrivePulse`` and ``Delay`` elements;
a pulse's rotation angle lives only in its duration.  Compilation fixes the
timing so that pi-pulse centers sit exactly ``tau`` apart and the
half-pi wrappers sit ``tau/2`` from the first and last pi pulse,
center to center.  Durations refer to the full pulse envelope; delays
are the gaps that remain between envelopes.

Pulse phases set the drive axis: phase 0 is x, ``pi/2`` is y.  CPMG
drives every pi pulse along x; the XY family alternates between x and
the wrapper axis.  Both open with a half-pi wrapper (by default along
y) that takes the central spin off the quantization axis, and close
with a wrapper that brings it back.  When the monitored level of the
driven transition is the lower one, the effective rotating frame turns
the other way and every carrier phase acquires a minus sign; passing
``wrapper_phase = 3 pi / 2`` realizes the same y-wrapper sequence in
such a conjugated frame, because x pulses are phase-sign invariant.  The
``"plain"`` closing rule ends with a plain half-pi wrapper; the
``"xy8-parity"`` rule upgrades it to ``3 pi / 2`` when the number of
two-pulse blocks ``n // 2`` is odd, which keeps the sign of the central
observable consistent across an N sweep of XY sequences.
``family_rule`` holds each family's default: plain for CPMG,
xy8-parity for XY.

``compile_sequence`` builds every sequence and is the one place that
checks error factors; ``inject_errors`` recompiles.  The first ``2 k + 1``
elements of a sequence, its opening wrapper and first ``k`` pi pulses, do
not depend on ``n >= k``, and its last two depend on ``n`` only through
``closing_class(n)``; an N sweep shares one pi train across all N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class DrivePulse:
    """Carrier parameters of one pulse.

    ``omega1`` is the nutation (Rabi) frequency: a spin-1/2 driven
    resonantly flips in ``t_pi = 1 / (2 omega1)``.  The drive couples
    through twice the spin-x operator, which is what makes that closed
    form hold; see ``hamiltonians.drive_h1``.  ``omegap`` is the carrier
    frequency and ``phase`` the carrier phase offset in radians.
    """

    omega1: float
    omegap: float
    phase: float
    duration: float

    def __post_init__(self):
        if not 0 < self.omega1 < math.inf:
            raise ValueError(f"omega1 must be positive and finite, got {self.omega1}")
        if not 0 < self.omegap < math.inf:
            raise ValueError(f"omegap must be positive and finite, got {self.omegap}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"pulse duration must be positive and finite, got {self.duration}")
        if not -math.inf < self.phase < math.inf:
            raise ValueError(f"phase must be finite, got {self.phase}")

    def carrier(self, t):
        """Drive amplitude ``omega1 cos(2 pi omegap t + phase)`` at lab time ``t``.

        ``t`` may be an array of times.
        """
        return self.omega1 * np.cos(2.0 * np.pi * self.omegap * t + self.phase)


@dataclass(frozen=True)
class Delay:
    """Free evolution for ``duration`` (may be zero at sequence edges)."""

    duration: float

    def __post_init__(self):
        if self.duration < -1e-15:
            raise ValueError(
                f"negative delay {self.duration}: pulses do not fit into the requested tau"
            )


# benchmarks/spans.py counts a sequence's pulse elements by this name
Pulse = DrivePulse


@dataclass(frozen=True)
class PulseSequence:
    """Compiled sequence plus the parameters it was compiled from."""

    elements: tuple
    family: str
    n_pulses: int
    tau: float
    base_pulse: DrivePulse
    wrapper_phase: float
    closing_rule: str
    error_length_factor: float = 1.0
    error_freq_factor: float = 1.0

    def duration(self) -> float:
        return float(sum(e.duration for e in self.elements))


@dataclass(frozen=True)
class SimConfig:
    """Numerical evolution settings.

    ``dt`` is the Trotter step used inside pulses (free evolution is
    exact).  It must resolve both the pulse envelope (at most one
    twentieth of the pi duration) and the carrier; presets pick
    ``dt ~ 1 / (20 omegap)`` which satisfies both for resonant pulses.
    """

    dt: float
    carrier_reset: bool = False

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    def validate_for(self, seq: PulseSequence):
        t_pi = seq.base_pulse.duration * seq.error_length_factor
        if self.dt > t_pi / 20 + 1e-15:
            raise ValueError(
                f"dt={self.dt} too coarse for pi duration {t_pi}: need dt <= t_pi/20"
            )


def closing_class(n: int) -> int:
    """Parity of ``n``'s two-pulse blocks, all a closing rule reads of ``n``."""
    return (n // 2) % 2


_DEFAULT_RULES = {"cpmg": "plain", "xyn": "xy8-parity"}


def family_rule(family: str, closing_rule: str | None) -> str:
    """``closing_rule``, or ``family``'s default closing rule when None."""
    if family not in _DEFAULT_RULES:
        raise ValueError(f"unknown sequence family {family!r}")
    return _DEFAULT_RULES[family] if closing_rule is None else closing_rule


def _closing_halves(n: int, closing_rule: str) -> float:
    """The closing wrapper's angle in half-pi rotations: 1, or 3 for 3 pi/2."""
    if closing_rule == "plain":
        return 1.0
    if closing_rule == "xy8-parity":
        # odd number of two-pulse blocks flips the sign of the central
        # observable; a 3pi/2 closer undoes that
        return 3.0 if closing_class(n) else 1.0
    raise ValueError(f"unknown closing rule {closing_rule!r}")


def _axis_phases(family: str, n: int, wrapper_phase: float):
    # cpmg or xyn, as ``family_rule`` rejects any other; the alternating axis
    # is the wrapper axis, so a conjugated frame (wrapper at -pi/2) negates
    # every phase in the sequence at once
    if family == "cpmg":
        return [0.0] * n
    return [0.0 if k % 2 == 0 else wrapper_phase for k in range(n)]


def _gaps(tau: float, t_pi: float, halves: float) -> tuple:
    """The opening, closing and inter-pulse gaps of pi pulses ``t_pi`` long
    whose centers sit ``tau`` apart, closed by a wrapper of ``halves`` half-pi
    rotations; raises where one is negative."""
    t_half = t_pi / 2.0
    gaps = (tau / 2.0 - t_pi / 2.0 - t_half / 2.0, tau / 2.0 - t_pi / 2.0 - t_half * halves / 2.0,
            tau - t_pi)
    for gap, name in zip(gaps, ("opening", "closing", "inter-pulse")):
        if gap < -1e-12:
            raise ValueError(
                f"{name} gap is negative ({gap:.4g}): tau={tau} too short for pulse length {t_pi}"
            )
    return gaps


def compile_sequence(family, n, tau, pi_pulse, wrapper_phase, closing_rule=None,
                     length_factor=1.0, freq_factor=1.0) -> PulseSequence:
    """The ``n``-pulse ``family`` sequence with pulse durations scaled by
    ``length_factor`` and carrier frequencies by ``freq_factor``.

    Raises what compiling the nominal sequence and then injecting the
    factors with ``inject_errors`` would, for a finite ``wrapper_phase``: the
    nominal sequence's errors first, then a factor that is not positive,
    then where the scaled pulses do not fit.  Element ``2 k`` is the
    ``k``-th pi pulse; the last two elements are the closing gap and wrapper.
    """
    closing_rule = family_rule(family, closing_rule)
    if n < 1:
        raise ValueError(f"need at least one pi pulse, got n={n}")
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")

    halves = _closing_halves(n, closing_rule)
    _gaps(tau, pi_pulse.duration, halves)  # the nominal sequence's gaps
    if length_factor <= 0 or freq_factor <= 0:
        raise ValueError("error factors must be positive")
    t_pi = pi_pulse.duration * length_factor
    open_gap, close_gap, inner_gap = _gaps(tau, t_pi, halves)

    def driven(duration, axis):
        return DrivePulse(pi_pulse.omega1, pi_pulse.omegap * freq_factor, axis, duration)

    t_half = t_pi / 2.0
    elements = [driven(t_half, wrapper_phase), Delay(max(open_gap, 0.0))]
    axes = _axis_phases(family, n, wrapper_phase)
    # elements are frozen: the pi pulses of one axis, and the inter-pulse
    # gaps, are each one shared element
    pis = {axis: driven(t_pi, axis) for axis in dict.fromkeys(axes)}
    gap = Delay(inner_gap)
    for k, axis in enumerate(axes):
        elements += [gap, pis[axis]] if k else [pis[axis]]
    elements += [Delay(max(close_gap, 0.0)), driven(t_half * halves, wrapper_phase)]
    return PulseSequence(tuple(elements), family, n, tau, pi_pulse, wrapper_phase,
                         closing_rule, length_factor, freq_factor)


def compile_cpmg(n: int, tau: float, pi_pulse: DrivePulse,
                 wrapper_phase: float = HALF_PI,
                 closing_rule: str | None = None) -> PulseSequence:
    """CPMG-n: all pi pulses along x, wrappers along ``wrapper_phase``."""
    return compile_sequence("cpmg", n, tau, pi_pulse, wrapper_phase, closing_rule)


def compile_xyn(n: int, tau: float, pi_pulse: DrivePulse,
                wrapper_phase: float = HALF_PI,
                closing_rule: str | None = None) -> PulseSequence:
    """XY-n: pi-pulse axes alternate between x and the wrapper axis.

    With the default wrapper this is the usual x, y, x, y, ... pattern;
    odd ``n`` truncates the alternation.  The default closing rule keeps
    the central-observable sign consistent across N sweeps.
    """
    return compile_sequence("xyn", n, tau, pi_pulse, wrapper_phase, closing_rule)


def inject_errors(seq: PulseSequence, length_factor: float = 1.0,
                  freq_factor: float = 1.0) -> PulseSequence:
    """Systematic pulse miscalibration: ``seq`` recompiled with every pulse
    duration scaled by ``length_factor`` and every carrier frequency by
    ``freq_factor``, on top of its own factors.

    Delays are recomputed so pi-pulse centers remain ``tau`` apart;
    ``compile_sequence`` raises where a factor is not positive or the
    stretched pulses no longer fit into the timing grid.
    """
    return compile_sequence(seq.family, seq.n_pulses, seq.tau, seq.base_pulse,
                            seq.wrapper_phase, seq.closing_rule,
                            length_factor * seq.error_length_factor,
                            freq_factor * seq.error_freq_factor)
