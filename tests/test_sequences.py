"""Sequence compilation: timing grids, pulse phases, error injection."""

import math

import pytest

from spindd.sequences import (
    Delay,
    DrivePulse,
    PulseSequence,
    SimConfig,
    closing_class,
    compile_cpmg,
    compile_sequence,
    compile_xyn,
    family_rule,
    inject_errors,
)

PI = math.pi
PI_PULSE = DrivePulse(omega1=5.0, omegap=50.0, phase=0.0, duration=0.1)


def pulses_of(seq: PulseSequence):
    return [e for e in seq.elements if isinstance(e, DrivePulse)]


def delays_of(seq: PulseSequence):
    return [e for e in seq.elements if isinstance(e, Delay)]


def test_cpmg_element_layout():
    seq = compile_cpmg(2, 0.5, PI_PULSE)
    kinds = [type(e).__name__ for e in seq.elements]
    assert kinds == ["DrivePulse", "Delay", "DrivePulse", "Delay", "DrivePulse", "Delay",
                     "DrivePulse"]
    pulses = pulses_of(seq)
    assert len(pulses) == 4  # two wrappers plus n pi pulses
    # a pulse's angle is its duration: t_pi / 2 for a wrapper, t_pi for a pi pulse
    assert pulses[0].duration == pytest.approx(0.05)
    assert all(p.duration == pytest.approx(0.1) for p in pulses[1:-1])
    assert all((p.omega1, p.omegap) == (5.0, 50.0) for p in pulses)


def test_cpmg_timing_grid():
    seq = compile_cpmg(2, 0.5, PI_PULSE)
    gaps = [d.duration for d in delays_of(seq)]
    # edge gaps tau/2 center to center, interior gaps tau
    assert gaps[0] == pytest.approx(0.25 - 0.05 - 0.025)
    assert gaps[1] == pytest.approx(0.4)
    assert gaps[2] == pytest.approx(0.25 - 0.05 - 0.025)
    assert seq.duration() == pytest.approx(2 * 0.5 + 0.05)


def test_pi_pulse_centers_sit_tau_apart():
    seq = compile_cpmg(4, 0.5, PI_PULSE)
    t = 0.0
    centers = []
    for e in seq.elements:
        if isinstance(e, DrivePulse) and e.duration == PI_PULSE.duration:
            centers.append(t + e.duration / 2.0)
        t += e.duration
    spacings = [b - a for a, b in zip(centers, centers[1:])]
    assert all(s == pytest.approx(0.5) for s in spacings)


def test_cpmg_phases_all_x():
    seq = compile_cpmg(4, 0.5, PI_PULSE)
    pulses = pulses_of(seq)
    assert pulses[0].phase == pytest.approx(PI / 2.0)
    assert pulses[-1].phase == pytest.approx(PI / 2.0)
    assert all(p.phase == 0.0 for p in pulses[1:-1])
    assert [p.phase for p in pulses] == [PI / 2.0, 0.0, 0.0, 0.0, 0.0, PI / 2.0]


def test_xyn_phases_alternate_with_wrapper():
    seq = compile_xyn(5, 0.5, PI_PULSE)
    inner = [p.phase for p in pulses_of(seq)[1:-1]]
    assert inner == pytest.approx([0.0, PI / 2.0, 0.0, PI / 2.0, 0.0])
    conj = compile_xyn(5, 0.5, PI_PULSE, wrapper_phase=3.0 * PI / 2.0)
    inner = [p.phase for p in pulses_of(conj)[1:-1]]
    assert inner == pytest.approx([0.0, 3.0 * PI / 2.0, 0.0, 3.0 * PI / 2.0, 0.0])
    assert pulses_of(conj)[0].phase == pytest.approx(3.0 * PI / 2.0)


@pytest.mark.parametrize("n,angle", [(2, 1.5 * PI), (4, 0.5 * PI), (6, 1.5 * PI), (8, 0.5 * PI)])
def test_xy_parity_closing_rule(n, angle):
    seq = compile_xyn(n, 0.5, PI_PULSE)
    closer = pulses_of(seq)[-1]
    # a 3 pi/2 closer is three half-pi wrappers long, 3 t_pi / 2
    expected = 0.15 if angle > PI else 0.05
    assert closer.duration == pytest.approx(expected)
    assert closer.phase == pulses_of(seq)[0].phase


def test_plain_closing_rule_everywhere():
    for n in (1, 2, 3, 6):
        seq = compile_cpmg(n, 0.5, PI_PULSE)
        closer = pulses_of(seq)[-1]
        assert closer.duration == pytest.approx(PI_PULSE.duration / 2.0)
        assert seq.closing_rule == "plain"


def test_family_rule_holds_each_family_default():
    assert family_rule("cpmg", None) == "plain"
    assert family_rule("xyn", None) == "xy8-parity"
    assert family_rule("cpmg", "xy8-parity") == "xy8-parity"
    with pytest.raises(ValueError, match="unknown sequence family"):
        family_rule("udd", None)
    assert compile_xyn(6, 0.5, PI_PULSE, closing_rule=None) == compile_xyn(6, 0.5, PI_PULSE)
    assert compile_cpmg(6, 0.5, PI_PULSE, closing_rule=None).closing_rule == "plain"


def test_compile_validation():
    with pytest.raises(ValueError, match="at least one"):
        compile_cpmg(0, 0.5, PI_PULSE)
    with pytest.raises(ValueError, match="tau must be positive"):
        compile_cpmg(2, 0.0, PI_PULSE)
    with pytest.raises(ValueError, match="tau must be positive"):
        compile_cpmg(2, math.nan, PI_PULSE)
    with pytest.raises(ValueError, match="tau must be positive"):
        compile_cpmg(2, math.inf, PI_PULSE)
    with pytest.raises(ValueError, match="gap is negative"):
        compile_cpmg(2, 0.09, PI_PULSE)  # tau shorter than the pi pulse
    with pytest.raises(ValueError, match="unknown closing rule"):
        compile_cpmg(2, 0.5, PI_PULSE, closing_rule="mystery")


@pytest.mark.parametrize("family", ["cpmg", "xyn"])
@pytest.mark.parametrize("factors", [(1.0, 1.0), (1.1, 0.99)])
def test_a_sequence_is_a_shared_train_and_its_closing_class_tail(family, factors):
    # an N sweep walks the train of its largest N and closes it with the
    # last two elements of its class's first N
    def compiled(n):
        return compile_sequence(family, n, 0.5, PI_PULSE, PI / 2.0, None, *factors).elements

    train = compiled(12)
    for n in range(1, 13):
        first = next(m for m in range(1, 13) if closing_class(m) == closing_class(n))
        assert compiled(n) == train[:2 * n + 1] + compiled(first)[-2:]


def test_drive_pulse_validation():
    with pytest.raises(ValueError, match="omega1"):
        DrivePulse(0.0, 50.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="omegap"):
        DrivePulse(5.0, -1.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="duration"):
        DrivePulse(5.0, 50.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="negative delay"):
        Delay(-0.01)


def test_inject_errors_rescales_pulses_and_delays():
    seq = compile_cpmg(2, 0.5, PI_PULSE)
    bad = inject_errors(seq, length_factor=1.15, freq_factor=1.01)
    pulses = pulses_of(bad)
    assert pulses[1].duration == pytest.approx(0.115)
    assert pulses[0].duration == pytest.approx(0.0575)
    assert all(p.omegap == pytest.approx(50.5) for p in pulses)
    # centers stay tau apart, so the interior delay shrinks
    assert delays_of(bad)[1].duration == pytest.approx(0.5 - 0.115)
    assert bad.error_length_factor == pytest.approx(1.15)
    assert bad.error_freq_factor == pytest.approx(1.01)


def test_inject_errors_composes_and_preserves_identity():
    seq = compile_cpmg(2, 0.5, PI_PULSE)
    same = inject_errors(seq, 1.0, 1.0)
    assert [e.duration for e in same.elements] == pytest.approx(
        [e.duration for e in seq.elements]
    )
    twice = inject_errors(inject_errors(seq, 1.1, 1.0), 1.1, 1.0)
    assert twice.error_length_factor == pytest.approx(1.21)
    with pytest.raises(ValueError, match="positive"):
        inject_errors(seq, -0.5, 1.0)


def test_inject_errors_detects_overlong_pulses():
    seq = compile_cpmg(2, 0.16, PI_PULSE)
    with pytest.raises(ValueError, match="gap is negative"):
        inject_errors(seq, 1.7, 1.0)


@pytest.mark.parametrize("tau, factors, message", [
    (0.5, (-1.0, 1.0), "error factors must be positive"),  # not a negative duration
    (0.5, (1.0, 0.0), "error factors must be positive"),
    (0.1, (0.5, 1.0), "opening gap is negative (-0.025)"),  # the shorter pulses would fit
])
def test_compiling_with_errors_raises_what_compiling_then_injecting_raises(tau, factors,
                                                                           message):
    with pytest.raises(ValueError) as injected:
        inject_errors(compile_cpmg(2, tau, PI_PULSE), *factors)
    with pytest.raises(ValueError) as compiled:
        compile_sequence("cpmg", 2, tau, PI_PULSE, PI / 2.0, None, *factors)
    assert str(compiled.value) == str(injected.value)
    assert str(compiled.value).startswith(message)


@pytest.mark.parametrize("build, message", [
    (lambda x: DrivePulse(x, 50.0, 0.0, 0.1), "omega1 must be positive"),
    (lambda x: DrivePulse(5.0, x, 0.0, 0.1), "omegap must be positive"),
    (lambda x: DrivePulse(5.0, 50.0, 0.0, x), "pulse duration must be positive"),
    (lambda x: DrivePulse(5.0, 50.0, x, 0.1), "phase must be finite"),
    (lambda x: SimConfig(dt=x), "dt must be positive"),
], ids=["omega1", "omegap", "duration", "phase", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_pulse_or_step_is_rejected(build, message, value):
    with pytest.raises(ValueError, match=message):
        build(value)


def test_sim_config_validation():
    with pytest.raises(ValueError, match="dt must be positive"):
        SimConfig(dt=0.0)
    cfg = SimConfig(dt=0.02)
    with pytest.raises(ValueError, match="too coarse"):
        cfg.validate_for(compile_cpmg(2, 0.5, PI_PULSE))
    SimConfig(dt=0.001).validate_for(compile_cpmg(2, 0.5, PI_PULSE))
