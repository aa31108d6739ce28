"""The traced benchmark's hooks: ``benchmarks/spans.py`` patches package
functions it looks up by name, so a refactor that drops one breaks the
traced run; this catches that without running the benchmark."""

from pathlib import Path

from spindd import evolution, runner
from spindd.config import ExperimentConfig
from spindd.evolution import PropagatorCache, sweep_n
from spindd.hamiltonians import DrivePulse, GenericSystemParams, TargetParams, generic_system
from spindd.sequences import SimConfig, compile_xyn

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_the_span_hooks_exist_trace_a_sweep_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    owners = (evolution, runner, PropagatorCache, ExperimentConfig)
    before = [dict(vars(owner)) for owner in owners]
    system = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, 0.2),)))
    pulse, cfg = DrivePulse(5.0, 50.0, 0.0, 0.1), SimConfig(dt=0.001)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        # a walk asks the cache for free propagators only; its pulses are planned
        tracer.current_pass = 0
        sweep_n(system, "xyn", [1, 2, 3], 0.5, pulse, cfg)
        # applying a sequence looks up each pulse, and a direct build is one call
        tracer.current_pass = 1
        evolution.apply_sequence(system, compile_xyn(2, 0.5, pulse), cfg)
        tracer.current_pass = 2
        evolution.pulse_propagator(system.h0, pulse, system.drive_op, 0.0, cfg.dt)
    assert tracer.pass_totals(0)["evolution.cache_free"]["calls"] > 0
    assert tracer.pass_totals(1)["evolution.cache_pulse"]["calls"] > 0
    assert tracer.pass_totals(2)["evolution.pulse_propagator"]["calls"] > 0
    for owner, attrs in zip(owners, before):
        assert all(vars(owner).get(name) is value for name, value in attrs.items()), owner
