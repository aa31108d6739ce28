"""The traced benchmark's hooks: ``benchmarks/spans.py`` patches package
functions it looks up by name, so a refactor that drops one breaks the
traced run; this catches that without running the benchmark."""

from pathlib import Path

from spindd import evolution, runner
from spindd.config import ExperimentConfig
from spindd.evolution import PropagatorCache, sweep_n
from spindd.hamiltonians import DrivePulse, GenericSystemParams, TargetParams, generic_system
from spindd.sequences import SimConfig

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_the_span_hooks_exist_trace_a_sweep_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    owners = (evolution, runner, PropagatorCache, ExperimentConfig)
    before = [dict(vars(owner)) for owner in owners]
    system = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, 0.2),)))
    tracer = spans.Tracer()
    tracer.current_pass = 0
    with spans.patched(tracer):
        sweep_n(system, "xyn", [1, 2, 3], 0.5, DrivePulse(5.0, 50.0, 0.0, 0.1),
                SimConfig(dt=0.001))
    totals = tracer.pass_totals(0)
    assert totals["evolution.cache_pulse"]["calls"] > 0
    assert totals["evolution.pulse_propagator"]["calls"] > 0
    for owner, attrs in zip(owners, before):
        assert all(vars(owner).get(name) is value for name, value in attrs.items()), owner
