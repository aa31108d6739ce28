"""Span recorder for the traced benchmark run.

Tracing works from outside the package: ``patched(tracer)`` replaces, for
the duration of one workload pass, the module and class attributes that
spindd's own callers resolve at call time (``spindd.evolution.pulse_propagator``,
``PropagatorCache.pulse``, ``spindd.runner.sweep_n`` and so on) with
wrappers that record a span around the original call.  Nothing under
``src/`` is changed and untraced passes run the original functions.

A span is (name, start, end, parent span, pass id, attribute).  The
attribute is a count computed from the call's arguments or result, such
as the Trotter steps of a pulse build.  Spans are kept in flat arrays in
memory and written out once, when the run ends.  A span's self time is
its duration minus the time its direct children cover; the program is
single-threaded here, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import weakref
from array import array
from time import perf_counter

import numpy as np

# span names, grouped by the package module whose public call they time
NAMES = (
    "runner.experiment",          # run_experiment / errmap_experiment
    "hamiltonians.build",         # ExperimentConfig.build_system / build_pulse
    "sequences.compile",          # compile_cpmg / compile_xyn
    "sequences.inject",           # inject_errors
    "evolution.sweep",            # sweep_n / sweep_tau
    "evolution.apply",            # apply_sequence
    "evolution.cache_pulse",      # PropagatorCache.pulse
    "evolution.pulse_propagator",
    "evolution.cache_free",       # PropagatorCache.free
    "analysis.fit",               # pseudo_fidelity
    "analysis.other",             # find_resonance, state_fidelity, concurrence
)
_ID = {name: i for i, name in enumerate(NAMES)}

# rounding of free durations used to count distinct free propagators;
# matches the package's own cache key precision
_FREE_KEY_DIGITS = 12


class Tracer:
    """In-memory span store for one benchmark run."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.attr = array("q")
        self.current_pass = -1
        self._stack = []

    def wrap(self, name: str, fn, attr=None):
        """``fn`` wrapped so that every call records one span."""
        sid = _ID[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(sid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.pass_id.append(tracer.current_pass)
            tracer.attr.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if attr is not None:
                tracer.attr[idx] = attr(args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "attr": np.frombuffer(self.attr, dtype=np.int64).copy(),
        }

    def save(self, path):
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())

    def pass_totals(self, pass_id: int) -> dict:
        """Per span name: call count, total time, self time, attribute sum."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        sel = a["pass_id"] == pass_id
        names = a["name"][sel]
        k = len(NAMES)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur[sel], minlength=k)
        own = np.bincount(names, weights=self_time[sel], minlength=k)
        attrs = np.bincount(names, weights=a["attr"][sel].astype(float), minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(own[i]), "attr": int(round(attrs[i]))}
            for i, name in enumerate(NAMES)
        }


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _trotter_steps(args, kwargs, result):
    # pulse_propagator(h0, pulse, drive_op, t_start, dt): same snapping rule
    pulse = _arg(args, kwargs, 1, "pulse")
    dt = _arg(args, kwargs, 4, "dt")
    return int(round(pulse.duration / dt))


def _elements(args, kwargs, result):
    return len(result.elements)


def _applied_elements(pulse_cls):
    def count(args, kwargs, result):
        # apply_sequence(system, seq, cfg, cache): one product per pulse
        # and per delay of positive length
        seq = _arg(args, kwargs, 1, "seq")
        return sum(1 for el in seq.elements if isinstance(el, pulse_cls) or el.duration > 0)
    return count


def _new_free_duration():
    seen = weakref.WeakKeyDictionary()

    def new(args, kwargs, result):
        cache = args[0]
        key = round(_arg(args, kwargs, 1, "duration"), _FREE_KEY_DIGITS)
        keys = seen.setdefault(cache, set())
        if key in keys:
            return 0
        keys.add(key)
        return 1
    return new


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route spindd's public calls through ``tracer`` inside the block."""
    from spindd import evolution, runner
    from spindd.config import ExperimentConfig
    from spindd.evolution import PropagatorCache
    from spindd.sequences import Pulse

    apply_count = _applied_elements(Pulse)
    targets = [
        (evolution, "pulse_propagator", "evolution.pulse_propagator", _trotter_steps),
        (PropagatorCache, "pulse", "evolution.cache_pulse", None),
        (PropagatorCache, "free", "evolution.cache_free", _new_free_duration()),
        (evolution, "apply_sequence", "evolution.apply", apply_count),
        (runner, "apply_sequence", "evolution.apply", apply_count),
        (evolution, "compile_cpmg", "sequences.compile", _elements),
        (evolution, "compile_xyn", "sequences.compile", _elements),
        (evolution, "inject_errors", "sequences.inject", _elements),
        (runner, "inject_errors", "sequences.inject", _elements),
        (runner, "sweep_n", "evolution.sweep", None),
        (runner, "sweep_tau", "evolution.sweep", None),
        (runner, "pseudo_fidelity", "analysis.fit", None),
        (runner, "find_resonance", "analysis.other", None),
        (runner, "state_fidelity", "analysis.other", None),
        (runner, "concurrence", "analysis.other", None),
        (ExperimentConfig, "build_system", "hamiltonians.build", None),
        (ExperimentConfig, "build_pulse", "hamiltonians.build", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, count in targets:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
