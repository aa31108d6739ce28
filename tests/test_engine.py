"""The incremental sweep engine against references kept in this file.

Golden outputs under ``golden/`` were written by the sequential engine
this one replaced (one full compile and product per N, pulses keyed by
start time, a per-step loop, one ``lstsq`` per trial period), with the
rank-aware ``state_fidelity`` already in place, except the tau spectrum,
whose every pulse phase was built exactly; see ``golden/README``.
"""

import csv
import itertools
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spindd import analysis, evolution, sequences
from spindd.algebra import basis_dm, partial_trace
from spindd.analysis import SweepResult, pseudo_fidelity, state_fidelity
from spindd.config import ExperimentConfig
from spindd.evolution import (PropagatorCache, apply_sequence, pulse_propagator, sweep_n,
                              sweep_tau)
from spindd.hamiltonians import (
    DrivePulse,
    GenericSystemParams,
    NvParams,
    TargetParams,
    generic_system,
    nv_system,
)
from spindd.presets import get_preset
from spindd.runner import errmap_experiment, run_experiment
from spindd.sequences import SimConfig, compile_cpmg, compile_xyn, inject_errors

GOLDEN = Path(__file__).parent / "golden"
GENERIC = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, 0.2),)))
PI_PULSE = DrivePulse(5.0, 50.0, 0.0, 0.1)
CFG = SimConfig(dt=0.001)


# ---------------------------------------------------------------- golden outputs

def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def numbers(tree, prefix=""):
    """Flat ``{path: float}`` of every number in a JSON tree."""
    if isinstance(tree, dict):
        out = {}
        for key, value in tree.items():
            out.update(numbers(value, f"{prefix}/{key}"))
        return out
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return {prefix: float(tree)}
    return {}


@pytest.mark.parametrize("name", ["ddgate", "nv-polarize", "nv-ddgate", "nv-xyn-spectrum"])
def test_run_matches_golden_outputs(name, tmp_path):
    manifest = run_experiment(ExperimentConfig.from_dict(get_preset(name)), tmp_path)
    header, table = read_table(tmp_path / f"{name}.csv")
    gold_header, gold = read_table(GOLDEN / f"{name}.csv")
    assert header == gold_header
    assert np.max(np.abs(table - gold)) <= 1e-10

    expected = numbers(json.loads((GOLDEN / f"{name}-metrics.json").read_text()))
    got = numbers({"metrics": manifest["metrics"], "extras": manifest["extras"]})
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, abs=1e-10), key


@pytest.mark.parametrize("n_range", [[2, 40, 2], [1, 40, 2]])
def test_inversion_fidelity_reads_the_state_at_a_swept_n(n_range, tmp_path):
    # the fitted n_pi is about 19.9: 20 is swept on the even grid, not on the odd one
    raw = get_preset("ddgate")
    raw["sequence"]["n_range"] = n_range
    cfg = ExperimentConfig.from_dict(raw)
    manifest = run_experiment(cfg, tmp_path)
    n_star = manifest["extras"]["inversion_n"]
    assert n_star in cfg.sweep_values().tolist()
    assert abs(n_star - round(manifest["metrics"]["n_pi"])) <= 1
    system = cfg.build_system()
    seq = compile_cpmg(n_star, 0.5, cfg.build_pulse(), system.wrapper_phase)
    reduced = partial_trace(apply_sequence(system, seq, cfg.sim_config()).rho_final, {1})
    expected = state_fidelity(reduced, basis_dm(reduced.dims, (1,)))
    assert manifest["metrics"]["state_fidelity"] == pytest.approx(expected, abs=1e-13)


def test_an_errmap_cell_matches_golden_outputs():
    # the pulse-error-map preset's N sweep and fit at the cell (1.1, 0.99)
    cfg = ExperimentConfig.from_dict(get_preset("pulse-error-map"))
    seq, system = cfg.data["sequence"], cfg.build_system()
    (sweep,) = evolution.sweep_n_cells(system, seq["family"], cfg.sweep_values(), seq["tau"],
                                       cfg.build_pulse(), cfg.sim_config(), [(1.1, 0.99)],
                                       seq["wrapper_phase"], seq["closing_rule"])
    gold_header, gold = read_table(GOLDEN / "errmap-cell.csv")
    assert gold_header == ["n", "Sz", "Iz"]
    assert np.array_equal(sweep.values, gold[:, 0])
    table = np.column_stack([sweep.trace(label) for label in gold_header[1:]])
    assert np.max(np.abs(table - gold[:, 1:])) <= 1e-10

    obs = next(obs for obs in system.observables
               if obs.label == cfg.data["outputs"]["fit_observable"])
    f_tilde, n_pi = pseudo_fidelity(sweep, obs.label, (obs.lo, obs.hi))
    gold = json.loads((GOLDEN / "errmap-cell-metrics.json").read_text())["metrics"]
    assert f_tilde == pytest.approx(gold["f_tilde"], abs=1e-10)
    assert n_pi == pytest.approx(gold["n_pi"], abs=1e-10)
    assert n_pi * seq["tau"] == pytest.approx(gold["t_pi"], abs=1e-10)


def test_errmap_cell_matches_golden_f_tilde(tmp_path):
    raw = get_preset("pulse-error-map")
    raw["errmap"] = {"length_factors": [1.1], "freq_factors": [0.99]}
    errmap_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    _, table = read_table(tmp_path / "pulse-error-map-errmap.csv")
    gold = json.loads((GOLDEN / "errmap-cell-metrics.json").read_text())
    assert table[0, 1] == pytest.approx(gold["metrics"]["f_tilde"], abs=1e-10)


def test_errmap_matches_golden_map(tmp_path):
    # every cell: rows walked together on one cache each, fits sharing tables
    errmap_experiment(ExperimentConfig.from_dict(get_preset("pulse-error-map")), tmp_path)
    header, table = read_table(tmp_path / "pulse-error-map-errmap.csv")
    gold_header, gold = read_table(GOLDEN / "pulse-error-map-errmap.csv")
    assert header == gold_header
    assert np.max(np.abs(table - gold)) <= 1e-10


def test_errmap_records_a_failed_sweep_with_the_sweep_n_message(tmp_path):
    raw = get_preset("pulse-error-map")
    raw["errmap"] = {"length_factors": [5.0, 1.0], "freq_factors": [1.0]}
    manifest = errmap_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    _, table = read_table(tmp_path / "pulse-error-map-errmap.csv")
    _, gold = read_table(GOLDEN / "pulse-error-map-errmap.csv")
    assert np.isnan(table[0, 1]) and table[1, 1] == pytest.approx(gold[6, 4], abs=1e-10)
    cfg = ExperimentConfig.from_dict(raw)
    message = error_of(lambda: sweep_n(cfg.build_system(), "xyn", cfg.sweep_values(), 0.5,
                                       cfg.build_pulse(), cfg.sim_config(), length_factor=5.0))
    assert manifest["extras"]["failed_cell_causes"] == [
        {"length_factor": 5.0, "freq_factor": 1.0, "error": "ValueError", "message": message},
    ]


# ---------------------------------------------------------------- prefix products

def per_n_sweep(system, family, n_values, tau, pulse, cfg, lf, ff, cache):
    """Central and target traces and the final states, one compiled sequence per N."""
    compiler = compile_cpmg if family == "cpmg" else compile_xyn
    traces = {obs.label: [] for obs in system.observables}
    states = []
    for n in n_values:
        seq = compiler(int(n), tau, pulse, system.wrapper_phase)
        if lf != 1.0 or ff != 1.0:
            seq = inject_errors(seq, lf, ff)
        rho = apply_sequence(system, seq, cfg, cache).rho_final.mat
        states.append(rho)
        for obs in system.observables:
            traces[obs.label].append(float(np.real(np.trace(rho @ obs.op.mat))))
    return traces, np.array(states)


@pytest.mark.parametrize("family", ["cpmg", "xyn"])
@pytest.mark.parametrize("tau", [0.5, 0.4937])
@pytest.mark.parametrize("factors", [(1.0, 1.0), (1.1, 0.99), (0.8, 1.02)])
def test_sweep_n_equals_per_n_sequences(family, tau, factors):
    n_values = [7, 3, 12, 3, 1, 12, 5, 2]
    cache = PropagatorCache(GENERIC)
    sweep = sweep_n(GENERIC, family, n_values, tau, PI_PULSE, CFG,
                    length_factor=factors[0], freq_factor=factors[1], cache=cache)
    expected, states = per_n_sweep(GENERIC, family, n_values, tau, PI_PULSE, CFG, *factors, cache)
    assert sweep.values.tolist() == [float(n) for n in n_values]
    for label, trace in expected.items():
        assert np.max(np.abs(sweep.trace(label) - trace)) <= 1e-13
    assert sweep.states.shape == states.shape
    assert np.max(np.abs(sweep.states - states)) <= 1e-13


def test_sweep_n_equals_per_n_sequences_on_the_nv_center():
    system = nv_system(NvParams(b0=32.0, theta0=math.radians(2.9)))
    t_pi = 0.01285
    pulse = DrivePulse(27.5683, 1975.6682, 0.0, t_pi)
    cfg = SimConfig(dt=t_pi / 512.0)
    n_values = [4, 1, 6, 4]
    cache = PropagatorCache(system)
    sweep = sweep_n(system, "xyn", n_values, 0.364, pulse, cfg, cache=cache)
    expected, states = per_n_sweep(system, "xyn", n_values, 0.364, pulse, cfg, 1.0, 1.0, cache)
    for label, trace in expected.items():
        assert np.max(np.abs(sweep.trace(label) - trace)) <= 1e-13
    assert sweep.states.shape == states.shape
    assert np.max(np.abs(sweep.states - states)) <= 1e-13


def error_of(fn):
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("family, n_values, tau, factors, dt", [
    ("xyn", [1, 4, 3, 2], 0.2, (1.0, 1.0), 0.001),     # 3 pi/2 closer of n = 3 does not fit
    ("xyn", [4, 3], 0.2, (1.0, 1.0), 0.01),            # dt too coarse, found before n = 3
    ("cpmg", [5, 2], 0.15, (1.3, 1.0), 0.001),         # stretched pulses overlap
    ("cpmg", [2, 3], 0.1, (0.5, 1.0), 0.001),          # the nominal pulses already overlap
    ("cpmg", [2, 3], 0.5, (0.0, 1.0), 0.001),          # non-positive error factor
    ("cpmg", [3], 0.5, (0.3, 1.0), 0.002),             # dt too coarse for the shortened pulse
    ("cpmg", [2, 3], 0.5, (1.0, 1e308), 0.001),        # the carrier overflows to inf
])
def test_sweep_n_raises_what_compiling_each_n_raised(family, n_values, tau, factors, dt):
    cfg = SimConfig(dt=dt)
    expected = error_of(lambda: per_n_sweep(GENERIC, family, n_values, tau, PI_PULSE, cfg,
                                            *factors, PropagatorCache(GENERIC)))
    assert expected is not None
    got = error_of(lambda: sweep_n(GENERIC, family, n_values, tau, PI_PULSE, cfg,
                                   length_factor=factors[0], freq_factor=factors[1]))
    assert got == expected


# ---------------------------------------------------------------- error-cell walk

def outcome(fn):
    """What ``fn`` returns, or the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return exc


def assert_walk_matches_each_cell(family, n_values, tau, cells, failing):
    """The walk against ``sweep_n`` and the per-N sequences of each cell."""
    got = evolution.sweep_n_cells(GENERIC, family, n_values, tau, PI_PULSE, CFG, cells)
    assert len(got) == len(cells)
    for j, ((lf, ff), result) in enumerate(zip(cells, got)):
        alone = outcome(lambda: sweep_n(GENERIC, family, n_values, tau, PI_PULSE, CFG,
                                        length_factor=lf, freq_factor=ff))
        per_n = outcome(lambda: per_n_sweep(GENERIC, family, n_values, tau, PI_PULSE, CFG,
                                            lf, ff, PropagatorCache(GENERIC)))
        if j in failing:
            assert type(result) is ValueError
            assert str(result) == str(alone) == str(per_n)
            continue
        assert result.values.tolist() == [float(n) for n in n_values]
        traces, states = per_n
        for label, trace in traces.items():
            assert np.max(np.abs(result.trace(label) - alone.trace(label))) <= 1e-13
            assert np.max(np.abs(result.trace(label) - trace)) <= 1e-13
        assert np.max(np.abs(result.states - alone.states)) <= 1e-13
        assert np.max(np.abs(result.states - states)) <= 1e-13


SHUFFLED = [7, 3, 12, 3, 1, 12, 5, 2]


@pytest.mark.parametrize("family, n_values, tau, cells, failing", [
    # at 1.0 the opening gap is empty, at 0.9 it is not, at 1.3 it is negative
    ("cpmg", SHUFFLED, 0.15, [(0.9, 1.0), (1.0, 1.0), (1.3, 1.0)], {2}),
    ("cpmg", SHUFFLED, 0.15, [(1.3, 1.0), (1.0, 1.0), (1.3, 0.99)], {0, 2}),
    # both closing classes, a 3 pi/2 closer, one carrier per cell
    ("xyn", SHUFFLED, 0.5, [(1.1, 0.99), (1.1, 1.0), (1.1, 1.02)], set()),
    # at 1.1 only the 3 pi/2 closer of the second class (N = 3) does not fit
    ("xyn", [1, 4, 3, 2], 0.25, [(1.0, 1.0), (1.1, 1.0)], {1}),
    # the nominal 3 pi/2 closer of N = 3 does not fit, the shortened one would
    ("xyn", [1, 4, 3, 2], 0.2, [(0.8, 1.0), (1.0, 1.0)], {0, 1}),
    ("cpmg", SHUFFLED, 0.15, [(1.3, 1.0)], {0}),    # no cell left to walk
])
def test_walk_equals_each_cell_alone(family, n_values, tau, cells, failing):
    assert_walk_matches_each_cell(family, n_values, tau, cells, failing)


def failing_late_builds(monkeypatch, after, message, omegap=None):
    """Make the build of every pulse started after ``after``, on carrier
    ``omegap`` if given, raise.  Compiled sequences give each such pulse a
    shape of its own, a duration 1e-9 longer that its step grid does not
    see, and a plan's route of such a shape raises ``ValueError(message(t))``,
    ``t`` the start of the first pulse compiled with that shape."""
    late, compile_sequence, route = {}, sequences.compile_sequence, PropagatorCache._route

    def compiled(*args, **kwargs):
        seq = compile_sequence(*args, **kwargs)
        t, elements = 0.0, []
        for el in seq.elements:
            start, t = evolution._start(el, t, CFG)
            if start is not None and start > after and omegap in (None, el.omegap):
                el = replace(el, duration=el.duration * (1.0 + 1e-9))
                late.setdefault(round(el.duration, 12), start)
            elements.append(el)
        return replace(seq, elements=tuple(elements))

    def failing(self, shape, *args):
        if shape[0] in late:
            raise ValueError(message(late[shape[0]]))
        return route(self, shape, *args)

    for module in (sequences, evolution):
        monkeypatch.setattr(module, "compile_sequence", compiled)
    monkeypatch.setattr(PropagatorCache, "_route", failing)


def test_a_failing_build_fails_only_its_cell(monkeypatch):
    # only the 1.02 cell's pulses after t = 1.0 fail to build: a walk plans
    # them with every other cell's, the per-N sequences one lookup at a time,
    # and both fail that cell alone, with one message
    failing_late_builds(monkeypatch, 1.0, lambda t: "no pulse after the second", 50.0 * 1.02)
    cells = [(1.1, 0.99), (1.1, 1.02), (1.1, 1.0)]
    assert_walk_matches_each_cell("xyn", [7, 3, 12, 1], 0.5, cells, {1})


# ---------------------------------------------------------------- tau walk

def per_tau_sweep(system, family, n, taus, pulse, cfg, lf, ff, cache):
    """Central and target traces and the final states, one compiled sequence per tau."""
    compiler = compile_cpmg if family == "cpmg" else compile_xyn
    traces = {obs.label: [] for obs in system.observables}
    states = []
    for tau in taus:
        seq = compiler(n, tau, pulse, system.wrapper_phase)
        if lf != 1.0 or ff != 1.0:
            seq = inject_errors(seq, lf, ff)
        rho = apply_sequence(system, seq, cfg, cache).rho_final.mat
        states.append(rho)
        for obs in system.observables:
            traces[obs.label].append(float(np.real(np.trace(rho @ obs.op.mat))))
    return traces, np.array(states)


def assert_sweep_tau_matches_per_tau(system, family, n, taus, pulse, cfg, factors=(1.0, 1.0)):
    sweep = sweep_tau(system, family, n, taus, pulse, cfg, length_factor=factors[0],
                      freq_factor=factors[1])
    expected, states = per_tau_sweep(system, family, n, taus, pulse, cfg, *factors,
                                     PropagatorCache(system))
    assert sweep.values.tolist() == taus
    for label, trace in expected.items():
        assert np.max(np.abs(sweep.trace(label) - trace)) <= 1e-13
    assert sweep.states.shape == states.shape
    assert np.max(np.abs(sweep.states - states)) <= 1e-13


@pytest.mark.parametrize("family, n", [("cpmg", 4), ("xyn", 6), ("xyn", 3)])
@pytest.mark.parametrize("factors", [(1.0, 1.0), (1.1, 0.99), (0.8, 1.02)])
def test_sweep_tau_equals_per_tau_sequences(family, n, factors):
    taus = [0.5, 0.4937, 0.62, 0.45, 0.5, 0.3]  # unsorted, with a repeat
    assert_sweep_tau_matches_per_tau(GENERIC, family, n, taus, PI_PULSE, CFG, factors)


def test_sweep_tau_equals_per_tau_sequences_on_the_nv_center():
    cfg = SimConfig(dt=NV_PI.duration / 512.0)
    assert_sweep_tau_matches_per_tau(NV, "xyn", 8, [0.364, 0.2, 0.41, 0.3655], NV_PI, cfg)


def walked_keys(monkeypatch):
    """Per ``_lookups`` call, one per length factor of a walk, per cell that it
    keyed, the key of each lookup in walk order as its index reads it: a pulse
    key, a delay's duration, or None (an empty delay, or every lookup of a cell
    that failed)."""
    walks, lookups = [], evolution._lookups

    def logged(cache, elements, layout, cfg, errors):
        keys, index = lookups(cache, elements, layout, cfg, errors)
        rows = [None, *keys]
        walks.append({j: [rows[r] for r in row] for j, row in zip(elements, index.tolist())})
        return keys, index

    monkeypatch.setattr(evolution, "_lookups", logged)
    return walks


def sequence_lookups(row, n_values, n):
    """The lookups of walk row ``row`` that the N = ``n`` sequence makes, in its
    order: the pi train up to its n-th pi pulse, then the closing gap and
    wrapper that the walk looks up after that pulse."""
    out, p = [], 0
    for i in range(2 * n + 1):
        out.append(row[p])
        p += 1
        if i % 2 == 0 and i // 2 in n_values:
            p += 2
    return out + row[p - 2:p]


def test_walks_look_up_in_the_order_of_one_sequence_after_another(monkeypatch):
    # the order decides which phases of a shape are built exactly and which
    # come from its interpolant, so it keeps the walk's states bit for bit.
    # Every position of a walk's index holds the lookup that applying its
    # sequence makes there; its plan gets each distinct pulse key once, in
    # first-lookup order with its first pulse, and it asks for each new free
    # duration once, in the same order
    walks, planned = walked_keys(monkeypatch), logged_requests(monkeypatch)
    looked_up, freed = [], []
    pulse, free = PropagatorCache.pulse, PropagatorCache.free

    def logged_pulse(self, drive, t_start, dt):
        looked_up.append((self.pulse_key(drive, t_start, dt), drive))
        return pulse(self, drive, t_start, dt)

    def logged_free(self, duration):
        freed.append(duration)
        looked_up.append((duration, None))
        return free(self, duration)

    monkeypatch.setattr(PropagatorCache, "pulse", logged_pulse)
    monkeypatch.setattr(PropagatorCache, "free", logged_free)

    def applied(seq, cache):
        del looked_up[:]
        apply_sequence(GENERIC, seq, CFG, cache)
        return [key for key, _ in looked_up]

    def first_lookups(keys, drives):
        """The distinct pulse keys of ``keys`` with the pulse of their first
        lookup, and the distinct delay durations, in first-lookup order."""
        pulses = dict.fromkeys(key for key in keys if isinstance(key, tuple))
        return ([(key, drives[key]) for key in pulses],
                list(dict.fromkeys(key for key in keys if isinstance(key, float))))

    taus = [0.5, 0.4937, 0.62, 0.45]
    sweep_tau(GENERIC, "xyn", 6, taus, PI_PULSE, CFG, length_factor=1.1)
    (rows,) = walks
    walked = [key for j in range(len(taus)) for key in rows[j] if key is not None]
    requested, walk_freed = list(planned), list(freed)
    cache, drives = PropagatorCache(GENERIC), {}
    applied_keys = []
    for tau in taus:
        applied_keys += applied(inject_errors(compile_xyn(6, tau, PI_PULSE), 1.1), cache)
        for key, drive in looked_up:
            drives.setdefault(key, drive)
    assert walked == applied_keys
    assert (requested, list(dict.fromkeys(walk_freed))) == first_lookups(walked, drives)

    del walks[:], planned[:], freed[:]
    cells, n_values = [(1.1, 0.99), (1.1, 1.02)], [7, 3, 12]
    evolution.sweep_n_cells(GENERIC, "xyn", n_values, 0.5, PI_PULSE, CFG, cells)
    (rows,) = walks
    requested, walk_freed = list(planned), list(freed)
    cache, drives = PropagatorCache(GENERIC), {}
    for j, (lf, ff) in enumerate(cells):
        for n in n_values:
            keys = applied(inject_errors(compile_xyn(n, 0.5, PI_PULSE), lf, ff), cache)
            walked = [key for key in sequence_lookups(rows[j], n_values, n) if key is not None]
            assert walked == keys
            for key, drive in looked_up:
                drives.setdefault(key, drive)
    walked = [key for j in range(len(cells)) for key in rows[j] if key is not None]
    assert (requested, list(dict.fromkeys(walk_freed))) == first_lookups(walked, drives)


@pytest.mark.parametrize("family, n, taus, factors, dt", [
    ("cpmg", 2, [0.5, 0.08, 0.6], (1.0, 1.0), 0.001),          # the nominal pulses overlap
    ("xyn", 3, [0.3, 0.2, 0.1], (1.0, 1.0), 0.001),            # only the 3 pi/2 closer fails
    ("cpmg", 2, [0.5, 0.15, 0.3, 0.1], (1.3, 1.0), 0.001),     # stretched pulses overlap
    ("cpmg", 2, [0.5, 0.6], (0.3, 1.0), 0.002),                # dt too coarse for short pulses
    ("cpmg", 2, [0.5, 0.6], (0.0, 1.0), 0.001),                # non-positive error factor
    ("cpmg", 2, [0.5, math.nan, 0.08], (1.0, 1.0), 0.001),     # a non-finite tau fails first
])
def test_sweep_tau_raises_what_the_first_failing_tau_raises(family, n, taus, factors, dt):
    cfg = SimConfig(dt=dt)
    expected = error_of(lambda: per_tau_sweep(GENERIC, family, n, taus, PI_PULSE, cfg,
                                              *factors, PropagatorCache(GENERIC)))
    assert expected is not None
    got = error_of(lambda: sweep_tau(GENERIC, family, n, taus, PI_PULSE, cfg,
                                     length_factor=factors[0], freq_factor=factors[1]))
    assert got == expected


def test_a_failing_build_fails_its_tau_before_a_later_failing_tau(monkeypatch):
    # tau 0.7's closing wrapper and tau 0.9's last two pulses start after 1.2
    failing_late_builds(monkeypatch, 1.2, lambda t: f"no pulse at {t}")
    taus = [0.5, 0.7, 0.9, 0.08]
    expected = error_of(lambda: per_tau_sweep(GENERIC, "cpmg", 2, taus, PI_PULSE, CFG, 1.0, 1.0,
                                              PropagatorCache(GENERIC)))
    assert expected.startswith("no pulse at 1.4")  # tau 0.7's closing wrapper
    assert error_of(lambda: sweep_tau(GENERIC, "cpmg", 2, taus, PI_PULSE, CFG)) == expected
    # tau 0.9 alone fails at its first late pulse, its last pi pulse
    assert error_of(lambda: sweep_tau(GENERIC, "cpmg", 2, [0.9], PI_PULSE, CFG)).startswith(
        "no pulse at 1.32")


def test_a_bad_state_at_an_earlier_tau_is_raised_before_a_failing_tau(monkeypatch):
    original = PropagatorCache.free

    def free(self, duration):  # tau 0.6's only inner gap
        u = original(self, duration)
        return 1.1 * u if round(duration, 12) == 0.5 else u

    monkeypatch.setattr(PropagatorCache, "free", free)
    taus = [0.5, 0.6, 0.08]
    expected = error_of(lambda: per_tau_sweep(GENERIC, "cpmg", 2, taus, PI_PULSE, CFG, 1.0, 1.0,
                                              PropagatorCache(GENERIC)))
    assert expected.startswith("density matrix trace (1.21")
    assert error_of(lambda: sweep_tau(GENERIC, "cpmg", 2, taus, PI_PULSE, CFG)) == expected


def test_a_bad_state_fails_only_its_own_error_cell(monkeypatch):
    original = PropagatorCache.free

    def free(self, duration):  # the inner gap of the length-1.1 cell only
        u = original(self, duration)
        return 1.1 * u if round(duration, 12) == 0.39 else u

    monkeypatch.setattr(PropagatorCache, "free", free)
    n_values = list(range(1, 9))
    good, bad = evolution.sweep_n_cells(GENERIC, "cpmg", n_values, 0.5, PI_PULSE, CFG,
                                        [(1.0, 1.0), (1.1, 1.0)])
    expected = error_of(lambda: sweep_n(GENERIC, "cpmg", n_values, 0.5, PI_PULSE, CFG,
                                        length_factor=1.1))
    assert expected.startswith("density matrix trace (1.21")
    assert isinstance(bad, ValueError) and str(bad) == expected
    alone = sweep_n(GENERIC, "cpmg", n_values, 0.5, PI_PULSE, CFG)
    assert np.array_equal(good.states, alone.states)


# ---------------------------------------------------------------- phase-keyed cache

def counting_builds(monkeypatch):
    """The rows that caches hand the Trotter kernel as ``(pulse, t_start)``, one
    per built phase, in build order."""
    rows = []
    original = evolution._exact

    def counted(stack, nsteps, coefficients, dt):
        rows.extend((DrivePulse(omega1, omegap, phase, nsteps * dt), t_start)
                    for omega1, omegap, phase, t_start in stack.tolist())
        return original(stack, nsteps, coefficients, dt)

    monkeypatch.setattr(evolution, "_exact", counted)
    return rows


def keyed(cache, pulse, starts, dt):
    """The keyed requests ``(key, pulse)`` of ``pulse`` at ``starts``."""
    return [(cache.pulse_key(pulse, t, dt), pulse) for t in starts]


def test_pulse_cache_shares_builds_across_whole_carrier_periods(monkeypatch):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(GENERIC)
    pulse = DrivePulse(5.0, 50.0, 0.3, 0.1)
    t0 = 0.1374
    starts = (t0, t0 + 7 / 50.0, t0 + 400 / 50.0)
    for t in starts:
        ref = pulse_propagator(GENERIC.h0, pulse, GENERIC.drive_op, t, 0.001).mat
        assert np.max(np.abs(cache.pulse(pulse, t, 0.001) - ref)) <= 1e-11
    assert len(builds) == 1

    off_grid = t0 + 0.0031
    ref = pulse_propagator(GENERIC.h0, pulse, GENERIC.drive_op, off_grid, 0.001).mat
    assert np.max(np.abs(cache.pulse(pulse, off_grid, 0.001) - ref)) <= 1e-11
    assert len(builds) == 2


def test_pulse_cache_wraps_a_full_cycle_to_zero(monkeypatch):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(GENERIC)
    pulse = DrivePulse(5.0, 50.0, 0.0, 0.1)
    # one period minus rounding lands on the same key as the start
    a = cache.pulse(pulse, 0.0, 0.001)
    b = cache.pulse(pulse, 1.0 / 50.0 - 1e-16, 0.001)
    assert len(builds) == 1 and a is b


# ---------------------------------------------------------------- step product

def eigh_amplitude_product(system, omega1, x, dt):
    """Product of the Trotter steps of carrier amplitudes ``x``, in complex
    arithmetic, with one ``eigh`` per step, multiplied in a loop."""
    h = system.h0.mat[None] + (omega1 * x)[:, None, None] * system.drive_op.mat[None]
    w, v = np.linalg.eigh(h)
    step_us = (v * np.exp(-2j * np.pi * dt * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    u = np.eye(system.h0.shape[0], dtype=complex)
    for step in step_us:
        u = step @ u
    return u


def eigh_step_product(system, pulse, t_start, dt):
    """Pulse propagator with one ``eigh`` per Trotter step, multiplied in a loop."""
    steps = int(round(pulse.duration / dt))
    t_mid = t_start + (np.arange(steps) + 0.5) * dt
    x = np.cos(2.0 * np.pi * pulse.omegap * t_mid + pulse.phase)
    return eigh_amplitude_product(system, pulse.omega1, x, dt)


@pytest.mark.parametrize("duration", [0.001, 0.051, 0.1, 0.101, 0.128])
def test_log_depth_step_product_equals_the_sequential_loop(duration):
    pulse = DrivePulse(5.0, 50.0, 0.7, duration)
    u = eigh_step_product(GENERIC, pulse, 0.213, 0.001)
    got = pulse_propagator(GENERIC.h0, pulse, GENERIC.drive_op, 0.213, 0.001).mat
    assert np.max(np.abs(got - u)) <= 1e-13


# ---------------------------------------------------------------- Chebyshev steps

NV = nv_system(NvParams(b0=32.0, theta0=math.radians(2.9)))
NV_PI = DrivePulse(27.5683, 1975.6682, 0.0, 0.01285)
SX_IY = np.zeros((3, 3))
SX_IY[2, 0], SX_IY[0, 1] = 0.2, 0.07  # azx plus an Sx Iy entry: a complex h0
THREE = generic_system(GenericSystemParams(50.0, (TargetParams(1.0, SX_IY),
                                                  TargetParams(1.6, 0.15))))


@pytest.mark.parametrize("system, pulse, dt", [
    (NV, NV_PI, 0.01285 / 512),                             # NV pi pulse, 512 steps
    (GENERIC, DrivePulse(5.0, 50.0, 0.7, 0.07), 0.001),     # length factor 0.7
    (GENERIC, DrivePulse(5.0, 50.0, 0.7, 0.13), 0.001),     # length factor 1.3
    (THREE, DrivePulse(5.0, 50.0, 1.9, 0.1), 0.001),        # 3 qubits, complex coupling
    (GENERIC, DrivePulse(5.0, 50.0, 0.3, 0.1), 0.01),       # coarse dt = t_pulse / 10
    (GENERIC, DrivePulse(5.0, 50.0, 0.3, 0.001), 0.001),    # one step
], ids=["nv-pi", "generic-0.7", "generic-1.3", "three-qubit-complex", "coarse-dt", "one-step"])
def test_chebyshev_steps_match_the_per_step_eigh_product(system, pulse, dt):
    t_start = 0.0173
    ref = eigh_step_product(system, pulse, t_start, dt)
    got = pulse_propagator(system.h0, pulse, system.drive_op, t_start, dt).mat
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert np.max(np.abs(got.conj().T @ got - np.eye(len(got)))) <= 1e-12


@pytest.mark.parametrize("system, omega1, dt, nsteps, bound", [
    (GENERIC, 5.0, 0.001, 100, 1e-13),              # d = 4; measured 6.4e-14
    (NV, 27.5683, 0.01285 / 512, 512, 4.5e-13),     # d = 6; measured 2.8e-13
], ids=["generic", "nv"])
def test_the_real_kernel_is_the_complex_step_product(system, omega1, dt, nsteps, bound):
    # three rows of seeded amplitudes, every step a new point of [-1, 1]; the
    # complex kernel the real one replaced measured the same deviations, and
    # each bound is about 1.5 times its measurement
    x = np.random.default_rng(11).uniform(-1.0, 1.0, (3, nsteps))
    coefficients = evolution._step_coefficients(system.h0, system.drive_op, omega1, dt)[1]
    d = system.h0.shape[0]
    c = coefficients.reshape(-1, 2 * d, 2 * d)  # each c_m as [[Re, -Im], [Im, Re]]
    assert np.array_equal(c[:, :d, :d], c[:, d:, d:])
    assert np.array_equal(c[:, :d, d:], -c[:, d:, :d])
    for u, row in zip(evolution._trotter(x, coefficients), x):
        assert np.max(np.abs(u - eigh_amplitude_product(system, omega1, row, dt))) <= bound


def test_a_fine_step_pi_pulse_stays_unitary():
    # the ddgate pi pulse in 10^4 steps of 1e-5: max|U^H U - 1| measured 4.58e-12
    # here and 4.27e-12 with the complex kernel, whose 1.25 times is the bound
    cfg = ExperimentConfig.from_dict(get_preset("ddgate"))
    system, pulse = cfg.build_system(), cfg.build_pulse()
    u = pulse_propagator(system.h0, pulse, system.drive_op, 0.0, 1e-5).mat
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1.25 * 4.27e-12


@pytest.mark.parametrize("y", [0.0043, 0.0157, 0.157, 0.9, 3.0])
def test_node_count_is_the_smallest_meeting_the_bound(y):
    k = sequences.node_count(y)
    assert 2.0 * y**k / math.factorial(k) <= sequences.CHEB_TOL
    assert 2.0 * y**(k - 1) / math.factorial(k - 1) > sequences.CHEB_TOL


def test_node_counts_of_the_nv_generic_and_coarse_pulses():
    # y = pi dt omega1 |drive_op|_2; |2 Sx| is 2 on the spin-1, 1 on the spin-1/2
    assert sequences.node_count(np.pi * 0.01285 / 512 * 27.5683 * 2.0) == 7
    assert sequences.node_count(np.pi * 0.001 * 5.0) == 8
    assert sequences.node_count(np.pi * 0.01 * 5.0) == 12


def test_an_overflowing_node_bound_raises_at_once():
    # 2 y^K / K! passes 1.8e308 near K = y = 1000 before it falls again
    for y in (1e3, 1.6e8, math.inf, math.nan):
        with pytest.raises(ValueError, match="overflows at y = pi dt omega1 .*lower omega1 or dt"):
            sequences.node_count(y)
    assert sequences.node_count(700.0) == 1938  # the bound peaks below 1.8e308


def test_nv_pulse_eigendecomposes_the_nodes_not_the_steps(monkeypatch):
    seen = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        seen.append(1 if np.ndim(a) == 2 else len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cfg = ExperimentConfig.from_dict(get_preset("nv-ddgate"))
    system, pulse, dt = cfg.build_system(), cfg.build_pulse(), cfg.sim_config().dt
    assert round(pulse.duration / dt) == 512
    pulse_propagator(system.h0, pulse, system.drive_op, 0.0, dt)
    assert seen == [7]  # one batched eigh of the K = 7 nodes, not of 512 steps


# ---------------------------------------------------------------- phase interpolant

NV_HALF = replace(NV_PI, duration=0.01285 / 2.0)
NV_DT = 0.01285 / 512


def keyed_cycles(pulse, t_start):
    """The carrier phase in cycles that ``PropagatorCache.pulse`` keys on."""
    cycles = round((pulse.omegap * t_start + pulse.phase / (2.0 * math.pi)) % 1.0, 12)
    return 0.0 if cycles == 1.0 else cycles


def keyed_build(system, pulse, t_start, dt):
    return phase_build(system, pulse, keyed_cycles(pulse, t_start), dt)


def phase_build(system, pulse, cycles, dt):
    """The exact build of ``pulse`` at the carrier phase ``cycles``, from 0."""
    at_phase = replace(pulse, phase=2.0 * math.pi * cycles)
    return pulse_propagator(system.h0, at_phase, system.drive_op, 0.0, dt).mat


def phase_bound(a, h):
    q = math.e * a / (h + 1)
    return 2.0 * q ** (h + 1) / (1.0 - q) if q < 1.0 else math.inf


@pytest.mark.parametrize("a", [0.0, 0.01, 0.3, np.pi * 0.1 * 5.0, 2.2, 7.0, 40.0])
def test_phase_count_is_the_smallest_meeting_the_bound(a):
    m = sequences.phase_count(a)
    assert m % 2 == 1
    h = (m - 1) // 2
    assert phase_bound(a, h) <= sequences.PHASE_TOL
    assert all(phase_bound(a, j) > sequences.PHASE_TOL for j in range(h))


def test_phase_counts_of_the_nv_and_generic_pulses():
    # a = pi nsteps dt omega1 |drive_op|_2
    assert sequences.phase_count(np.pi * 0.01285 * 27.5683 * 2.0) == 51        # NV pi
    assert sequences.phase_count(np.pi * 0.01285 / 2 * 27.5683 * 2.0) == 39    # NV pi/2
    assert sequences.phase_count(np.pi * 0.1 * 5.0) == 43                      # generic pi


@pytest.mark.parametrize("a", [math.inf, math.nan, 1e300])
def test_an_unreachable_phase_count_raises_at_once(a):
    # at e a = 2.7e300, q = e a / (h + 1) rounds to 1 for every h within reach
    with pytest.raises(ValueError, match="no phase sample count meets the bound at a = "):
        sequences.phase_count(a)


def request_phases(cache, pulse, dt, cycles):
    return [cache.pulse(pulse, c / pulse.omegap, dt) for c in cycles]


@pytest.mark.parametrize("system, pulse, dt, m", [
    (NV, NV_PI, NV_DT, 51),
    (NV, NV_HALF, NV_DT, 39),
    (GENERIC, DrivePulse(5.0, 50.0, 0.0, 0.05), 0.001, 35),    # length factor 0.5
    (GENERIC, DrivePulse(5.0, 50.0, 0.0, 0.13), 0.001, 49),    # length factor 1.3
], ids=["nv-pi", "nv-half-pi", "generic-0.5", "generic-1.3"])
def test_interpolated_entries_match_the_keyed_exact_build(monkeypatch, system, pulse, dt, m):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(system)
    rng = np.random.default_rng(5)
    request_phases(cache, pulse, dt, rng.random(2 * m + 1))
    assert len(builds) == 3 * m
    starts = rng.random(200) / pulse.omegap
    got = [cache.pulse(pulse, t, dt) for t in starts]
    assert len(builds) == 3 * m  # every later phase comes from the interpolant
    worst = max(np.max(np.abs(u - keyed_build(system, pulse, t, dt))) for u, t in zip(got, starts))
    assert worst <= 1e-13


def test_a_shape_switches_to_the_interpolant_after_2m_phases(monkeypatch):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(GENERIC)
    m = 43  # generic pi pulse
    cycles = np.arange(2 * m + 1) / (2 * m + 1) + 0.001
    got = request_phases(cache, PI_PULSE, 0.001, cycles[:2 * m])
    assert len(builds) == 2 * m
    # no samples: each build is one requested phase
    requested = [2.0 * np.pi * keyed_cycles(PI_PULSE, c / PI_PULSE.omegap) for c in cycles[:2 * m]]
    assert [drive.phase for drive, _ in builds] == requested
    # below the switch every entry is the keyed exact build, bit for bit
    for u, c in zip(got, cycles):
        assert np.array_equal(u, keyed_build(GENERIC, PI_PULSE, c / PI_PULSE.omegap, 0.001))
    request_phases(cache, PI_PULSE, 0.001, cycles[:2 * m])  # repeats are cache hits
    assert len(builds) == 2 * m
    request_phases(cache, PI_PULSE, 0.001, cycles[2 * m:])
    assert len(builds) == 3 * m
    samples = [drive.phase for drive, _ in builds[2 * m:]]
    assert samples == pytest.approx([2.0 * np.pi * j / m for j in range(m)], abs=1e-15)


# ---------------------------------------------------------------- walk-planned phases

def logged_requests(monkeypatch):
    """The keyed requests ``(key, pulse)`` handed to ``PropagatorCache.plan``, in order."""
    requests = []
    original = PropagatorCache.plan

    def logged(self, keyed_requests, dt):
        keyed_requests = list(keyed_requests)
        requests.extend(keyed_requests)
        return original(self, keyed_requests, dt)

    monkeypatch.setattr(PropagatorCache, "plan", logged)
    return requests


def preset_inputs(name):
    cfg = ExperimentConfig.from_dict(get_preset(name))
    return cfg, cfg.build_system(), cfg.build_pulse(), cfg.sim_config()


def test_a_tau_sweep_builds_only_the_samples_of_each_shape(monkeypatch):
    cfg, system, pulse, sim = preset_inputs("nv-xyn-spectrum")
    taus = cfg.sweep_values().tolist()
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(system)
    sweep = sweep_tau(system, "xyn", 8, taus, pulse, sim, cache=cache)
    # 1096 pi phases > 2 x 51 and 142 pi/2 phases > 2 x 39: each shape takes its
    # samples, and their 597504 Trotter steps > 21 x 32 block the family, so the
    # shapes' samples are block products and the only builds are the 21 blocks
    assert len(builds) == 21
    assert all(drive.duration == 32 * sim.dt and t_start == 0.0 for drive, t_start in builds)
    assert [drive.phase for drive, _ in builds] == pytest.approx(
        [2.0 * np.pi * j / 21 for j in range(21)], abs=1e-15)
    shapes = sorted((key[0], state.samples, state.built, state.series is not None)
                    for key, state in cache._shapes.items())
    assert shapes == [(round(pulse.duration / 2.0, 12), 39, 0, True),
                      (round(pulse.duration, 12), 51, 0, True)]
    _, states = per_tau_sweep(system, "xyn", 8, taus, pulse, sim, 1.0, 1.0,
                              PropagatorCache(system))
    assert np.max(np.abs(sweep.states - states)) <= 1e-13


def reduced(us):
    """Pairwise product of ``us`` in time order; an odd last factor waits a level."""
    while len(us) > 1:
        paired = us[1::2] @ us[0:len(us) - 1:2]
        us = np.concatenate((paired, us[-1:])) if len(us) % 2 else paired
    return us[0]


def block_product(system, cache, drive, key, dt):
    """A blocked pulse's entry at ``key`` from the cache's own block series: its
    32-step blocks read off the series at their start phases and its trailing
    steps built exactly, multiplied pairwise."""
    cycles, shape = key
    blocks = cache._families[shape[1:]]
    q, r = divmod(round(drive.duration / dt), 32)
    d = system.h0.shape[0]
    starts = (cycles + np.arange(q) * (drive.omegap * 32 * dt)) % 1.0
    us = (np.exp(blocks.harmonics * starts[:, None]) @ blocks.series).reshape(q, d, d)
    if r:
        tail = replace(drive, phase=2.0 * math.pi * cycles, duration=r * dt)
        tail_u = pulse_propagator(system.h0, tail, system.drive_op, q * 32 * dt, dt).mat
        us = np.concatenate((us, tail_u[None]))
    return reduced(us)


@pytest.mark.parametrize("name", ["nv-ddgate", "pulse-error-map"])
def test_a_walk_within_2m_phases_builds_each_phase_exactly(monkeypatch, name):
    cfg, system, pulse, sim = preset_inputs(name)
    seq = cfg.data["sequence"]
    grid = cfg.data.get("errmap")
    cells = [(1.0, 1.0)] if grid is None else [
        (grid["length_factors"][0], ff) for ff in grid["freq_factors"]]  # one row of the error map
    builds, requests = counting_builds(monkeypatch), logged_requests(monkeypatch)
    cache = PropagatorCache(system)
    results = evolution.sweep_n_cells(system, seq["family"], cfg.sweep_values(), seq["tau"],
                                      pulse, sim, cells, cache=cache)
    assert not any(isinstance(result, ValueError) for result in results)
    phases = dict(requests)
    assert all(state.series is None for state in cache._shapes.values())
    assert sum(state.built for state in cache._shapes.values()) == len(phases)
    if name == "pulse-error-map":
        # below M_B x 32 planned steps per family: one exact build per requested phase
        assert len(builds) == len(phases)
        for key, drive in phases.items():
            assert np.array_equal(cache._pulses[key], phase_build(system, drive, key[0], sim.dt))
        return
    # one blocked family: its 21 block samples are the only builds, and each
    # requested phase is a product of blocks (NV pulses are whole blocks)
    assert len(builds) == 21
    assert [drive.phase for drive, _ in builds] == pytest.approx(
        [2.0 * np.pi * j / 21 for j in range(21)], abs=1e-15)
    assert all(drive.duration == 32 * sim.dt for drive, _ in builds)
    for key, drive in phases.items():
        u = cache._pulses[key]
        assert np.array_equal(u, block_product(system, cache, drive, key, sim.dt))
        assert np.max(np.abs(u - phase_build(system, drive, key[0], sim.dt))) <= 1e-13


def test_a_second_walk_counts_only_the_phases_the_cache_lacks(monkeypatch):
    builds, requests = counting_builds(monkeypatch), logged_requests(monkeypatch)
    cache = PropagatorCache(GENERIC)
    # per tau 4 pi phases and one closing pi/2 phase; all taus share the opening one
    taus = [0.4937 + 0.00131 * k for k in range(30)]
    dt = CFG.dt

    def walk(k):
        held = len(builds)
        requests.clear()
        sweep_tau(GENERIC, "cpmg", 4, taus[:k], PI_PULSE, CFG, cache=cache)
        return sorted(drive.duration for drive, _ in builds[held:])

    # 40 x 100 + 11 x 50 planned steps > 29 x 32 block the family: its 29 block
    # samples, then per phase one exact build of the trailing steps, 4 of a pi
    # pulse (3 blocks) and 18 of a pi/2 pulse (1 block)
    assert walk(10) == [4 * dt] * 40 + [18 * dt] * 11 + [32 * dt] * 29
    # 40 pi phases held plus 40 new stay within 2 x 43, though 40 + 80 would not
    assert walk(20) == [4 * dt] * 40 + [18 * dt] * 10
    for key, drive in list(requests):
        u = cache._pulses[key]
        assert np.array_equal(u, block_product(GENERIC, cache, drive, key, dt))
        assert np.max(np.abs(u - phase_build(GENERIC, drive, key[0], dt))) <= 1e-13
    # 80 held plus 40 new do not: the pi shape takes its 43 samples instead
    assert walk(30) == [4 * dt] * 43 + [18 * dt] * 10


def test_a_failing_sample_build_fails_only_the_cells_of_its_shape(monkeypatch):
    failed = []
    original = evolution._step_count  # pulse_propagator's checks, run before any stack

    def failing(h0, drive, *args):
        if drive.omegap == 50.0 * 1.02:
            failed.append((drive.phase, drive.duration))
            raise ValueError("no build on the detuned carrier")
        return original(h0, drive, *args)

    monkeypatch.setattr(evolution, "_step_count", failing)
    # N = 90 at an incommensurate tau: each pi shape has more than 2 x 43 phases,
    # and each family more planned steps than its 29 x 32 block samples
    cells = [(1.0, 1.0), (1.0, 1.02), (1.1, 1.0), (1.0, 1.02)]
    assert_walk_matches_each_cell("xyn", [90, 3, 47], 0.4937, cells, {1, 3})
    cache = PropagatorCache(GENERIC)
    del failed[:]
    builds = counting_builds(monkeypatch)
    evolution.sweep_n_cells(GENERIC, "xyn", [90, 3, 47], 0.4937, PI_PULSE, CFG, cells,
                            cache=cache)
    # one plan checks each detuned shape once, the pi/2 wrapper, the pi pulse and
    # the 3 pi/2 closer, though both detuned cells look them up
    assert [round(duration / CFG.dt) for _, duration in failed] == [50, 100, 150]
    detuned = cache.pulse_key(replace(PI_PULSE, omegap=50.0 * 1.02), 0.0, CFG.dt)[1][1:]
    # no entry or phase series of theirs is kept
    assert [shape for _, shape in cache._pulses if shape[1:] == detuned] == []
    assert [shape for shape in cache._shapes if shape[1:] == detuned] == []
    # each shape is checked before its family's block samples are queued, so the
    # detuned family has no entry and none of its 29 block samples is built
    assert detuned not in cache._families
    assert [drive for drive, _ in builds if drive.omegap == 50.0 * 1.02] == []
    assert 32 in {round(drive.duration / CFG.dt) for drive, _ in builds}  # other families' blocks


def test_every_queued_build_passes_the_step_checks():
    # a plan checks each shape once and queues its builds unchecked: blocks of 32
    # steps, 1 to 31 trailing steps, or the shape's own steps, at cycles in [0, 1)
    rng = np.random.default_rng(23)
    h0, drive_op = GENERIC.h0, GENERIC.drive_op
    for dt in (10.0 ** rng.uniform(-7.0, -1.0, 200)).tolist():
        shape = replace(PI_PULSE, duration=dt * 10.0 ** float(rng.uniform(0.0, 5.0)))
        nsteps = evolution._step_count(h0, shape, drive_op, dt)
        for k in [*range(1, 33), nsteps]:
            cycles = float(rng.uniform(0.0, 1.0))
            queued = replace(shape, duration=k * dt, phase=2.0 * np.pi * cycles)
            assert evolution._step_count(h0, queued, drive_op, dt) == k


def test_a_walk_interrupted_mid_build_leaves_no_route_behind(monkeypatch):
    original = evolution._exact
    calls = []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 1:  # stands in for a KeyboardInterrupt or MemoryError
            raise RuntimeError("interrupted")
        return original(*args)

    monkeypatch.setattr(evolution, "_exact", interrupted)
    cache = PropagatorCache(GENERIC)
    with pytest.raises(RuntimeError, match="interrupted"):
        sweep_n(GENERIC, "xyn", range(1, 91), 0.4937, PI_PULSE, SimConfig(dt=0.001),
                cache=cache)
    monkeypatch.setattr(evolution, "_exact", original)
    builds = counting_builds(monkeypatch)
    # a later lookup is a plan of its own key: one exact build, as on a fresh cache
    u = cache.pulse(PI_PULSE, 0.3 / 50, 0.001)
    assert [round(drive.duration / 0.001) for drive, _ in builds] == [100]
    assert np.array_equal(u, PropagatorCache(GENERIC).pulse(PI_PULSE, 0.3 / 50, 0.001))


def walk_preset(name):
    """One walk of preset ``name``: its sweep, or the first row of its error map."""
    cfg, system, pulse, sim = preset_inputs(name)
    seq, grid = cfg.data["sequence"], cfg.data.get("errmap")
    if grid is not None:
        cells = [(grid["length_factors"][0], ff) for ff in grid["freq_factors"]]
        evolution.sweep_n_cells(system, seq["family"], cfg.sweep_values(), seq["tau"], pulse,
                                sim, cells)
    elif cfg.sweep_axis == "n":
        sweep_n(system, seq["family"], cfg.sweep_values(), seq["tau"], pulse, sim)
    else:
        sweep_tau(system, seq["family"], seq["n"], cfg.sweep_values(), pulse, sim)
    return system, sim.dt


@pytest.mark.parametrize("name, count", [
    ("nv-ddgate", 81), ("pulse-error-map", 40), ("nv-xyn-spectrum", 1238),
    ("cpmg-spectrum", 4),
])
def test_a_plan_does_not_depend_on_request_order(monkeypatch, name, count):
    requests = logged_requests(monkeypatch)
    system, dt = walk_preset(name)
    assert len(requests) == count
    planned = list(requests)
    forward, backward = PropagatorCache(system), PropagatorCache(system)
    assert forward.plan(planned, dt) == {} == backward.plan(planned[::-1], dt)
    assert forward._pulses.keys() == backward._pulses.keys()
    assert all(np.array_equal(u, backward._pulses[key]) for key, u in forward._pulses.items())


def element_keys(cache, seq, cfg):
    """Per element of ``seq`` the key of the reference element loop:
    ``pulse_key`` at the element's ``_start``, a positive delay's duration,
    or None for an empty delay."""
    keys, t = [], 0.0
    for el in seq.elements:
        start, t = evolution._start(el, t, cfg)
        if start is not None:
            keys.append(cache.pulse_key(el, start, cfg.dt))
        else:
            keys.append(el.duration if el.duration > 0 else None)
    return keys


@pytest.mark.parametrize("system, pulse, tau", [
    (GENERIC, PI_PULSE, 0.5), (NV, NV_PI, 0.364)], ids=["generic", "nv"])
def test_a_walk_keys_each_lookup_as_the_element_loop_does(monkeypatch, system, pulse, tau):
    cfg = SimConfig(dt=pulse.duration / (100 if system is GENERIC else 512))
    walks, cache = walked_keys(monkeypatch), PropagatorCache(system)
    # an N walk of error cells; the last cell's pulses overlap, and it is not keyed
    cells = [(1.1, 0.99), (1.0, 1.0), (0.8, 1.02), (tau / pulse.duration, 1.0)]
    n_values = [7, 3, 12]
    results = evolution.sweep_n_cells(system, "xyn", n_values, tau, pulse, cfg, cells,
                                      cache=cache)
    assert [isinstance(result, ValueError) for result in results] == [False] * 3 + [True]
    rows = {j: row for walk in walks for j, row in walk.items()}  # one call per length factor
    assert [list(walk) for walk in walks] == [[0], [1], [2]]
    for j, (lf, ff) in enumerate(cells[:3]):
        for n in n_values:
            seq = inject_errors(compile_xyn(n, tau, pulse, system.wrapper_phase), lf, ff)
            assert sequence_lookups(rows[j], n_values, n) == element_keys(cache, seq, cfg)
    # a tau walk on a fresh cache, whose first two taus' inner gaps are two
    # durations of one key
    del walks[:]
    cache, taus = PropagatorCache(system), [tau, tau + 1e-13, 1.2 * tau, 0.9 * tau]
    sweep_tau(system, "xyn", 6, taus, pulse, cfg, length_factor=1.1, freq_factor=0.99,
              cache=cache)
    (rows,) = walks
    for j, t in enumerate(taus):
        seq = inject_errors(compile_xyn(6, t, pulse, system.wrapper_phase), 1.1, 0.99)
        assert rows[j] == element_keys(cache, seq, cfg)
    first, second = rows[0][3], rows[1][3]
    assert first != second and round(first, 12) == round(second, 12)
    w, v = evolution.eig_hermitian(system.h0)
    built = evolution.eig_propagator(w, v.mat, first)
    assert np.array_equal(cache.free(second), built)
    assert not np.array_equal(evolution.eig_propagator(w, v.mat, second), built)


# ---------------------------------------------------------------- one walk per map

def counted_plans(monkeypatch):
    """The ``dt`` of each ``PropagatorCache.plan`` call, in order."""
    plans, plan = [], PropagatorCache.plan

    def counted(self, requests, dt):
        plans.append(dt)
        return plan(self, requests, dt)

    monkeypatch.setattr(PropagatorCache, "plan", counted)
    return plans


def test_the_map_walk_is_its_row_walks_bit_for_bit(monkeypatch):
    # one walk over all 91 cells makes the plans that 13 walks of one length
    # factor each made, so each cell's traces and states are the same bits
    plans = counted_plans(monkeypatch)
    cfg, system, pulse, sim = preset_inputs("pulse-error-map")
    seq, grid = cfg.data["sequence"], cfg.data["errmap"]
    args = (system, seq["family"], cfg.sweep_values(), seq["tau"], pulse, sim)
    kwargs = {"wrapper_phase": seq["wrapper_phase"], "closing_rule": seq["closing_rule"]}
    cells = list(itertools.product(grid["length_factors"], grid["freq_factors"]))
    whole = evolution.sweep_n_cells(*args, cells, **kwargs)
    assert len(whole) == 91 and len(plans) == len(grid["length_factors"]) == 13
    rows = [sweep for lf in grid["length_factors"] for sweep in evolution.sweep_n_cells(
        *args, [(lf, ff) for ff in grid["freq_factors"]], **kwargs)]
    for walked, row in zip(whole, rows):
        assert np.array_equal(walked.states, row.states)
        assert walked.traces.keys() == row.traces.keys()
        assert all(np.array_equal(walked.traces[k], row.traces[k]) for k in row.traces)


def test_a_tau_sweep_plans_once(monkeypatch):
    plans = counted_plans(monkeypatch)
    sweep_tau(GENERIC, "xyn", 6, [0.5, 0.4937, 0.62, 0.45], PI_PULSE, CFG, length_factor=1.1)
    assert plans == [CFG.dt]


# ---------------------------------------------------------------- memory

@pytest.mark.parametrize("name, bound_mb", [
    ("pulse-error-map", 1.65),      # measured 1.49 MB
    ("nv-xyn-spectrum", 3.1),       # measured 2.81 MB
])
def test_a_warm_pass_stays_within_its_measured_memory(name, bound_mb, tmp_path):
    # the tracemalloc peak of a warm pass, with a margin of about 10 %: the
    # error map's walk holds its (cells, N, d, d) states, and every other
    # stack that spans its cells, lookups, gathered factors, state transforms
    # and checks, stays a fraction of that, so none of them can grow back
    # unseen (the row walks this one replaced peaked at 0.96 and 2.89 MB)
    cfg = ExperimentConfig.from_dict(get_preset(name))
    run = errmap_experiment if name == "pulse-error-map" else run_experiment
    run(cfg, tmp_path / "cold")
    tracemalloc.start()
    try:
        run(cfg, tmp_path / "warm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap thresholds")
def test_a_warm_nv_pass_keeps_its_heap(tmp_path):
    # with the heap thresholds that importing the runner fixes, a warm
    # nv-ddgate pass reuses the heap that the pass before it freed: measured
    # 0 or 1 minor page faults, against 326 when glibc gave the top back
    import resource

    cfg = ExperimentConfig.from_dict(get_preset("nv-ddgate"))
    for k in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(cfg, tmp_path / str(k))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 64


# ---------------------------------------------------------------- block route

NV_3HALF = replace(NV_PI, duration=0.01285 * 1.5)


def test_block_phase_counts_of_the_nv_and_generic_families():
    # M_B = phase_count(32 y), y = pi dt omega1 |drive_op|_2
    assert evolution._BLOCK == 32
    assert sequences.phase_count(32 * np.pi * NV_DT * 27.5683 * 2.0) == 21
    assert sequences.phase_count(32 * np.pi * 0.001 * 5.0) == 29


@pytest.mark.parametrize("system, pulse, dt, nsteps", [
    (NV, NV_HALF, NV_DT, 256),
    (NV, NV_PI, NV_DT, 512),
    (NV, NV_3HALF, NV_DT, 768),
    (GENERIC, DrivePulse(5.0, 50.0, 0.0, 0.13), 0.001, 130),   # 4 blocks and 2 steps
], ids=["nv-half-pi", "nv-pi", "nv-three-half-pi", "generic-1.3"])
def test_block_entries_match_the_exact_build(monkeypatch, system, pulse, dt, nsteps):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(system)
    starts = np.random.default_rng(7).random(40) / pulse.omegap
    cache.plan(keyed(cache, pulse, starts, dt), dt)
    got = [cache.pulse(pulse, t, dt) for t in starts]
    m_b = 21 if system is NV else 29
    assert round(pulse.duration / dt) == nsteps
    assert [drive.duration for drive, _ in builds[:m_b]] == [32 * dt] * m_b
    # after the block samples, one build per phase of the trailing steps, if any
    assert [drive.duration for drive, _ in builds[m_b:]] == [nsteps % 32 * dt] * (
        40 if nsteps % 32 else 0)
    worst = max(np.max(np.abs(u - keyed_build(system, pulse, t, dt))) for u, t in zip(got, starts))
    assert worst <= 1e-13
    assert all(np.array_equal(u, block_product(system, cache, pulse, key, dt))
               for u, (key, _) in zip(got, keyed(cache, pulse, starts, dt)))


def test_a_family_is_blocked_only_above_its_block_samples(monkeypatch):
    builds = counting_builds(monkeypatch)
    cache = PropagatorCache(GENERIC)
    detuned = replace(PI_PULSE, omegap=51.0)
    # 9 x 100 planned steps <= 29 x 32 < 10 x 100
    below = [(PI_PULSE, (k + 0.1) / 9 / 50.0) for k in range(9)]
    above = [(detuned, (k + 0.1) / 10 / 51.0) for k in range(10)]
    cache.plan([(cache.pulse_key(p, t, 0.001), p) for p, t in below + above], 0.001)
    got = [cache.pulse(p, t, 0.001) for p, t in below + above]
    assert [(drive.omegap, drive.duration) for drive, _ in builds] == (
        [(50.0, 0.1)] * 9 + [(51.0, 0.032)] * 29 + [(51.0, 0.004)] * 10)
    for u, (p, t) in zip(got[:9], below):
        assert np.array_equal(u, keyed_build(GENERIC, p, t, 0.001))
    for u, (p, t) in zip(got[9:], above):
        assert np.array_equal(u, block_product(GENERIC, cache, p, cache.pulse_key(p, t, 0.001),
                                               0.001))
        assert np.max(np.abs(u - keyed_build(GENERIC, p, t, 0.001))) <= 1e-13
    # unplanned: the exact family stays exact, the blocked one keeps its series
    del builds[:]
    cache.pulse(PI_PULSE, 0.5 / 50.0, 0.001)
    cache.pulse(detuned, 0.5 / 51.0, 0.001)
    assert [(drive.omegap, drive.duration) for drive, _ in builds] == [
        (50.0, 0.1), (51.0, 0.004)]


@pytest.mark.parametrize("interpolated", [False, True], ids=["blocked", "interpolated"])
@pytest.mark.parametrize("system, pulse, other, dt, m", [
    # one block and 18 trailing steps; 10 pi pulses' 10 x 100 > 29 x 32 steps block the family
    (GENERIC, DrivePulse(5.0, 50.0, 0.0, 0.05), PI_PULSE, 0.001, 35),
    # sixteen blocks; 10 pi/2 pulses' 10 x 256 > 21 x 32 steps block the family
    (NV, NV_PI, NV_HALF, NV_DT, 51),
], ids=["generic-0.5", "nv-pi"])
def test_an_entry_does_not_depend_on_its_stack(system, pulse, other, dt, m, interpolated):
    # the target phase planned alone and among 40 others, forward and reversed, after
    # warm-up plans that block the family and, if interpolated, sample the shape
    rng = np.random.default_rng(13)
    target, others = rng.random(), rng.random(40)
    warm = rng.random(2 * m + 1) if interpolated else rng.random(10)
    warm_pulse = pulse if interpolated else other

    def planned(cycles):
        cache = PropagatorCache(system)
        assert cache.plan(keyed(cache, warm_pulse, warm / warm_pulse.omegap, dt), dt) == {}
        assert cache.plan(keyed(cache, pulse, np.array(cycles) / pulse.omegap, dt), dt) == {}
        cycles, shape = cache.pulse_key(pulse, target / pulse.omegap, dt)
        assert cache._families[shape[1:]].series is not None
        state = cache._shapes[shape]
        assert (state.series is not None) == interpolated
        if interpolated:
            d = system.h0.shape[0]
            expected = (np.exp(state.harmonics * cycles) @ state.series).reshape(d, d)
        else:
            expected = block_product(system, cache, pulse, (cycles, shape), dt)
        return cache._pulses[(cycles, shape)], expected

    among = [*others[:20], target, *others[20:]]
    alone, forward, backward = planned([target]), planned(among), planned(among[::-1])
    for u, expected in (alone, forward, backward):
        assert np.array_equal(u, expected)
        assert np.array_equal(u, alone[0])


# ---------------------------------------------------------------- stacked builds

@pytest.mark.parametrize("system, pulse, dt", [
    (GENERIC, PI_PULSE, 0.001),                              # 100 steps, 5 rows per chunk
    (NV, NV_PI, NV_DT),                                      # 512 steps, 1 row per chunk
    (GENERIC, replace(PI_PULSE, duration=0.032), 0.001),     # one block, 16 rows per chunk
    (GENERIC, replace(PI_PULSE, duration=0.001), 0.001),     # a one-step trailing build
], ids=["generic-pi", "nv-pi", "generic-block", "one-step"])
def test_a_stacked_row_is_the_single_build(monkeypatch, system, pulse, dt):
    coefficients = evolution._step_coefficients(system.h0, system.drive_op, pulse.omega1, dt)[1]
    nsteps = round(pulse.duration / dt)
    per_chunk = max(1, evolution._CHUNK // (nsteps * coefficients[0].nbytes))
    # rows around a chunk boundary, each with its own carrier, phase and start
    rng = np.random.default_rng(17)
    rows = [(replace(pulse, omegap=pulse.omegap * rng.uniform(0.95, 1.05),
                     phase=rng.uniform(0.0, 2.0 * np.pi)), rng.uniform(0.0, 0.5))
            for _ in range(per_chunk + 2)]
    chunks, kernel = [], evolution._trotter

    def counted(x, coefficients):
        chunks.append(len(x))
        return kernel(x, coefficients)

    monkeypatch.setattr(evolution, "_trotter", counted)
    stack = np.array([(drive.omega1, drive.omegap, drive.phase, t_start)
                      for drive, t_start in rows])
    stacked = evolution._exact(stack, nsteps, coefficients, dt)
    assert chunks == ([per_chunk, 2] if per_chunk > 1 else [1, 1, 1])
    monkeypatch.setattr(evolution, "_trotter", kernel)
    for u, (drive, t_start) in zip(stacked, rows):
        alone = pulse_propagator(system.h0, drive, system.drive_op, t_start, dt)
        assert np.array_equal(u, alone.mat)


def test_a_drifting_shape_fails_only_its_own_keys():
    # 1e13 time units at dt = 0.001: the step count cannot resolve the duration
    drifting = replace(PI_PULSE, omegap=51.0, duration=10000000000000.033)
    message = error_of(lambda: pulse_propagator(GENERIC.h0, drifting, GENERIC.drive_op, 0.0,
                                                0.001))
    assert message.startswith("pulse duration 10000000000000.033 drifts")
    cache = PropagatorCache(GENERIC)
    good = keyed(cache, PI_PULSE, [0.1 / 50.0, 0.3 / 50.0], 0.001)
    bad = keyed(cache, drifting, [0.0, 0.2 / 51.0], 0.001)
    failed = cache.plan(good[:1] + bad + good[1:], 0.001)
    assert failed.keys() == {key for key, _ in bad}
    assert all(str(exc) == message for exc in failed.values())
    for key, drive in good:
        assert np.array_equal(cache._pulses[key], phase_build(GENERIC, drive, key[0], 0.001))


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_a_non_finite_pulse_start_is_rejected_before_any_memo(start):
    cache = PropagatorCache(GENERIC)
    cache.pulse(PI_PULSE, 0.1, 0.001)
    rounded, pulses = dict(cache._rounded), dict(cache._pulses)
    for lookup in (cache.pulse_key, cache.pulse):
        with pytest.raises(ValueError,
                           match=f"^carrier phase of the pulse started at {start} is not finite$"):
            lookup(PI_PULSE, start, 0.001)
    assert cache._rounded == rounded and cache._pulses == pulses


def test_a_non_finite_raw_phase_is_rejected_before_any_memo():
    # 50 * 1e307 overflows, so the raw cycles are nan
    cache = PropagatorCache(GENERIC)
    cache.pulse(PI_PULSE, 0.1, 0.001)
    rounded, pulses = dict(cache._rounded), dict(cache._pulses)
    for lookup in (cache.pulse_key, cache.pulse):
        with pytest.raises(ValueError, match="^carrier phase of the pulse started at 1e[+]307 "):
            lookup(PI_PULSE, 1e307, 0.001)
    assert cache._rounded == rounded and cache._pulses == pulses


def test_an_overflowing_clock_fails_the_walk_as_its_sequence_does():
    # the 5e307 opening gap's free phase overflows before the first pi pulse,
    # which starts at 5e307, finite, where omegap * start is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the walk's running sums overflow silently
        expected = error_of(lambda: apply_sequence(GENERIC, compile_cpmg(3, 1e308, PI_PULSE), CFG))
        assert expected == "free evolution phase of the delay of 5e+307 is not finite"
        assert error_of(lambda: sweep_tau(GENERIC, "cpmg", 3, [1e308], PI_PULSE, CFG)) == expected
        assert error_of(lambda: sweep_n(GENERIC, "cpmg", [3, 4], 1e308, PI_PULSE, CFG)) == expected
        # a later tau is inf: the first failing tau in grid order is raised
        assert error_of(lambda: sweep_tau(GENERIC, "cpmg", 3, [0.5, 1e308, math.inf], PI_PULSE,
                                          CFG)) == expected


def test_a_carrier_phase_that_overflows_fails_the_walk_as_its_sequence_does():
    # at tau 1e305 every free phase is finite, but the 38th pi pulse starts at
    # 3.65e306, where omegap * start overflows and the raw cycles are nan
    expected = "carrier phase of the pulse started at 3.650000000000002e+306 is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: apply_sequence(GENERIC, compile_cpmg(40, 1e305, PI_PULSE), CFG),
                    lambda: sweep_n(GENERIC, "cpmg", [38, 40], 1e305, PI_PULSE, CFG),
                    lambda: sweep_tau(GENERIC, "cpmg", 40, [0.5, 1e305], PI_PULSE, CFG)):
            assert error_of(run) == expected
        # on a carrier of half the frequency no product overflows: that cell walks
        failed, walked = evolution.sweep_n_cells(GENERIC, "cpmg", [38, 40], 1e305, PI_PULSE,
                                                 CFG, [(1.0, 1.0), (1.0, 0.5)])
    assert str(failed) == expected and walked.values.tolist() == [38.0, 40.0]


def test_a_delay_whose_free_phase_overflows_fails_with_its_duration():
    # the 7.5e305 opening gap and the first pi pulse build; the 1.5e306 inner gap's
    # 2 pi duration w overflows
    cache = PropagatorCache(GENERIC)
    expected = "free evolution phase of the delay of 1.5e+306 is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: apply_sequence(GENERIC, compile_cpmg(2, 1.5e306, PI_PULSE), CFG),
                    lambda: sweep_tau(GENERIC, "cpmg", 2, [1.5e306, 1.6e306], PI_PULSE, CFG),
                    lambda: sweep_n(GENERIC, "cpmg", [2, 3], 1.5e306, PI_PULSE, CFG),
                    lambda: cache.plan_free([0.5, 1.5e306])):
            assert error_of(run) == expected
    assert cache._free == {}  # a failed plan builds none of its durations


# ---------------------------------------------------------------- batched fit

def scalar_fit(n, y, value_range):
    """The period scan with one ``lstsq`` per trial period."""
    def lsq(t):
        arg = 2.0 * np.pi * n / t
        design = np.column_stack([np.ones_like(n), np.cos(arg), np.sin(arg)])
        coeff, *_ = np.linalg.lstsq(design, y, rcond=None)
        return coeff, float(np.sqrt(np.mean((y - design @ coeff) ** 2)))

    span = n.max() - n.min()
    best_t, best_rms = None, np.inf
    for t in np.linspace(3.0, 1.5 * span, 600):
        _, rms = lsq(t)
        if rms < best_rms:
            best_t, best_rms = t, rms
    for t in np.linspace(max(2.5, best_t * 0.9), min(1.6 * span, best_t * 1.1), 400):
        _, rms = lsq(t)
        if rms < best_rms:
            best_t, best_rms = t, rms
    coeff, _ = lsq(best_t)
    rng = value_range[1] - value_range[0]
    return min(2.0 * float(np.hypot(coeff[1], coeff[2])) / rng, 1.0), best_t / 2.0


def cosine_sweep(n, period, noise, amp):
    rng = np.random.default_rng(11)
    y = 0.02 + amp * np.cos(2.0 * np.pi * n / period + 0.4) + noise * rng.normal(size=n.size)
    return SweepResult(axis="n", values=n, traces={"Iz": y})


ONE_TO_40 = np.arange(1, 41, dtype=float)


@pytest.mark.parametrize("period, noise, amp, n", [
    pytest.param(24.0, 0.0, 0.45, ONE_TO_40, id="24.0-0.0-0.45"),    # clean
    pytest.param(19.3, 0.03, 0.4, ONE_TO_40, id="19.3-0.03-0.4"),    # noisy
    pytest.param(47.0, 0.01, 0.3, ONE_TO_40, id="47.0-0.01-0.3"),    # longer than the sweep
    pytest.param(7.7, 0.05, 0.5, ONE_TO_40, id="7.7-0.05-0.5"),      # fast, near full contrast
    pytest.param(4.5, 0.01, 0.4, np.arange(1, 7, dtype=float), id="shortest-series"),
    pytest.param(19.3, 0.03, 0.4, np.arange(1, 80, 2, dtype=float), id="stepped-grid"),
    pytest.param(45.0, 0.0, 0.4, ONE_TO_40, id="clean-longer-than-the-span"),
])
def test_batched_fit_equals_scalar_lstsq_scan(period, noise, amp, n):
    sweep = cosine_sweep(n, period, noise, amp)
    got = pseudo_fidelity(sweep, "Iz", (-0.5, 0.5))
    expected = scalar_fit(n, sweep.traces["Iz"], (-0.5, 0.5))
    assert got == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("period, noise", [(19.3, 0.02), (24.0, 0.0), (8.0, 0.02)])
def test_a_trial_period_that_aliases_on_the_grid_is_skipped(period, noise):
    # T = 3 divides every N of the grid, so cos is 1 there and the normal matrix singular
    n = np.arange(3, 61, 3, dtype=float)
    sweep = cosine_sweep(n, period, noise, 0.45)
    got = pseudo_fidelity(sweep, "Iz", (-0.5, 0.5))
    periods, *_, inv = analysis._coarse_tables(n.tobytes())
    assert periods[0] == 3.0 and np.isnan(inv[:, 0]).all()
    assert np.isfinite(inv[:, 1:]).all()
    assert np.isfinite(got).all()
    assert got == pytest.approx(scalar_fit(n, sweep.traces["Iz"], (-0.5, 0.5)), abs=1e-9)


def test_a_warm_fit_calls_nothing_in_linalg(monkeypatch):
    sweep = cosine_sweep(ONE_TO_40, 19.3, 0.03, 0.4)
    warm = pseudo_fidelity(sweep, "Iz", (-0.5, 0.5))

    def refuse(*args, **kwargs):
        raise AssertionError("the fit called np.linalg")

    for name in ("solve", "lstsq", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert pseudo_fidelity(sweep, "Iz", (-0.5, 0.5)) == warm


def test_coarse_fit_tables_are_shared_and_read_only():
    n = ONE_TO_40
    noise = 0.01 * np.random.default_rng(3).normal(size=n.size)
    first = SweepResult("n", n, {"Iz": 0.4 * np.cos(2.0 * np.pi * n / 31.0) + noise})
    second = SweepResult("n", n, {"Iz": 0.45 * np.cos(2.0 * np.pi * n / 17.0 + 0.3)})
    analysis._coarse_tables.cache_clear()
    fresh = pseudo_fidelity(second, "Iz", (-0.5, 0.5))
    analysis._coarse_tables.cache_clear()
    pseudo_fidelity(first, "Iz", (-0.5, 0.5))
    assert pseudo_fidelity(second, "Iz", (-0.5, 0.5)) == fresh  # bit for bit
    info = analysis._coarse_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    tables = analysis._coarse_tables(n.tobytes())
    # the periods, the N x period phasors (cos and sin as their real and imaginary
    # views), five sums and six inverse normal-matrix entries per period
    assert [t.shape for t in tables] == [(600,), (40, 600), (5, 600), (6, 600)]
    for table in tables:
        assert not table.flags.writeable
    # another n replaces the one entry
    pseudo_fidelity(SweepResult("n", n + 1.0, second.traces), "Iz", (-0.5, 0.5))
    assert analysis._coarse_tables.cache_info().currsize == 1
