"""The screened, batched cosine fit against a full-residual scan kept here,
each trace's fit against the same trace fitted alone, its trig tables
against libm, its memory, and its fits against the benchmark's independent
oracle."""

import csv
import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spindd import analysis, runner
from spindd.analysis import SweepResult, pseudo_fidelities, pseudo_fidelity
from spindd.config import ExperimentConfig
from spindd.presets import get_preset

ROOT = Path(__file__).resolve().parent.parent
RANGE = (-0.5, 0.5)


def full_scan(y, tables):
    """``(rms, period, amp)`` with the explicit residual at every trial period
    of one window's ``(periods, phasors, sums, cofactors)``; ``tc`` and ``ts``
    are the screen's own product with the phasors' float view."""
    periods, z, _, (i00, i01, i02, i11, i12, i22) = tables
    cos, sin = z.real.T, z.imag.T
    ty, (tc, ts) = y.sum(), (y @ z.view(float)).reshape(-1, 2).T
    a = i00 * ty + i01 * tc + i02 * ts
    b = i01 * ty + i11 * tc + i12 * ts
    c = i02 * ty + i12 * tc + i22 * ts
    resid = y - a[:, None]
    resid -= b[:, None] * cos
    resid -= c[:, None] * sin
    rms = np.sqrt(np.einsum("ij,ij->i", resid, resid) / y.size)
    rms[np.isnan(rms)] = np.inf
    i = int(np.argmin(rms))
    return float(rms[i]), float(periods[i]), float(np.hypot(b[i], c[i]))


def reference_fit(n, y, value_range):
    """``pseudo_fidelity``'s checks and scans with ``full_scan``: ``(f_tilde,
    n_pi)`` or the error message."""
    n, y = np.asarray(n, dtype=float), np.asarray(y, dtype=float)
    rng = float(value_range[1] - value_range[0])
    if rng <= 0:
        return f"invalid observable range {value_range}"
    if n.size < 6:
        return "need at least 6 points to fit an oscillation"
    if not np.isfinite(y).all():
        return "trace has non-finite values"
    span = n.max() - n.min()
    rms, best_t, amp = full_scan(y, analysis._coarse_tables(n.tobytes()))
    fine = np.linspace(max(2.5, best_t * 0.9), min(1.6 * span, best_t * 1.1), 400)
    refined = full_scan(y, analysis._trig_tables(n, fine))
    if refined[0] < rms:
        rms, best_t, amp = refined
    if best_t > 1.26 * span:
        return (f"series spans {span:.1f} pulses but the best-fit period is "
                f"{best_t:.1f}; sweep does not contain a full oscillation")
    if rms > 0.15 * rng:
        return (f"cosine fit residual {rms:.3g} exceeds 0.15 of the observable range "
                f"{rng:.3g} (period {best_t:.2f}, amplitude {amp:.3g})")
    return min(2.0 * amp / rng, 1.0), best_t / 2.0


def outcome(result):
    return str(result) if isinstance(result, ValueError) else result


def same(a, b):
    """Equal tuples of floats, nan matching nan."""
    return np.array_equal(np.array(a, dtype=float), np.array(b, dtype=float), equal_nan=True)


def window(tables, w):
    """Window ``w`` of a table pass: its periods, phasors, sums and cofactors."""
    periods, z, sums, inv = tables
    if periods.ndim == 1:  # a table of one window
        return tables
    return periods[w], z[:, w], sums[:, w], inv[:, w]


@pytest.fixture
def scans(monkeypatch):
    """Per trace of each batched screen its window's trial period count, the
    screened ``(rms, period, amp)`` and the full scan's on the same window."""
    seen, screened = [], analysis._best_fits

    def both(ys, tables, windows):
        got = screened(ys, tables, windows)
        for y, w, fit in zip(ys, windows, got.T):
            own = window(tables, w)
            seen.append((own[0].size, tuple(fit), full_scan(y, own)))
        return got

    monkeypatch.setattr(analysis, "_best_fits", both)
    return seen


def traces(rng, n, count, noises=(0.0, 1e-9, 0.002, 0.01, 0.03, 0.05)):
    """Seeded cosines of random period, phase, offset and amplitude."""
    out = []
    for k in range(count):
        period = rng.uniform(3.0, 1.6 * (n.max() - n.min()))
        y = (rng.uniform(-0.2, 0.2) + rng.uniform(0.0, 0.5)
             * np.cos(2.0 * np.pi * n / period + rng.uniform(0.0, 2.0 * np.pi)))
        out.append(y + noises[k % len(noises)] * rng.normal(size=n.size))
    return out


ONE_TO_40 = np.arange(1, 41, dtype=float)
STEPPED = np.arange(1, 80, 2, dtype=float)
ALIASING = np.arange(3, 61, 3, dtype=float)
SIX_POINTS = np.arange(1, 7, dtype=float)
ONE_TO_177 = np.arange(1, 178, dtype=float)


def libm_tables(n, periods):
    arg = 2.0 * np.pi * n[None, :] / periods[:, None]
    return np.cos(arg), np.sin(arg)


@pytest.mark.parametrize("n, extra", [
    pytest.param(ONE_TO_40, "constant", id="one-to-40"),
    pytest.param(ALIASING, "aliasing", id="aliasing-3-to-60"),
    pytest.param(STEPPED, "tie", id="stepped"),
    pytest.param(SIX_POINTS, None, id="six-points"),
    pytest.param(np.array([1, 2, 3, 5, 8, 13, 21, 34, 55], dtype=float), "uneven", id="uneven"),
])
def test_the_screened_stacked_fit_is_the_full_scan(n, extra, scans):
    rng = np.random.default_rng(int(n.size * n[1]))
    ys = traces(rng, n, 60)
    if extra == "constant":  # every trial period ties
        ys += [np.full(n.size, v) for v in (0.0, 0.25, -0.4, 1e-300)]
    if extra == "aliasing":  # period 3 aliases on every N; a cosine at it is constant
        ys += [0.4 * np.cos(2.0 * np.pi * n / 3.0), 0.3 * np.cos(2.0 * np.pi * n / 6.0 + 0.2)]
    got = pseudo_fidelities(n, ys, RANGE)
    assert [outcome(g) for g in got] == [reference_fit(n, y, RANGE) for y in ys]
    assert len(scans) == 2 * len(ys)
    assert all(same(screened, full) for _, screened, full in scans)
    if extra == "uneven":  # no phasor products off an evenly spaced grid: libm, bit for bit
        for periods in (analysis._coarse_tables(n.tobytes())[0], np.linspace(2.5, 86.4, 400)):
            _, z, *_ = analysis._trig_tables(n, periods)
            want = libm_tables(n, periods)
            assert np.array_equal(z.real.T, want[0]) and np.array_equal(z.imag.T, want[1])


EVEN_GRIDS = [pytest.param(n, id=name) for n, name in (
    (ONE_TO_40, "one-to-40"), (STEPPED, "stepped"), (ALIASING, "3-to-60"),
    (ONE_TO_177, "one-to-177"))]


@pytest.mark.parametrize("n", EVEN_GRIDS)
def test_an_even_grid_takes_tables_within_8_m_ulp_of_libm(n):
    # every trial period a fit can take, [2.5, 1.6 span]; measured worst 2.2, 3.6,
    # 4.9 and 2.3 m ulp on these grids, most of it the rounding of libm's own
    # argument 2 pi n / p
    periods = np.linspace(2.5, 1.6 * (n.max() - n.min()), 4000)
    _, z, *_ = analysis._trig_tables(n, periods)
    want_cos, want_sin = libm_tables(n, periods)
    bound = 8 * n.size * np.finfo(float).eps
    assert z.shape == (n.size, periods.size)  # N rows, one column per period
    assert np.abs(z.real.T - want_cos).max() <= bound and np.abs(z.imag.T - want_sin).max() <= bound


@pytest.mark.parametrize("n", EVEN_GRIDS)
def test_a_warm_fit_on_an_even_grid_calls_neither_cos_nor_sin(n, monkeypatch):
    y = 0.4 * np.cos(2.0 * np.pi * n / 19.3) + 0.03 * np.random.default_rng(2).normal(size=n.size)
    warm = pseudo_fidelities(n, [y], RANGE)

    def refuse(*args, **kwargs):
        raise AssertionError("the fit called libm trig")

    for name in ("cos", "sin"):
        monkeypatch.setattr(np, name, refuse)
    assert pseudo_fidelities(n, [y], RANGE) == warm


def test_two_periods_that_tie_take_the_first():
    # on odd N the frequencies f and 1/2 - f span one column space (cos flips
    # sign), so their periods T and 2T/(T - 2) fit every trace equally well
    n = np.arange(1, 80, 2, dtype=float)
    rng = np.random.default_rng(5)
    periods = np.array([9.0, 6.0, 7.0, 3.0, 6.0])  # 2 * 6 / (6 - 2) = 3
    tables = analysis._trig_tables(n, periods)
    for k in range(40):
        y = 0.3 * np.cos(2.0 * np.pi * n / 6.0 + k) + 0.01 * k * rng.normal(size=n.size)
        rms = [full_scan(y, analysis._trig_tables(n, periods[i:i + 1]))[0] for i in range(5)]
        assert rms[1] == rms[4] and math.isclose(rms[1], rms[3], rel_tol=1e-9, abs_tol=1e-12)
        got = analysis._best_fits(y[None], tables, np.zeros(1, dtype=int))[:, 0]
        assert same(got, full_scan(y, tables))


def test_each_pseudo_fidelity_message_is_unchanged():
    n = ONE_TO_40
    cases = [
        (np.arange(1, 6, dtype=float), np.cos(np.arange(1, 6)), RANGE),
        (n, np.cos(2.0 * np.pi * n / 200.0), RANGE),                    # no full oscillation
        (n, np.random.default_rng(0).normal(size=n.size), RANGE),       # residual
        (n, np.where(n == 7, np.nan, np.cos(n)), RANGE),
        (n, np.cos(n), (0.5, 0.5)),
    ]
    for values, y, value_range in cases:
        with pytest.raises(ValueError) as info:
            pseudo_fidelity(SweepResult("n", values, {"Iz": y}), "Iz", value_range)
        assert str(info.value) == reference_fit(values, y, value_range)
    # one stack: each trace its own outcome, in order
    ys = [y for values, y, value_range in cases[1:4]] + [np.cos(2.0 * np.pi * n / 17.0)]
    assert [outcome(g) for g in pseudo_fidelities(n, ys, RANGE)] == [
        reference_fit(n, y, RANGE) for y in ys]


def test_the_map_builds_one_fine_table_per_distinct_coarse_period(monkeypatch, tmp_path, scans):
    built, build = [], analysis._trig_tables

    def counted(n, periods):
        built.append(periods)
        return build(n, periods)

    monkeypatch.setattr(analysis, "_trig_tables", counted)
    analysis._coarse_tables.cache_clear()
    manifest = runner.errmap_experiment(ExperimentConfig.from_dict(get_preset("pulse-error-map")),
                                        tmp_path)
    coarse = {got[1] for size, got, _ in scans if size == 600}
    assert manifest["extras"]["failed_cells"] == 0
    assert len(scans) == 182 and all(same(screened, full) for _, screened, full in scans)
    # the coarse table once, then one window of 400 periods per distinct coarse
    # best period, each built once, as many to a table pass as _CHUNK holds
    assert built[0].shape == (600,)
    windows = [tuple(w) for periods in built[1:] for w in periods]
    assert sorted(windows) == sorted(tuple(np.linspace(max(2.5, t * 0.9), min(1.6 * 39, t * 1.1),
                                                       400)) for t in coarse)
    assert len(coarse) == 66
    per_pass = analysis._CHUNK // (16 * 400 * 40)
    assert per_pass > 1 and len(built) == 1 + math.ceil(66 / per_pass)


@pytest.fixture(scope="module")
def map_fit(tmp_path_factory):
    """The error map's N grid, its 91 traces and their range, as the runner fits them."""
    fitted, stacked = [], runner.pseudo_fidelities

    def kept(n, ys, value_range):
        fitted.append((n, ys, value_range))
        return stacked(n, ys, value_range)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "pseudo_fidelities", kept)
        runner.errmap_experiment(ExperimentConfig.from_dict(get_preset("pulse-error-map")),
                                 tmp_path_factory.mktemp("map"))
    (fit,) = fitted
    return fit


def bits(result):
    """A fit's floats as hex, or its error message."""
    return str(result) if isinstance(result, ValueError) else tuple(map(float.hex, result))


def test_each_map_trace_fits_as_it_does_alone(map_fit):
    n, ys, value_range = map_fit
    assert len(ys) == 91
    assert [bits(g) for g in pseudo_fidelities(n, ys, value_range)] == [
        bits(pseudo_fidelities(n, [y], value_range)[0]) for y in ys]


def test_seeded_traces_fit_as_they_do_alone_across_chunk_boundaries():
    n, rng = ONE_TO_40, np.random.default_rng(11)
    # 40 random traces span several coarse chunks; 24 near-copies of one
    # cosine share its coarse best period, so one window's traces span
    # several fine chunks
    base = 0.4 * np.cos(2.0 * np.pi * n / 13.7 + 0.3)
    ys = traces(rng, n, 40) + [base + 1e-4 * rng.normal(size=n.size) for _ in range(24)]
    coarse = analysis._best_fits(np.array(ys), analysis._coarse_tables(n.tobytes()),
                                 np.zeros(len(ys), dtype=int))[1]
    assert len(ys) > analysis._CHUNK // (128 * 600)
    assert np.unique(coarse, return_counts=True)[1].max() > analysis._CHUNK // (128 * 400)
    assert [bits(g) for g in pseudo_fidelities(n, ys, RANGE)] == [
        bits(pseudo_fidelities(n, [y], RANGE)[0]) for y in ys]


def test_a_warm_map_fit_stays_within_its_measured_memory(map_fit):
    # the tracemalloc peak of fitting the map's 91 traces once the coarse
    # table is cached: measured 1.05 MB, a table pass of two windows and a
    # screen chunk, each bounded by _CHUNK; the walk before it peaks at 1.49 MB
    n, ys, value_range = map_fit
    pseudo_fidelities(n, ys, value_range)
    tracemalloc.start()
    try:
        pseudo_fidelities(n, ys, value_range)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6


@pytest.fixture
def oracle(monkeypatch):
    """``benchmarks/oracle.py``, loaded read-only (no bytecode is written)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "benchmarks" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_map_cell_fits_as_the_oracle_does(oracle, monkeypatch, tmp_path):
    fitted, stacked = [], runner.pseudo_fidelities

    def kept(n, ys, value_range):
        fitted.append((n, ys, value_range))
        return stacked(n, ys, value_range)

    monkeypatch.setattr(runner, "pseudo_fidelities", kept)
    cfg = ExperimentConfig.from_dict(get_preset("pulse-error-map"))
    runner.errmap_experiment(cfg, tmp_path)
    with open(tmp_path / "pulse-error-map-errmap.csv", newline="") as fh:
        written = [float(v) for row in list(csv.reader(fh))[1:] for v in row[1:]]
    (n, ys, (lo, hi)), = fitted
    assert len(ys) == len(written) == 91
    for y, f_tilde in zip(ys, written):
        assert math.isfinite(f_tilde)
        assert oracle.agrees(oracle.fit_scan(n, y, lo, hi)[0], f_tilde)


@pytest.mark.parametrize("n, count", [
    pytest.param(ONE_TO_40, 100, id="one-to-40"),
    pytest.param(STEPPED, 100, id="stepped"),
    pytest.param(SIX_POINTS, 60, id="six-points"),
    pytest.param(ONE_TO_177, 40, id="one-to-177"),
])
def test_seeded_traces_fit_as_the_oracle_does(n, count, oracle):
    # the aliasing grid is left out: the oracle's solve raises on its singular T = 3 row
    ys = traces(np.random.default_rng(int(n.size * n[1]) + 7), n, count)
    fitted = [(y, got) for y, got in zip(ys, pseudo_fidelities(n, ys, RANGE))
              if not isinstance(got, ValueError)]
    assert len(fitted) >= count // 3
    for y, got in fitted:
        want = oracle.fit_scan(n, y, *RANGE)
        assert oracle.agrees(got[0], want[0]) and oracle.agrees(got[1], want[1])
