"""The screened, stacked cosine fit against a full-residual scan kept here,
its trig tables against libm, and its fits against the benchmark's
independent oracle."""

import csv
import importlib.util
import math
import sys
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
    """``(rms, period, amp)`` with the explicit residual at every trial period."""
    periods, cos, sin, _, (i00, i01, i02, i11, i12, i22) = tables
    ty, tc, ts = y.sum(), cos @ y, sin @ y
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


@pytest.fixture
def scans(monkeypatch):
    """Per scan its trial period count, the screened ``(rms, period, amp)`` and
    the full scan's."""
    seen, screened = [], analysis._best_fit

    def both(y, tables):
        got = screened(y, tables)
        seen.append((tables[0].size, got, full_scan(y, tables)))
        return got

    monkeypatch.setattr(analysis, "_best_fit", both)
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
            _, cos, sin, *_ = analysis._trig_tables(n, periods)
            want = libm_tables(n, periods)
            assert np.array_equal(cos, want[0]) and np.array_equal(sin, want[1])


EVEN_GRIDS = [pytest.param(n, id=name) for n, name in (
    (ONE_TO_40, "one-to-40"), (STEPPED, "stepped"), (ALIASING, "3-to-60"),
    (ONE_TO_177, "one-to-177"))]


@pytest.mark.parametrize("n", EVEN_GRIDS)
def test_an_even_grid_takes_tables_within_8_m_ulp_of_libm(n):
    # every trial period a fit can take, [2.5, 1.6 span]; measured worst 2.2, 3.6,
    # 4.9 and 2.3 m ulp on these grids, most of it the rounding of libm's own
    # argument 2 pi n / p
    periods = np.linspace(2.5, 1.6 * (n.max() - n.min()), 4000)
    _, cos, sin, *_ = analysis._trig_tables(n, periods)
    want_cos, want_sin = libm_tables(n, periods)
    bound = 8 * n.size * np.finfo(float).eps
    assert np.abs(cos - want_cos).max() <= bound and np.abs(sin - want_sin).max() <= bound
    assert cos.flags.c_contiguous and sin.flags.c_contiguous


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
        assert same(analysis._best_fit(y, tables), full_scan(y, tables))


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
    sizes, build = [], analysis._trig_tables

    def counted(n, periods):
        sizes.append(periods.size)
        return build(n, periods)

    monkeypatch.setattr(analysis, "_trig_tables", counted)
    analysis._coarse_tables.cache_clear()
    manifest = runner.errmap_experiment(ExperimentConfig.from_dict(get_preset("pulse-error-map")),
                                        tmp_path)
    coarse = {got[1] for size, got, _ in scans if size == 600}
    assert manifest["extras"]["failed_cells"] == 0
    assert len(scans) == 182 and all(same(screened, full) for _, screened, full in scans)
    # the coarse table once, then one fine table per distinct coarse best period
    assert sizes == [600] + [400] * len(coarse)
    assert len(coarse) == 66


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
