"""Benchmark of spindd on the paper's own experiments; see README.md.

Run from the repository root:

    python3 benchmarks/bench.py --workload errmap-xyn --seed 0 --seconds 30 --trace 0

A run times five cold starts in fresh interpreters (``coldstart.py``),
repeats whole workload passes until ``--seconds`` are used, then checks the
outputs outside the timed region against ``oracle.py``.  The end-to-end
times are put on a fixed machine-speed scale by ``probe.py``.  With
``--trace 1`` untraced and traced (``spans.py``) passes alternate, no probe
runs, and the per-layer split is reported instead of the end-to-end metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from probe import PERIOD_S, REFERENCE_S, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

COLD_STARTS = 5      # fresh interpreters timed per run for setup_s
GATE_POINTS = 4      # sweep points re-evolved by the oracle per config
GATE_CELLS = 2       # errmap cells whose whole N sweep is re-evolved and re-fitted


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    presets: tuple
    verb: str
    commensurate: bool     # carrier commensurate with tau, the input property it depends on


# errmap-xyn is the only workload whose carrier is commensurate with tau, so
# pulse propagators can repeat there; the NV workloads are the controls
WORKLOADS = {
    "errmap-xyn": Workload(("pulse-error-map",), "errmap", True),
    "nv-nsweep": Workload(("nv-polarize", "nv-ddgate"), "run", False),
    "nv-tau": Workload(("nv-xyn-spectrum",), "run", False),
}

# exact counts, reported apart from the timings; two traced runs with the
# same seed give the same values (runner.bytes_written is not one of them:
# the manifest records the run's wall-clock time)
COUNTS = ("sequences.compile_calls", "sequences.elements", "evolution.pulse_builds",
          "evolution.pulse_requests", "evolution.trotter_steps", "evolution.free_requests",
          "evolution.apply_calls", "evolution.matmuls", "evolution.cached_propagators",
          "analysis.fit_calls")


class SourceMissing(RuntimeError):
    """The package sources are not where the benchmark expects them."""


def import_package():
    """Import spindd from this checkout's ``src`` and nowhere else."""
    if not (SRC / "spindd" / "__init__.py").is_file():
        raise SourceMissing(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spindd

    if Path(spindd.__file__).resolve().parent != (SRC / "spindd").resolve():
        raise SourceMissing(f"spindd imported from {spindd.__file__}, not from {SRC}")
    return spindd


# ---------------------------------------------------------------- inputs

def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """Config dictionaries of one workload; seed 0 is the presets exactly."""
    from spindd.presets import get_preset

    raws = [get_preset(name) for name in WORKLOADS[workload].presets]
    if seed:
        rng = random.Random(seed)
        azx = rng.uniform(0.19, 0.22)
        theta = rng.uniform(2.9, 3.2)
        shift = rng.uniform(-1e-3, 1e-3)   # us; the nv-tau grid step is 2.5e-3 us
        for raw in raws:
            system, seq = raw["system"], raw["sequence"]
            if system["model"] == "generic":
                system["targets"] = [dict(t, azx=azx) for t in system["targets"]]
                continue
            system["theta0_deg"] = theta
            if "tau" in seq:
                seq["tau"] += shift
            else:
                lo, hi, num = seq["tau_range"]
                seq["tau_range"] = [lo + shift, hi + shift, num]
    if tiny:
        for raw in raws:
            if "errmap" in raw:
                raw["errmap"] = {"length_factors": [0.95, 1.0], "freq_factors": [0.99, 1.0]}
            if "tau_range" in raw["sequence"]:
                lo, hi, _ = raw["sequence"]["tau_range"]
                raw["sequence"]["tau_range"] = [lo, hi, 15]
    return raws


def commensurate(cfg) -> bool:
    """Whether carrier times tau is an integer at every sweep point."""
    seq = cfg.data["sequence"]
    taus = [float(seq["tau"])] if cfg.sweep_axis == "n" else cfg.sweep_values()
    prods = np.asarray(taus) * float(seq["carrier"])
    return bool(np.all(np.abs(prods - np.round(prods)) < 1e-9))


@dataclass
class Case:
    """One generated config and what the harness needs to check it."""

    cfg: object
    system: object
    verb: str

    @property
    def cells(self) -> list:
        if self.verb != "errmap":
            return [(1.0, 1.0)]
        grid = self.cfg.data["errmap"]
        return [(float(lf), float(ff)) for lf in grid["length_factors"]
                for ff in grid["freq_factors"]]

    @property
    def points(self) -> int:
        return len(self.cfg.sweep_values()) * len(self.cells)

    @property
    def fits(self) -> int:
        if self.verb == "errmap":
            return len(self.cells)
        return int("pseudo-fidelity" in self.cfg.data["outputs"]["metrics"])

    @property
    def csv_name(self) -> str:
        return f"{self.cfg.name}-errmap.csv" if self.verb == "errmap" else f"{self.cfg.name}.csv"


def make_cases(workload: str, seed: int, tiny: bool = False) -> tuple:
    """Generated config dictionaries and their validated cases."""
    from spindd.config import ExperimentConfig

    spec = WORKLOADS[workload]
    raws = generate(workload, seed, tiny)
    cases = []
    for raw in raws:
        cfg = ExperimentConfig.from_dict(raw)
        if commensurate(cfg) != spec.commensurate:
            raise ValueError(f"{cfg.name}: generated config breaks the workload's carrier property")
        cases.append(Case(cfg, cfg.build_system(), spec.verb))
    return raws, cases


# ---------------------------------------------------------------- environment

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spindd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------- timing

def cold_starts(raws: list, count: int, speed=None) -> list:
    """Stage times of ``count`` fresh interpreters set up for ``raws``.

    With a ``speed`` probe, each cold start is bracketed by probe bursts and
    its ``setup_s`` is also given on the probe's scale as ``setup_scaled_s``.
    """
    probes = []
    for _ in range(count):
        before = speed.burst(8) if speed else []
        proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"), str(SRC)],
                              input=json.dumps(raws), capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        if speed:
            probe["setup_scaled_s"] = scaled(probe["setup_s"], before + speed.burst(8))
        if Path(probe["package"]).resolve().parent != (SRC / "spindd").resolve():
            raise SourceMissing(f"cold start imported {probe['package']}")
        probes.append(probe)
    return probes


def run_pass(cases: list, out_dir: Path, tracer=None, speed=None) -> tuple:
    """One workload pass; returns (wall seconds, manifests, probe durations).

    With a ``speed`` probe, the probe samples the machine's speed inside the
    pass; the durations are those of the probes that ran inside it, and
    their sum is part of the wall seconds.
    """
    from spindd import runner

    calls = []
    for case in cases:
        fn = runner.errmap_experiment if case.verb == "errmap" else runner.run_experiment
        if tracer is not None:
            fn = tracer.wrap("runner.experiment", fn)
        calls.append((fn, case.cfg))
    with speed.sampling() if speed else contextlib.nullcontext([]) as samples:
        start = time.perf_counter()
        manifests = [fn(cfg, out_dir) for fn, cfg in calls]
        end = time.perf_counter()
    return end - start, manifests, [d for t, d in samples if start <= t < end]


def summary(values: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    out = {"n": len(xs), "median": statistics.median(xs), "min": xs[0], "max": xs[-1],
           "samples": list(values)}
    if len(xs) >= 11:
        j = len(xs) - 11
        out["tail"] = {"percentile": round(100.0 * (j + 1) / len(xs), 1), "value": xs[j]}
    return out


# ---------------------------------------------------------------- correctness gate

def read_outputs(cases: list, out_dir: Path, manifests: list) -> list:
    """Parsed CSV tables of one pass, with each config's manifest."""
    outputs = []
    for case, manifest in zip(cases, manifests):
        with open(out_dir / case.csv_name, newline="") as fh:
            rows = list(csv.reader(fh))
        table = np.array([[float(v) for v in row] for row in rows[1:]])
        outputs.append({"header": rows[0], "table": table, "manifest": manifest})
    return outputs


def gate(cases: list, outputs: list, seed: int) -> list:
    """Failed operations found in one pass's outputs, one message each."""
    import oracle

    rng = random.Random(f"gate-{seed}")
    failures = []
    for case, out in zip(cases, outputs):
        seq = case.cfg.data["sequence"]
        dt = case.cfg.sim_config().dt
        values = case.cfg.sweep_values()
        obs = {o.label: o for o in case.system.observables}
        if case.verb == "errmap":
            grid = out["table"][:, 1:].ravel()
            per_cell = len(values) + 1
            for idx in np.flatnonzero(np.isnan(grid)):
                failures += [f"{case.cfg.name}: nan cell {case.cells[idx]}"] * per_cell
            fit_obs = obs[case.cfg.data["outputs"]["fit_observable"]]
            for idx in rng.sample(range(len(case.cells)), min(GATE_CELLS, len(case.cells))):
                lf, ff = case.cells[idx]
                trace = [oracle.observables(case.system, oracle.final_state(
                    case.system, seq, dt, int(n), float(seq["tau"]), lf, ff))[fit_obs.label]
                    for n in values]
                f_tilde, _ = oracle.fit_scan(values, trace, fit_obs.lo, fit_obs.hi)
                if not oracle.agrees(f_tilde, grid[idx]):
                    failures.append(f"{case.cfg.name}: cell {case.cells[idx]} f_tilde "
                                    f"{grid[idx]!r} vs oracle {f_tilde!r}")
            continue

        table = out["table"]
        labels = out["header"][1:]
        if table.shape[0] != len(values):
            failures += [f"{case.cfg.name}: {table.shape[0]} rows for {len(values)} points"] * (
                case.points + case.fits)
            continue
        for i in np.flatnonzero(np.isnan(table).any(axis=1)):
            failures.append(f"{case.cfg.name}: nan at point {values[i]}")
        for i in rng.sample(range(len(values)), min(GATE_POINTS, len(values))):
            if case.cfg.sweep_axis == "n":
                rho = oracle.final_state(case.system, seq, dt, int(values[i]), float(seq["tau"]))
            else:
                rho = oracle.final_state(case.system, seq, dt, int(seq["n"]), float(values[i]))
            expected = oracle.observables(case.system, rho)
            bad = [lab for j, lab in enumerate(labels)
                   if not oracle.agrees(table[i, 1 + j], expected[lab])]
            if bad:
                failures.append(f"{case.cfg.name}: point {values[i]} differs in {bad}")
        if case.fits:
            fit_obs = obs[case.cfg.data["outputs"]["fit_observable"]]
            trace = table[:, 1 + labels.index(fit_obs.label)]
            f_tilde, n_pi = oracle.fit_scan(values, trace, fit_obs.lo, fit_obs.hi)
            got = out["manifest"]["metrics"]
            if not (oracle.agrees(got["f_tilde"], f_tilde) and oracle.agrees(got["n_pi"], n_pi)):
                failures.append(f"{case.cfg.name}: fit (f_tilde, n_pi) = "
                                f"({got['f_tilde']!r}, {got['n_pi']!r}) vs oracle "
                                f"({f_tilde!r}, {n_pi!r})")
    return failures


def _digest(cases: list, out_dir: Path) -> str:
    digest = hashlib.sha256()
    for case in cases:
        digest.update((out_dir / case.csv_name).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- per-layer split

def layer_metrics(totals: dict, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass from its span totals."""
    pp = totals["evolution.pulse_propagator"]
    requests = totals["evolution.cache_pulse"]["calls"]
    free = totals["evolution.cache_free"]
    apply = totals["evolution.apply"]
    steps = pp["attr"]
    return {
        "sequences.compile_s": totals["sequences.compile"]["total_s"],
        "sequences.compile_calls": totals["sequences.compile"]["calls"],
        "sequences.elements": totals["sequences.compile"]["attr"] + totals["sequences.inject"]["attr"],
        "sequences.inject_s": totals["sequences.inject"]["total_s"],
        "evolution.pulse_build_s": pp["total_s"],
        "evolution.pulse_builds": pp["calls"],
        "evolution.pulse_requests": requests,
        "evolution.pulse_reuse": 1.0 - pp["calls"] / requests if requests else 0.0,
        "evolution.trotter_steps": steps,
        "evolution.step_ns": 1e9 * pp["total_s"] / steps if steps else 0.0,
        "evolution.free_s": free["total_s"],
        "evolution.free_requests": free["calls"],
        "evolution.apply_self_s": apply["self_s"],
        "evolution.apply_calls": apply["calls"],
        "evolution.matmuls": apply["attr"],
        "evolution.sweep_self_s": totals["evolution.sweep"]["self_s"],
        "evolution.cached_propagators": pp["calls"] + free["attr"],
        "analysis.fit_s": totals["analysis.fit"]["total_s"],
        "analysis.fit_calls": totals["analysis.fit"]["calls"],
        "analysis.other_s": totals["analysis.other"]["total_s"],
        "runner.self_s": totals["runner.experiment"]["self_s"],
        "runner.bytes_written": bytes_written,
    }


# ---------------------------------------------------------------- one run

def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        cold: int = COLD_STARTS) -> tuple:
    """Measure one workload; returns (report, result)."""
    from probe import SpeedProbe
    from spans import Tracer, patched

    spec = WORKLOADS[workload]
    raws, cases = make_cases(workload, seed, tiny)
    ops_per_pass = sum(c.points + c.fits for c in cases)
    points_per_pass = sum(c.points for c in cases)

    speed = None if trace else SpeedProbe()
    probes = cold_starts(raws, cold, speed)
    hashes = [c.cfg.config_hash() for c in cases]
    if any(p["hashes"] != hashes for p in probes):
        raise ValueError("cold start hashed the generated configs differently")

    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    scaled_walls = []
    probe_means = []
    traced_layers = []
    digests = []
    failed = 0
    first_outputs = None
    errors = []
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            traced = trace and i % 2 == 1
            out_dir = scratch / f"pass{i}"
            try:
                if traced:
                    tracer.current_pass = i
                    with patched(tracer):
                        wall, manifests, _ = run_pass(cases, out_dir, tracer)
                else:
                    wall, manifests, durations = run_pass(cases, out_dir, speed=speed)
            except Exception:  # the program failed: every operation of the pass fails
                errors.append(traceback.format_exc())
                failed += ops_per_pass
                walls[traced].append(float("nan"))
                break
            if speed:
                # a pass shorter than the probe period is scaled by a burst after it
                durations = durations or speed.burst(8)
                own = wall - sum(durations)
                walls[traced].append(own)
                scaled_walls.append(scaled(own, durations))
                probe_means.append(statistics.fmean(durations))
            else:
                walls[traced].append(wall)
            digests.append(_digest(cases, out_dir))
            if first_outputs is None:
                first_outputs = read_outputs(cases, out_dir, manifests)
            if traced:
                written = sum(f.stat().st_size for f in out_dir.iterdir())
                traced_layers.append(layer_metrics(tracer.pass_totals(i), written))
            if i > 0:
                shutil.rmtree(out_dir)
            i += 1
            # stop once one more pass of the same length would end past the deadline
            have_all = walls[False] and (walls[True] or not trace)
            if have_all and time.perf_counter() + wall > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = gate(cases, first_outputs, seed) if first_outputs else []
        # every pass must reproduce the gated pass byte for byte
        for d in digests:
            failed += len(failures) if d == digests[0] else ops_per_pass
        if trace:
            tracer.save(RUNS / f"spans-{workload}-seed{seed}.npz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = len(walls[False]) + len(walls[True])
    attempted = ops_per_pass * passes
    correct = failed == 0 and not errors
    report = {
        "workload": workload,
        "why": WHY[workload],
        "input_property": {"carrier_commensurate_with_tau": spec.commensurate},
        "seed": seed,
        "configs": {c.cfg.name: h for c, h in zip(cases, hashes)},
        "environment": environment(seed),
        "points_per_pass": points_per_pass,
        "operations": {"attempted": attempted, "failed": failed,
                       "failed_frac": failed / attempted},
        "failures": failures[:20],
        "errors": errors,
        "wall_s": summary(walls[False]),
        "setup_s": summary([p["setup_s"] for p in probes]),
    }
    if speed:
        report["probe"] = {"reference_s": REFERENCE_S, "period_s": PERIOD_S,
                           "pass_mean_s": summary(probe_means)}
        report["wall_scaled_s"] = summary(scaled_walls)
        report["setup_scaled_s"] = summary([p["setup_scaled_s"] for p in probes])
    setup_split = {k: statistics.median(p[k] for p in probes)
                   for k in ("cli.import_s", "config.load_s", "config.hash_s",
                             "hamiltonians.build_s")}
    if trace:
        layers = traced_layers[0] if traced_layers else {}
        counts = {k: layers[k] for k in COUNTS if k in layers}
        repeat = all({k: t[k] for k in COUNTS} == counts for t in traced_layers)
        timings = {k: statistics.median(t[k] for t in traced_layers)
                   for k in layers if k not in COUNTS}
        overhead = summary(walls[True])["median"] - report["wall_s"]["median"] \
            if walls[True] else float("nan")
        metrics = {**setup_split, **timings, **counts, "trace.overhead_s": overhead}
        report["traced_wall_s"] = summary(walls[True]) if walls[True] else None
        report["counts"] = counts
        report["counts_repeat_across_passes"] = repeat
        report["spans"] = len(tracer.name)
        units = PER_LAYER_UNITS
    else:
        median_wall = report["wall_scaled_s"]["median"]
        metrics = {
            "wall_s": median_wall,
            "points_per_s": points_per_pass / median_wall,
            "setup_s": report["setup_scaled_s"]["median"],
            "peak_rss_mb": peak_rss_mb,
        }
        report["setup_split"] = setup_split
        units = END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, float("nan")), "unit": unit}
                    for name, unit in units.items()},
    }
    return report, result


def print_run(report: dict, result: dict, out=sys.stdout):
    traced = report.get("traced_wall_s")
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {report['wall_s']['n']} untraced, {traced['n'] if traced else 0} traced",
          file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}", file=out)
    for name in ("wall_scaled_s", "setup_scaled_s", "wall_s", "setup_s", "traced_wall_s"):
        if report.get(name):
            s = report[name]
            tail = (f", p{s['tail']['percentile']:g} {s['tail']['value']:.6g} s" if "tail" in s
                    else ", fewer than 11 samples: no tail percentile")
            print(f"  ({name}: {s['n']} samples, median {s['median']:.6g} s{tail})", file=out)
    ops = report["operations"]
    print(f"  {'failed_frac':30s} {ops['failed_frac']:.6g} ratio "
          f"({ops['failed']} of {ops['attempted']} operations)", file=out)
    print(json.dumps(report, indent=1, default=float), file=out)
    print(json.dumps(result), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        import_package()
    except (ImportError, SourceMissing) as exc:
        print(f"bench: cannot load spindd from this checkout: {exc}", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(report, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
