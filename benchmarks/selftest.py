"""Self-test of the benchmark harness.

Run from the repository root (takes about a minute):

    python3 benchmarks/selftest.py

Checks, on shrunken inputs (a 2x2 error grid, 15 tau points):

1. an untraced and a traced run of each workload print every metric that
   ``BENCHMARK.json`` names, with its unit, plus ``failed_frac``, and find
   no failed operation;
2. two traced runs with the same seed give identical exact counts;
3. a wrong value injected into each kind of output (sweep point, fitted
   gate, errmap cell, nan) trips the correctness gate;
4. in a directory that holds only ``BENCHMARK.json`` and ``benchmarks/``
   the benchmark exits with an error and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bench

SEED = 1
problems = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_printed(workload: str, trace: int, report: dict, result: dict):
    out = io.StringIO()
    bench.print_run(report, result, out)
    lines = [line.split() for line in out.getvalue().splitlines()]
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    for name, unit in {**units, "failed_frac": "ratio"}.items():
        expect(any(tok[:1] == [name] and tok[2:3] == [unit] for tok in lines),
               f"{workload} trace={trace}: prints {name} [{unit}]")
    last = json.loads(out.getvalue().splitlines()[-1])
    expect(sorted(last) == ["attempted", "correct", "failed", "metrics"]
           and set(last["metrics"]) == set(units),
           f"{workload} trace={trace}: last line is the result object")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{workload} trace={trace}: no failed operation")


def check_injection(workload: str):
    _, cases = bench.make_cases(workload, SEED, tiny=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.RUNS))
    try:
        _, manifests, _ = bench.run_pass(cases, scratch)
        outputs = bench.read_outputs(cases, scratch, manifests)
    finally:
        shutil.rmtree(scratch)
    clean = [out["table"].copy() for out in outputs]

    def failures(change=None) -> int:
        for out, table in zip(outputs, clean):
            out["table"] = table.copy()
            if change:
                change(out["table"])
        return len(bench.gate(cases, outputs, SEED))

    def shift(table):
        table[:, 1:] += 1e-6

    def nan(table):
        table[0, 1] = float("nan")

    expect(failures() == 0, f"{workload}: clean outputs pass the gate")
    expect(failures(shift) > 0, f"{workload}: outputs off by 1e-6 are counted as failed")
    expect(failures(nan) > 0, f"{workload}: a nan output is counted as failed")
    fitted = [out["manifest"]["metrics"] for out in outputs
              if out["manifest"]["metrics"].get("f_tilde") is not None]
    for metrics in fitted:
        metrics["f_tilde"] += 1e-6
    if fitted:
        expect(failures() > 0, f"{workload}: a fitted f_tilde off by 1e-6 is counted as failed")


def check_bare_checkout():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=bench.RUNS))
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "benchmarks/bench.py", "--workload", "nv-tau",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package sources the benchmark fails and prints no result")


def main() -> int:
    bench.import_package()
    bench.RUNS.mkdir(exist_ok=True)
    for workload in bench.WORKLOADS:
        report, result = bench.run(workload, SEED, 0, False, tiny=True, cold=1)
        check_printed(workload, 0, report, result)
        first, result = bench.run(workload, SEED, 0, True, tiny=True, cold=1)
        check_printed(workload, 1, first, result)
        second, _ = bench.run(workload, SEED, 0, True, tiny=True, cold=1)
        expect(first["counts"] == second["counts"] and first["counts_repeat_across_passes"],
               f"{workload}: exact counts repeat across traced runs")
        check_injection(workload)
    check_bare_checkout()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
