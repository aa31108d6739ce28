"""Cold-start probe, run by ``bench.py`` in a fresh interpreter.

Usage: ``python3 coldstart.py <src dir> < configs.json``

Times the path behind ``spindd validate`` / ``spindd run`` up to the
first sweep: ``import spindd.cli``, ``ExperimentConfig.from_dict`` of each
generated config (schema validation included), ``config_hash`` and
``build_system``/``build_pulse``.  Prints one JSON line with the stage
times and the location of the imported package.
"""

import json
import sys
import time


def main() -> int:
    src = sys.argv[1]
    raws = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import spindd.cli  # noqa: F401  (the CLI's import chain is what is timed)
    t1 = time.perf_counter()
    from spindd.config import ExperimentConfig

    cfgs = [ExperimentConfig.from_dict(raw) for raw in raws]
    t2 = time.perf_counter()
    hashes = [cfg.config_hash() for cfg in cfgs]
    t3 = time.perf_counter()
    for cfg in cfgs:
        cfg.build_system()
        cfg.build_pulse()
    t4 = time.perf_counter()
    print(json.dumps({
        "package": spindd.__file__,
        "hashes": hashes,
        "cli.import_s": t1 - t0,
        "config.load_s": t2 - t1,
        "config.hash_s": t3 - t2,
        "hamiltonians.build_s": t4 - t3,
        "setup_s": t4 - t0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
