"""Command-line front end.

Verbs:

* ``run``          execute a sweep config, write CSV traces plus a manifest
* ``errmap``       pseudo-fidelity over a pulse-error grid
* ``validate``     check a config and print its canonical hash
* ``list-presets`` show the built-in experiment configurations

``--config`` accepts either a YAML file path or a preset name.  Exit
codes: 0 on success, 2 for configuration errors, 3 for numeric
failures during a run.  The config, ``--dt`` and ``--out`` are all
checked before any sweep.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .presets import PRESETS, get_preset, list_presets
from .runner import errmap_experiment, run_experiment


def _load_config(spec: str) -> ExperimentConfig:
    path = Path(spec)
    if path.exists():
        return ExperimentConfig.from_yaml(path)
    if spec in PRESETS:
        return ExperimentConfig.from_dict(get_preset(spec))
    raise ConfigError([f"--config: {spec!r} is neither a file nor a preset name"])


def _check_out(out: str) -> None:
    """``--out`` must be a directory, or a path where one can be made."""
    existing = next(path for path in (Path(out), *Path(out).parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError([f"--out: {str(existing)!r} is not a directory"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindd",
        description="pulse-sequence simulator for dynamically decoupled spin gates",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_config(p):
        p.add_argument("--config", required=True,
                       help="YAML config file or preset name")

    for verb, doc in (("run", "execute a sweep and write CSV + manifest"),
                      ("errmap", "scan pulse-length and frequency errors")):
        p = sub.add_parser(verb, help=doc)
        add_config(p)
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--dt", type=float, default=None,
                       help="override the integrator step")

    add_config(sub.add_parser("validate", help="check a config and print its hash"))
    sub.add_parser("list-presets", help="list built-in configurations")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "list-presets":
            for name, description in list_presets():
                print(f"{name:22s} {description}")
            return 0
        cfg = _load_config(args.config)
        if args.verb == "validate":
            print(f"OK {cfg.name} {cfg.config_hash()}")
            return 0
        _check_out(args.out)
        if args.verb == "run":
            manifest = run_experiment(cfg, args.out, dt_override=args.dt)
        else:
            manifest = errmap_experiment(cfg, args.out, dt_override=args.dt)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    for entry in manifest["outputs"]:
        print(f"wrote {Path(args.out) / entry['path']}  sha256={entry['sha256'][:12]}")
    print(f"manifest {Path(args.out) / (cfg.name + '-manifest.json')}  "
          f"hash={manifest['config_hash'][:12]}  {manifest['wall_clock_s']}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
