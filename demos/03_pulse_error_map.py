"""Compare CPMG and XYN robustness against systematic pulse errors.

Every pulse in the sequence is distorted the same way: its length is
multiplied by a factor (flip-angle error) and its carrier frequency by
another (detuning error).  The gate quality is the fitted
pseudo-fidelity of the target oscillation.  CPMG concentrates all
rotations on one axis, so flip-angle errors accumulate; XYN alternates
x and y pulses and cancels them to first order.

This demo drives the same scan through the experiment runner, which
writes a CSV map plus a manifest; rerunning it reproduces the files
byte for byte.

Run: python3 demos/03_pulse_error_map.py
"""

import json
from pathlib import Path

import numpy as np

from spindd.config import ExperimentConfig
from spindd.presets import get_preset
from spindd.runner import errmap_experiment

out_dir = Path("out/pulse-error-map")

raw = get_preset("pulse-error-map")
cfg = ExperimentConfig.from_dict(raw)
manifest = errmap_experiment(cfg, out_dir)
print(f"xyn map: {manifest['extras']['rows']}x{manifest['extras']['cols']} cells, "
      f"F~ range [{manifest['extras']['min_f_tilde']:.3f}, "
      f"{manifest['extras']['max_f_tilde']:.3f}], "
      f"{manifest['extras']['failed_cells']} failed cells")

raw_cpmg = get_preset("pulse-error-map")
raw_cpmg["name"] = "pulse-error-map-cpmg"
raw_cpmg["sequence"]["family"] = "cpmg"
cfg_cpmg = ExperimentConfig.from_dict(raw_cpmg)
manifest_cpmg = errmap_experiment(cfg_cpmg, out_dir)
print(f"cpmg map: F~ range [{manifest_cpmg['extras']['min_f_tilde']:.3f}, "
      f"{manifest_cpmg['extras']['max_f_tilde']:.3f}]")

grid = np.genfromtxt(out_dir / "pulse-error-map-cpmg-errmap.csv",
                     delimiter=",", skip_header=1)[:, 1:]
center = grid[grid.shape[0] // 2, grid.shape[1] // 2]
print(f"\ncpmg holds {center:.3f} at perfect calibration but collapses to "
      f"{np.nanmin(grid):.3f} at the map edge;")
print("xyn stays flat across the whole grid - the alternating axes absorb")
print("the miscalibration instead of accumulating it")
print(f"\nfiles in {out_dir}/:")
for entry in manifest["outputs"] + manifest_cpmg["outputs"]:
    print(f"  {entry['path']}  sha256={entry['sha256'][:12]}")
