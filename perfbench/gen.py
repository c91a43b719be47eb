"""Seeded benchmark inputs: csv series plus INI configs.

The program under test only ever reads these files. The same seed gives
byte-identical files, so two runs of a workload at one seed can be compared
output for output.
"""

from __future__ import annotations

import os

import numpy as np

ETT_CHANNELS = ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]

# Each workload: the generated series (kind, rows), the CLI command, the
# config sections and, optionally, how many independent inputs one benchmark
# run covers and how many of them one child runs. Every config names one seed
# and sets patience >= max_epochs, so the number of epochs never depends on
# the last bit of a validation MSE. host_sensitivity is how a command's time
# scales with the host speed the probe sees (fit_sensitivity.py; README
# "Host speed").
WORKLOADS = {
    "scam_etth1": {
        "series": ("ett", 900),
        "host_sensitivity": 0.6,
        "command": "train",
        "config": {
            "experiment": {"mode": "scam", "mask_dump_samples": 8},
            "data": {"lookback": 96, "horizon": 96},
            "model": {"hidden": 256, "snr": "both", "dim_multiplier": 4,
                      "series_count": 4, "recon_hidden": 64},
            "train": {"lr": 1e-3, "batch_size": 128, "max_epochs": 2, "patience": 2},
        },
    },
    "supervised_snr_etth1": {
        "series": ("ett", 3299),
        "host_sensitivity": 0.3,
        "command": "train",
        "config": {
            "experiment": {"mode": "supervised"},
            "data": {"lookback": 96, "horizon": 96},
            "model": {"hidden": 256, "snr": "both", "dim_multiplier": 4,
                      "series_count": 4, "recon_hidden": 64},
            "train": {"lr": 1e-3, "batch_size": 128, "max_epochs": 3, "patience": 3},
        },
    },
    # The best candidate's test MSE differs by +-10% from one toy series to
    # the next, so a run covers four series and reports their mean.
    "grid_toy": {
        "series": ("toy", 2400),
        "inputs": 4,
        "inputs_per_child": 4,
        "host_sensitivity": 0.85,
        "command": "grid-search",
        "config": {
            "experiment": {"mode": "scam"},
            "data": {"lookback": 32, "horizon": 16},
            "model": {"hidden": 32, "snr": "none", "dim_multiplier": 4,
                      "series_count": 2, "recon_hidden": 16},
            "train": {"batch_size": 64, "max_epochs": 5, "patience": 5,
                      "grid_candidates": 2, "grid_inner_steps": 300,
                      "grid_grad_threshold": 1e-4, "grid_outer_lr": 0.02},
        },
    },
    # Lanczos iteration counts, and with them the run time, swing by +-20%
    # from one checkpoint to the next, so a run diagnoses twelve checkpoints,
    # each trained on its own series, and reports their mean.
    "diagnose_etth1": {
        "series": ("ett", 640),
        "inputs": 12,
        "inputs_per_child": 4,
        "host_sensitivity": 0.5,
        "command": "diagnose",
        "config": {
            "experiment": {"mode": "scam", "mask_dump_samples": 8},
            "data": {"lookback": 96, "horizon": 96},
            "model": {"hidden": 256, "snr": "both", "dim_multiplier": 4,
                      "series_count": 4, "recon_hidden": 64},
            "train": {"lr": 1e-3, "batch_size": 128, "max_epochs": 1, "patience": 1,
                      "sharpness_batch": 16},
        },
    },
}


def ett_series(rows: int, rng: np.random.Generator) -> np.ndarray:
    """(rows, 7) hourly load-like series: daily and weekly cycles plus a
    trend, with seeded per-channel phases, and noise whose scale switches
    between a calm and a volatile regime every 36 hours from a seeded offset.

    Amplitudes, trends and noise levels are fixed per channel, so the
    signal-to-noise ratio, and with it the attainable MSE, is the same at
    every seed; the seed moves phases, regime boundaries and the noise draw.
    """
    t = np.arange(rows, dtype=np.float64)[:, None]
    n = len(ETT_CHANNELS)
    level = np.linspace(-5.0, 15.0, n)
    trend = np.linspace(-2.0, 2.0, n) / rows
    amp_day = np.linspace(1.0, 4.0, n)
    amp_week = np.linspace(2.0, 0.5, n)
    noise = np.linspace(0.5, 1.5, n)
    ph_day, ph_week = rng.uniform(0.0, 2.0 * np.pi, (2, n))
    clean = (level + trend * t
             + amp_day * np.sin(2.0 * np.pi * t / 24.0 + ph_day)
             + amp_week * np.sin(2.0 * np.pi * t / 168.0 + ph_week))
    volatile = ((np.arange(rows) + rng.integers(0, 72)) // 36) % 2 == 1
    scale = np.where(volatile, 1.2, 0.3)[:, None] * noise
    return clean + scale * rng.standard_normal((rows, n))


def toy_series(rows: int, rng: np.random.Generator) -> np.ndarray:
    """(rows, 1) two-tone sinusoid, as the toolkit's own synthetic series,
    whose noise alternates between sigma 0.5 and 0.05 every 200 steps; the
    seed draws the noise."""
    t = np.arange(rows, dtype=np.float64)
    clean = np.sin(2.0 * np.pi * t / 24.0) + 0.5 * np.sin(2.0 * np.pi * t / 96.0)
    sigma = np.where((np.arange(rows) // 200) % 2 == 0, 0.5, 0.05)
    return (clean + sigma * rng.standard_normal(rows))[:, None]


def write_csv(path: str, values: np.ndarray, names: list[str]) -> None:
    stamps = np.datetime64("2016-07-01T00:00") + np.arange(values.shape[0]) * np.timedelta64(1, "h")
    with open(path, "w", newline="") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for stamp, row in zip(stamps, values):
            cells = ",".join(repr(float(v)) for v in row)
            fh.write(f"{str(stamp).replace('T', ' ')}:00,{cells}\n")


def write_config(path: str, sections: dict, source: str, seed: int) -> None:
    sections = {k: dict(v) for k, v in sections.items()}
    sections["experiment"].update({"seeds": seed, "out_dir": "runs"})
    sections["data"]["source"] = source
    with open(path, "w") as fh:
        for name, keys in sections.items():
            fh.write(f"[{name}]\n")
            for k, v in keys.items():
                fh.write(f"{k} = {v}\n")
            fh.write("\n")


def make_inputs(workload: str, seed: int, out_dir: str, index: int = 0) -> tuple[str, int]:
    """Write input number `index` of a workload at a seed as
    <out_dir>/series.csv and <out_dir>/config.ini. Returns the config path
    and the training seed the config names, distinct for each input."""
    spec = WORKLOADS[workload]
    kind, rows = spec["series"]
    train_seed = seed * spec.get("inputs", 1) + index
    rng = np.random.default_rng([seed, index, 7919])
    os.makedirs(out_dir, exist_ok=True)
    if kind == "ett":
        write_csv(os.path.join(out_dir, "series.csv"), ett_series(rows, rng), ETT_CHANNELS)
    else:
        write_csv(os.path.join(out_dir, "series.csv"), toy_series(rows, rng), ["synth"])
    cfg = os.path.join(out_dir, "config.ini")
    write_config(cfg, spec["config"], "series.csv", train_seed)
    return cfg, train_seed
