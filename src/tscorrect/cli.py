"""Command-line entry points.

Subcommands: train, grid-search, diagnose, synth, eval. Experiments are
described by an INI-style config file (key = value sections); command-line
flags override it. Every output lands under <out>/<run-id>/ with a JSON
manifest, per-seed epoch CSVs, checkpoints, and mask dumps. Exit codes:
0 success, 2 configuration/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import losses as LO
from .data import (
    RawSeries,
    SplitSpec,
    SplitWindows,
    SyntheticConfig,
    build_splits,
    flatten_channels,
    load_csv,
    make_synthetic,
    write_csv,
)
from .errors import ConfigError, LoadError
from .models import (
    SNR_CHOICES,
    ModelConfig,
    build_predictor,
    build_recon,
    load_checkpoint,
    restore_models,
    save_checkpoint,
)
from .sharpness import channel_histograms, kl_alignment, lambda_max, predictor_loss_context
from .training import (
    EPOCH_CSV_FIELDS,
    GRID_CSV_FIELDS,
    MODES,
    TrainConfig,
    evaluate,
    train_grid_search,
    train_scam,
    train_supervised,
)
from .autodiff import Tape


def _schema_section(cls, skip: tuple[str, ...] = ()) -> dict:
    """Keys and defaults of a section that mirrors a config dataclass."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


_SCHEMA: dict[str, dict] = {
    # section -> key -> default; a value parses as its default's type
    "experiment": {
        "mode": TrainConfig.mode,
        "seeds": [0],
        "out_dir": "runs",
        "threads": 1,
        "mask_dump_samples": 8,
    },
    "data": {
        "source": "synthetic",
        "has_date_column": True,
        "train_ratio": SplitSpec.train,
        "val_ratio": SplitSpec.val,
        "test_ratio": SplitSpec.test,
        "lookback": ModelConfig.lookback,
        "horizon": ModelConfig.horizon,
        "stride": 1,
    },
    "synthetic": _schema_section(SyntheticConfig),
    "model": _schema_section(ModelConfig, skip=("lookback", "horizon")),
    "train": _schema_section(TrainConfig, skip=("mode", "seed")),
}

_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _parse_value(section: str, key: str, raw: str):
    default = _SCHEMA[section][key]
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() not in _BOOLS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOLS[raw.lower()]
        if isinstance(default, list):
            return [int(tok) for tok in raw.replace(",", " ").split()]
        return type(default)(raw)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None


def load_config(path: str) -> dict:
    """Parse and validate a config file; unknown sections or keys reject."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # a header cannot hold a newline, so [DEFAULT] is a section like any other
    # no interpolation: a '%' in a value, say a path, is that character
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="\n",
                                       interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from None
    cfg = copy.deepcopy(_SCHEMA)
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
            cfg[section][key] = _parse_value(section, key, raw)
    _check(cfg, path)
    # data paths are relative to the config file
    src = cfg["data"]["source"]
    if src != "synthetic" and not os.path.isabs(src):
        cfg["data"]["source"] = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), src))
    return cfg


def _check(cfg: dict, where: str) -> dict:
    """Refuse, as the config is read, every section that would fail only after output exists."""
    e, d = cfg["experiment"], cfg["data"]
    seeds, dumps, threads = e["seeds"], e["mask_dump_samples"], e["threads"]
    if not seeds or min(seeds) < 0 or len(set(seeds)) != len(seeds) or dumps < 0 or threads < 1:
        raise ConfigError(f"{where}: [experiment] needs distinct seeds >= 0, mask_dump_samples >= 0 and "
                          f"threads >= 1, got seeds {seeds}, mask_dump_samples {dumps}, threads {threads}")
    model_config(cfg)
    TrainConfig(mode=e["mode"], **cfg["train"])
    SplitSpec(d["train_ratio"], d["val_ratio"], d["test_ratio"])
    if d["source"] == "synthetic":
        SyntheticConfig(**cfg["synthetic"])
    return cfg


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def data_digest(cfg: dict) -> str:
    src = cfg["data"]["source"]
    if src == "synthetic":
        blob = json.dumps(cfg["synthetic"], sort_keys=True).encode()
        return "synthetic:" + hashlib.sha256(blob).hexdigest()
    h = hashlib.sha256()
    with open(src, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_series(cfg: dict) -> RawSeries:
    src = cfg["data"]["source"]
    if src == "synthetic":
        return make_synthetic(SyntheticConfig(**cfg["synthetic"]))
    return load_csv(src, has_date_column=cfg["data"]["has_date_column"])


def make_bundle(cfg: dict, series: RawSeries) -> SplitWindows:
    d = cfg["data"]
    spec = SplitSpec(d["train_ratio"], d["val_ratio"], d["test_ratio"])
    return build_splits(series, spec, d["lookback"], d["horizon"], d["stride"])


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(
        lookback=cfg["data"]["lookback"],
        horizon=cfg["data"]["horizon"],
        **cfg["model"],
    )


def _atomic_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _dump_masks(out_dir: str, g, f, bundle: SplitWindows, n_samples: int) -> None:
    """Mask dumps for the first validation samples, one CSV per candidate;
    nothing, not even the directory, when there are none to take."""
    ds = bundle.val
    take = min(n_samples, len(ds) * ds.n_channels)
    if take == 0:
        return
    os.makedirs(out_dir, exist_ok=True)
    nwin = (take + ds.n_channels - 1) // ds.n_channels
    x = flatten_channels(ds.x[:nwin])[:take]
    y = flatten_channels(ds.y[:nwin])[:take]
    yhat = f.forward(Tape(record=False), x).value
    cands = g.forward(Tape(record=False), y).value
    ms = LO.compute_masks(cands, yhat, y)
    for i in range(take):
        origin = int(ds.origins[i // ds.n_channels])
        t_index = origin + ds.lookback + np.arange(ds.horizon)
        for s in range(cands.shape[1]):
            row = LO.MaskSet(*(a[i, s] for a in (ms.m, ms.mask, ms.mask_lt, ms.ap, ms.at)), ms.sup[i, 0])
            LO.write_mask_dump(os.path.join(out_dir, f"sample{i}_cand{s}.csv"),
                               t_index, y[i], yhat[i], cands[i, s], row)


def run_seed(cfg: dict, seed: int, seed_dir: str, data: RawSeries | SplitWindows) -> dict:
    """Train one seed on the run's windows, cut here if data is the series;
    returns the manifest summary for this seed."""
    os.makedirs(os.path.join(seed_dir, "checkpoints"), exist_ok=True)
    bundle = make_bundle(cfg, data) if isinstance(data, RawSeries) else data
    mcfg = model_config(cfg)
    mode = cfg["experiment"]["mode"]
    tcfg = TrainConfig(mode=mode, seed=seed, **cfg["train"])
    g = None if mode == "supervised" else build_recon(mcfg, np.random.default_rng([seed, 11]))
    summary: dict = {"seed": seed, "mode": mode, "checkpoint": "checkpoints/best.ckpt"}
    ckpt = os.path.join(seed_dir, "checkpoints", "best.ckpt")
    if mode == "grid_search":
        factory = lambda i: build_predictor(mcfg, np.random.default_rng([seed, 100 + i]))
        # the trainer hands back the best round's predictor and index, with g set to its phi
        f, index, grecords = train_grid_search(bundle, g, factory, tcfg)
        best = grecords[index]
        save_checkpoint(ckpt, mode, mcfg, seed, index, {"predictor": f, "recon": g})
        write_csv(os.path.join(seed_dir, "trajectory.csv"), GRID_CSV_FIELDS,
                  map(dataclasses.astuple, grecords))
        summary.update({
            "candidates": len(grecords),
            "best_candidate": best.index,
            "best_test_mse": best.test_mse,
            "best_test_mae": best.test_mae,
            "trajectory_csv": "trajectory.csv",
        })
        return summary
    f = build_predictor(mcfg, np.random.default_rng([seed, 10]))
    # the trainer restored the best epoch's state and names it, so the header does too
    if g is None:
        index, records = train_supervised(bundle, f, tcfg)
        models = {"predictor": f}
    else:
        index, records = train_scam(bundle, g, f, tcfg)
        models = {"predictor": f, "recon": g}
    best_epoch = records[index]
    save_checkpoint(ckpt, mode, mcfg, seed, index, models)
    if g is not None:
        _dump_masks(os.path.join(seed_dir, "masks"), g, f, bundle,
                    cfg["experiment"]["mask_dump_samples"])
    write_csv(os.path.join(seed_dir, "epochs.csv"), EPOCH_CSV_FIELDS, map(dataclasses.astuple, records))
    summary.update({
        "epochs": len(records),
        "best_epoch": best_epoch.epoch,
        "val_mse": best_epoch.val_mse,
        "val_mae": best_epoch.val_mae,
        "test_mse": best_epoch.test_mse,
        "test_mae": best_epoch.test_mae,
        "epochs_csv": "epochs.csv",
    })
    return summary


def run_experiment(cfg: dict, out_override: str | None = None) -> str:
    """Run all configured seeds and write the run manifest. Returns run dir."""
    out_root = out_override or cfg["experiment"]["out_dir"]
    mode, seeds = cfg["experiment"]["mode"], cfg["experiment"]["seeds"]
    # a series that cannot be read or windowed fails here, before any directory exists;
    # in-process seeds train on these windows, pool workers get the series, not the
    # bundle, whose pickle would copy every window
    series = load_series(cfg)
    bundle = make_bundle(cfg, series)
    digest = config_digest(cfg)
    run_dir = os.path.join(out_root, f"{mode.replace('_', '-')}-{digest[:10]}")
    os.makedirs(run_dir, exist_ok=True)
    seed_dirs = [os.path.join(run_dir, f"seed{seed}") for seed in seeds]
    threads = min(cfg["experiment"]["threads"], len(seeds))
    if threads == 1:
        summaries = [run_seed(cfg, seed, seed_dir, bundle) for seed, seed_dir in zip(seeds, seed_dirs)]
    else:
        import concurrent.futures  # only the pool uses it: 13 ms of import kept off other runs
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            summaries = list(pool.map(functools.partial(run_seed, cfg, data=series), seeds, seed_dirs))
    manifest = {
        "tool": "tscorrect",
        "version": __version__,
        "created_unix": time.time(),
        "mode": mode,
        "config": cfg,
        "config_sha256": digest,
        "data_sha256": data_digest(cfg),
        "seeds": {str(seed): summary for seed, summary in zip(seeds, summaries)},
    }
    _atomic_json(os.path.join(run_dir, "manifest.json"), manifest)
    return run_dir


# ---------------------------------------------------------------------------
# subcommands


def _apply_overrides(cfg: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg["experiment"]["seeds"] = [args.seed]
    if getattr(args, "mode_override", None):
        cfg["experiment"]["mode"] = args.mode_override
    if getattr(args, "snr", None):
        cfg["model"]["snr"] = args.snr
    if getattr(args, "threads", None) is not None:
        cfg["experiment"]["threads"] = args.threads
    if getattr(args, "samples", None) is not None:
        cfg["experiment"]["mask_dump_samples"] = args.samples
    return _check(cfg, "command line")


def cmd_train(args) -> int:
    """`train`, and `grid-search`, which runs grid_search whatever mode the config names."""
    cfg = _apply_overrides(load_config(args.config), args)
    if args.command == "grid-search":
        cfg["experiment"]["mode"] = "grid_search"
    print(run_experiment(cfg, args.out))
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    series = make_synthetic(SyntheticConfig(**cfg["synthetic"]))
    out = args.out or "synthetic.csv"
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    rows = ([t, *row] for t, row in enumerate(series.values.tolist()))
    write_csv(out, ["date", *series.channel_names], rows)
    print(out)
    return 0


def _restore_for(cfg: dict, path: str, split: str, need: tuple[str, ...]):
    """The models of a checkpoint, refused unless it holds those named in
    `need` and was built for the config's lookback and horizon; with the
    config's bundle and that bundle's `split` dataset."""
    mcfg, models = restore_models(*load_checkpoint(path), path)
    d = cfg["data"]
    if (mcfg.lookback, mcfg.horizon) != (d["lookback"], d["horizon"]):
        raise ConfigError(f"checkpoint {path} has lookback/horizon {mcfg.lookback}/{mcfg.horizon}, "
                          f"the config {d['lookback']}/{d['horizon']}")
    if not set(need) <= set(models):
        raise ConfigError(f"checkpoint {path} holds {sorted(models)}, not all of {list(need)}")
    bundle = make_bundle(cfg, load_series(cfg))
    return models, bundle, getattr(bundle, split)


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    models, bundle, ds = _restore_for(cfg, args.checkpoint, args.split, ("predictor",))
    scaler = bundle.scaler if args.raw_units else None
    mse, mae = evaluate(models["predictor"], ds, cfg["train"]["eval_batch"], scaler=scaler)
    print(json.dumps({
        "checkpoint": args.checkpoint,
        "split": args.split,
        "units": "raw" if args.raw_units else "standardized",
        "mse": mse,
        "mae": mae,
        "n_windows": len(ds),
    }, sort_keys=True))
    return 0


def cmd_diagnose(args) -> int:
    if args.breakdown_windows < 1:
        raise ConfigError(f"--breakdown-windows must be >= 1, got {args.breakdown_windows}")
    cfg = _apply_overrides(load_config(args.config), args)
    models, bundle, ds = _restore_for(cfg, args.checkpoint, args.split, ("predictor", "recon"))
    f, g = models["predictor"], models["recon"]
    out = args.out or "diagnosis"
    os.makedirs(out, exist_ok=True)

    _dump_masks(os.path.join(out, "masks"), g, f, bundle, cfg["experiment"]["mask_dump_samples"])

    # loss breakdown over a capped number of windows of the chosen split
    take = min(len(ds), args.breakdown_windows)
    x = flatten_channels(ds.x[:take])
    y = flatten_channels(ds.y[:take])
    cands = g.forward(Tape(record=False), y).value
    mask_mean, _, _, bd = LO.summarize_candidates(cands, f.forward(Tape(record=False), x).value, y)
    breakdown = {
        "split": args.split, "windows": int(take), "candidates": int(cands.shape[1]),
        **dataclasses.asdict(bd),
        "components_total": bd.components_total(),
        "co_objective": bd.loss_rec + bd.loss_pred,
        "mask_rate": float(mask_mean.mean()),
    }
    _atomic_json(os.path.join(out, "breakdown.json"), breakdown)

    if args.sharpness:
        def probe(ctx):  # an entry states the windows its context read
            return {**dataclasses.asdict(lambda_max(ctx)), "windows": ctx.windows}

        ctx = predictor_loss_context(f, ds, cfg["train"]["sharpness_batch"])
        report = {"split": args.split, "loss": "l1", "total": probe(ctx)}
        # masked variants average the same L1 loss under the candidate-mean mask;
        # rebinding ctx frees each context, and its copy of f, before the next probe
        take_s = min(ctx.windows, take)
        w_in = mask_mean[: take_s * ds.n_channels]
        for label, weights in (("masked_in", w_in), ("masked_out", 1.0 - w_in)):
            ctx = predictor_loss_context(f, ds, take_s, point_weights=weights)
            report[label] = probe(ctx)
        _atomic_json(os.path.join(out, "sharpness.json"), report)

    # channel alignment: symmetric KL between channel distributions
    nch = ds.n_channels
    rows = []
    if nch >= 2:
        views = (y, cands.mean(axis=1))  # raw labels and candidate means
        rows = [(i, j, *(kl_alignment(*channel_histograms([v[i::nch].ravel(), v[j::nch].ravel()]))
                         for v in views))
                for i in range(nch) for j in range(i + 1, nch)]
    write_csv(os.path.join(out, "kl_table.csv"),
              ("channel_a", "channel_b", "kl_raw", "kl_candidates"), rows)
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tscorrect",
        description="Train time-series forecasters with self-corrected labels.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    for name, text in (("train", "train per the configured mode"),
                       ("grid-search", "candidate grid search over label sets")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--seed", type=int, default=None, help="run a single seed")
        sp.add_argument("--out", default=None, help="output root directory")
        if name == "train":
            sp.add_argument("--mode-override", dest="mode_override", default=None, choices=MODES)
        sp.add_argument("--snr", default=None, choices=SNR_CHOICES)
        sp.add_argument("--threads", type=int, default=None, help="seed worker pool size")
        sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("synth", help="write the configured synthetic series as CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None, help="output CSV path")
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("eval", help="evaluate a checkpointed predictor")
    sp.add_argument("--config", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--split", default="test", choices=["train", "val", "test"])
    sp.add_argument("--raw-units", dest="raw_units", action="store_true")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("diagnose", help="mask dumps, loss breakdown, curvature, KL tables")
    sp.add_argument("--config", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--split", default="val", choices=["train", "val", "test"])
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--samples", type=int, default=None, help="samples to dump masks for (default: config)")
    sp.add_argument("--breakdown-windows", type=int, default=256)
    sp.add_argument("--sharpness", action="store_true", help="include curvature report")
    sp.set_defaults(fn=cmd_diagnose)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (LoadError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # keep the CLI contract: 1 on runtime failure
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
