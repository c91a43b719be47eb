"""End-to-end command-line tests, run in process via main(argv).

One small masked-correction training run is shared across the manifest,
eval, and diagnose tests to keep the suite quick.
"""

import argparse
import ast
import glob
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from tscorrect import cli
from tscorrect.cli import load_config, load_series, main, make_bundle, run_experiment
from tscorrect.data import SyntheticConfig, build_splits, load_csv, make_synthetic
from tscorrect.errors import ConfigError
from tscorrect.losses import MASK_DUMP_FIELDS, compute_masks
from tscorrect.models import (SIGMA_FLOOR, ModelConfig, build_predictor, load_checkpoint, restore_models,
                              save_checkpoint, top_singular_pair)
from tscorrect.training import EPOCH_CSV_FIELDS, GRID_CSV_FIELDS, TIMING_FIELDS

BASE_CONFIG = """
[experiment]
mode = scam
seeds = 0
out_dir = {out_dir}
mask_dump_samples = 2

[data]
lookback = 16
horizon = 16

[synthetic]
length = 600
sigma1 = 0.4
sigma2 = 0.05
window_period = 100

[model]
hidden = 8
snr = none
dim_multiplier = 4
series_count = 2
recon_hidden = 8

[train]
batch_size = 64
max_epochs = 2
patience = 2
"""


def write_config(dir_path, text=None, **fmt):
    path = os.path.join(str(dir_path), "exp.ini")
    with open(path, "w") as fh:
        fh.write((text or BASE_CONFIG).format(**fmt))
    return path


@pytest.fixture(scope="module")
def scam_pipeline(tmp_path_factory, capsys=None):
    root = tmp_path_factory.mktemp("cli_scam")
    cfg_path = write_config(root, out_dir=os.path.join(str(root), "runs"))
    rc = main(["train", "--config", cfg_path])
    assert rc == 0
    runs = os.path.join(str(root), "runs")
    run_dir = os.path.join(runs, os.listdir(runs)[0])
    return cfg_path, run_dir


# ---------------------------------------------------------------------------
# configs and exit codes


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        text=BASE_CONFIG + "\n[train]\nlearning_rate = 0.1\n",
        out_dir=str(tmp_path),
    )
    # configparser rejects the duplicate section before our schema does, so
    # use a fresh file with only the bad key
    with open(cfg, "w") as fh:
        fh.write("[train]\nlearning_rate = 0.1\n")
    rc = main(["train", "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 2
    assert "learning_rate" in err and "config error" in err


def test_unknown_section_exits_2(tmp_path, capsys):
    cfg = os.path.join(str(tmp_path), "bad.ini")
    with open(cfg, "w") as fh:
        fh.write("[optimizer]\nlr = 0.1\n")
    assert main(["train", "--config", cfg]) == 2
    assert "optimizer" in capsys.readouterr().err
    # [DEFAULT] is an unknown section too, not defaults for the others
    with open(cfg, "w") as fh:
        fh.write("[DEFAULT]\nlr = 0.1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config(cfg)


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["train", "--config", os.path.join(str(tmp_path), "nope.ini")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_bad_value_type_exits_2(tmp_path, capsys):
    cfg = os.path.join(str(tmp_path), "bad.ini")
    with open(cfg, "w") as fh:
        fh.write("[train]\nmax_epochs = often\n")
    assert main(["train", "--config", cfg]) == 2
    assert "max_epochs" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("seeds", ""),
    ("seeds", "0,0"),
    ("seeds", "1 -2"),
    ("mask_dump_samples", "-1"),
    ("threads", "0"),
])
def test_bad_experiment_value_exits_2_before_any_output(tmp_path, capsys, key, value):
    out = os.path.join(str(tmp_path), "runs")
    # BASE_CONFIG leaves threads at its default, so its line goes in beside the mode
    old = {"seeds": "seeds = 0", "mask_dump_samples": "mask_dump_samples = 2",
           "threads": "mode = scam"}[key]
    new = f"{old}\n{key} = {value}" if key == "threads" else f"{key} = {value}"
    cfg = write_config(tmp_path, text=BASE_CONFIG.replace(old, new), out_dir=out)
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and "config error" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, key", [
    ("horizon = 16", "horizon = 20", "horizon"),  # [model]: four stride-2 levels need 16 | H
    ("[data]\n", "[data]\ntrain_ratio = 0.7\n", "sum to 1"),
    ("[train]\n", "[train]\nlr = 0\n", "learning rates"),
    ("[train]\n", "[train]\nlr = nan\n", "lr = nan"),
    ("[train]\n", "[train]\nadam_eps = 0\n", "adam_eps = 0"),
    ("[train]\n", "[train]\ngrid_outer_lr = inf\n", "grid_outer_lr = inf"),
    ("[train]\n", "[train]\ngrid_grad_threshold = nan\n", "grid_grad_threshold = nan"),
    ("length = 600", "length = 0", "synthetic length"),
    ("length = 600", "length = 600\namp1 = nan", "amp1 = nan"),
    ("sigma2 = 0.05", "sigma2 = inf", "sigma2 = inf"),
    ("length = 600", "length = 600\nseed = -1", "synthetic seed"),
], ids=["model", "data", "train", "train-lr-nan", "train-adam-eps-0", "train-grid-outer-lr-inf",
        "train-grid-grad-threshold-nan", "synthetic", "synthetic-amp1-nan", "synthetic-sigma2-inf",
        "synthetic-seed-negative"])
def test_bad_section_exits_2_before_any_output(tmp_path, capsys, old, new, key):
    out = os.path.join(str(tmp_path), "runs")
    cfg = write_config(tmp_path, text=BASE_CONFIG.replace(old, new), out_dir=out)
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and "config error" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, code", [
    ("length = 600", "length = 40", 2),  # train segment of 24 rows is too short for 16 + 16
    ("[data]\n", "[data]\nstride = 0\n", 2),
    ("[data]\n", "[data]\nsource = nothere.csv\n", 1),
], ids=["short-series", "zero-stride", "missing-csv"])
def test_bad_series_fails_before_any_output(tmp_path, capsys, old, new, code):
    out = os.path.join(str(tmp_path), "runs")
    cfg = write_config(tmp_path, text=BASE_CONFIG.replace(old, new), out_dir=out)
    assert main(["train", "--config", cfg]) == code
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1"],
    ["grid-search", "--seed", "-1"],
    ["train", "--threads", "0"],
])
def test_bad_seed_flag_exits_2_before_any_output(tmp_path, capsys, argv):
    out = os.path.join(str(tmp_path), "runs")
    cfg = write_config(tmp_path, out_dir=out)
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "seeds" in err and "config error" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("mode", ["scam", "co_objective"])
def test_zero_mask_dump_samples_trains_and_dumps_nothing(tmp_path, capsys, mode):
    text = BASE_CONFIG.replace("mask_dump_samples = 2", "mask_dump_samples = 0").replace(
        "mode = scam", f"mode = {mode}").replace("max_epochs = 2", "max_epochs = 1")
    cfg = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    assert main(["train", "--config", cfg]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.load(open(os.path.join(run_dir, "manifest.json")))["seeds"]["0"]["epochs"] == 1
    assert sorted(os.listdir(os.path.join(run_dir, "seed0"))) == ["checkpoints", "epochs.csv"]


def test_missing_checkpoint_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=str(tmp_path))
    rc = main(["eval", "--config", cfg, "--checkpoint",
               os.path.join(str(tmp_path), "none.ckpt")])
    assert rc == 1


def test_eval_refuses_a_bad_section_before_the_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, text=BASE_CONFIG.replace("[train]\n", "[train]\nlr = 0\n"),
                       out_dir=str(tmp_path))
    assert main(["eval", "--config", cfg, "--checkpoint", os.path.join(str(tmp_path), "none.ckpt")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("blocks"),
    lambda h: h.pop("config"),
    lambda h: h["config"].update(dropout=0.1),
    lambda h: h["blocks"][0].update(shape=["x"]),
    lambda h: h["blocks"][0].update(shape=[-1]),
    lambda h: h["config"].update(horizon=20),
    lambda h: h.update(seed="x"),
    lambda h: h["blocks"][0].update(shape=[2 ** 40]),
    lambda h: h["blocks"][0].update(shape=[2 ** 40, 2 ** 20]),
    lambda h: h["config"].update(hidden=8.0),
    lambda h: h["config"].update(hidden=8.5),
    lambda h: h["config"].update(series_count=2.0),
    lambda h: h["config"].update(revin_affine="false"),
], ids=["no-blocks", "no-config", "unknown-config-key", "shape-x", "shape-negative", "horizon-20", "seed-x",
        "shape-huge", "shape-past-index", "hidden-float", "hidden-fraction", "series-count-float",
        "revin-affine-string"])
def test_eval_of_a_malformed_checkpoint_header_exits_1_naming_the_file(tmp_path, capsys, edit):
    cfg = write_config(tmp_path, out_dir=str(tmp_path))
    ckpt = os.path.join(str(tmp_path), "bad.ckpt")
    mc = ModelConfig(lookback=16, horizon=16, hidden=8, snr="none", series_count=2, recon_hidden=8)
    save_checkpoint(ckpt, "supervised", mc, seed=0, epoch=0,
                    models={"predictor": build_predictor(mc, np.random.default_rng(0))})
    raw = open(ckpt, "rb").read()
    hlen = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8 : 8 + hlen])
    edit(header)
    payload = json.dumps(header).encode("utf-8")
    with open(ckpt, "wb") as fh:
        fh.write(len(payload).to_bytes(8, "little") + payload + raw[8 + hlen :])
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ckpt in err


def test_config_defaults_and_overrides(tmp_path):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path))
    cfg = load_config(cfg_path)
    assert cfg["data"]["lookback"] == 16  # overridden
    assert cfg["data"]["stride"] == 1  # schema default
    assert cfg["train"]["lr"] == 1e-3
    assert cfg["experiment"]["seeds"] == [0]


def test_percent_in_a_config_value_is_a_plain_character(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nout_dir = runs%1\n")
    assert load_config(str(path))["experiment"]["out_dir"] == "runs%1"


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini")))


def test_seed_list_accepts_commas_and_whitespace(tmp_path):
    for text in ("0,1,2", "0 1 2", "0, 1, 2"):
        cfg = write_config(tmp_path, text=BASE_CONFIG.replace("seeds = 0", f"seeds = {text}"),
                           out_dir=str(tmp_path))
        assert load_config(cfg)["experiment"]["seeds"] == [0, 1, 2]


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_loads_and_trains(path, tmp_path):
    cfg = load_config(path)
    assert cfg["experiment"]["seeds"]
    if cfg["data"]["source"] != "synthetic":
        return  # needs a dataset that is not shipped
    cfg["experiment"]["seeds"] = cfg["experiment"]["seeds"][:1]
    cfg["train"]["max_epochs"] = 1
    run_dir = run_experiment(cfg, str(tmp_path))
    man = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert list(man["seeds"]) == [str(cfg["experiment"]["seeds"][0])]


def test_in_process_seed_trains_on_the_checked_windows(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "build_splits", lambda *a, **k: calls.append(1) or build_splits(*a, **k))
    cfg = load_config(os.path.join(ROOT, "configs", "toy_regimes.ini"))
    cfg["experiment"]["seeds"], cfg["train"]["max_epochs"] = [0], 1
    run_experiment(cfg, str(tmp_path))
    assert len(calls) == 1


def readme_text() -> str:
    with open(os.path.join(ROOT, "README.md")) as fh:
        return fh.read()


def readme_quickstart(heading: str = "## CLI quickstart") -> list[list[str]]:
    """The commands of README's first sh block after `heading`, continuations joined."""
    block = readme_text().split(heading, 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [argv for argv in lines if argv]


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    shutil.copytree(os.path.join(ROOT, "configs"), tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    commands = readme_quickstart()
    assert [c[:2] for c in commands] == [["tscorrect", "train"], ["ls", "runs/toy/scam-*/seed0/"],
                                         ["tscorrect", "eval"], ["tscorrect", "diagnose"],
                                         ["tscorrect", "grid-search"], ["tscorrect", "synth"]]
    for argv in commands:
        paths = [glob.glob(a) if "*" in a else [a] for a in argv]
        assert all(len(p) == 1 for p in paths), argv  # each glob names one existing path
        argv = [p[0] for p in paths]
        if argv[0] == "ls":
            assert {"checkpoints", "epochs.csv", "masks"} <= set(os.listdir(argv[1]))
        else:
            assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert os.path.exists("toy.csv")


def test_readme_ablation_runs_the_four_variants(tmp_path, capsys):
    commands = readme_quickstart("### Ablation on ETTh1")
    assert all(argv[:2] == ["tscorrect", "train"] for argv in commands)
    assert {argv[argv.index("--config") + 1] for argv in commands} == {"configs/etth1_scam_snr.ini"}
    variants = [tuple(argv[argv.index(f) + 1] for f in ("--mode-override", "--snr")) for argv in commands]
    # criterion 7's variants, in its order
    assert variants == [("supervised", "none"), ("supervised", "both"), ("scam", "none"), ("scam", "both")]
    # the same flags against the test config, which needs no ETTh1 file
    cfg_path = write_config(tmp_path, out_dir=os.path.join(str(tmp_path), "runs"))
    run_dirs = []
    for argv, (mode, snr) in zip(commands, variants):
        at = argv.index("--config")
        flags = argv[2:at] + argv[at + 2:]
        assert main(["train", "--config", cfg_path, *flags, "--seed", "0"]) == 0
        run_dir = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.load(open(os.path.join(run_dir, "manifest.json")))["mode"] == mode
        header, _ = load_checkpoint(os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt"))
        assert header["config"]["snr"] == snr
        run_dirs.append(run_dir)
    assert len(set(run_dirs)) == 4


def not_in_readme(names) -> list[str]:
    """The names README does not hold as a whole word, a flag's dashes included."""
    text = readme_text()
    return sorted(n for n in set(names) if not re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", text))


def parser_names(parser: argparse.ArgumentParser) -> set[str]:
    """Every subcommand and `--` flag of the parser, argparse's own --help aside."""
    names = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                names |= {name} | parser_names(sub)
        names |= {o for o in action.option_strings if o.startswith("--") and o != "--help"}
    return names


def test_readme_names_every_key_flag_and_column(scam_pipeline, diagnosis, tmp_path, capsys):
    cfg_path, run_dir = scam_pipeline
    names = set(cli._SCHEMA) | {key for section in cli._SCHEMA.values() for key in section}
    names |= parser_names(cli.build_parser())
    names |= {*EPOCH_CSV_FIELDS, *GRID_CSV_FIELDS, *MASK_DUMP_FIELDS}
    with open(os.path.join(diagnosis, "kl_table.csv")) as fh:
        names |= set(fh.readline().strip().split(","))
    names |= set(json.load(open(os.path.join(diagnosis, "breakdown.json"))))
    sharpness = json.load(open(os.path.join(diagnosis, "sharpness.json")))
    names |= set(sharpness) | {key for v in sharpness.values() if isinstance(v, dict) for key in v}
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 0
    names |= set(json.loads(capsys.readouterr().out))
    grid_text = BASE_CONFIG.replace("[train]", "[train]\ngrid_candidates = 1\ngrid_inner_steps = 2\n")
    grid_cfg = write_config(tmp_path, text=grid_text, out_dir=os.path.join(str(tmp_path), "runs"))
    assert main(["grid-search", "--config", grid_cfg]) == 0
    grid_dir = capsys.readouterr().out.strip().splitlines()[-1]
    for manifest_dir in (run_dir, grid_dir):
        manifest = json.load(open(os.path.join(manifest_dir, "manifest.json")))
        names |= set(manifest) | set(manifest["seeds"]["0"])
    missing = not_in_readme(names)
    assert not missing, f"README does not name {len(missing)}: {' '.join(missing)}"
    # and the Configuration table names no key that the schema lacks
    rows = re.findall(r"^\| `\[(\w+)\]` \|(.*)\|$", readme_text(), re.M)
    assert {s: set(re.findall(r"`(\w+)`", cells)) for s, cells in rows} == \
        {s: set(keys) for s, keys in cli._SCHEMA.items()}


def test_readme_library_use_runs(tmp_path):
    block = readme_text().split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(ROOT), "src")}
    proc = subprocess.run([sys.executable, "-c", block], cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_paths_exist():
    paths = set(re.findall(r"(?<![\w/.-])((?:configs|scripts|tests)/[\w.-]+\.(?:ini|py)|BENCH_\d+\.json)",
                           readme_text()))
    assert paths
    assert [p for p in sorted(paths) if not os.path.exists(os.path.join(ROOT, p))] == []


def test_readme_code_names_resolve():
    # a deleted or renamed op takes README's mention with it: `Tape.candidate_l1` outlived its op.
    # README's code names start from tscorrect, its modules by short name or the classes
    # they define; file names, `[section] key` pairs and BENCHMARK.json metric
    # names share the dotted form and are left out. A module's docstrings name
    # ``code`` from that module: its attributes or those of a class it defines
    mods = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("tscorrect.")}
    classes = {short: [v for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
               for short, m in mods.items()}
    space = {"tscorrect": sys.modules["tscorrect"], **mods, **{c.__name__: c for cs in classes.values() for c in cs}}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    skip = {m["name"] for kind in ("end_to_end", "per_layer") for m in bench[kind]}
    skip |= {f"{section}.{key}" for section, keys in cli._SCHEMA.items() for key in keys}
    names = {n for n in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme_text())
             if n not in skip and n.split(".")[0] in space
             and not n.endswith((".py", ".json", ".csv", ".ckpt", ".ini", ".md"))}
    assert {"Tape.pointwise_mlp", "ReconstructionNet.forward", "training.train_scam"} <= names

    def resolves(obj, parts) -> bool:
        for part in parts:
            obj = getattr(obj, part, None)
            if obj is None:
                return False
        return True

    stale = [n for n in sorted(names) if not resolves(space[n.split(".")[0]], n.split(".")[1:])]
    doc_names = set()
    for short, m in mods.items():
        with open(m.__file__) as fh:
            tree = ast.parse(fh.read())
        docs = (ast.get_docstring(node) or "" for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)))
        for n in sorted(set(re.findall(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``", "\n".join(docs)))):
            doc_names.add(f"{short}: {n}")
            if not any(resolves(root, n.split(".")) for root in [m, *classes[short]]):
                stale.append(f"{short}: {n}")
    assert {"autodiff: Tape.backward", "autodiff: conv_pyramid"} <= doc_names
    assert stale == []


@pytest.mark.parametrize("script", sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py"))),
                         ids=os.path.basename)
def test_script_help_exits_0(script, tmp_path):
    # a stale import after an API change fails here, not in a user's run
    proc = subprocess.run([sys.executable, script, "--help"], cwd=str(tmp_path), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr


def test_toy_regime_study_refuses_zero_seeds(tmp_path):
    script = os.path.join(ROOT, "scripts", "toy_regime_study.py")
    proc = subprocess.run([sys.executable, script, "--seeds", "0", "--out", "tmp/x.csv"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "--seeds" in proc.stderr and "Traceback" not in proc.stderr
    assert os.listdir(str(tmp_path)) == []


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_loadable_csv(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path))
    out_csv = os.path.join(str(tmp_path), "series.csv")
    rc = main(["synth", "--config", cfg_path, "--out", out_csv])
    assert rc == 0
    assert capsys.readouterr().out.strip() == out_csv
    loaded = load_csv(out_csv)
    ref = make_synthetic(SyntheticConfig(length=600, sigma1=0.4, sigma2=0.05,
                                         window_period=100))
    # repr-based cells survive the roundtrip exactly
    assert np.array_equal(loaded.values, ref.values)
    assert loaded.channel_names == ref.channel_names


# ---------------------------------------------------------------------------
# train pipeline


def test_train_writes_manifest_and_seed_dirs(scam_pipeline):
    _, run_dir = scam_pipeline
    man = json.load(open(os.path.join(run_dir, "manifest.json")))
    for key in ("tool", "version", "mode", "config", "config_sha256", "data_sha256", "seeds"):
        assert key in man, key
    assert man["mode"] == "scam"
    assert man["data_sha256"].startswith("synthetic:")
    summary = man["seeds"]["0"]
    assert summary["epochs"] == 2
    for key in ("best_epoch", "val_mse", "val_mae", "test_mse", "test_mae"):
        assert np.isfinite(summary[key])
    seed_dir = os.path.join(run_dir, "seed0")
    assert os.path.exists(os.path.join(seed_dir, "epochs.csv"))
    assert os.path.exists(os.path.join(seed_dir, "checkpoints", "best.ckpt"))


def test_epochs_csv_schema(scam_pipeline):
    _, run_dir = scam_pipeline
    lines = open(os.path.join(run_dir, "seed0", "epochs.csv")).read().strip().split("\n")
    assert lines[0] == ",".join(EPOCH_CSV_FIELDS)
    assert len(lines) == 3  # header + 2 epochs
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(EPOCH_CSV_FIELDS)
        assert int(cells[0]) in (0, 1)


def test_mask_dumps_written_per_sample_and_candidate(scam_pipeline):
    _, run_dir = scam_pipeline
    mask_dir = os.path.join(run_dir, "seed0", "masks")
    names = sorted(os.listdir(mask_dir))
    assert names == ["sample0_cand0.csv", "sample0_cand1.csv",
                     "sample1_cand0.csv", "sample1_cand1.csv"]
    lines = open(os.path.join(mask_dir, names[0])).read().strip().split("\n")
    assert lines[0] == ",".join(MASK_DUMP_FIELDS)
    assert len(lines) == 17  # header + one row per horizon step
    for line in lines[1:]:
        cells = line.split(",")
        assert np.isfinite(float(cells[4]))  # the product A*B, a float
        assert cells[5] in ("0", "1") and cells[6] in ("0", "1")


def test_mask_dumps_hold_the_masks_of_their_own_values(scam_pipeline):
    # floats are written by repr, so the values read back exactly; each file's
    # m, M and M_lt are compute_masks of its y_tilde as an S = 1 stack
    _, run_dir = scam_pipeline
    paths = sorted(glob.glob(os.path.join(run_dir, "seed0", "masks", "sample*_cand*.csv")))
    assert len(paths) == 4
    for path in paths:
        cols = dict(zip(MASK_DUMP_FIELDS, np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)))
        ms = compute_masks(cols["y_tilde"][:, None], cols["y_hat"], cols["y"])
        assert np.array_equal(ms.m[:, 0], cols["m"]), path
        assert np.array_equal(ms.mask[:, 0], cols["M"]), path
        assert np.array_equal(ms.mask_lt[:, 0], cols["M_lt"]), path


def test_eval_reproduces_manifest_metrics_exactly(scam_pipeline, capsys):
    cfg_path, run_dir = scam_pipeline
    man = json.load(open(os.path.join(run_dir, "manifest.json")))
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    rc = main(["eval", "--config", cfg_path, "--checkpoint", ckpt, "--split", "test"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # restored best checkpoint re-evaluates to the exact recorded numbers
    assert payload["mse"] == man["seeds"]["0"]["test_mse"]
    assert payload["mae"] == man["seeds"]["0"]["test_mae"]
    assert payload["units"] == "standardized"


def test_revin_affine_checkpoint_reproduces_manifest_metrics(tmp_path, capsys):
    text = BASE_CONFIG.replace("[model]", "[model]\nrevin_affine = true")
    cfg_path = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    assert main(["train", "--config", cfg_path]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.load(open(os.path.join(run_dir, "manifest.json")))["seeds"]["0"]
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt, "--split", "test"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mse"] == summary["test_mse"]
    assert payload["mae"] == summary["test_mae"]
    _, arrays = load_checkpoint(ckpt)
    assert {"predictor.revin.weight", "predictor.revin.bias"} <= set(arrays)


def test_checkpoint_of_other_window_shape_exits_2(scam_pipeline, tmp_path, capsys):
    _, run_dir = scam_pipeline
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    text = BASE_CONFIG.replace("lookback = 16\nhorizon = 16", "lookback = 24\nhorizon = 32")
    cfg_path = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    out = os.path.join(str(tmp_path), "diag")
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 2
    assert "16/16" in capsys.readouterr().err
    assert main(["diagnose", "--config", cfg_path, "--checkpoint", ckpt, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "16/16" in err and "24/32" in err
    assert not os.path.exists(out)


def test_best_epoch_restore_keeps_sigma_tracking(tmp_path, capsys):
    # linear snr=both run whose best epoch is not the last, so the restore
    # has to recompute the singular vectors from the best epoch's weights
    text = (BASE_CONFIG.replace("length = 600", "length = 900")
            .replace("[model]", "[model]\nbackbone = linear").replace("snr = none", "snr = both")
            .replace("max_epochs = 2", "lr = 3e-2\nmax_epochs = 6"))
    cfg_path = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    assert main(["train", "--config", cfg_path]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.load(open(os.path.join(run_dir, "manifest.json")))["seeds"]["0"]
    assert summary["best_epoch"] < summary["epochs"] - 1
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt, "--split", "test"]) == 0
    assert json.loads(capsys.readouterr().out)["mse"] == summary["test_mse"]
    header, arrays = load_checkpoint(ckpt)
    assert header["epoch"] == summary["best_epoch"]
    _, models = restore_models(header, arrays)
    layer = models["predictor"].layers["layer"]
    w = layer.w.value
    sn = top_singular_pair(w, np.zeros(len(w)), np.zeros(w.shape[1]))
    assert abs(max(float(layer.u @ (w @ layer.v)), SIGMA_FLOOR) - sn) <= 1e-6 * sn


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_run_without_a_finite_val_mse_fails_and_saves_no_checkpoint(tmp_path, capsys):
    # lr = 1e150 overflows the first step, so no epoch's val MSE is finite and no epoch
    # can be restored: the run exits 1, saving no checkpoint that a manifest would contradict
    text = (BASE_CONFIG.replace("mode = scam", "mode = supervised").replace("lookback = 16", "lookback = 32")
            .replace("hidden = 8", "hidden = 16").replace("batch_size = 64", "batch_size = 32")
            .replace("max_epochs = 2\npatience = 2", "lr = 1e150\nmax_epochs = 3\npatience = 3"))
    runs = os.path.join(str(tmp_path), "runs")
    cfg_path = write_config(tmp_path, text=text, out_dir=runs)
    assert main(["train", "--config", cfg_path]) == 1
    assert "none of 3 epochs reached a finite val MSE" in capsys.readouterr().err
    assert glob.glob(os.path.join(runs, "*", "seed0", "checkpoints", "*")) == []
    assert glob.glob(os.path.join(runs, "*", "manifest.json")) == []


def test_mode_override_and_seed_flag(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out_dir=os.path.join(str(tmp_path), "runs"))
    rc = main(["train", "--config", cfg_path, "--mode-override", "supervised", "--seed", "5"])
    assert rc == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    man = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert man["mode"] == "supervised"
    assert list(man["seeds"]) == ["5"]
    assert os.path.isdir(os.path.join(run_dir, "seed5"))
    assert not os.path.exists(os.path.join(run_dir, "seed5", "masks"))


def test_rerun_is_byte_identical_up_to_timing(tmp_path):
    cfg_path = write_config(tmp_path, out_dir=os.path.join(str(tmp_path), "runs_a"))
    assert main(["train", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path, "--out",
                 os.path.join(str(tmp_path), "runs_b")]) == 0

    def epochs_lines(root):
        run = os.path.join(str(tmp_path), root)
        run_dir = os.path.join(run, os.listdir(run)[0])
        lines = open(os.path.join(run_dir, "seed0", "epochs.csv")).read().strip().split("\n")
        drop = {EPOCH_CSV_FIELDS.index(name) for name in TIMING_FIELDS}
        return [",".join(c for i, c in enumerate(l.split(",")) if i not in drop) for l in lines]

    assert epochs_lines("runs_a") == epochs_lines("runs_b")


def test_importing_the_cli_leaves_the_worker_pool_unloaded(tmp_path):
    # concurrent.futures (and the logging it imports) loads only when a run
    # starts the pool; a fresh process checks it, then runs that pool
    text = BASE_CONFIG.replace("seeds = 0", "seeds = 0,1")
    cfg_path = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    code = ("import sys, tscorrect.cli as cli\n"
            "print('concurrent.futures' in sys.modules)\n"
            f"cli.main(['train', '--config', {cfg_path!r}, '--threads', '2', '--out', {str(tmp_path)!r}])\n"
            "print('concurrent.futures' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "False" and proc.stdout.split()[-1] == "True", proc.stdout
    run_dir = os.path.join(str(tmp_path), [d for d in os.listdir(str(tmp_path)) if d.startswith("scam-")][0])
    assert sorted(json.load(open(os.path.join(run_dir, "manifest.json")))["seeds"]) == ["0", "1"]


def test_seed_pool_matches_serial_run(tmp_path):
    # threads = 2 runs the seeds in a two-worker process pool; every seed
    # directory must match the serial run byte for byte, timing aside
    text = BASE_CONFIG.replace("seeds = 0", "seeds = 0,1")
    cfg_path = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    run_dirs = {}
    for threads in (1, 2):
        out = os.path.join(str(tmp_path), f"threads{threads}")
        assert main(["train", "--config", cfg_path, "--threads", str(threads), "--out", out]) == 0
        run_dirs[threads] = os.path.join(out, os.listdir(out)[0])
    drop = [EPOCH_CSV_FIELDS.index(name) for name in TIMING_FIELDS]

    def seed_files(run_dir):
        files = {}
        for path in sorted(glob.glob(os.path.join(run_dir, "seed*", "**", "*"), recursive=True)):
            if os.path.isdir(path):
                continue
            data = open(path, "rb").read()
            if os.path.basename(path) == "epochs.csv":
                rows = [line.split(b",") for line in data.split(b"\n")]
                data = b"\n".join(b",".join(c for i, c in enumerate(r) if i not in drop) for r in rows)
            files[os.path.relpath(path, run_dir)] = data
        return files

    serial, pooled = seed_files(run_dirs[1]), seed_files(run_dirs[2])
    assert {p.split(os.sep)[0] for p in serial} == {"seed0", "seed1"}
    assert any(p.endswith("best.ckpt") for p in serial)
    assert serial == pooled


# ---------------------------------------------------------------------------
# grid search


def test_grid_search_cli_writes_trajectory(tmp_path, capsys):
    text = BASE_CONFIG.replace("max_epochs = 2", "max_epochs = 1").replace(
        "[train]", "[train]\ngrid_candidates = 2\ngrid_inner_steps = 8\n"
    )
    cfg_path = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    rc = main(["grid-search", "--config", cfg_path])
    assert rc == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    man = json.load(open(os.path.join(run_dir, "manifest.json")))
    summary = man["seeds"]["0"]
    assert summary["candidates"] == 2
    assert summary["best_candidate"] in (0, 1)
    traj = open(os.path.join(run_dir, "seed0", "trajectory.csv")).read().strip().split("\n")
    assert traj[0] == "index,loss_rec,loss_pred,loss_target,inner_steps,grad_norm,test_mse,test_mae"
    assert len(traj) == 3
    for line in traj[1:]:
        cells = line.split(",")
        assert all(np.isfinite(float(c)) for c in cells[1:])


# ---------------------------------------------------------------------------
# diagnose


@pytest.fixture(scope="module")
def diagnosis(scam_pipeline, tmp_path_factory):
    cfg_path, run_dir = scam_pipeline
    out = str(tmp_path_factory.mktemp("diag"))
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    rc = main(["diagnose", "--config", cfg_path, "--checkpoint", ckpt,
               "--out", out, "--samples", "2", "--sharpness"])
    assert rc == 0
    return out


def test_diagnose_breakdown_identity(diagnosis):
    bd = json.load(open(os.path.join(diagnosis, "breakdown.json")))
    four = (bd["rec_corrected"] + bd["pred_corrected"]
            + bd["sup_in_mask"] + bd["sup_out_mask"])
    assert abs(bd["components_total"] - four) < 1e-12
    assert abs(four - bd["co_objective"]) < 1e-8
    assert 0.0 <= bd["mask_rate"] <= 1.0
    assert bd["candidates"] == 2


def test_diagnose_sharpness_report(diagnosis):
    sh = json.load(open(os.path.join(diagnosis, "sharpness.json")))
    for key in ("total", "masked_in", "masked_out"):
        entry = sh[key]
        assert entry["converged"] is True
        assert np.isfinite(entry["value"])
        assert entry["iterations"] >= 1
    # per-block curvature can never exceed... nothing in general, but it must
    # at least be reported for every named segment
    segment_keys = set(sh) - {"split", "loss", "total", "masked_in", "masked_out"}
    assert segment_keys  # predictor names its parameter blocks


def test_diagnose_mask_dump_dir(diagnosis):
    names = sorted(os.listdir(os.path.join(diagnosis, "masks")))
    assert names == ["sample0_cand0.csv", "sample0_cand1.csv",
                     "sample1_cand0.csv", "sample1_cand1.csv"]


def test_diagnose_split_picks_the_breakdown_and_curvature_windows_not_the_mask_dumps(scam_pipeline, tmp_path):
    cfg_path, run_dir = scam_pipeline
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    out = os.path.join(str(tmp_path), "diag")
    assert main(["diagnose", "--config", cfg_path, "--checkpoint", ckpt, "--out", out, "--split", "test",
                 "--breakdown-windows", "50", "--samples", "1", "--sharpness"]) == 0
    cfg = load_config(cfg_path)
    bundle = make_bundle(cfg, load_series(cfg))
    bd = json.load(open(os.path.join(out, "breakdown.json")))
    assert bd["split"] == "test" and bd["windows"] == min(len(bundle.test), 50)
    sharp = json.load(open(os.path.join(out, "sharpness.json")))
    assert sharp["split"] == "test"
    # the unmasked probes read the curvature batch, the masked ones no more than the breakdown's windows
    curvature = min(cfg["train"]["sharpness_batch"], len(bundle.test))
    assert curvature > 50
    assert [sharp[k]["windows"] for k in ("total", "embedding", "projector")] == [curvature] * 3
    assert [sharp[k]["windows"] for k in ("masked_in", "masked_out")] == [50, 50]
    # the mask dumps still come from the validation split, which starts at b1
    with open(os.path.join(out, "masks", "sample0_cand0.csv")) as fh:
        assert fh.readline().startswith("t,") and int(fh.readline().split(",")[0]) == bundle.boundaries[0]


def test_diagnose_zero_samples_dumps_no_masks(scam_pipeline, tmp_path):
    cfg_path, run_dir = scam_pipeline
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    out = os.path.join(str(tmp_path), "diag")
    assert main(["diagnose", "--config", cfg_path, "--checkpoint", ckpt, "--out", out, "--samples", "0"]) == 0
    assert sorted(os.listdir(out)) == ["breakdown.json", "kl_table.csv"]


@pytest.mark.parametrize("samples, names", [
    (0, None),
    (1, ["sample0_cand0.csv", "sample0_cand1.csv"]),
])
def test_diagnose_without_samples_flag_dumps_the_configs_count(scam_pipeline, tmp_path, samples, names):
    _, run_dir = scam_pipeline
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    text = BASE_CONFIG.replace("mask_dump_samples = 2", f"mask_dump_samples = {samples}")
    cfg_path = write_config(tmp_path, text=text, out_dir=str(tmp_path))
    out = os.path.join(str(tmp_path), "diag")
    assert main(["diagnose", "--config", cfg_path, "--checkpoint", ckpt, "--out", out]) == 0
    masks = os.path.join(out, "masks")
    assert (sorted(os.listdir(masks)) if os.path.exists(masks) else None) == names


def test_diagnose_negative_samples_exits_2_before_any_output(scam_pipeline, tmp_path, capsys):
    cfg_path, run_dir = scam_pipeline
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    out = os.path.join(str(tmp_path), "diag")
    assert main(["diagnose", "--config", cfg_path, "--checkpoint", ckpt, "--out", out, "--samples", "-1"]) == 2
    err = capsys.readouterr().err
    assert "mask_dump_samples" in err and "config error" in err
    assert not os.path.exists(out)


def test_diagnose_zero_breakdown_windows_exits_2_before_any_output(scam_pipeline, tmp_path, capsys):
    cfg_path, run_dir = scam_pipeline
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    out = os.path.join(str(tmp_path), "diag")
    assert main(["diagnose", "--config", cfg_path, "--checkpoint", ckpt, "--out", out,
                 "--breakdown-windows", "0"]) == 2
    err = capsys.readouterr().err
    assert "breakdown-windows" in err and "config error" in err
    assert not os.path.exists(out)


def test_diagnose_kl_table_univariate_has_no_rows(diagnosis):
    lines = open(os.path.join(diagnosis, "kl_table.csv")).read().strip().split("\n")
    assert lines[0] == "channel_a,channel_b,kl_raw,kl_candidates"
    assert len(lines) == 1  # single synthetic channel: no pairs


def test_diagnose_kl_table_multichannel(tmp_path, capsys):
    csv_path = os.path.join(str(tmp_path), "two_channel.csv")
    t = np.arange(500)
    a = np.sin(2 * math.pi * t / 24)
    b = a + 0.4 * np.cos(2 * math.pi * t / 13)
    with open(csv_path, "w") as fh:
        fh.write("date,a,b\n")
        for i in range(500):
            fh.write(f"{i},{float(a[i])!r},{float(b[i])!r}\n")
    text = BASE_CONFIG.replace("[data]", f"[data]\nsource = {csv_path}").replace(
        "[synthetic]\nlength = 600\n", "[synthetic]\n"
    )
    cfg_path = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    assert main(["train", "--config", cfg_path]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    out = os.path.join(str(tmp_path), "diag")
    assert main(["diagnose", "--config", cfg_path, "--checkpoint", ckpt, "--out", out]) == 0
    lines = open(os.path.join(out, "kl_table.csv")).read().strip().split("\n")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "1"
    for val in map(float, cells[2:]):
        assert np.isfinite(val) and val >= 0.0


def test_grid_search_checkpoint_reproduces_best_candidate(tmp_path, capsys):
    text = BASE_CONFIG.replace(
        "[train]", "[train]\ngrid_candidates = 3\ngrid_inner_steps = 20\n"
    )
    cfg_path = write_config(tmp_path, text=text, out_dir=os.path.join(str(tmp_path), "runs"))
    assert main(["grid-search", "--config", cfg_path]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.load(open(os.path.join(run_dir, "manifest.json")))["seeds"]["0"]
    ckpt = os.path.join(run_dir, "seed0", "checkpoints", "best.ckpt")
    header, _ = load_checkpoint(ckpt)
    assert header["epoch"] == summary["best_candidate"]
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt, "--split", "test"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mse"] == summary["best_test_mse"]
    assert payload["mae"] == summary["best_test_mae"]
