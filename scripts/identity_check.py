#!/usr/bin/env python3
"""Compare every output of this working tree with those of another revision.

    python3 scripts/identity_check.py REV

REV is extracted with `git archive REV | tar -x` into a temporary directory,
so the repository's .git and working tree are left as they are. One fixed
set of inputs is generated once and both trees run on the same config paths,
each with its own `PYTHONPATH=<tree>/src`, so run ids and manifests agree:

  * input 0 of each perfbench workload (perfbench/gen.py), with the workload's
    command; diagnose_etth1 trains its checkpoint first and each tree
    diagnoses its own;
  * configs/toy_regimes.ini (train, then `diagnose --sharpness` and `eval`,
    standardized and with --raw-units, on seed 0's checkpoint, and `synth`)
    and configs/grid_search.ini (grid-search); each `eval` prints one JSON
    line, saved under eval/, with the checkpoint path relative to the side's
    output directory so that both sides print the same path;
  * toy_regimes.ini on two seeds with snr both and log_sharpness, run with
    --threads 2 so the seeds go through the worker pool; its checkpoints
    carry singular-vector buffers and its epochs.csv lambda_max;
  * toy_regimes.ini in co_objective mode on seed 0 with snr both, the one
    run whose training loss is the full co-objective.

Every output file is compared after perfbench's normalization, which drops
only the training.TIMING_FIELDS columns and the manifest's created_unix. Each
file prints as `identical`, or with the worst relative drift of its numbers.
Exit status: 0 when every file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run as perfbench_run  # noqa: E402
from tscorrect.training import TIMING_FIELDS  # noqa: E402

SIDES = ("base", "head")


def extract(rev: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"could not extract revision {rev!r}")


def make_inputs(inputs: str) -> dict[str, str]:
    """Config path per input name, written once for both trees."""
    configs = {}
    for workload in sorted(gen.WORKLOADS):
        configs[workload], _ = gen.make_inputs(workload, 0, os.path.join(inputs, workload), 0)
    for name in ("toy_regimes", "grid_search"):
        configs[name] = shutil.copy(os.path.join(ROOT, "configs", f"{name}.ini"), inputs)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(configs["toy_regimes"])
    parser["experiment"]["seeds"] = "0, 1"
    parser["model"]["snr"] = "both"
    parser["train"].update({"max_epochs": "3", "patience": "3", "log_sharpness": "true",
                            "sharpness_batch": "64"})
    configs["toy_sharpness"] = os.path.join(inputs, "toy_sharpness.ini")
    with open(configs["toy_sharpness"], "w") as fh:
        parser.write(fh)
    parser["experiment"].update({"mode": "co_objective", "seeds": "0"})
    parser["train"].update({"log_sharpness": "false"})
    configs["toy_co_objective"] = os.path.join(inputs, "toy_co_objective.ini")
    with open(configs["toy_co_objective"], "w") as fh:
        parser.write(fh)
    return configs


def cli(tree: str, argv: list[str], cwd: str) -> str:
    """Run one tscorrect command of `tree`; returns the last line it printed."""
    env = perfbench_run.child_env(tree)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    proc = subprocess.run([sys.executable, "-m", "tscorrect.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: tscorrect {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def run_side(tree: str, configs: dict[str, str], out: str) -> None:
    """Every command of the fixed set, outputs under `out`/<input name>/."""
    os.makedirs(out)

    def train(name, command="train", *flags):
        return cli(tree, [command, "--config", configs[name], "--out", os.path.join(out, name), *flags], out)

    for workload, spec in sorted(gen.WORKLOADS.items()):
        if spec["command"] != "diagnose":
            train(workload, spec["command"])
            continue
        ckpt = os.path.join(train(workload), "seed0", "checkpoints", "best.ckpt")
        argv = perfbench_run.job(workload, configs[workload], "", ckpt)["argv"]
        cli(tree, [*argv, "--out", os.path.join(out, workload, "diagnosis")], out)
    toy = train("toy_regimes")
    train("grid_search", "grid-search")
    train("toy_sharpness", "train", "--threads", "2")
    train("toy_co_objective")
    ckpt = os.path.relpath(os.path.join(toy, "seed0", "checkpoints", "best.ckpt"), out)
    cli(tree, ["diagnose", "--config", configs["toy_regimes"], "--sharpness", "--checkpoint", ckpt,
               "--out", os.path.join(out, "toy_regimes", "diagnosis")], out)
    os.makedirs(os.path.join(out, "eval"))
    for units, flags in (("standardized", []), ("raw", ["--raw-units"])):
        line = cli(tree, ["eval", "--config", configs["toy_regimes"], "--checkpoint", ckpt, *flags], out)
        with open(os.path.join(out, "eval", f"toy_regimes_{units}.json"), "w") as fh:
            fh.write(line + "\n")
    cli(tree, ["synth", "--config", configs["toy_regimes"],
               "--out", os.path.join(out, "synth", "toy.csv")], out)


def _numbers(path: str):
    """(layout, float array) of a checkpoint, CSV or JSON file: two files of
    one layout differ only in the numbers."""
    if path.endswith(".ckpt"):
        with open(path, "rb") as fh:
            raw = fh.read()
        hlen = int.from_bytes(raw[:8], "little")
        return raw[8:8 + hlen], np.frombuffer(raw[8 + hlen:], dtype="<f8")
    leaves = []

    def walk(node):
        if isinstance(node, dict):
            return {k: walk(v) for k, v in sorted(node.items()) if k != "created_unix"}
        if isinstance(node, list):
            return [walk(v) for v in node]
        try:
            leaves.append(float(node))
            return "#"
        except (TypeError, ValueError):
            return node

    with open(path) as fh:
        if path.endswith(".json"):
            return json.dumps(walk(json.load(fh))), np.array(leaves)
        lines = fh.read().splitlines()
    keep = [i for i, name in enumerate(lines[0].split(",")) if name not in TIMING_FIELDS]
    rows = [[cells[i] for i in keep] for cells in (line.split(",") for line in lines)]
    return [lines[0], *map(walk, rows[1:])], np.array(leaves)


def drift(path_a: str, path_b: str) -> str:
    """How two files that are not byte-identical differ."""
    try:
        (layout_a, a), (layout_b, b) = _numbers(path_a), _numbers(path_b)
    except (ValueError, UnicodeDecodeError):
        return "bytes differ"
    if layout_a != layout_b or a.shape != b.shape:
        return "layout differs"
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(np.abs(a - b), scale, out=np.zeros_like(scale), where=scale > 0)
    return f"worst relative drift {rel.max(initial=0.0):.3g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = ap.parse_args(argv)

    work = tempfile.mkdtemp(prefix="identity-check-")
    try:
        extract(args.rev, os.path.join(work, "tree"))
        configs = make_inputs(os.path.join(work, "inputs"))
        outs = {side: os.path.join(work, side) for side in SIDES}
        for side, tree in zip(SIDES, (os.path.join(work, "tree"), ROOT)):
            run_side(tree, configs, outs[side])
        digests = [perfbench_run.normalized_digest(outs[side], TIMING_FIELDS) for side in SIDES]
        names, differ = sorted(set(digests[0]) | set(digests[1])), 0
        for rel in names:
            if rel not in digests[0] or rel not in digests[1]:
                verdict = f"only in {SIDES[rel in digests[1]]}"
            elif digests[0][rel] == digests[1][rel]:
                verdict = "identical"
            else:
                verdict = drift(*(os.path.join(outs[side], rel) for side in SIDES))
            differ += verdict != "identical"
            print(f"{rel}: {verdict}")
        print(f"{args.rev} vs working tree: " + (f"{differ} of {len(names)} files differ" if differ
                                                 else f"identical, all {len(names)} files"))
        return 1 if differ else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
