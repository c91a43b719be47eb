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
    hold a spectrally rescaled predictor and its epochs.csv lambda_max;
  * toy_regimes.ini in co_objective mode on seed 0 with snr both, the one
    run whose training loss is the full co-objective.

Every output file is compared after perfbench's normalization, which drops
only the training.TIMING_FIELDS columns and the manifest's created_unix. Each
file prints as `identical`, or with what a waiver states:

  * the worst relative drift of its numbers and, for a CSV, of each column;
  * in a JSON file, the drift of each float that moved, by key path, and
    each changed int or bool, e.g. `masked_in.iterations 47 -> 48`;
  * in a checkpoint, compared block by block by name: the header fields that
    changed, the blocks found on one side only, and the worst relative drift
    of the blocks both sides hold;
  * in a CSV or JSON file, compared the same way column by column or key path
    by key path: the columns or keys found on one side only, and the drift of
    those both sides hold (a shared one whose text cells or row count differ
    reads `layout differs` and drifts without bound);
  * in a mask dump, the count of flipped cells of the boolean M and M_lt, and
    the drift of m = (c - p)(c - t) against the scale of its factors,
    (|c| + |p|)(|c| + |t|), next to m's plain relative drift. m cancels where
    the candidate c sits next to the prediction p or the label t, so a tiny
    absolute change there reads as a large relative one.

A summary by file kind (checkpoint, epochs.csv, mask dump, JSON, other)
follows. No drift is forgiven. Exit status: 0 when every file is identical,
1 otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
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
FLAGS = ("M", "M_lt")  # the mask dumps' boolean columns: a changed cell is a flipped mask bit
KINDS = ("checkpoint", "epochs.csv", "mask dump", "JSON", "other")


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


def _leaves(node, path: str = ""):
    """(key path, leaf) of a JSON tree, keys sorted and joined by dots, list
    items as [i], an empty dict or list a leaf; created_unix dropped."""
    if isinstance(node, dict) and node:
        for k, v in sorted(node.items()):
            if k != "created_unix":
                yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list) and node:
        for i, v in enumerate(node):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, node


def _fields(path: str) -> dict[str, list]:
    """A CSV's columns by name, timing columns dropped, or a JSON file's
    leaves by key path, each as its list of cells."""
    with open(path) as fh:
        if path.endswith(".json"):
            return {key: [leaf] for key, leaf in _leaves(json.load(fh))}
        header, *rows = (line.split(",") for line in fh.read().splitlines())
    return {name: [r[i] for r in rows] for i, name in enumerate(header) if name not in TIMING_FIELDS}


def _numbers(cells: list) -> tuple[list, np.ndarray]:
    """(layout, float array) of a field's cells, each number in the layout as
    "#": two fields of one layout differ only in the numbers."""
    layout, numbers = [], []
    for cell in cells:
        try:
            numbers.append(float(cell))
            layout.append("#")
        except (TypeError, ValueError):
            layout.append(cell)
    return layout, np.array(numbers)


def _json_cells(a: dict, b: dict, nums: dict) -> list[str]:
    """For the shared JSON leaves of one layout: each int or bool that
    changed, as `path old -> new`, and the relative drift of each float that moved."""
    cells = []
    for key, (x, y) in nums.items():
        (va,), (vb,) = a[key], b[key]
        if va == vb or not len(x):
            continue
        if isinstance(va, float) or isinstance(vb, float):
            rel = _rel(x, y)[0]
            cells += [f"{key} {rel:.3g}"] if rel > 0 else []  # NaN against NaN has not moved
        else:  # int or bool: a count or a verdict changed, not a rounding
            cells.append(f"{key} {json.dumps(va)} -> {json.dumps(vb)}")
    return cells


def file_kind(rel: str) -> str:
    name = os.path.basename(rel)
    if name.endswith(".ckpt"):
        return "checkpoint"
    if name == "epochs.csv":
        return name
    if os.path.basename(os.path.dirname(rel)) == "masks":
        return "mask dump"
    return "JSON" if name.endswith(".json") else "other"


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative drift per number against the larger magnitude; a number
    against NaN drifts without bound."""
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(np.abs(a - b), scale, out=np.zeros_like(scale), where=scale > 0)
    rel[np.isnan(a) != np.isnan(b)] = np.inf
    return rel


def _checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """A checkpoint's header without its block list, and its blocks by name.
    Read raw, not through tscorrect, so that a file of another version reads too."""
    with open(path, "rb") as fh:
        raw = fh.read()
    hlen = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8:8 + hlen])
    blocks, at = {}, 8 + hlen
    for spec in header.pop("blocks"):
        size = 8 * math.prod(spec["shape"])
        blocks[spec["name"]] = np.frombuffer(raw[at:at + size], dtype="<f8").reshape(spec["shape"])
        at += size
    return header, blocks


def checkpoint_drift(path_a: str, path_b: str) -> tuple[str, dict]:
    """drift() of two checkpoints, block by block: the header fields that
    changed, the blocks on one side only, and "worst" over the shared blocks
    (a shared block of another shape drifts without bound)."""
    (head_a, a), (head_b, b) = _checkpoint(path_a), _checkpoint(path_b)
    parts = [f"{key} {head_a.get(key)!r} -> {head_b.get(key)!r}"
             for key in sorted(set(head_a) | set(head_b)) if head_a.get(key) != head_b.get(key)]
    for side, mine, theirs in zip(SIDES, (a, b), (b, a)):
        only = [name for name in mine if name not in theirs]
        if only:
            parts.append(f"only in {side}: {', '.join(only)}")
    shared = [name for name in a if name in b]
    worst = [_rel(a[n], b[n]).max(initial=0.0) if a[n].shape == b[n].shape else np.inf for n in shared]
    stats = {"worst": float(max(worst, default=0.0))}
    parts.append(f"{len(shared)} shared blocks, worst relative drift {stats['worst']:.3g}")
    return "; ".join(parts), stats


def drift(path_a: str, path_b: str) -> tuple[str, dict]:
    """How two files that are not byte-identical differ: the verdict line and
    its figures, "worst" (the worst relative drift of any number) and, in a
    mask dump, "m_scaled" and the flipped cells of each of FLAGS. A CSV
    compares its columns by name and a JSON file its leaves by key path, as
    checkpoint_drift compares blocks: the fields on one side only are listed,
    and a shared field whose cells other than numbers differ drifts without bound."""
    try:
        if path_a.endswith(".ckpt"):
            return checkpoint_drift(path_a, path_b)
        a, b = _fields(path_a), _fields(path_b)
    except (ValueError, UnicodeDecodeError):
        return "bytes differ", {}
    parts = [f"only in {side}: {', '.join(only)}" for side, mine, theirs in zip(SIDES, (a, b), (b, a))
             if (only := [key for key in mine if key not in theirs])]
    nums, unaligned = {}, []  # shared fields: (base, head) numbers if of one layout, else listed
    for key in (key for key in a if key in b):
        (layout_a, x), (layout_b, y) = _numbers(a[key]), _numbers(b[key])
        if layout_a == layout_b:
            nums[key] = x, y
        else:
            unaligned.append(key)
    if unaligned:
        parts.append(f"layout differs: {', '.join(unaligned)}")
    rel = {key: _rel(x, y).max(initial=0.0) for key, (x, y) in nums.items()}
    stats = {"worst": float(max([*rel.values()] + [np.inf] * len(unaligned), default=0.0))}
    parts.append(f"worst relative drift {stats['worst']:.3g}")
    if path_a.endswith(".csv"):
        cells = []
        for name, (col, col_b) in nums.items():
            if name in FLAGS:
                stats[name] = int(np.count_nonzero(col != col_b))
                cells.append(f"{name} {stats[name]} flipped")
                continue
            cells.append(f"{name} {rel[name]:.3g}")
            if name == "m" and file_kind(path_a) == "mask dump":
                c, p, t = (np.abs(nums[k][0]) for k in ("y_tilde", "y_hat", "y"))
                scale = (c + p) * (c + t)
                scaled = np.divide(np.abs(col - col_b), scale, out=np.zeros_like(scale), where=scale > 0)
                stats["m_scaled"] = float(scaled.max(initial=0.0))
                cells[-1] += f" ({stats['m_scaled']:.3g} against (|c| + |p|)(|c| + |t|))"
        parts += ["by column: " + ", ".join(cells)] if cells else []
    elif path_a.endswith(".json") and (cells := _json_cells(a, b, nums)):
        parts.append("by key: " + ", ".join(cells))
    return "; ".join(parts), stats


def kind_summary(results: list[tuple[str, str, dict]]) -> list[str]:
    """One line per file kind from each file's (path, verdict, figures): how
    many files differ and their worst drift; for the mask dumps also the
    worst m against its factors' scale and the flipped M and M_lt cells."""
    lines = []
    for kind in KINDS:
        verdicts = [(verdict, stats) for rel, verdict, stats in results if file_kind(rel) == kind]
        if not verdicts:
            continue
        differ = [stats for verdict, stats in verdicts if verdict != "identical"]
        line = f"{kind}: {len(differ)} of {len(verdicts)} differ"
        if differ:
            line += f", worst relative drift {max(s.get('worst', np.inf) for s in differ):.3g}"
        if kind == "mask dump" and differ:
            m_scaled = max(s.get("m_scaled", np.inf) for s in differ)
            line += f", m against its factors' scale {m_scaled:.3g}"
            line += "".join(f", {flag} {sum(s.get(flag, 0) for s in differ)} flipped" for flag in FLAGS)
        lines.append(line)
    return lines


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
        names, results = sorted(set(digests[0]) | set(digests[1])), []
        for rel in names:
            stats = {}
            if rel not in digests[0] or rel not in digests[1]:
                verdict = f"only in {SIDES[rel in digests[1]]}"
            elif digests[0][rel] == digests[1][rel]:
                verdict = "identical"
            else:
                verdict, stats = drift(*(os.path.join(outs[side], rel) for side in SIDES))
            results.append((rel, verdict, stats))
            print(f"{rel}: {verdict}")
        differ = sum(verdict != "identical" for _, verdict, _ in results)
        print("by file kind:")
        for line in kind_summary(results):
            print(f"  {line}")
        print(f"{args.rev} vs working tree: " + (f"{differ} of {len(names)} files differ" if differ
                                                 else f"identical, all {len(names)} files"))
        return 1 if differ else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
