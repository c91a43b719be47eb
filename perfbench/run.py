"""tscorrect benchmark: run one workload through the CLI and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's inputs (csv series plus INI
config) are generated from --seed under .perfbench_work/. The workload's CLI
command runs in fresh child processes (perfbench/child.py), one at a time,
with BLAS pinned to one thread. Each child times its set-up once and then
runs the command on its inputs repeatedly, for up to CHILD_BUDGET_S; children
follow one another until --seconds is used up. Every command's outputs are
checked; one that fails a check counts toward `failed` and is never dropped
silently.

--trace 0 prints the end-to-end metrics (medians over commands and children).
--trace 1 runs each command once per child, alternates rounds of untraced and
traced children, and prints the per-layer metrics from the traced ones, with
the tracing overhead and the share of run time no layer span covers. The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import gen  # noqa: E402
from tracing import EXPECTED  # noqa: E402

WORK = ".perfbench_work"
BLAS_THREADS = "1"
MIN_CHILDREN = 3
MAX_CHILDREN = 60
CHILD_BUDGET_S = 8.0
# Reference host speed: probe_kernel() (child.py) takes this long on it.
# Times are reported in seconds of such a host (see README "Host speed").
PROBE_REF_S = 1e-3
# How set-up time scales with the probe's time (fit_sensitivity.py).
SETUP_SENSITIVITY = 0.6
TOTAL_BUDGET_S = 170.0
DIAGNOSE_SAMPLES = 8
CRIT6 = {"rows": 17420, "seeds": 3, "epochs": 8, "budget_s": 1800.0}

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("best_mse", "mse")]
LAYER_TIMES = [
    "autodiff.backward", "models.recon_forward", "models.predictor_forward",
    "models.spectral_sync", "models.build", "models.checkpoint_save",
    "models.checkpoint_load", "losses.masks", "losses.loss_record", "losses.mask_dump",
    "training.optimizer", "training.eval", "data.load", "data.flatten",
    "sharpness.hvp", "cli.config", "cli.outputs", "cli.kl",
]
LAYER_CALLS = [
    "autodiff.backward", "models.recon_forward", "models.predictor_forward",
    "models.spectral_sync", "data.load", "data.flatten", "sharpness.hvp",
]


# ---------------------------------------------------------------------------
# environment


def git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(root, ".git", ref)
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def environment(root: str) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(root),
    }


# ---------------------------------------------------------------------------
# output checks


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finite_json(obj, where: str, problems: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite_json(v, f"{where}.{k}", problems)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _finite_json(v, f"{where}[{i}]", problems)
    elif isinstance(obj, float) and not math.isfinite(obj):
        problems.append(f"non-finite number at {where}")


def _read_csv(path: str, problems: list, blank_ok=()) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            problems.append(f"{path}: row {r} has {len(row)} cells, header {len(header)}")
            continue
        for name, cell in zip(header, row):
            if cell == "" and name in blank_ok:
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{path}: row {r}, column {name}: {cell!r} is not a finite number")
    return header, rows


def _check_checkpoint(path: str, problems: list) -> None:
    with open(path, "rb") as fh:
        raw = fh.read()
    hlen = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8:8 + hlen])
    data = np.frombuffer(raw[8 + hlen:], dtype="<f8")
    expected = sum(int(np.prod(b["shape"])) for b in header["blocks"])
    if data.size != expected:
        problems.append(f"{path}: {data.size} floats, header describes {expected}")
    if not np.isfinite(data).all():
        problems.append(f"{path}: non-finite parameter values")


def normalized_digest(out_dir: str, timing_fields: set) -> dict:
    """sha256 per output file, with timing columns and the manifest's
    creation stamp removed, for byte-identity across runs."""
    digests = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out_dir)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "epochs.csv":
                lines = data.decode().splitlines()
                keep = [i for i, c in enumerate(lines[0].split(",")) if c not in timing_fields]
                data = "\n".join(",".join(r.split(",")[i] for i in keep) for r in lines).encode()
            elif name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("created_unix", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            digests[rel] = _sha(data)
    return digests


def check_run(workload: str, seed: int, res: dict) -> tuple[list, dict]:
    """Problems found in one run's outputs, plus values read from them."""
    try:
        return _check_run(workload, seed, res)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"], {}


def _check_run(workload: str, seed: int, res: dict) -> tuple[list, dict]:
    problems: list[str] = []
    info: dict = {}
    if res["rc"] != 0:
        return [f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"], info
    spec = gen.WORKLOADS[workload]
    train_cfg = spec["config"]["train"]
    printed = res["stdout"].strip().splitlines()
    run_dir = printed[-1] if printed else ""
    if not run_dir or not os.path.isdir(run_dir):
        return [f"command printed no output directory (stdout {res['stdout']!r})"], info

    def need(rel: str) -> str | None:
        path = os.path.join(run_dir, rel)
        if not os.path.isfile(path):
            problems.append(f"missing output {rel}")
            return None
        return path

    if spec["command"] in ("train", "grid-search"):
        manifest_path = need("manifest.json")
        ckpt = need(f"seed{seed}/checkpoints/best.ckpt")
        if ckpt:
            _check_checkpoint(ckpt, problems)
        summary = {}
        if manifest_path:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            _finite_json(manifest, "manifest", problems)
            summary = manifest.get("seeds", {}).get(str(seed), {})
        if spec["command"] == "train":
            epochs = need(f"seed{seed}/epochs.csv")
            if epochs:
                header, rows = _read_csv(epochs, problems, blank_ok={"lambda_max"})
                if len(rows) != train_cfg["max_epochs"]:
                    problems.append(f"epochs.csv has {len(rows)} epochs, expected {train_cfg['max_epochs']}")
                if "wall_time_s" in header and rows:
                    col = header.index("wall_time_s")
                    info["epoch_s"] = statistics.mean(float(r[col]) for r in rows)
            info["best_mse"] = summary.get("val_mse")
            if spec["config"]["experiment"]["mode"] == "scam":
                masks = os.path.join(run_dir, f"seed{seed}", "masks")
                want = spec["config"]["experiment"]["mask_dump_samples"] * spec["config"]["model"]["series_count"]
                found = sorted(os.listdir(masks)) if os.path.isdir(masks) else []
                if len(found) != want:
                    problems.append(f"{len(found)} mask dumps, expected {want}")
                for name in found:
                    _read_csv(os.path.join(masks, name), problems)
        else:
            traj = need(f"seed{seed}/trajectory.csv")
            if traj:
                _, rows = _read_csv(traj, problems)
                if len(rows) != train_cfg["grid_candidates"]:
                    problems.append(f"trajectory.csv has {len(rows)} rows, expected {train_cfg['grid_candidates']}")
            info["best_mse"] = summary.get("best_test_mse")
        if info.get("best_mse") is None:
            problems.append("manifest reports no best MSE")
    else:  # diagnose
        for name in ("breakdown.json", "sharpness.json"):
            path = need(name)
            if path:
                with open(path) as fh:
                    report = json.load(fh)
                _finite_json(report, name, problems)
                if name == "sharpness.json":
                    for key, val in sorted(report.items()):
                        if isinstance(val, dict) and not val.get("converged"):
                            problems.append(f"lambda_max[{key}] did not converge "
                                            f"({val.get('iterations')} iterations)")
                    info["lanczos_iters"] = sum(v["iterations"] for v in report.values()
                                                if isinstance(v, dict))
        kl = need("kl_table.csv")
        if kl:
            _, rows = _read_csv(kl, problems)
            nch = len(gen.ETT_CHANNELS)
            if len(rows) != nch * (nch - 1) // 2:
                problems.append(f"kl_table.csv has {len(rows)} rows, expected {nch * (nch - 1) // 2}")
        masks = os.path.join(run_dir, "masks")
        found = sorted(os.listdir(masks)) if os.path.isdir(masks) else []
        if len(found) != DIAGNOSE_SAMPLES * spec["config"]["model"]["series_count"]:
            problems.append(f"{len(found)} mask dumps in diagnosis")
        for name in found:
            _read_csv(os.path.join(masks, name), problems)
    info["digest"] = normalized_digest(run_dir, set(res.get("timing_fields", [])))
    return problems, info


# ---------------------------------------------------------------------------
# runs


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(root: str, run_dir: str, jobs: list, deadline: float, budget: float = 0.0,
              traced: bool = False) -> dict | None:
    """Run one child over `jobs` (see child.py) to completion; None if it
    produced no result file."""
    os.makedirs(run_dir, exist_ok=True)
    result = os.path.join(run_dir, "result.json")
    jobs_path = os.path.join(run_dir, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(jobs, fh)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", os.path.join(root, "src"),
           "--jobs", jobs_path, "--result", result, "--budget", repr(budget)]
    if traced:
        cmd += ["--trace", os.path.join(run_dir, "spans.json")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(root), capture_output=True, text=True,
                              timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"run {run_dir} timed out", file=sys.stderr)
        return None
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.exists(result):
        print(f"run {run_dir} crashed (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    with open(result) as fh:
        res = json.load(fh)
    res["wall_s"] = wall
    return res


def job(workload: str, cfg: str, out: str, checkpoint: str | None) -> dict:
    """One execution of the workload's command on one input."""
    command = gen.WORKLOADS[workload]["command"]
    argv = [command, "--config", cfg]
    if command == "diagnose":
        argv += ["--checkpoint", checkpoint, "--samples", str(DIAGNOSE_SAMPLES), "--sharpness"]
    return {"config": cfg, "checkpoint": checkpoint, "argv": argv, "out": out}


def prepare_checkpoints(root: str, work: str, inputs: list, deadline: float) -> list:
    """Train the checkpoints diagnose reads, one per input, with the code
    under test, in one child before any timed run. Returns (path, best-epoch
    val MSE) per input; the MSE stands as the diagnose workload's best_mse."""
    prep = os.path.join(work, "prep")
    jobs = [{"config": cfg, "checkpoint": None, "argv": ["train", "--config", cfg],
             "out": os.path.join(prep, f"out{i}")} for i, (cfg, _) in enumerate(inputs)]
    res = run_child(root, prep, jobs, deadline)
    out = []
    for (cfg, train_seed), rep in zip(inputs, (res or {}).get("reps", [])):
        if rep["rc"] != 0:
            raise SystemExit(f"could not train the checkpoint for diagnose: {rep['stderr'][-2000:]}")
        run_dir = rep["stdout"].strip().splitlines()[-1]
        with open(os.path.join(run_dir, "manifest.json")) as fh:
            val_mse = json.load(fh)["seeds"][str(train_seed)]["val_mse"]
        out.append((os.path.join(run_dir, f"seed{train_seed}", "checkpoints", "best.ckpt"), val_mse))
    if len(out) != len(inputs):
        raise SystemExit("could not train the checkpoints for diagnose")
    return out


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def tail_percentile(samples: list) -> tuple[float, float]:
    """Highest of a fixed ladder of percentiles with >= 10 samples above it."""
    n = len(samples)
    for pct in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(samples, pct))
    return 50.0, float(np.percentile(samples, 50.0)) if samples else 0.0


def layer_metrics(traces: list) -> dict:
    per_child: list[dict] = []
    steps: list[float] = []
    for t in traces:
        m: dict = {}
        for name in LAYER_TIMES:
            m[f"{name}_s"] = t["self_s"].get(name, 0.0)
        for name in LAYER_CALLS:
            m[f"{name}_calls"] = t["calls"].get(name, 0)
        win = t["windows"]
        m["autodiff.tape_ops_per_step"] = _median([w[0] for w in win])
        m["autodiff.vars_per_step"] = _median([w[1] for w in win])
        m["autodiff.grad_alloc_mb_per_step"] = _median([w[2] for w in win]) / 1e6
        m["autodiff.grad_useful_frac"] = _median([w[3] / (w[3] + w[1]) for w in win if w[3] + w[1]])
        cnt = t["count"]
        m["autodiff.matmul_calls"] = cnt.get("autodiff.matmul_calls", 0)
        m["autodiff.conv1d_calls"] = cnt.get("autodiff.conv1d_calls", 0)
        m["models.checkpoint_bytes"] = cnt.get("models.checkpoint_bytes", 0)
        m["losses.mask_dump_rows"] = cnt.get("losses.mask_dump_rows", 0)
        m["training.optimizer_steps"] = t["calls"].get("training.optimizer", 0)
        m["training.skipped_steps"] = cnt.get("training.skipped_steps", 0)
        m["training.eval_rows"] = cnt.get("training.eval_rows", 0)
        grid = t["grid_records"]
        m["training.grid_inner_steps"] = sum(r[0] for r in grid)
        m["training.grid_threshold_stop_frac"] = (
            sum(r[0] < r[1] for r in grid) / len(grid) if grid else 0.0)
        lz = t["lanczos"]
        m["sharpness.lanczos_iters"] = sum(r[0] for r in lz)
        m["sharpness.converged_frac"] = sum(r[1] for r in lz) / len(lz) if lz else 0.0
        m["trace.uncovered_frac"] = 1.0 - t["covered_s"] / t["root_s"] if t["root_s"] else 0.0
        per_child.append(m)
        steps.extend(t["steps_ms"])
    out = {k: _median([m[k] for m in per_child]) for k in per_child[0]}
    pct, tail = tail_percentile(steps)
    out["training.step_ms_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    out["training.step_ms_tail"] = tail
    out["training.step_tail_pct"] = pct if steps else 0.0
    out["training.step_samples"] = len(steps)
    return out


LAYER_UNITS = {"_s": "s", "_calls": "count", "_frac": "ratio", "_ms_p50": "ms", "_ms_tail": "ms",
               "_mb_per_step": "MB", "_bytes": "bytes", "_pct": "%"}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------


def at_reference(seconds: float, probe_s: float, sensitivity: float) -> float:
    """A time measured while the probe took probe_s, scaled to a host on
    which it takes PROBE_REF_S."""
    return seconds * (PROBE_REF_S / probe_s) ** sensitivity


def per_input_mean(runs: list, key: str) -> float:
    """Mean over inputs of each input's median, so every input weighs the same."""
    by_input: dict[int, list] = {}
    for r in runs:
        if r.get(key) is not None:
            by_input.setdefault(r["input"], []).append(r[key])
    return statistics.mean(statistics.median(v) for v in by_input.values()) if by_input else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + TOTAL_BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tscorrect", "cli.py")):
        print(f"no tscorrect sources under {root}/src: run from the repository root",
              file=sys.stderr)
        return 2
    spec = gen.WORKLOADS[args.workload]
    n_inputs = spec.get("inputs", 1)
    work = os.path.join(root, WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    made = [gen.make_inputs(args.workload, args.seed, os.path.join(work, f"input{i}"), i)
            for i in range(n_inputs)]
    prepared = [(None, None)] * n_inputs
    if spec["command"] == "diagnose":
        prepared = prepare_checkpoints(root, work, made, deadline)
    inputs = [(cfg, seed, ckpt, mse) for (cfg, seed), (ckpt, mse) in zip(made, prepared)]

    # Untraced, a child makes passes over a group of inputs for up to
    # CHILD_BUDGET_S, and the first group runs twice, so that its outputs are
    # compared across processes. Traced, each child runs one input once, and
    # rounds of untraced and traced children over all inputs alternate.
    group = spec.get("inputs_per_child", 1)
    groups = [list(range(g, min(g + group, n_inputs))) for g in range(0, n_inputs, group)]
    if args.trace:
        groups = [[i] for i in range(n_inputs)]
    min_children = (max(4, 2 * n_inputs) if args.trace
                    else max(MIN_CHILDREN, len(groups) + (len(groups) > 1)))
    children: list[dict] = []
    results: list[dict] = []
    reference: dict[int, dict] = {}
    failures: list[str] = []
    t_loop = time.monotonic()
    while len(children) < MAX_CHILDREN:
        k = len(children)
        idx = groups[k % len(groups)]
        traced = bool(args.trace) and (k // len(groups)) % 2 == 1
        elapsed = time.monotonic() - t_loop
        overhead = _median([c["wall_s"] - c["commands_s"] for c in children])
        one_pass = len(idx) * _median([r["run_s"] for r in results if "run_s" in r])
        if k >= min_children and (k % len(groups) == 0 or not args.trace) \
                and elapsed + overhead + one_pass > args.seconds:
            break
        budget = 0.0 if args.trace else min(CHILD_BUDGET_S, args.seconds - elapsed - overhead)
        run_dir = os.path.join(work, f"child{k}")
        jobs = [job(args.workload, inputs[i][0], os.path.join(run_dir, f"out{i}"), inputs[i][2])
                for i in idx]
        res = run_child(root, run_dir, jobs, deadline, budget, traced)
        if res is None:
            failures.append(f"child{k}: no result")
            results.append({"failed": True, "traced": traced, "input": idx[0]})
            break
        res["traced"] = traced
        res["commands_s"] = sum(r["run_s"] for r in res["reps"])
        res["setup_ref_s"] = at_reference(res["setup_s"], res["setup_probe_s"], SETUP_SENSITIVITY)
        children.append(res)
        for n, rep in enumerate(res["reps"]):
            i = idx[rep["job"]]
            cfg, train_seed, checkpoint, prep_mse = inputs[i]
            rep.update(traced=traced, input=i, timing_fields=res["timing_fields"],
                       run_ref_s=at_reference(rep["run_s"], rep["probe_s"], spec["host_sensitivity"]))
            problems, info = check_run(args.workload, train_seed, rep)
            if not problems:
                if i not in reference:
                    reference[i] = info["digest"]
                elif info["digest"] != reference[i]:
                    diff = sorted(f for f in set(reference[i]) | set(info["digest"])
                                  if reference[i].get(f) != info["digest"].get(f))
                    problems.append(f"outputs differ from the first run on input {i} in {diff[:5]}")
            if traced:
                missing = EXPECTED[args.workload] - set(res["trace"]["calls"])
                if missing:
                    problems.append(f"traced run recorded no span for {sorted(missing)} "
                                    f"(unpatched targets: {res['trace']['missing_targets']})")
            if prep_mse is not None:
                info["best_mse"] = prep_mse
            rep.update(info)
            rep["failed"] = bool(problems)
            failures += [f"child{k} rep{n}: {p}" for p in problems]
            results.append(rep)
        for i in idx:
            shutil.rmtree(os.path.join(run_dir, f"out{i}"), ignore_errors=True)

    attempted = len(results)
    failed = sum(r["failed"] for r in results)
    ok = [r for r in results if not r["failed"]] or [r for r in results if "run_s" in r]
    if not ok:
        print("no run produced a result", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    untraced = [r for r in ok if not r["traced"]]
    traced_runs = [r for r in ok if r["traced"]]

    if args.trace:
        if not traced_runs or not untraced:
            print("traced run needs at least one traced and one untraced result", file=sys.stderr)
            return 1
        values = layer_metrics([c["trace"] for c in children if c["traced"]])
        base = per_input_mean(untraced, "run_ref_s")
        over = per_input_mean(traced_runs, "run_ref_s") - base
        values["trace.overhead_s"] = over
        values["trace.overhead_frac"] = over / base
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": _median([c["setup_ref_s"] for c in children]),
            "run_s": per_input_mean(untraced, "run_ref_s"),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in children]),
            "best_mse": per_input_mean(ok, "best_mse"),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    env = environment(root)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": n_inputs, "env": env, "metrics": metrics,
        "failures": failures,
        "children": [{k: v for k, v in c.items() if k not in ("trace", "reps", "timing_fields")}
                     for c in children],
        "runs": [{k: v for k, v in r.items() if k not in ("digest", "stdout", "timing_fields")}
                 for r in results],
    }
    with open(os.path.join(work, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {n_inputs}  "
          f"children {len(children)}  runs {attempted} ({len(untraced)} untraced, "
          f"{len(traced_runs)} traced)")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    if not args.trace:
        wall = {"setup_wall_s": _median([c["setup_s"] for c in children]),
                "run_wall_s": per_input_mean(untraced, "run_s"),
                "probe_ms": 1e3 * _median([r["probe_s"] for r in untraced])}
        for name, value in wall.items():
            print(f"  {name:36s} {value:>16.6g} {name.rsplit('_', 1)[1]}  [host clock, not compared]")
    for f in failures:
        print(f"  FAILED {f}")
    print("env " + json.dumps(env, sort_keys=True))
    crit6_line(root, args.workload, untraced)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def crit6_line(root: str, workload: str, untraced: list) -> None:
    """Informational projection of criterion 6's run time; not a compared metric."""
    if workload not in ("scam_etth1", "supervised_snr_etth1"):
        return
    rows = gen.WORKLOADS[workload]["series"][1]
    lb = gen.WORKLOADS[workload]["config"]["data"]["lookback"]
    hz = gen.WORKLOADS[workload]["config"]["data"]["horizon"]

    def train_windows(n_rows: int) -> int:
        return math.floor(0.6 * n_rows) - lb - hz + 1

    epoch_s = _median([r.get("epoch_s") for r in untraced])
    if not epoch_s:
        return
    rates_path = os.path.join(root, WORK, "crit6_rates.json")
    rates = {}
    if os.path.exists(rates_path):
        with open(rates_path) as fh:
            rates = json.load(fh)
    rates[workload] = epoch_s / train_windows(rows)
    with open(rates_path, "w") as fh:
        json.dump(rates, fh)
    per_run = CRIT6["seeds"] * CRIT6["epochs"] * train_windows(CRIT6["rows"])
    parts = {w: per_run * rates[w] for w in ("scam_etth1", "supervised_snr_etth1") if w in rates}
    total = sum(parts.values())
    note = "" if len(parts) == 2 else " (partial: run the other ETTh1 workload for the total)"
    print(f"crit6_projected_s {total:.1f} s of {CRIT6['budget_s']:.0f} s budget  [PROJECTION, "
          f"not a compared metric; per-window epoch rates scaled to {CRIT6['rows']} rows x "
          f"{CRIT6['seeds']} seeds x {CRIT6['epochs']} epochs; parts "
          + ", ".join(f"{w}={v:.1f}s" for w, v in parts.items()) + note + "]")


if __name__ == "__main__":
    sys.exit(main())
