"""scripts/identity_check.py's waiver figures, on small mask dumps and
checkpoints; no tree runs."""

import importlib.util
import json
import os
from types import SimpleNamespace

import numpy as np

from tscorrect.autodiff import Var
from tscorrect.losses import compute_masks, write_mask_dump
from tscorrect.models import ModelConfig, save_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_identity_check():
    spec = importlib.util.spec_from_file_location(
        "_identity_check", os.path.join(ROOT, "scripts", "identity_check.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def dump(tmp_path, side, y, y_hat, y_tilde):
    path = tmp_path / side / "masks" / "sample0_cand0.csv"
    path.parent.mkdir(parents=True)
    write_mask_dump(str(path), np.arange(len(y)), y, y_hat, y_tilde, compute_masks(y_tilde[:, None], y_hat, y))
    return str(path)


def test_waiver_separates_a_regrouped_dump_from_a_flipped_mask(tmp_path):
    ic = load_identity_check()
    y = np.array([1.0, -0.5, 2.0, 0.3])
    y_hat = np.array([0.2, 0.4, 1.0, 0.1])
    # point 0: c within 1e-9 of p, so m = (c - p)(c - t) cancels
    y_tilde = np.array([0.2 + 1e-9, 0.0, 2.5, 0.3])
    base = dump(tmp_path, "base", y, y_hat, y_tilde)
    # regrouped: c moves by one ulp, as a reordered sum moves it
    moved = y_tilde.copy()
    moved[0] = np.nextafter(moved[0], np.inf)
    regrouped = dump(tmp_path, "regrouped", y, y_hat, moved)
    # flipped: point 1 has m = -0.2, and its M cell turns from 0 to 1
    lines = open(base).read().splitlines()
    cells = lines[2].split(",")
    assert cells[5] == "0"
    lines[2] = ",".join(cells[:5] + ["1"] + cells[6:])
    flipped = str(tmp_path / "flipped" / "masks" / "sample0_cand0.csv")
    os.makedirs(os.path.dirname(flipped))
    with open(flipped, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    verdict, stats = ic.drift(base, regrouped)
    # m's plain relative drift misses a 1e-12 bar; against its factors' scale it is rounding
    assert stats["worst"] > 1e-12 and stats["m_scaled"] < 1e-15
    assert (stats["M"], stats["M_lt"]) == (0, 0)
    assert "y_tilde 0," not in verdict and "M 0 flipped" in verdict and "M_lt 0 flipped" in verdict

    verdict, stats = ic.drift(base, flipped)
    assert (stats["M"], stats["M_lt"], stats["m_scaled"]) == (1, 0, 0.0)
    assert "M 1 flipped" in verdict and "y_tilde 0," in verdict

    results = [("seed0/masks/sample0_cand0.csv", *ic.drift(base, regrouped)),
               ("seed0/masks/sample0_cand1.csv", *ic.drift(base, flipped)),
               ("seed0/masks/sample1_cand0.csv", "identical", {}),
               ("seed0/epochs.csv", "identical", {})]
    summary = ic.kind_summary(results)
    assert summary[0] == "epochs.csv: 0 of 1 differ"
    assert summary[1].startswith("mask dump: 2 of 3 differ, worst relative drift 1, m against its factors' scale ")
    assert summary[1].endswith(", M 1 flipped, M_lt 0 flipped")


def test_checkpoints_compare_block_by_block(tmp_path):
    ic = load_identity_check()
    cfg = ModelConfig(lookback=4, horizon=16)
    named = [("a.w", Var(np.array([[1.0, -2.0], [0.5, 3.0]]))), ("a.b", Var(np.array([0.25, 0.0]))),
             ("g", Var(np.ones(1)))]

    def ckpt(name, params, epoch=0):
        path = str(tmp_path / f"{name}.ckpt")
        save_checkpoint(path, "supervised", cfg, 0, epoch, {"predictor": SimpleNamespace(parameters=lambda: params)})
        return path

    base = ckpt("base", named)
    # one block gone and the best epoch moved: the shared blocks are bit-identical
    verdict, stats = ic.drift(base, ckpt("removed", named[:2], epoch=1))
    assert verdict == "epoch 0 -> 1; only in base: predictor.g; 2 shared blocks, worst relative drift 0"
    assert stats == {"worst": 0.0}
    drifted = [("a.w", Var(np.array([[1.0, -2.0], [0.5, 3.0 * (1 + 1e-9)]]))), *named[1:]]
    verdict, stats = ic.drift(base, ckpt("drifted", drifted))
    assert verdict == "3 shared blocks, worst relative drift 1e-09"
    assert abs(stats["worst"] - 1e-9) < 1e-15
    summary = ic.kind_summary([("seed0/checkpoints/best.ckpt", verdict, stats),
                               ("seed1/checkpoints/best.ckpt", "identical", {})])
    assert summary == ["checkpoint: 1 of 2 differ, worst relative drift 1e-09"]


def test_json_drift_by_key_path_names_changed_counts_and_verdicts(tmp_path):
    ic = load_identity_check()
    base = {"split": "val", "total": {"value": 2.0, "iterations": 12, "converged": True},
            "masked_in": {"value": 0.5, "iterations": 47, "converged": False},
            "trace": [1.0, 3.0], "created_unix": 1}
    head = json.loads(json.dumps(base))
    head["total"]["value"] = 2.0 * (1 + 3e-12)
    head["masked_in"].update(iterations=48, converged=True)
    head["trace"][1] = 3.0 * (1 - 1e-9)
    head["created_unix"] = 2
    paths = []
    for side, doc in (("base", base), ("head", head)):
        paths.append(str(tmp_path / f"{side}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(doc, fh)
    verdict, stats = ic.drift(*paths)
    by_key = verdict.split("; by key: ")[1].split(", ")
    assert by_key[0] == "masked_in.converged false -> true"
    assert by_key[1] == "masked_in.iterations 47 -> 48"
    assert by_key[2].startswith("total.value 3e-12") and by_key[3].startswith("trace[1] 1e-09")
    assert len(by_key) == 4 and stats["worst"] == 1.0  # false -> true reads as 0 -> 1


def test_a_dropped_column_or_added_key_compares_what_both_sides_hold(tmp_path):
    ic = load_identity_check()
    base, head = str(tmp_path / "base.csv"), str(tmp_path / "head.csv")
    with open(base, "w") as fh:
        fh.write("channel_a,channel_b,kl_raw,kl_candidates,kl_intermediate\n0,1,0.5,0.25,0.125\n")
    with open(head, "w") as fh:
        fh.write("channel_a,channel_b,kl_raw,kl_candidates\n0,1,0.5,0.25\n")
    verdict, stats = ic.drift(base, head)
    assert verdict == ("only in base: kl_intermediate; worst relative drift 0; "
                       "by column: channel_a 0, channel_b 0, kl_raw 0, kl_candidates 0")
    assert stats == {"worst": 0.0}
    # one more row: the shared columns no longer line up, so they drift without bound
    with open(head, "a") as fh:
        fh.write("0,2,0.5,0.25\n")
    verdict, stats = ic.drift(base, head)
    assert verdict == ("only in base: kl_intermediate; layout differs: channel_a, channel_b, "
                       "kl_raw, kl_candidates; worst relative drift inf")
    assert stats["worst"] == np.inf

    paths = []
    for side, doc in (("base", {"total": {"value": 2.0}}), ("head", {"total": {"value": 2.0, "windows": 16}})):
        paths.append(str(tmp_path / f"{side}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(doc, fh)
    verdict, stats = ic.drift(*paths)
    assert verdict == "only in head: total.windows; worst relative drift 0"
    assert stats == {"worst": 0.0}
