#!/usr/bin/env python3
"""Per-regime correction behavior on the two-regime toy.

Trains the masked-correction objective on a synthetic series whose label
noise alternates between sigma1 and sigma2 every window_period steps, then
reports per regime and seed:

  * mask rate        P(M=1): candidate corrections that activate,
  * joint rec rate   P(M=1, M_lt=0): points pulled toward the reconstruction,
  * in-mask share    P(M_lt=0 | M=1): composition of the active corrections,
  * rec loss mass    mean of 2|c - t| over the rec-corrected points,

plus the top curvature (lambda_max) of the target loss restricted to the
masked-in versus masked-out points. One CSV row per seed and regime.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from tscorrect.autodiff import Tape
from tscorrect.data import (SplitSpec, SyntheticConfig, build_splits,
                            flatten_channels, make_synthetic, regime_index)
from tscorrect.losses import summarize_candidates
from tscorrect.models import ModelConfig, MlpPredictor, ReconstructionNet
from tscorrect.sharpness import lambda_max, predictor_loss_context
from tscorrect.training import TrainConfig, train_scam


def run_seed(args, seed):
    raw = make_synthetic(SyntheticConfig(
        length=args.length, sigma1=args.sigma1, sigma2=args.sigma2,
        window_period=args.window_period, seed=seed))
    bundle = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), args.lookback, args.horizon)
    mc = ModelConfig(backbone="mlp", lookback=args.lookback, horizon=args.horizon,
                     hidden=args.hidden, snr="none", dim_multiplier=4,
                     series_count=args.candidates, recon_hidden=args.recon_hidden)
    f = MlpPredictor(mc, np.random.default_rng([seed, 10]))
    g = ReconstructionNet(mc, np.random.default_rng([seed, 11]))
    cfg = TrainConfig(mode="scam", lr=args.lr, batch_size=args.batch,
                      max_epochs=args.epochs, patience=args.epochs, seed=seed)
    train_scam(bundle, g, f, cfg)

    ds = bundle.train
    x = flatten_channels(ds.x)
    y = flatten_channels(ds.y)
    y_hat = f.forward(Tape(record=False), x).value
    cands = g.forward(Tape(record=False), y).value
    mask, rec, rec_mass, _ = summarize_candidates(cands, y_hat, y)

    rows = ds.origins[:, None] + ds.lookback + np.arange(ds.horizon)[None, :]
    high = regime_index(rows, args.window_period) % 2 == 0  # even regimes carry sigma1

    take = min(512, mask.shape[0])
    lam_in = lambda_max(predictor_loss_context(f, ds, batch=take,
                                               point_weights=mask[:take]), seed=seed).value
    lam_out = lambda_max(predictor_loss_context(f, ds, batch=take,
                                                point_weights=1.0 - mask[:take]), seed=seed).value

    out = []
    for name, sel in (("high", high), ("low", ~high)):
        m_rate = float(mask[sel].mean())
        j_rate = float(rec[sel].mean())
        out.append({
            "seed": seed, "regime": name,
            "mask_rate": m_rate,
            "joint_rec_rate": j_rate,
            "in_mask_rec_share": j_rate / m_rate if m_rate > 0 else float("nan"),
            "rec_loss_mass": float(rec_mass[sel].mean()),
            "lambda_masked_in": lam_in,
            "lambda_masked_out": lam_out,
        })
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--length", type=int, default=2400)
    ap.add_argument("--sigma1", type=float, default=1.0)
    ap.add_argument("--sigma2", type=float, default=0.1)
    ap.add_argument("--window-period", type=int, default=200)
    ap.add_argument("--lookback", type=int, default=96)
    ap.add_argument("--horizon", type=int, default=16)
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--candidates", type=int, default=4)
    ap.add_argument("--recon-hidden", type=int, default=32)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--batch", type=int, default=128)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--out", default="toy_regime_study.csv")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds is a count of seeds and must be >= 1, got {args.seeds}")

    t0 = time.time()
    rows = []
    for seed in range(args.seeds):
        rows.extend(run_seed(args, seed))
        hi, lo = rows[-2], rows[-1]
        print(f"seed {seed}: mask hi/lo {hi['mask_rate']:.3f}/{lo['mask_rate']:.3f}  "
              f"joint rec hi/lo {hi['joint_rec_rate']:.3f}/{lo['joint_rec_rate']:.3f}  "
              f"in-mask share hi/lo {hi['in_mask_rec_share']:.3f}/{lo['in_mask_rec_share']:.3f}  "
              f"lambda in/out {hi['lambda_masked_in']:.2f}/{hi['lambda_masked_out']:.2f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows) in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
