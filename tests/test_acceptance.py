"""Acceptance gate: one test per release criterion, at the stated tolerance
and runtime budget. Each test prints a single `criterion NN: PASS/FAIL` line
(visible with `pytest -s`, or in the failure report otherwise) and then
asserts, so the -v listing doubles as the scoreboard.

Criteria 6 and 7 benchmark against the standard hourly ETT file, expected at
data/ETTh1.csv under the repository root. The file is not shipped; when it is
absent those tests fail with a message saying so rather than skipping,
because a criterion that never ran is not an accepted one.
"""

import glob
import os
import time

import numpy as np
import pytest

from helpers import (away_from_kinks, conv_levels, fd_model_worst_rel_err, fd_worst_rel_err,
                     loss_identity_check)
from tscorrect.autodiff import ParamStore, Tape
from tscorrect.cli import main
from tscorrect.data import (
    SplitSpec,
    SyntheticConfig,
    build_splits,
    flatten_channels,
    load_csv,
    make_synthetic,
    regime_index,
)
from tscorrect.losses import co_objective_loss, compute_masks, scam_masked_loss, summarize_candidates
from tscorrect.models import (
    ModelConfig,
    MlpPredictor,
    ReconstructionNet,
    SIGMA_FLOOR,
    build_predictor,
    build_recon,
    top_singular_pair,
)
from tscorrect.sharpness import HvpContext, lambda_max, predictor_loss_context
from tscorrect.training import (
    Adam,
    TIMING_FIELDS,
    TrainConfig,
    _step,
    evaluate,
    train_scam,
    train_supervised,
)

ETT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data", "ETTh1.csv")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} | {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: pointwise identity between the co-objective and its
# supervised + masked-min decomposition on 1e6 random triples


def test_criterion_01_masked_objective_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 1_000_000
    y_tilde = rng.standard_normal(n)
    y_hat = rng.standard_normal(n)
    y = rng.standard_normal(n)
    # forced tie blocks: every degenerate configuration the masks can see
    y_tilde[:1000] = y_hat[:1000]  # candidate == prediction
    y_tilde[1000:2000] = y[1000:2000]  # candidate == label
    y_hat[2000:3000] = y[2000:3000]  # prediction == label
    y_tilde[3000:4000] = y_hat[3000:4000] = y[3000:4000]  # all equal
    # candidate exactly centered: |c - p| == |c - t| with opposite signs
    y_tilde[4000:5000] = 0.5 * (y_hat[4000:5000] + y[4000:5000])
    gap = loss_identity_check(y_tilde, y_hat, y)
    dt = time.perf_counter() - t0
    _report(1, gap < 1e-12 and dt < 5.0, f"max pointwise gap {gap:.3e} over {n} triples, {dt:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: central finite differences agree with tape gradients for every
# differentiable primitive and for both full models


def _wmean(tape, v, w):
    # weight elementwise by a fixed random constant so the upstream gradient
    # is generic; a plain mean would hide index permutation bugs
    return tape.mean(tape.mul(v, tape.constant(w)))


def _candidates(rng, n_cand):
    """Stacked candidates c (4, n_cand, 6) for p and t (4, 6), with
    c - t = r (p - t) for r near -1.5, 0.25, 0.75, 1.5 or 2.5: every mask
    region, and no |c - p|, |c - t|, |t - p| or |c - p| - |c - t| near the
    0 where a probe would flip a mask or an abs."""
    t = rng.standard_normal((4, 6))
    d = away_from_kinks(rng.standard_normal((4, 6)))
    r = rng.choice([-1.5, 0.25, 0.75, 1.5, 2.5], size=(4, n_cand, 6)) * rng.uniform(0.9, 1.1, (4, n_cand, 6))
    return t[:, None] + r * d[:, None], t + d, t


def _primitive_checks(rng):
    w43 = rng.standard_normal((4, 3))
    w254 = rng.standard_normal((2, 5, 4))
    w235 = rng.standard_normal((2, 3, 5))
    w34 = rng.standard_normal((3, 4))
    signs = rng.choice([-1.0, 1.0], size=(3, 4))
    w286 = rng.standard_normal((2, 8, 6))
    w1122 = rng.standard_normal((1, 12, 2))
    wmlp = rng.standard_normal((13, 2, 79))  # 13 windows of 79 positions: 1027 rows, 2 pointwise blocks
    w54 = rng.standard_normal((5, 4))
    scale, shift = rng.uniform(0.5, 2.0, (5, 1)), rng.standard_normal((5, 1))
    w53 = rng.standard_normal((5, 3))
    # a p gradient of 0 must mean a loss flat in p, or the probe reads only
    # rounding: an odd count of candidates keeps the co-objective's sum of
    # signs off 0; per point the masked loss's is sign(p - t) times
    # 2 (candidates on M_<) - (candidates off M), with 2 candidates 0 only
    # when neither term is present
    c3, p3, t3 = _candidates(rng, 3)
    c2, p2, t2 = _candidates(rng, 2)
    return [
        ("matmul", lambda t, v: _wmean(t, t.matmul(v[0], v[1]), w43),
         [rng.standard_normal((4, 5)), rng.standard_normal((5, 3))]),
        ("conv1d s2 p1", lambda t, v: _wmean(t, t.conv1d(v[0], v[1], v[2], stride=2, padding=1), w254),
         [rng.standard_normal((2, 3, 8)), rng.standard_normal((5, 3, 3)), rng.standard_normal(5)]),
        ("conv1d s1 p0", lambda t, v: _wmean(t, t.conv1d(v[0], v[1], v[2], stride=1, padding=0), w235),
         [rng.standard_normal((2, 2, 7)), rng.standard_normal((3, 2, 3)), rng.standard_normal(3)]),
        ("conv_pyramid 3 levels", lambda t, v: _wmean(t, t.conv_pyramid(
            v[0], [(v[1], v[2]), (v[3], v[4]), (v[5], v[6])]), w286),
         [rng.standard_normal((2, 8, 2)), rng.standard_normal((4, 2, 3)), rng.standard_normal(4),
          rng.standard_normal((8, 4, 3)), rng.standard_normal(8),
          rng.standard_normal((16, 8, 3)), rng.standard_normal(16)]),
        ("conv_pyramid 2 levels", lambda t, v: _wmean(t, t.conv_pyramid(
            v[0], [(v[1], v[2]), (v[3], v[4])]), w1122),
         [rng.standard_normal((1, 12, 1)), rng.standard_normal((2, 1, 3)), rng.standard_normal(2),
          rng.standard_normal((4, 2, 3)), rng.standard_normal(4)]),
        ("pointwise_mlp 2 blocks", lambda t, v: _wmean(t, t.pointwise_mlp(*v), wmlp),
         [rng.standard_normal((13, 79, 3)), rng.standard_normal((6, 3)),
          rng.standard_normal(6), rng.standard_normal((2, 6)), rng.standard_normal(2)]),
        ("linear", lambda t, v: _wmean(t, t.linear(v[0], v[1], v[2]), w54),
         [rng.standard_normal((5, 3)), rng.standard_normal((4, 3)), rng.standard_normal(4)]),
        ("affine_rows", lambda t, v: _wmean(t, t.affine_rows(v[0], scale, shift), w53),
         [rng.standard_normal((5, 3))]),
        ("candidate_mean co_objective", lambda t, v: co_objective_loss(
            t, v[0], v[1], t3, rec_weight=1.5, pred_weight=0.75), [c3, p3]),
        ("candidate_mean scam", lambda t, v: scam_masked_loss(
            t, v[0], v[1], t2, compute_masks(v[0], v[1], t2)), [c2, p2]),
        ("add", lambda t, v: _wmean(t, t.add(v[0], v[1]), w34),
         [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("sub", lambda t, v: _wmean(t, t.sub(v[0], v[1]), w34),
         [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("mul", lambda t, v: _wmean(t, t.mul(v[0], v[1]), w34),
         [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("mul broadcast", lambda t, v: _wmean(t, t.mul(v[0], v[1]), w34),
         [rng.standard_normal(1), rng.standard_normal((3, 4))]),
        ("mul scalar", lambda t, v: _wmean(t, t.mul(v[0], 1.7), w34),
         [rng.standard_normal((3, 4))]),
        ("abs", lambda t, v: _wmean(t, t.abs(v[0]), w34),
         [away_from_kinks(rng.standard_normal((3, 4)))]),
        ("relu", lambda t, v: _wmean(t, t.relu(v[0]), w34),
         [away_from_kinks(rng.standard_normal((3, 4)))]),
        ("reciprocal", lambda t, v: _wmean(t, t.reciprocal(v[0]), w34),
         [rng.uniform(0.5, 1.5, size=(3, 4)) * signs]),
        ("mean", lambda t, v: t.mean(v[0]),
         [rng.standard_normal((3, 4))]),
        # drawn last, so that every earlier check keeps its draws
        ("spectral_weight", *_spectral_weight_check(rng)),
    ]


def _spectral_weight_check(rng):
    """(build, arrays) for spectral_weight on W (5, 3) and gamma, with u, v
    W's top singular pair, so sigma = u^T W v sits far from the floor."""
    w, gamma, weight = rng.standard_normal((5, 3)), rng.uniform(0.5, 2.0, 1), rng.standard_normal((5, 3))
    lu, _, lvt = np.linalg.svd(w)
    return (lambda t, v: _wmean(t, t.spectral_weight(v[0], v[1], lu[:, 0], lvt[0], SIGMA_FLOOR), weight),
            [w, gamma])


def test_criterion_02_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    worst_name, worst = "", 0.0
    for name, build, arrays in _primitive_checks(rng):
        err = fd_worst_rel_err(build, arrays, rng, samples=20)
        if err > worst:
            worst_name, worst = name, err

    cfg = ModelConfig(backbone="mlp", lookback=16, horizon=16, hidden=8, snr="both",
                      dim_multiplier=4, series_count=2, recon_hidden=8)
    f = MlpPredictor(cfg, np.random.default_rng(33))
    x = rng.standard_normal((6, 16)) * 1.3 + 0.2
    target = rng.standard_normal((6, 16))

    def f_loss(tape=None):
        tape = tape or Tape()
        err_v = tape.sub(f.forward(tape, x), tape.constant(target))
        return tape, tape.mean(tape.mul(err_v, err_v))

    tape, loss = f_loss()
    tape.backward(loss)
    err = fd_model_worst_rel_err(f.parameters(), lambda: f_loss()[1].value.item(),
                                 samples=20, rng=np.random.default_rng(34))
    if err > worst:
        worst_name, worst = "mlp snr=both", err

    g = ReconstructionNet(cfg, np.random.default_rng(35))
    yw = rng.standard_normal((4, 16))
    gtarget = rng.standard_normal((4, 2, 16))

    def g_loss(tape=None):
        # forward covers every parameter: the conv stack, the ffn and the heads
        tape = tape or Tape()
        err_v = tape.sub(g.forward(tape, yw), tape.constant(gtarget))
        return tape, tape.mean(tape.mul(err_v, err_v))

    tape, loss = g_loss()
    tape.backward(loss)
    err = fd_model_worst_rel_err(g.parameters(), lambda: g_loss()[1].value.item(),
                                 samples=20, rng=np.random.default_rng(36))
    if err > worst:
        worst_name, worst = "reconstruction net", err

    dt = time.perf_counter() - t0
    _report(2, worst < 1e-4 and dt < 30.0,
            f"worst fd relative error {worst:.3e} ({worst_name}), {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: spectral norm oracle on random matrices, then the rescaling
# invariant held on every step of a 500-step training run


def test_criterion_03_spectral_rescaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_est = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33))
        w = rng.standard_normal((m, n)) * rng.uniform(0.1, 3.0)
        ref = float(np.linalg.svd(w, compute_uv=False)[0])
        worst_est = max(worst_est, abs(top_singular_pair(w, np.zeros(m), np.zeros(n)) - ref) / ref)

    raw = make_synthetic(SyntheticConfig(length=1400, seed=5))
    bundle = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=32, horizon=16)
    cfg = ModelConfig(backbone="mlp", lookback=32, horizon=16, hidden=24, snr="both",
                      dim_multiplier=4, series_count=2, recon_hidden=8)
    f = MlpPredictor(cfg, np.random.default_rng(7))
    x = flatten_channels(bundle.train.x)
    y = flatten_channels(bundle.train.y)
    opt = Adam(ParamStore(f.parameters()), lr=3e-3)
    layers = [f.layers["layer1"], f.layers["layer2"]]
    worst_dev = 0.0
    batch = 128
    for step in range(500):
        lo = (step * batch) % max(1, x.shape[0] - batch)
        xb, yb = x[lo : lo + batch], y[lo : lo + batch]
        tape = Tape()
        err = tape.sub(f.forward(tape, xb), tape.constant(yb))
        loss = tape.mean(tape.mul(err, err))
        _step(opt, f, tape.backward, loss)
        for layer in layers:
            w_eff = layer.effective_weight(Tape()).value
            sn = float(np.linalg.svd(w_eff, compute_uv=False)[0])
            worst_dev = max(worst_dev, abs(sn - abs(layer.gamma.value.item())))
    dt = time.perf_counter() - t0
    _report(3, worst_est < 1e-6 and worst_dev < 1e-5 and dt < 10.0,
            f"oracle rel err {worst_est:.3e} on 50 matrices; "
            f"worst | ||W_eff||_2 - |gamma| | = {worst_dev:.3e} over 500 steps x 2 layers, {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: conv level l sees an input window of width 2^(l+1) - 1
# (3/7/15/31) and exactly zero outside it, checked by exhaustive perturbation


def test_criterion_04_receptive_field():
    t0 = time.perf_counter()
    n = 64
    cfg = ModelConfig(backbone="mlp", lookback=n, horizon=n, hidden=8, snr="none",
                      dim_multiplier=4, series_count=2, recon_hidden=8)
    widths = []
    for trial in range(3):
        g = ReconstructionNet(cfg, np.random.default_rng(40 + trial))
        rng = np.random.default_rng(50 + trial)
        base = rng.uniform(-1.0, 1.0, size=(1, n))
        batch = np.repeat(base, n + 1, axis=0)
        delta = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        batch[np.arange(1, n + 1), np.arange(n)] += delta
        # each level's conv output, read back from its slice of encode's features
        for level, feats in enumerate(conv_levels(g, batch)):  # (n+1, T, C)
            leak = np.abs(feats[1:] - feats[:1]).max(axis=2)  # (input i, conv t)
            l1 = level + 1
            half = (1 << l1) - 1
            centers = np.arange(feats.shape[1]) * (1 << l1)
            allowed = np.abs(np.arange(n)[:, None] - centers[None, :]) <= half
            assert np.all(leak[~allowed] == 0.0), f"level {l1}: leakage outside width {2 * half + 1}"
            assert np.any(leak[allowed] != 0.0), f"level {l1}: perturbations never reached the window"
            if trial == 0:
                widths.append(2 * half + 1)
    dt = time.perf_counter() - t0
    _report(4, dt < 10.0,
            f"widths {'/'.join(map(str, widths))} exact, zero leakage outside, "
            f"{3 * 4 * n} perturbations, {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: curvature oracle on random 20-parameter quadratics


def test_criterion_05_sharpness_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    hits, worst = 0, 0.0
    for trial in range(50):
        m = rng.standard_normal((20, 20))
        a = 0.5 * (m + m.T)

        def loss_and_grad(theta, a=a):
            g = a @ theta
            return 0.5 * float(theta @ g), g

        ctx = HvpContext(theta0=np.zeros(20), loss_and_grad=loss_and_grad)
        ref = float(np.linalg.eigvalsh(a)[-1])
        res = lambda_max(ctx, seed=trial)
        rel = abs(res.value - ref) / abs(ref)
        worst = max(worst, rel)
        hits += rel < 1e-3
    dt = time.perf_counter() - t0
    _report(5, hits == 50 and dt < 10.0,
            f"{hits}/50 trials within 1e-3 of dense eigensolve (worst rel err {worst:.3e}), {dt:.1f}s")


# ---------------------------------------------------------------------------
# criteria 6 and 7: desk-scale ETTh1 benchmark


ETT_SEEDS = (0, 1, 2)
_ETT_CACHE: dict[tuple, float] = {}
_ETT_BUNDLE: list = []


def _etth1_bundle(path):
    if not _ETT_BUNDLE:
        raw = load_csv(path)
        _ETT_BUNDLE.append(build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=96, horizon=96))
    return _ETT_BUNDLE[0]


def _etth1_test_mse(path, mode, snr, seed):
    key = (mode, snr, seed)
    if key in _ETT_CACHE:
        return _ETT_CACHE[key]
    bundle = _etth1_bundle(path)
    mc = ModelConfig(backbone="mlp", lookback=96, horizon=96, hidden=256, snr=snr,
                     dim_multiplier=4, series_count=4, recon_hidden=64)
    f = build_predictor(mc, np.random.default_rng([seed, 20]))
    cfg = TrainConfig(mode=mode, lr=1e-3, batch_size=128, max_epochs=8, patience=3, seed=seed)
    if mode == "supervised":
        train_supervised(bundle, f, cfg)
    else:
        g = build_recon(mc, np.random.default_rng([seed, 21]))
        train_scam(bundle, g, f, cfg)
    mse, _ = evaluate(f, bundle.test, batch=cfg.eval_batch)
    _ETT_CACHE[key] = mse
    return mse


def test_criterion_06_benchmark_improvement():
    if not os.path.exists(ETT_PATH):
        _report(6, False, "data/ETTh1.csv not present in this environment; place the standard "
                          "hourly file there to run the benchmark (logic implemented and ready)")
    t0 = time.perf_counter()
    sup = [_etth1_test_mse(ETT_PATH, "supervised", "none", s) for s in ETT_SEEDS]
    cor = [_etth1_test_mse(ETT_PATH, "scam", "both", s) for s in ETT_SEEDS]
    gains = [a - b for a, b in zip(sup, cor)]
    dt = time.perf_counter() - t0
    band_ok = all(0.36 <= m <= 0.42 for m in sup)
    primary = float(np.mean(gains)) >= 0.003 and min(gains) >= -0.002
    fallback = sum(gain > 0 for gain in gains) >= 2
    note = "" if primary else f" [fallback: paired improvement on {sum(g > 0 for g in gains)}/3 seeds]"
    _report(6, band_ok and (primary or fallback) and dt < 1800.0,
            f"supervised mse {[round(m, 4) for m in sup]}, gains {[round(g, 4) for g in gains]}"
            f"{note}, {dt:.0f}s")


def test_criterion_07_ablation_ordering():
    if not os.path.exists(ETT_PATH):
        _report(7, False, "data/ETTh1.csv not present in this environment; place the standard "
                          "hourly file there to run the ablation (logic implemented and ready)")
    variants = [("supervised", "none"), ("supervised", "both"), ("scam", "none"), ("scam", "both")]
    means = [float(np.mean([_etth1_test_mse(ETT_PATH, m, s, seed) for seed in ETT_SEEDS]))
             for m, s in variants]
    # non-increasing chain, one adjacent inversion of at most 0.002 forgiven
    inversions = [nxt - cur for cur, nxt in zip(means, means[1:]) if nxt > cur]
    ok = len(inversions) == 0 or (len(inversions) == 1 and inversions[0] <= 0.002)
    labels = ["sup", "+snr", "+corr", "+both"]
    _report(7, ok, ", ".join(f"{l}={m:.4f}" for l, m in zip(labels, means)))


# ---------------------------------------------------------------------------
# criteria 8 and 9: two-regime toy runs shared by both tests


@pytest.fixture(scope="module")
def toy_runs():
    runs = []
    t0 = time.perf_counter()
    for seed in range(5):
        raw = make_synthetic(SyntheticConfig(length=2400, sigma1=1.0, sigma2=0.1,
                                             window_period=200, seed=seed))
        bundle = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=96, horizon=16)
        mc = ModelConfig(backbone="mlp", lookback=96, horizon=16, hidden=64, snr="none",
                         dim_multiplier=4, series_count=4, recon_hidden=32)
        f = MlpPredictor(mc, np.random.default_rng([seed, 10]))
        g = ReconstructionNet(mc, np.random.default_rng([seed, 11]))
        cfg = TrainConfig(mode="scam", lr=3e-3, batch_size=128, max_epochs=10,
                          patience=10, seed=seed)
        train_scam(bundle, g, f, cfg)

        ds = bundle.train
        x = flatten_channels(ds.x)
        y = flatten_channels(ds.y)
        y_hat = f.forward(Tape(), x).value
        cands = g.forward(Tape(), y).value  # (n, S, H)
        mask_mean, rec_ind, _, _ = summarize_candidates(cands, y_hat, y)
        # regime of each forecast target row; even-indexed regimes carry sigma1
        rows = ds.origins[:, None] + ds.lookback + np.arange(ds.horizon)[None, :]
        high = regime_index(rows, 200) % 2 == 0
        runs.append({
            "rate_high": float(rec_ind[high].mean()),
            "rate_low": float(rec_ind[~high].mean()),
            "f": f,
            "train": ds,
            "mask_mean": mask_mean,
        })
    runs.append(time.perf_counter() - t0)
    return runs


def test_criterion_08_regime_correction_rates(toy_runs):
    *runs, dt = toy_runs
    wins = sum(r["rate_high"] > r["rate_low"] for r in runs)
    detail = ", ".join(f"s{i}: hi {r['rate_high']:.3f} lo {r['rate_low']:.3f}"
                       for i, r in enumerate(runs))
    _report(8, wins >= 4 and dt < 300.0,
            f"reconstruction-corrected rate higher in high-noise regimes on {wins}/5 seeds "
            f"({detail}), {dt:.0f}s")


def test_criterion_09_masked_sharpness_direction(toy_runs):
    *runs, _ = toy_runs
    wins = 0
    details = []
    for i, r in enumerate(runs):
        take = min(512, r["mask_mean"].shape[0])
        w_in = r["mask_mean"][:take]
        ctx_in = predictor_loss_context(r["f"], r["train"], batch=take, point_weights=w_in)
        ctx_out = predictor_loss_context(r["f"], r["train"], batch=take, point_weights=1.0 - w_in)
        lam_in = lambda_max(ctx_in, seed=i).value
        lam_out = lambda_max(ctx_out, seed=i).value
        wins += lam_out < lam_in
        details.append(f"s{i}: in {lam_in:.2f} out {lam_out:.2f}")
    _report(9, wins >= 4,
            f"masked-out target loss flatter than masked-in on {wins}/5 seeds ({', '.join(details)})")


# ---------------------------------------------------------------------------
# criterion 10: bit-identical reruns


DET_CONFIG = """
[experiment]
mode = scam
seeds = 0
out_dir = {out}
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
snr = both
dim_multiplier = 4
series_count = 2
recon_hidden = 8

[train]
batch_size = 64
max_epochs = 3
patience = 3
"""


def _epochs_rows_without_timing(out_dir):
    paths = glob.glob(os.path.join(out_dir, "*", "seed0", "epochs.csv"))
    assert len(paths) == 1, f"expected one epochs.csv under {out_dir}, found {paths}"
    with open(paths[0]) as fh:
        lines = fh.read().splitlines()
    drop = {i for i, name in enumerate(lines[0].split(",")) if name in TIMING_FIELDS}
    return [[c for i, c in enumerate(row.split(",")) if i not in drop] for row in lines]


def test_criterion_10_determinism(tmp_path):
    cfg_path = os.path.join(str(tmp_path), "det.ini")
    with open(cfg_path, "w") as fh:
        fh.write(DET_CONFIG.format(out=os.path.join(str(tmp_path), "unused")))
    out_a = os.path.join(str(tmp_path), "a")
    out_b = os.path.join(str(tmp_path), "b")
    assert main(["train", "--config", cfg_path, "--out", out_a]) == 0
    assert main(["train", "--config", cfg_path, "--out", out_b]) == 0
    rows_a = _epochs_rows_without_timing(out_a)
    rows_b = _epochs_rows_without_timing(out_b)
    _report(10, rows_a == rows_b,
            f"{len(rows_a) - 1} epoch rows byte-identical across reruns "
            f"after dropping {sorted(TIMING_FIELDS)}")
