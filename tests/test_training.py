"""Optimizer, evaluation, and training-loop tests on small synthetic data.

Every run here finishes in well under a second; oracle values for Adam come
from hand-unrolled update recurrences, and the grid-search fixed point uses
an exactly constructed identity reconstruction network.
"""

import dataclasses
import math

import numpy as np
import pytest

from tscorrect.autodiff import ParamStore, Tape, Var
from tscorrect.data import (
    SplitSpec,
    SyntheticConfig,
    WindowDataset,
    build_splits,
    flatten_channels,
    make_synthetic,
    write_csv,
)
from tscorrect.errors import ConfigError, ContractError
from tscorrect.models import (
    MlpPredictor,
    ModelConfig,
    ReconstructionNet,
    load_checkpoint,
    restore_models,
    save_checkpoint,
    top_singular_pair,
)
from tscorrect.training import (
    EPOCH_CSV_FIELDS,
    Adam,
    EpochRecord,
    Sgd,
    TIMING_FIELDS,
    TrainConfig,
    _batch_indices,
    _step,
    evaluate,
    train_grid_search,
    train_scam,
    train_supervised,
)


def toy_bundle(seed=2, sigma1=0.5, sigma2=0.05, length=900):
    raw = make_synthetic(
        SyntheticConfig(length=length, sigma1=sigma1, sigma2=sigma2, window_period=100, seed=seed)
    )
    return build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=32, horizon=16)


def toy_model_config(**kw):
    base = dict(
        backbone="mlp", lookback=32, horizon=16, hidden=16, snr="none",
        dim_multiplier=4, series_count=2, recon_hidden=16,
    )
    base.update(kw)
    return ModelConfig(**base)


def identity_recon(cfg: ModelConfig) -> ReconstructionNet:
    """Reconstruction net that reproduces its input exactly on every head.

    conv1 copies the label into the level-0 feature block (center tap for
    even horizon positions, right tap for odd ones), deeper convs stay zero,
    and the FFN + head compute relu(y) - relu(-y) = y.
    """
    g = ReconstructionNet(cfg, np.random.default_rng(0))
    per = cfg.dim_multiplier // 2
    for _, v in g.parameters():
        v.value[...] = 0.0
    w1, _ = g.convs[0]
    w1.value[:per, 0, 1] = 1.0
    w1.value[per:, 0, 2] = 1.0
    g.ffn_in.w.value[0, 0] = 1.0
    g.ffn_in.w.value[1, 0] = -1.0
    g.heads.w.value[:, 0] = 1.0
    g.heads.w.value[:, 1] = -1.0
    return g


# ---------------------------------------------------------------------------
# optimizers


def store(*params):
    return ParamStore([(f"p{i}", p) for i, p in enumerate(params)])


def test_adam_first_step_is_signed_lr():
    p = Var(np.array([0.0, 0.0]), requires_grad=True)
    opt = Adam(store(p), lr=1e-3)
    p.grad[...] = [2.0, -0.5]
    opt.step()
    # first step: m/c1 = g, v/c2 = g^2, so the move is lr*sign(g) up to eps
    assert np.allclose(p.value, [-1e-3, 1e-3], atol=1e-8)


def test_adam_step_on_a_gradient_of_zeros_is_a_no_op():
    p = Var(np.array([1.5]), requires_grad=True)
    opt = Adam(store(p), lr=0.1)
    opt.step()
    assert p.value[0] == 1.5


def test_adam_two_step_hand_recurrence():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g1, g2 = 3.0, -1.0
    p = Var(np.array([0.2]), requires_grad=True)
    opt = Adam(store(p), lr=lr, beta1=b1, beta2=b2, eps=eps)

    m = v = 0.0
    x = 0.2
    for t, g in enumerate((g1, g2), start=1):
        p.grad[...] = g
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        assert abs(p.value[0] - x) < 1e-12


def test_adam_skips_nonfinite_gradient():
    p = Var(np.array([1.0]), requires_grad=True)
    q = Var(np.array([2.0]), requires_grad=True)
    opt = Adam(store(p, q), lr=0.1)
    p.grad[...] = 1.0
    q.grad[...] = np.nan
    opt.step()
    # one bad gradient poisons the whole step, moments included
    assert p.value[0] == 1.0 and q.value[0] == 2.0
    assert opt.skipped_steps == 1
    assert opt.t == 0
    q.grad[...] = 0.5
    opt.step()
    assert opt.t == 1
    assert p.value[0] != 1.0


def test_sgd_step_and_skip():
    p = Var(np.array([1.0]), requires_grad=True)
    opt = Sgd(store(p), lr=0.25)
    p.grad[...] = 2.0
    opt.step()
    assert p.value[0] == 0.5
    p.grad[...] = np.inf
    opt.step()
    assert p.value[0] == 0.5
    assert opt.skipped_steps == 1


def reference_adam(values, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter Adam loop that the packed optimizer replaced:
    final values, moments m and v, and the number of skipped steps."""
    values = [v.copy() for v in values]
    ms = [np.zeros_like(v) for v in values]
    vs = [np.zeros_like(v) for v in values]
    t = skipped = 0
    for grads in grads_per_step:
        if not all(np.isfinite(g).all() for g in grads):
            skipped += 1
            continue
        t += 1
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, g, m, v in zip(values, grads, ms, vs):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return values, ms, vs, skipped


def reference_sgd(values, grads_per_step, lr):
    values = [v.copy() for v in values]
    skipped = 0
    for grads in grads_per_step:
        if not all(np.isfinite(g).all() for g in grads):
            skipped += 1
            continue
        for p, g in zip(values, grads):
            p -= lr * g
    return values, skipped


def packed_case(seed=0, steps=5, bad_step=2):
    """Parameters of mixed shapes and per-step gradients, one step of which
    holds a NaN in one parameter."""
    rng = np.random.default_rng(seed)
    shapes = [(7, 5), (7,), (1,), (3, 2, 4), (5,)]
    values = [rng.standard_normal(s) for s in shapes]
    grads = [[rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2) for s in shapes] for _ in range(steps)]
    grads[bad_step][3][1, 0, 2] = np.nan
    return values, grads


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_packed_optimizer_equals_per_parameter_loop(kind):
    values, grads = packed_case()
    params = [Var(v, requires_grad=True) for v in values]
    lr = 3e-3
    flat = store(*params)
    opt = Adam(flat, lr, beta1=0.8, beta2=0.99, eps=1e-7) if kind == "adam" else Sgd(flat, lr)
    # the flat order is the list's, and each Var is a view of the store
    assert np.array_equal(flat.value, np.concatenate([v.ravel() for v in values]))
    assert all(np.shares_memory(p.value, flat.value) and np.shares_memory(p.grad, flat.grad) for p in params)
    for step in grads:
        flat.grad.fill(0.0)
        for p, g in zip(params, step):
            p.grad[...] += g
        opt.step()
    if kind == "adam":
        ref, ms, vs, skipped = reference_adam(values, grads, lr, 0.8, 0.99, 1e-7)
        assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in ms]))
        assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in vs]))
        assert opt.t == len(grads) - 1
    else:
        ref, skipped = reference_sgd(values, grads, lr)
    assert opt.skipped_steps == skipped == 1
    for p, r in zip(params, ref):
        assert np.array_equal(p.value, r)


def test_backward_accumulates_into_packed_views():
    rng = np.random.default_rng(4)
    w, b = rng.standard_normal((3, 4)), rng.standard_normal(3)
    x, y = rng.standard_normal((6, 4)), rng.standard_normal((6, 3))

    def grads_of(wv, bv):
        tape = Tape()
        out = tape.linear(tape.constant(x), wv, bv)
        tape.backward(tape.mean(tape.abs(tape.sub(out, tape.constant(y)))))
        return wv.grad.copy(), bv.grad.copy()

    ref = grads_of(Var(w, requires_grad=True), Var(b, requires_grad=True))
    wv, bv = Var(w, requires_grad=True), Var(b, requires_grad=True)
    flat = store(wv, bv)
    opt = Adam(flat, lr=0.1)
    flat.grad[...] = 1.0
    flat.grad.fill(0.0)
    got = grads_of(wv, bv)
    assert all(np.array_equal(a, r) for a, r in zip(got, ref))
    assert np.array_equal(flat.grad, np.concatenate([ref[0].ravel(), ref[1]]))
    opt.step()
    assert np.array_equal(flat.value, np.concatenate([wv.value.ravel(), bv.value]))


def test_step_zeroes_steps_and_resolves_the_singular_pairs():
    # _step drops a stale gradient, steps on what backward accumulates or skips a
    # non-finite sum, leaves u, v the pair of the W it leaves, and returns backward's result
    f = MlpPredictor(toy_model_config(snr="both"), np.random.default_rng(0))
    opt = Sgd(ParamStore(f.parameters()), lr=0.1)
    grad = opt.store.grad
    g1, g2 = np.random.default_rng(1).standard_normal((2, grad.size))
    bad = g1.copy()
    bad[3] = np.nan
    result = object()

    def backward(*passes):
        for g in passes:
            grad[...] += g
        return result

    def assert_exact_pairs():
        for layer in f.layers.values():
            u, v = np.zeros_like(layer.u), np.zeros_like(layer.v)
            top_singular_pair(layer.w.value, u, v)
            assert np.array_equal(layer.u, u) and np.array_equal(layer.v, v)

    before = opt.store.value.copy()
    grad[...] = 1e3
    assert _step(opt, f, backward, bad) is result
    assert opt.skipped_steps == 1 and np.array_equal(opt.store.value, before)
    assert_exact_pairs()
    grad[...] = 1e3
    assert _step(opt, f, backward, g1, g2) is result
    assert opt.skipped_steps == 1
    assert np.array_equal(opt.store.value, before - 0.1 * (g1 + g2))
    assert not np.array_equal(opt.store.value, before)
    assert_exact_pairs()


def test_optimizer_refuses_a_repeated_or_gradless_var():
    p = Var(np.ones(3), requires_grad=True)
    for bad in ([p, p], [p, Var(np.ones(2))]):
        with pytest.raises(ContractError):
            Adam(store(*bad), lr=0.1)
        with pytest.raises(ContractError):
            Sgd(store(*bad), lr=0.1)


def test_train_config_validation():
    with pytest.raises(ConfigError, match="mode"):
        TrainConfig(mode="nope")
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(grid_grad_threshold=0.0)


def test_batch_indices_partition_all_windows():
    rng = np.random.default_rng(0)
    batches = _batch_indices(103, 16, rng)
    assert all(len(b) <= 16 for b in batches)
    joined = np.sort(np.concatenate(batches))
    assert np.array_equal(joined, np.arange(103))


# ---------------------------------------------------------------------------
# evaluation


class _ZeroModel:
    def forward(self, tape: Tape, x: np.ndarray):
        return tape.constant(np.zeros((x.shape[0], 16)))


def test_evaluate_perfect_predictor_is_zero():
    rows = np.full((300, 1), 3.7)
    raw_like = make_synthetic(SyntheticConfig(length=300, amp1=0.0, amp2=0.0,
                                              sigma1=0.0, sigma2=0.0, seed=0))
    raw_like.values[...] = rows
    splits = build_splits(raw_like, SplitSpec(0.6, 0.2, 0.2), lookback=32, horizon=16)
    mse, mae = evaluate(_ZeroModel(), splits.test, batch=64)
    assert mse == 0.0 and mae == 0.0


def test_evaluate_matches_direct_computation():
    splits = toy_bundle(seed=5)
    ds = splits.test
    mse, mae = evaluate(_ZeroModel(), ds, batch=37)
    y = flatten_channels(ds.y)
    assert abs(mse - float(np.mean(y * y))) < 1e-10
    assert abs(mae - float(np.mean(np.abs(y)))) < 1e-10
    assert mse >= mae * mae  # Jensen


def test_evaluate_batch_size_invariance():
    splits = toy_bundle(seed=6)
    a = evaluate(_ZeroModel(), splits.val, batch=7)
    b = evaluate(_ZeroModel(), splits.val, batch=512)
    assert abs(a[0] - b[0]) < 1e-10 and abs(a[1] - b[1]) < 1e-10


def test_evaluate_scaler_restores_raw_units():
    splits = toy_bundle(seed=7)
    std = float(splits.scaler.std[0])
    mse_s, mae_s = evaluate(_ZeroModel(), splits.test, batch=64)
    mse_r, mae_r = evaluate(_ZeroModel(), splits.test, batch=64, scaler=splits.scaler)
    # a zero prediction in scaled units equals mean in raw units, so errors
    # transform by exactly one factor of std per power
    assert abs(mse_r - mse_s * std * std) < 1e-8
    assert abs(mae_r - mae_s * std) < 1e-8


def test_evaluate_empty_dataset_raises():
    empty = WindowDataset(
        x=np.zeros((0, 32, 1)), y=np.zeros((0, 16, 1)),
        origins=np.zeros(0, dtype=np.int64), lookback=32, horizon=16,
    )
    with pytest.raises(ContractError):
        evaluate(_ZeroModel(), empty)


# ---------------------------------------------------------------------------
# supervised loop


def test_supervised_fits_noiseless_sinusoid():
    raw = make_synthetic(SyntheticConfig(length=900, amp2=0.0, omega1=2 * math.pi / 16,
                                         sigma1=0.0, sigma2=0.0, seed=0))
    splits = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=32, horizon=16)
    f = MlpPredictor(toy_model_config(hidden=32), np.random.default_rng(0))
    cfg = TrainConfig(mode="supervised", lr=3e-3, batch_size=64,
                      max_epochs=40, patience=40, seed=0)
    f, records = train_supervised(splits, f, cfg)
    assert records[-1].test_mse < 0.01


def test_early_stop_halts_at_patience():
    splits = toy_bundle(seed=4, sigma1=0.4, sigma2=0.4)
    f = MlpPredictor(toy_model_config(hidden=8), np.random.default_rng(5))
    cfg = TrainConfig(mode="supervised", lr=0.5, batch_size=64,
                      max_epochs=60, patience=3, seed=0)
    f, records = train_supervised(splits, f, cfg)
    vals = [r.val_mse for r in records]
    best = int(np.argmin(vals))
    assert len(records) < cfg.max_epochs  # the lr is hostile enough to trigger it
    assert len(records) == best + cfg.patience + 1


def test_best_state_restored_after_training():
    splits = toy_bundle(seed=4, sigma1=0.4, sigma2=0.4)
    f = MlpPredictor(toy_model_config(hidden=8), np.random.default_rng(5))
    cfg = TrainConfig(mode="supervised", lr=0.5, batch_size=64,
                      max_epochs=60, patience=3, seed=0)
    f, records = train_supervised(splits, f, cfg)
    restored_val, _ = evaluate(f, splits.val, cfg.eval_batch)
    assert restored_val == min(r.val_mse for r in records)


def test_fixed_seed_runs_are_bit_identical():
    splits = toy_bundle(seed=4)

    def run():
        f = MlpPredictor(toy_model_config(hidden=8), np.random.default_rng(7))
        cfg = TrainConfig(mode="supervised", lr=2e-3, batch_size=32,
                          max_epochs=4, patience=4, seed=9)
        f, records = train_supervised(splits, f, cfg)
        return ParamStore(f.parameters()).value, [r.val_mse for r in records]

    (pa, va), (pb, vb) = run(), run()
    assert np.array_equal(pa, pb)
    assert va == vb


# ---------------------------------------------------------------------------
# joint loops


@pytest.fixture(scope="module")
def scam_run():
    splits = toy_bundle(seed=1, sigma1=0.6, length=1000)
    mc = toy_model_config()
    f = MlpPredictor(mc, np.random.default_rng(0))
    g = ReconstructionNet(mc, np.random.default_rng(1))
    cfg = TrainConfig(mode="scam", lr=3e-3, batch_size=64, max_epochs=10,
                      patience=10, seed=0)
    f, g, records = train_scam(splits, g, f, cfg)
    return splits, f, g, records


def test_scam_breakdown_sums_to_co_objective(scam_run):
    _, _, _, records = scam_run
    for r in records:
        four = r.rec_corrected + r.pred_corrected + r.sup_in_mask + r.sup_out_mask
        assert abs(four - (r.loss_rec + r.loss_pred)) < 1e-8


def test_scam_reconstruction_loss_decreases(scam_run):
    _, _, _, records = scam_run
    assert records[-1].loss_rec < records[0].loss_rec


def test_scam_records_are_complete(scam_run):
    _, _, _, records = scam_run
    for i, r in enumerate(records):
        assert r.epoch == i
        for name in EPOCH_CSV_FIELDS:
            v = getattr(r, name)
            if name == "lambda_max":
                assert v is None  # sharpness logging was off
            else:
                assert np.isfinite(v)


def test_scam_batch_loss_reaches_every_recon_parameter(monkeypatch):
    # the trainer's store holds all of g.parameters(), so every one must be trained
    batch_losses = []
    monkeypatch.setattr("tscorrect.training._fit", lambda bundle, f, g, cfg, fn: batch_losses.append(fn) or [])
    splits, mc = toy_bundle(seed=1), toy_model_config()
    g = ReconstructionNet(mc, np.random.default_rng(1))
    train_scam(splits, g, MlpPredictor(mc, np.random.default_rng(0)), TrainConfig(mode="scam", seed=0))
    tape = Tape()
    x, y = (flatten_channels(a[:64]) for a in (splits.train.x, splits.train.y))
    tape.backward(batch_losses[0](tape, x, y)[0])
    assert [name for name, v in g.parameters() if not v.grad.any()] == []


def test_best_epoch_restore_recomputes_the_singular_pairs(tmp_path):
    # the restored weights are the best epoch's, not the last one's, so u and v
    # have to follow them; a checkpoint of the trained model restores the same pairs
    splits = toy_bundle(seed=0, length=700)
    mc = toy_model_config(backbone="linear", snr="both")
    cfg = TrainConfig(mode="supervised", lr=1.0, batch_size=64, max_epochs=3, patience=3, seed=0)
    f, records = train_supervised(splits, MlpPredictor(mc, np.random.default_rng(0)), cfg)
    best = int(np.argmin([r.val_mse for r in records]))
    assert best < len(records) - 1
    layer = f.layers["layer"]
    u, v = np.zeros_like(layer.u), np.zeros_like(layer.v)
    top_singular_pair(layer.w.value, u, v)
    assert np.array_equal(layer.u, u) and np.array_equal(layer.v, v)
    path = str(tmp_path / "best.ckpt")
    save_checkpoint(path, "supervised", mc, seed=0, epoch=best, models={"predictor": f})
    restored = restore_models(*load_checkpoint(path))[1]["predictor"].layers["layer"]
    assert np.array_equal(restored.u, layer.u) and np.array_equal(restored.v, layer.v)


def test_log_sharpness_leaves_training_unchanged():
    # each epoch's curvature context probes a copy of f, never the parameters
    # that the optimizer's store backs
    splits = toy_bundle(seed=1, sigma1=0.6, length=700)
    mc = toy_model_config(snr="both")
    runs = []
    for log in (False, True):
        f = MlpPredictor(mc, np.random.default_rng(0))
        g = ReconstructionNet(mc, np.random.default_rng(1))
        cfg = TrainConfig(mode="scam", lr=3e-3, batch_size=64, max_epochs=3, patience=3, seed=0,
                          log_sharpness=log, sharpness_batch=16)
        f, g, records = train_scam(splits, g, f, cfg)
        pairs = [a for layer in f.layers.values() if layer.snr_enabled for a in (layer.u, layer.v)]
        state = [v.value for _, v in f.parameters() + g.parameters()] + pairs
        runs.append(([a.copy() for a in state], records))
    (state_off, off), (state_on, on) = runs
    assert all(np.array_equal(a, b) for a, b in zip(state_on, state_off))
    skip = {"lambda_max", *TIMING_FIELDS}
    kept = lambda r: {k: v for k, v in dataclasses.asdict(r).items() if k not in skip}
    assert len(on) == 3 and [kept(r) for r in on] == [kept(r) for r in off]
    assert all(r.lambda_max is None for r in off)
    assert all(np.isfinite(r.lambda_max) and r.lambda_max > 0.0 for r in on)


def test_co_objective_mode_runs_and_tracks_losses():
    splits = toy_bundle(seed=3, length=700)
    mc = toy_model_config()
    f = MlpPredictor(mc, np.random.default_rng(0))
    g = ReconstructionNet(mc, np.random.default_rng(1))
    cfg = TrainConfig(mode="co_objective", lr=3e-3, batch_size=64,
                      max_epochs=5, patience=5, seed=0)
    f, g, records = train_scam(splits, g, f, cfg)
    assert len(records) == 5
    assert records[-1].loss_rec < records[0].loss_rec
    for r in records:
        # without masking the in/out split is degenerate: everything co-counts
        assert r.loss_rec >= 0.0 and r.loss_pred >= 0.0
    # the mode selects the loss: the masked one takes another path from the same start
    _, _, masked = train_scam(splits, ReconstructionNet(mc, np.random.default_rng(1)),
                              MlpPredictor(mc, np.random.default_rng(0)),
                              dataclasses.replace(cfg, mode="scam"))
    assert [r.train_mse for r in masked] != [r.train_mse for r in records]


# ---------------------------------------------------------------------------
# candidate grid search


def test_identity_recon_reproduces_labels_exactly():
    cfg = toy_model_config(recon_hidden=8)
    g = identity_recon(cfg)
    y = np.random.default_rng(1).standard_normal((5, cfg.horizon))
    out = g.forward(Tape(), y).value
    for s in range(cfg.series_count):
        assert np.array_equal(out[:, s], y)


def log_phi(monkeypatch) -> list:
    """Patch ReconstructionNet.forward to log the flat phi of each call, in
    the order of outer's ParamStore."""
    phis, forward = [], ReconstructionNet.forward

    def logged(self, tape, y):
        phis.append(np.concatenate([v.value.ravel() for _, v in self.parameters()]))
        return forward(self, tape, y)

    monkeypatch.setattr(ReconstructionNet, "forward", logged)
    return phis


def test_grid_search_identity_is_a_fixed_point(monkeypatch):
    splits = toy_bundle(seed=2)
    mc = toy_model_config(recon_hidden=8)
    g = identity_recon(mc)
    phis = log_phi(monkeypatch)

    def factory(i):
        return MlpPredictor(mc, np.random.default_rng(100 + i))

    cfg = TrainConfig(mode="grid_search", lr=3e-3, batch_size=64, max_epochs=1,
                      patience=1, seed=0, grid_candidates=2, grid_inner_steps=8,
                      grid_outer_lr=0.05)
    _, g, records = train_grid_search(splits, g, factory, cfg)
    # candidates equal labels, so the reconstruction loss is exactly zero and
    # its subgradient vanishes: phi never moves
    for r in records:
        assert r.loss_rec == 0.0
    assert len(phis) > 1 and all(np.array_equal(phis[0], phi) for phi in phis)


@pytest.fixture(scope="module")
def grid_run():
    splits = toy_bundle(seed=2)
    mc = toy_model_config()
    g = ReconstructionNet(mc, np.random.default_rng(3))

    def factory(i):
        return MlpPredictor(mc, np.random.default_rng(100 + i))

    cfg = TrainConfig(mode="grid_search", lr=3e-3, batch_size=64, max_epochs=5,
                      patience=5, seed=0, grid_candidates=6, grid_inner_steps=40,
                      grid_grad_threshold=1e-4, grid_outer_lr=0.05)
    _, g, records = train_grid_search(splits, g, factory, cfg)
    return records


def test_grid_search_returns_the_best_round(monkeypatch):
    splits = toy_bundle(seed=2)
    mc = toy_model_config()
    g = ReconstructionNet(mc, np.random.default_rng(3))
    phis = log_phi(monkeypatch)

    def factory(i):
        return MlpPredictor(mc, np.random.default_rng(100 + i))

    cfg = TrainConfig(mode="grid_search", lr=3e-3, batch_size=64, max_epochs=1, patience=1,
                      seed=0, grid_candidates=3, grid_inner_steps=10, grid_outer_lr=0.05)
    f, g, records = train_grid_search(splits, g, factory, cfg)
    best = min(records, key=lambda r: r.test_mse)
    assert best.index < len(records) - 1  # g must be set back from a later phi
    assert evaluate(f, splits.test, cfg.eval_batch) == (best.test_mse, best.test_mae)
    phi = np.concatenate([v.value.ravel() for _, v in g.parameters()])
    # every round runs the same number of chunks; the best round's first pass reads its phi
    assert np.array_equal(phi, phis[best.index * len(phis) // len(records)])
    assert not np.array_equal(phi, phis[-1])


def test_grid_search_runs_one_recon_pass_per_chunk_and_round(monkeypatch):
    splits = toy_bundle(seed=2)
    mc = toy_model_config()
    g = ReconstructionNet(mc, np.random.default_rng(3))
    calls, forward = [], ReconstructionNet.forward
    monkeypatch.setattr(ReconstructionNet, "forward",
                        lambda self, tape, y: calls.append(len(y)) or forward(self, tape, y))
    cfg = TrainConfig(mode="grid_search", lr=3e-3, batch_size=64, max_epochs=1, patience=1, seed=0,
                      grid_candidates=3, grid_inner_steps=5, grid_outer_lr=0.05, eval_batch=200)
    train_grid_search(splits, g, lambda i: MlpPredictor(mc, np.random.default_rng(100 + i)), cfg)
    chunks = -(-len(splits.train) // cfg.eval_batch)
    assert chunks > 1 and len(calls) == cfg.grid_candidates * chunks


def test_grid_search_sgd_inner_loop_differs_from_adam():
    splits = toy_bundle(seed=2)
    mc = toy_model_config()
    runs = {}
    for kind in ("adam", "sgd"):
        cfg = TrainConfig(mode="grid_search", lr=3e-3, batch_size=64, max_epochs=1, patience=1, seed=0,
                          grid_candidates=2, grid_inner_steps=10, grid_outer_lr=0.05,
                          grid_inner_optimizer=kind)
        g = ReconstructionNet(mc, np.random.default_rng(3))
        factory = lambda i: MlpPredictor(mc, np.random.default_rng(100 + i))
        runs[kind] = train_grid_search(splits, g, factory, cfg)[2]
    for records in runs.values():
        assert len(records) == 2
        for r in records:
            assert 1 <= r.inner_steps <= 10
            assert all(np.isfinite([r.loss_rec, r.loss_pred, r.grad_norm, r.test_mse, r.test_mae]))
    for adam, sgd in zip(runs["adam"], runs["sgd"]):
        assert adam.loss_pred != sgd.loss_pred


def test_grid_search_rec_loss_mostly_non_increasing(grid_run):
    rl = [r.loss_rec for r in grid_run]
    drops = sum(1 for a, b in zip(rl, rl[1:]) if b <= a + 1e-12)
    assert drops >= 0.8 * (len(rl) - 1)


def test_grid_search_records_within_budgets(grid_run):
    for r in grid_run:
        assert 1 <= r.inner_steps <= 40
        assert np.isfinite(r.grad_norm)
        assert np.isfinite(r.test_mse) and np.isfinite(r.test_mae)


# ---------------------------------------------------------------------------
# epoch csv


def test_write_epochs_csv_roundtrip(tmp_path):
    # as run_seed writes epochs.csv
    records = [
        EpochRecord(epoch=0, train_mse=0.5, train_mae=0.4, val_mse=0.6, val_mae=0.5,
                    test_mse=0.7, test_mae=0.55, loss_rec=0.1, wall_time_s=0.01),
        EpochRecord(epoch=1, train_mse=0.25, train_mae=0.3, val_mse=0.45, val_mae=0.42,
                    test_mse=0.6, test_mae=0.5, lambda_max=1.25, wall_time_s=0.02),
    ]
    path = tmp_path / "epochs.csv"
    write_csv(str(path), EPOCH_CSV_FIELDS, map(dataclasses.astuple, records))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(EPOCH_CSV_FIELDS)
    assert len(lines) == 3
    row0 = dict(zip(EPOCH_CSV_FIELDS, lines[1].split(",")))
    row1 = dict(zip(EPOCH_CSV_FIELDS, lines[2].split(",")))
    assert row0["lambda_max"] == ""  # None serializes as an empty cell
    assert float(row1["lambda_max"]) == 1.25
    assert int(row0["epoch"]) == 0
    assert float(row0["train_mse"]) == 0.5
