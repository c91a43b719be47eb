import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscorrect import models as models_module
from tscorrect.autodiff import ParamStore, Tape, Var
from tscorrect.errors import ConfigError, DimensionError, LoadError
from tscorrect.models import (
    _CKPT_VERSION,
    LinearLayer,
    ModelConfig,
    SIGMA_FLOOR,
    ReconstructionNet,
    RevIn,
    build_predictor,
    build_recon,
    load_checkpoint,
    restore_models,
    save_checkpoint,
    top_singular_pair,
)
from helpers import conv_levels, fd_model_worst_rel_err, reference_tile_pyramid

RNG = np.random.default_rng


def tiny_cfg(**kw):
    base = dict(lookback=16, horizon=16, hidden=6, snr="both", dim_multiplier=2,
                series_count=3, recon_hidden=8)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# spectral norm


def spectral_norm(w):
    return top_singular_pair(w, np.zeros(len(w)), np.zeros(w.shape[1]))


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, rel=1e-12)


def test_spectral_norm_nilpotent():
    assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, rel=1e-12)


def test_spectral_norm_zero_matrix_floor():
    assert spectral_norm(np.zeros((3, 5))) == pytest.approx(1e-12)


def test_spectral_norm_vs_dense_eigensolve():
    worst = 0.0
    for seed in range(50):
        rng = RNG(seed)
        w = rng.standard_normal((8, 8))
        oracle = np.sqrt(np.linalg.eigvalsh(w.T @ w)[-1])
        worst = max(worst, abs(spectral_norm(w) - oracle) / oracle)
    assert worst < 1e-6


def test_spectral_norm_rectangular_up_to_32():
    rng = RNG(123)
    for _ in range(50):
        m, n = rng.integers(1, 33, size=2)
        w = rng.standard_normal((m, n))
        oracle = np.linalg.svd(w, compute_uv=False)[0]
        assert abs(spectral_norm(w) - oracle) / oracle < 1e-6


def _snr_layer(w, rng):
    """A rescaled layer whose weight is w, synced to it."""
    layer = LinearLayer(w.shape[1], w.shape[0], rng, snr_enabled=True)
    layer.w.value[...] = w
    layer.spectral_step()
    return layer


def _sigma(layer, w):
    """The layer's current sigma_max estimate for w: u^T w v, floored."""
    return max(float(layer.u @ (w @ layer.v)), SIGMA_FLOOR)


def test_power_iter_state_matches_svd_at_init():
    for seed in range(10):
        rng = RNG([seed, 77])
        layer = LinearLayer(16, 24, rng, snr_enabled=True)
        w = layer.w.value
        oracle = np.linalg.svd(w, compute_uv=False)[0]
        assert abs(_sigma(layer, w) - oracle) / oracle < 1e-7


def test_power_iter_state_tracks_drifting_weights():
    rng = RNG(5)
    layer = _snr_layer(rng.uniform(-0.1, 0.1, size=(40, 24)), rng)
    w = layer.w.value
    worst = 0.0
    for _ in range(100):
        w += rng.standard_normal(w.shape) * 1e-4
        layer.spectral_step()
        oracle = np.linalg.svd(w, compute_uv=False)[0]
        worst = max(worst, abs(_sigma(layer, w) - oracle) / oracle)
    assert worst < 1e-7


def _assert_exact_pair(w, layer, sigma):
    oracle = np.linalg.svd(w, compute_uv=False)[0]
    assert abs(sigma - oracle) <= 1e-12 * oracle
    assert abs(_sigma(layer, w) - oracle) <= 1e-12 * oracle
    assert np.linalg.norm(w.T @ layer.u - sigma * layer.v) <= 1e-10 * sigma
    assert np.linalg.norm(w @ layer.v - sigma * layer.u) <= 1e-10 * sigma


def test_sync_exact_on_clustered_top_singular_values():
    # the spectrum training under rescaling produces in a 256x96 layer: four
    # leading values within 2% of each other, where a single power-iteration
    # vector converges at the (sigma_2/sigma_1)^2 rate and stalls
    rng = RNG(31)
    left = np.linalg.qr(rng.standard_normal((256, 96)))[0]
    right = np.linalg.qr(rng.standard_normal((96, 96)))[0]
    svals = np.concatenate([[1.696, 1.688, 1.675, 1.662, 1.40], np.linspace(1.3, 0.05, 91)])
    layer = _snr_layer((left * svals) @ right.T, rng)
    w = layer.w.value
    for _ in range(20):
        w += 1e-3 * rng.standard_normal(w.shape)
        _assert_exact_pair(w, layer, top_singular_pair(w, layer.u, layer.v))


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (96, 96), (256, 96), (96, 256)])
def test_sync_exact_on_every_shape(shape):
    rng = RNG([32, *shape])
    layer = LinearLayer(shape[1], shape[0], rng, snr_enabled=True)
    w = layer.w.value
    _assert_exact_pair(w, layer, top_singular_pair(w, layer.u, layer.v))
    assert np.linalg.norm(layer.u) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(layer.v) == pytest.approx(1.0, abs=1e-14)


def test_sync_rank_one_exact():
    rng = RNG(33)
    a, b = rng.standard_normal(9), rng.standard_normal(5)
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    layer = _snr_layer(2.5 * np.outer(a, b), rng)
    assert top_singular_pair(layer.w.value, layer.u, layer.v) == pytest.approx(2.5, rel=1e-14)
    assert abs(layer.u @ a) == pytest.approx(1.0, abs=1e-14)
    assert abs(layer.v @ b) == pytest.approx(1.0, abs=1e-14)


def test_sync_zero_matrix_keeps_unit_vectors():
    rng = RNG(34)
    layer = _snr_layer(np.zeros((6, 4)), rng)
    layer.w.value[...] = rng.standard_normal((6, 4))
    layer.spectral_step()
    u, v = layer.u.copy(), layer.v.copy()
    layer.w.value[...] = 0.0
    assert top_singular_pair(layer.w.value, layer.u, layer.v) == SIGMA_FLOOR
    layer.spectral_step()
    assert np.array_equal(layer.u, u) and np.array_equal(layer.v, v)
    for vec in (layer.u, layer.v):
        assert np.all(np.isfinite(vec))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    # a degenerate weight freezes the normalizer instead of dividing by ~0
    assert np.array_equal(layer.effective_weight(Tape()).value, np.zeros((6, 4)))


@pytest.mark.parametrize("in_dim,out_dim", [(12, 7), (96, 256), (256, 96), (96, 96), (5, 1), (1, 5)])
def test_snr_layer_init_draws_unchanged(in_dim, out_dim):
    # the draws of the former block power-iteration start, in order: W, u (m),
    # v (n) and an (n, min(4, m, n) - 1) block; every later draw from the
    # same generator, and so every seed's initial parameters, depends on it
    rng, ref = RNG(35), RNG(35)
    LinearLayer(in_dim, out_dim, rng, snr_enabled=True)
    ref.uniform(size=(out_dim, in_dim))
    ref.standard_normal(out_dim)
    ref.standard_normal(in_dim)
    ref.standard_normal((in_dim, min(4, out_dim, in_dim) - 1))
    assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# SNR layer


def test_effective_weight_norm_equals_gamma():
    rng = RNG(8)
    layer = LinearLayer(12, 7, rng, snr_enabled=True)
    layer.gamma.value[:] = -1.7
    we = layer.effective_weight(Tape()).value
    assert abs(np.linalg.svd(we, compute_uv=False)[0] - 1.7) < 1e-5 * 1.7


def test_effective_weight_diagonal_hand_case():
    rng = RNG(9)
    layer = LinearLayer(2, 2, rng, snr_enabled=True)
    layer.w.value[:] = np.diag([3.0, 4.0])
    layer.spectral_step()
    we = layer.effective_weight(Tape()).value
    assert np.allclose(we, np.diag([0.75, 1.0]), atol=1e-9)


def test_snr_gradient_matches_finite_differences():
    rng = RNG(10)
    layer = LinearLayer(5, 4, rng, snr_enabled=True)
    x = rng.standard_normal((3, 5)) + 0.3

    def loss_value():
        t = Tape()
        return t.mean(t.abs(layer.apply(t, Var(x)))).value.item()

    t = Tape()
    loss = t.mean(t.abs(layer.apply(t, Var(x))))
    t.backward(loss)
    err = fd_model_worst_rel_err(layer.params(), loss_value, samples=20, rng=rng)
    assert err < 1e-4


def test_plain_layer_has_no_gamma():
    layer = LinearLayer(3, 2, RNG(0), snr_enabled=False)
    assert [n for n, _ in layer.params()] == ["w", "b"]
    assert not hasattr(layer, "u") and not hasattr(layer, "v")


# ---------------------------------------------------------------------------
# RevIN


def test_revin_hand_case():
    rv = RevIn()
    t = Tape()
    out, stats = rv.normalize(t, np.array([[1.0, 3.0]]))
    assert np.allclose(out.value, [[-1.0, 1.0]], atol=1e-3)


def test_revin_roundtrip():
    rv = RevIn()
    rng = RNG(2)
    x = rng.standard_normal((5, 24)) * 3 + 1
    t = Tape()
    normed, stats = rv.normalize(t, x)
    back = rv.denormalize(t, normed, stats)
    assert np.abs(back.value - x).max() < 1e-9


def test_revin_constant_window():
    rv = RevIn()
    t = Tape()
    x = np.full((1, 3), 2.0)
    normed, stats = rv.normalize(t, x)
    assert np.abs(normed.value).max() < 1e-6
    back = rv.denormalize(t, normed, stats)
    assert np.allclose(back.value, 2.0, atol=1e-9)


def test_revin_affine_roundtrip_and_grads():
    rv = RevIn(affine=True)
    rng = RNG(3)
    x = rng.standard_normal((4, 10))
    t = Tape()
    normed, stats = rv.normalize(t, x)
    back = rv.denormalize(t, normed, stats)
    assert np.abs(back.value - x).max() < 1e-8

    def loss_value():
        t2 = Tape()
        n2, s2 = rv.normalize(t2, x)
        return t2.mean(t2.abs(rv.denormalize(t2, n2, s2))).value.item()

    t3 = Tape()
    n3, s3 = rv.normalize(t3, x)
    t3.backward(t3.mean(t3.abs(rv.denormalize(t3, n3, s3))))
    assert fd_model_worst_rel_err(rv.params(), loss_value, rng=rng) < 1e-4


def revin_reference(rv, tape, x, y):
    """RevIn as written before its fused form: statistics from np.var, and
    the inverse as mul and add of np.repeat'ed constants."""
    mu = x.mean(axis=1, keepdims=True)
    sd = np.sqrt(x.var(axis=1, keepdims=True) + rv.eps)
    normed = tape.constant((x - mu) / sd)
    if rv.affine:
        normed = tape.add(tape.mul(normed, rv.weight), rv.bias)
        y = tape.mul(tape.sub(y, rv.bias), tape.reciprocal(rv.weight))
    h = y.value.shape[1]
    y = tape.mul(y, tape.constant(np.repeat(sd, h, axis=1)))
    return normed, tape.add(y, tape.constant(np.repeat(mu, h, axis=1)))


@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("rows, lookback, horizon", [(1, 32, 16), (7, 96, 96), (64, 32, 16), (33, 5, 3)])
def test_revin_equals_var_and_repeat_form(affine, rows, lookback, horizon):
    rng = RNG(rows * lookback)
    x = rng.standard_normal((rows, lookback)) * rng.uniform(0.1, 50.0, (rows, 1)) + rng.uniform(-20, 20, (rows, 1))
    x[0] = 2.5  # a constant window: the variance is exactly 0
    y0, up_out = rng.standard_normal((2, rows, horizon))
    up_in = rng.standard_normal((rows, lookback))
    results = []
    for fused in (True, False):
        rv = RevIn(affine=affine)
        if affine:
            rv.weight.value[...], rv.bias.value[...] = 1.3, -0.2
        tape, y = Tape(), Var(y0, requires_grad=True)
        if fused:
            normed, stats = rv.normalize(tape, x)
            out = rv.denormalize(tape, y, stats)
        else:
            normed, out = revin_reference(rv, tape, x, y)
        loss = tape.mean(tape.mul(out, tape.constant(up_out)))
        if affine:  # the weight and bias also act through the normalized input
            loss = tape.add(loss, tape.mean(tape.mul(normed, tape.constant(up_in))))
        tape.backward(loss)
        results.append([normed.value, out.value, y.grad] + [v.grad for _, v in rv.params()])
    for got, ref in zip(*results):
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# predictor


def test_translation_equivariance():
    cfg = tiny_cfg()
    f = build_predictor(cfg, RNG([0, 10]))
    x = RNG(4).standard_normal((3, 16))
    a = f.forward(Tape(), x).value
    b = f.forward(Tape(), x + 5.0).value
    assert np.abs((b - a) - 5.0).max() < 1e-9


def test_zero_weights_predict_window_mean():
    cfg = tiny_cfg(snr="none")
    f = build_predictor(cfg, RNG([0, 10]))
    for _, p in f.parameters():
        p.value[:] = 0.0
    x = RNG(5).standard_normal((4, 16))
    out = f.forward(Tape(), x).value
    assert np.abs(out - x.mean(axis=1, keepdims=True)).max() < 1e-12


def test_batch_axis_independence():
    # rows are independent samples; BLAS picks different kernels per batch
    # size, so equality holds to last-bit reordering rather than bit-exactly
    cfg = tiny_cfg()
    f = build_predictor(cfg, RNG([0, 10]))
    x = RNG(6).standard_normal((2, 16))
    both = f.forward(Tape(), x).value
    one = f.forward(Tape(), x[:1]).value
    two = f.forward(Tape(), x[1:]).value
    assert np.abs(both - np.concatenate([one, two], axis=0)).max() < 1e-12


def test_linear_backbone_single_layer():
    cfg = tiny_cfg(backbone="linear", snr="pre")
    f = build_predictor(cfg, RNG([0, 10]))
    names = [n for n, _ in f.parameters()]
    assert any("gamma" in n for n in names)
    assert f.forward(Tape(), RNG(7).standard_normal((2, 16))).value.shape == (2, 16)


def test_mlp_parameter_count_pin():
    cfg = ModelConfig(lookback=96, horizon=96, hidden=512, snr="both")
    f = build_predictor(cfg, RNG([0, 10]))
    # (96*512 + 512) + (512*96 + 96) + two gammas
    assert ParamStore(f.parameters()).value.size == 98914


def test_mlp_parameter_count_pin_no_snr():
    cfg = ModelConfig(lookback=96, horizon=96, hidden=512, snr="none")
    f = build_predictor(cfg, RNG([0, 10]))
    assert ParamStore(f.parameters()).value.size == 98912


def test_mlp_gradient_vs_finite_differences():
    cfg = tiny_cfg()
    f = build_predictor(cfg, RNG([0, 10]))
    x = RNG(8).standard_normal((4, 16)) * 0.5 + 1.0
    y = RNG(9).standard_normal((4, 16))

    def loss_value():
        t = Tape()
        return t.mean(t.abs(t.sub(f.forward(t, x), t.constant(y)))).value.item()

    t = Tape()
    t.backward(t.mean(t.abs(t.sub(f.forward(t, x), t.constant(y)))))
    assert fd_model_worst_rel_err(f.parameters(), loss_value, rng=RNG(11)) < 1e-4


def test_horizon_must_match_conv_stack():
    with pytest.raises(ConfigError):
        ModelConfig(lookback=16, horizon=20, hidden=6)


# ---------------------------------------------------------------------------
# reconstruction net


def test_recon_shape_walk():
    cfg = ModelConfig(lookback=96, horizon=96, hidden=512, dim_multiplier=4, series_count=8)
    g = build_recon(cfg, RNG([0, 11]))
    y = RNG(12).standard_normal((2, 96))
    feats = g.encode(Tape(), y)
    assert feats.value.shape == (2, 96, 8)  # H positions, d_feat = 2*dm
    assert [w.value.shape[0] for w, _ in g.convs] == [4, 8, 16, 32]
    lengths = [level.shape[1] for level in conv_levels(g, y)]
    assert lengths == [48, 24, 12, 6]
    # each level contributes dm/2 features per horizon position: 2*96 per layer
    assert all(t_l * c_l == 2 * 96 for t_l, c_l in zip(lengths, [4, 8, 16, 32]))
    out = g.forward(Tape(), y)
    assert out.value.shape == (2, 8, 96)


def reference_encode(g, y, upstream):
    """Tape.conv_pyramid on g's encoder, from reference_tile_pyramid: the
    (B, H, d_feat) features and the conv weight and bias gradients for the
    upstream gradient."""
    feats, backward = reference_tile_pyramid(y[:, :, None], [(w.value, b.value) for w, b in g.convs])
    return feats, backward(upstream)[1]


@pytest.mark.parametrize("dm", [2, 4])
@pytest.mark.parametrize("h", [16, 96])
@pytest.mark.parametrize("b", [1, 7, 896])
def test_encoder_equals_per_level_ops(b, h, dm):
    g = build_recon(tiny_cfg(horizon=h, dim_multiplier=dm), RNG([0, 11]))
    y = RNG(17).standard_normal((b, h))
    y[0, :3] = -0.0
    upstream = RNG(18).standard_normal((b, h, 2 * dm))
    upstream[:, ::5] = 0.0
    upstream[:, 1::7] = -0.0
    t = Tape()
    feats = g.encode(t, y)
    t.backward(t.mean(t.mul(feats, t.constant(upstream))))
    # the mean's backward hands the product 1/n times the upstream
    ref_feats, ref_grads = reference_encode(g, y, upstream * (1.0 / upstream.size))
    assert np.array_equal(feats.value, ref_feats)
    for v, ref in zip([v for w, bias in g.convs for v in (w, bias)], ref_grads):
        assert np.array_equal(v.grad, ref)


def test_recon_parameter_count_pin():
    cfg = ModelConfig(lookback=96, horizon=96, hidden=512, dim_multiplier=4, series_count=8, recon_hidden=128)
    g = build_recon(cfg, RNG([0, 11]))
    assert ParamStore(g.parameters()).value.size == 4272


def test_recon_all_zero_input_zero_biases():
    cfg = tiny_cfg()
    g = build_recon(cfg, RNG([0, 11]))
    for name, p in g.parameters():
        if name.endswith(".b"):
            p.value[:] = 0.0
    feats = g.encode(Tape(), np.zeros((2, 16)))
    assert np.abs(feats.value).max() == 0.0


def test_recon_identical_heads_identical_series():
    cfg = tiny_cfg()
    g = build_recon(cfg, RNG([0, 11]))
    g.heads.w.value[1:] = g.heads.w.value[0]
    g.heads.b.value[1:] = g.heads.b.value[0]
    out = g.forward(Tape(), RNG(13).standard_normal((2, 16))).value
    for s in range(1, cfg.series_count):
        assert np.array_equal(out[:, s, :], out[:, 0, :])


def test_recon_forward_records_two_ops():
    # the (B, S, H) stack comes straight out of pointwise_mlp: no op only moves axes
    cfg = tiny_cfg()
    g = build_recon(cfg, RNG([0, 11]))
    y = RNG(17).standard_normal((3, 16))
    t = Tape()
    out = g.forward(t, y).value
    ops = [rule.__qualname__.split(".")[1] for _, _, rule in t._entries]
    assert len(t) == 2 and ops == ["conv_pyramid", "pointwise_mlp"]
    z = g.encode(Tape(), y).value  # (B, H, d_feat)
    hidden = np.maximum(z @ g.ffn_in.w.value.T + g.ffn_in.b.value, 0.0)
    ref = (hidden @ g.heads.w.value.T + g.heads.b.value).transpose(0, 2, 1)
    assert out.shape == (3, cfg.series_count, 16)
    np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_recon_gradient_vs_finite_differences():
    cfg = tiny_cfg()
    g = build_recon(cfg, RNG([0, 11]))
    y = RNG(14).standard_normal((3, 16))

    def loss_value():
        t = Tape()
        return t.mean(t.abs(g.forward(t, y))).value.item()

    t = Tape()
    t.backward(t.mean(t.abs(g.forward(t, y))))
    assert fd_model_worst_rel_err(g.parameters(), loss_value, rng=RNG(15)) < 1e-4


# ---------------------------------------------------------------------------
# effective receptive field


def layer_erf_width(layer_1based):
    return 2 ** (layer_1based + 1) - 1


def test_erf_widths():
    assert [layer_erf_width(l) for l in (1, 2, 3, 4)] == [3, 7, 15, 31]


def test_erf_exact_zero_leakage_exhaustive():
    # perturb every input position with an impulse; a feature at conv level l
    # (1-based), position j, may change only when the impulse lies within the
    # window of width 2^(l+1)-1 centered at 2^l * j. Outside: exactly zero.
    cfg = ModelConfig(lookback=96, horizon=96, hidden=8, dim_multiplier=2, series_count=2)
    g = build_recon(cfg, RNG([0, 11]))
    h = 96
    base_feats = conv_levels(g, np.zeros((1, h)))
    for pos in range(h):
        x = np.zeros((1, h))
        x[0, pos] = 1.0
        for level, feats in enumerate(conv_levels(g, x)):
            l1 = level + 1  # 1-based conv depth
            diff = np.abs(feats - base_feats[level]).sum(axis=2)[0]  # (T_l,)
            halfw = (layer_erf_width(l1) - 1) // 2
            centers = (2 ** l1) * np.arange(diff.shape[0])
            inside = np.abs(centers - pos) <= halfw
            assert np.all(diff[~inside] == 0.0), f"leak at level {l1}, input {pos}"


def test_erf_observed_width_matches_bound():
    # the bound is tight: some impulse must reach the window edge at each level
    cfg = ModelConfig(lookback=96, horizon=96, hidden=8, dim_multiplier=2, series_count=2)
    g = build_recon(cfg, RNG([0, 11]))
    h = 96
    base_feats = conv_levels(g, np.zeros((1, h)))
    worst = [0, 0, 0, 0]
    for pos in range(h):
        x = np.zeros((1, h))
        x[0, pos] = 1.0
        for level, feats in enumerate(conv_levels(g, x)):
            diff = np.abs(feats - base_feats[level]).sum(axis=2)[0]
            centers = (2 ** (level + 1)) * np.arange(diff.shape[0])
            changed = np.nonzero(diff > 0)[0]
            if changed.size:
                worst[level] = max(worst[level], int(np.abs(centers[changed] - pos).max()))
    for level in range(4):
        width = 2 * worst[level] + 1
        assert width <= layer_erf_width(level + 1)
        assert width >= layer_erf_width(level + 1) - 2  # edge actually reached


# ---------------------------------------------------------------------------
# checkpoints


BACKBONE_SNR = [(b, s) for b in ("mlp", "linear") for s in ("none", "pre", "post", "both")]


@pytest.mark.parametrize("backbone,snr", BACKBONE_SNR)
def test_checkpoint_roundtrip_bit_identical(tmp_path, backbone, snr):
    cfg = tiny_cfg(backbone=backbone, snr=snr)
    f = build_predictor(cfg, RNG([3, 10]))
    g = build_recon(cfg, RNG([3, 11]))
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "scam", cfg, seed=3, epoch=7, models={"predictor": f, "recon": g})
    header, blocks = load_checkpoint(path)
    assert header["kind"] == "scam"
    assert header["seed"] == 3
    assert header["epoch"] == 7
    cfg2, models = restore_models(header, blocks)
    f2, g2 = models["predictor"], models["recon"]
    x = RNG(20).standard_normal((2, 16))
    assert np.array_equal(f.forward(Tape(), x).value, f2.forward(Tape(), x).value)
    assert np.array_equal(g.forward(Tape(), x).value, g2.forward(Tape(), x).value)
    assert np.array_equal(ParamStore(f.parameters()).value, ParamStore(f2.parameters()).value)


@pytest.mark.parametrize("backbone,snr", BACKBONE_SNR)
def test_checkpoint_preserves_power_iteration_buffers(tmp_path, backbone, snr, monkeypatch):
    cfg = tiny_cfg(backbone=backbone, snr=snr)
    f = build_predictor(cfg, RNG([4, 10]))
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "supervised", cfg, seed=4, epoch=0, models={"predictor": f})
    tracked = [name for name, layer in f.layers.items() if layer.snr_enabled]
    assert len(tracked) == {"none": 0, "pre": 1, "post": 1, "both": len(f.layers)}[snr]
    pairs = {name: (f.layers[name].u, f.layers[name].v) for name in tracked}
    solves = []
    monkeypatch.setattr(models_module, "top_singular_pair",
                        lambda w, u, v: solves.append(w.shape) or top_singular_pair(w, u, v))
    _, models = restore_models(*load_checkpoint(path))
    f2 = models["predictor"]
    assert list(f2.layers) == list(f.layers)
    for name in tracked:
        b = f2.layers[name]
        # no block holds u or v: the restore recomputes them from W, bit for bit
        assert np.array_equal(pairs[name][0], b.u)
        assert np.array_equal(pairs[name][1], b.v)
    # once per rescaled layer, from the restored W; reading again solves nothing
    assert solves == [f.layers[name].w.value.shape for name in tracked]


@pytest.mark.parametrize("backbone,snr", BACKBONE_SNR)
def test_checkpoint_holds_exactly_the_parameters(tmp_path, backbone, snr):
    cfg = tiny_cfg(backbone=backbone, snr=snr)
    models = {"predictor": build_predictor(cfg, RNG([4, 10])), "recon": build_recon(cfg, RNG([4, 11]))}
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "scam", cfg, seed=4, epoch=0, models=models)
    header, _ = load_checkpoint(path)
    expected = [f"{m}.{n}" for m in sorted(models) for n, _ in models[m].parameters()]
    assert [spec["name"] for spec in header["blocks"]] == expected


def test_checkpoint_refuses_a_block_named_twice(tmp_path):
    cfg = tiny_cfg()
    f = build_predictor(cfg, RNG(0))
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "supervised", cfg, seed=0, epoch=0, models={"predictor": f})
    raw = open(path, "rb").read()
    hlen = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8 : 8 + hlen])
    header["blocks"].append({"name": "predictor.layer1.w", "shape": list(f.layers["layer1"].w.value.shape)})
    payload = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(payload).to_bytes(8, "little") + payload + raw[8 + hlen :])
        fh.write(f.layers["layer1"].w.value.astype("<f8").tobytes())
    with pytest.raises(LoadError, match="named twice: predictor.layer1.w$"):
        load_checkpoint(path)


@pytest.mark.parametrize("offset", [-1, 1])
def test_checkpoint_rejects_other_version(tmp_path, offset):
    # -1 is the previous layout's file, which held blocks this version's models lack
    cfg = tiny_cfg()
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "supervised", cfg, seed=0, epoch=0,
                    models={"predictor": build_predictor(cfg, RNG(0))})
    raw = open(path, "rb").read()
    hlen = int.from_bytes(raw[:8], "little")
    header = raw[8 : 8 + hlen].replace(b'"version": %d' % _CKPT_VERSION,
                                       b'"version": %d' % (_CKPT_VERSION + offset))
    assert len(header) == hlen
    with open(path, "wb") as fh:
        fh.write(raw[:8] + header + raw[8 + hlen :])
    with pytest.raises(LoadError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    cfg = tiny_cfg()
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "supervised", cfg, seed=0, epoch=0,
                    models={"predictor": build_predictor(cfg, RNG(0))})
    with open(path, "ab") as fh:
        fh.write(np.zeros(1).tobytes())
    with pytest.raises(LoadError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_cut_inside_its_last_block_names_the_file(tmp_path):
    cfg = tiny_cfg()
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "supervised", cfg, seed=0, epoch=0,
                    models={"predictor": build_predictor(cfg, RNG(0))})
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 4)
    with pytest.raises(LoadError, match="truncated") as err:
        load_checkpoint(path)
    assert path in str(err.value)


def test_restore_rejects_buffer_of_wrong_shape(tmp_path):
    cfg = tiny_cfg(snr="both")
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "supervised", cfg, seed=0, epoch=0,
                    models={"predictor": build_predictor(cfg, RNG(0))})
    header, blocks = load_checkpoint(path)
    blocks["predictor.layer1.w"] = np.zeros(3)
    with pytest.raises(LoadError, match=r"block predictor\.layer1\.w has shape \(3,\)"):
        restore_models(header, blocks)


@pytest.mark.parametrize("key, value", [("hidden", 8.0), ("hidden", 8.5), ("series_count", 2.0), ("lookback", True),
                                        ("revin_affine", "false"), ("revin_affine", 0), ("snr", None)])
def test_config_refuses_a_value_of_another_type(key, value):
    with pytest.raises(ConfigError, match=key):
        tiny_cfg(**{key: value})


def test_restore_refuses_blocks_no_model_reads(tmp_path):
    # an snr-both predictor read back as snr none would drop its gamma
    # blocks and compute another function
    cfg = tiny_cfg(snr="both")
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, "supervised", cfg, seed=0, epoch=0,
                    models={"predictor": build_predictor(cfg, RNG(0))})
    header, blocks = load_checkpoint(path)
    header["config"]["snr"] = "none"
    with pytest.raises(LoadError, match="no model reads") as err:
        restore_models(header, blocks, path)
    assert path in str(err.value)
    assert str(err.value).endswith("no model reads: predictor.layer1.gamma, predictor.layer2.gamma")


def test_flat_param_roundtrip():
    cfg = tiny_cfg()
    f = build_predictor(cfg, RNG([5, 10]))
    x = RNG(21).standard_normal((3, 16))
    before = f.forward(Tape(), x).value
    params = f.parameters()
    vec = np.concatenate([v.value.ravel() for _, v in params])
    store = ParamStore(params)
    assert np.array_equal(store.value, vec)
    assert np.array_equal(f.forward(Tape(), x).value, before)  # packing moves no value
    vec2 = vec * 1.5 + 0.1
    store.value[...] = vec2
    assert np.array_equal(np.concatenate([v.value.ravel() for _, v in params]), vec2)
    slices = store.slices
    assert list(slices) == [n for n, _ in params]
    assert sum(s.stop - s.start for s in slices.values()) == vec.size


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), hidden=st.integers(2, 10))
def test_mlp_count_matches_enumeration(seed, hidden):
    cfg = tiny_cfg(hidden=hidden, snr="none")
    f = build_predictor(cfg, RNG([seed, 10]))
    expected = 16 * hidden + hidden + hidden * 16 + 16
    assert ParamStore(f.parameters()).value.size == expected
