"""Curvature probe and channel-alignment tests.

Quadratic losses make the Hessian exact, so lambda_max can be checked
against dense eigensolves; the tiny-MLP case checks the same agreement on
a real (piecewise) surface where both routes share the finite-difference
operator.
"""

import ast
import copy
import glob
import math
import os
import tracemalloc

import numpy as np
import pytest

from tscorrect.autodiff import ParamStore, Tape
from tscorrect.data import SplitSpec, SyntheticConfig, build_splits, flatten_channels, make_synthetic
from tscorrect.errors import ContractError, DimensionError
from tscorrect.models import MlpPredictor, ModelConfig, RevIn
from tscorrect import sharpness
from tscorrect.sharpness import (
    EPS_BASE,
    MAX_POWER_ITERS,
    RAYLEIGH_TOL,
    HvpContext,
    SharpnessResult,
    _random_unit,
    _segment_mask,
    channel_histograms,
    hvp,
    kl_alignment,
    lambda_max,
    predictor_loss_context,
)
from tscorrect.training import TrainConfig, train_supervised


def quad_ctx(a, segments=None):
    """0.5 * theta^T A theta probed at the origin: Hessian is exactly A."""
    a = np.asarray(a, dtype=np.float64)

    def loss_and_grad(theta):
        g = a @ theta
        return 0.5 * float(theta @ g), g

    return HvpContext(
        theta0=np.zeros(a.shape[0]), loss_and_grad=loss_and_grad, segments=segments or {}
    )


def sym(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


# ---------------------------------------------------------------------------
# hvp


def test_hvp_diagonal_quadratic():
    ctx = quad_ctx(np.diag([1.0, 2.0, 5.0]))
    e3 = np.array([0.0, 0.0, 1.0])
    out = hvp(ctx, e3)
    assert np.allclose(out, 5.0 * e3, atol=1e-6)


def test_hvp_matches_matrix_on_random_directions():
    rng = np.random.default_rng(0)
    a = sym(rng, 8)
    ctx = quad_ctx(a)
    for _ in range(5):
        v = rng.standard_normal(8)
        assert np.allclose(hvp(ctx, v), a @ v, atol=1e-6)


def test_hvp_linearity():
    rng = np.random.default_rng(1)
    a = sym(rng, 6)
    ctx = quad_ctx(a)
    u, v = rng.standard_normal(6), rng.standard_normal(6)
    lhs = hvp(ctx, 2.0 * u - 3.0 * v)
    rhs = 2.0 * hvp(ctx, u) - 3.0 * hvp(ctx, v)
    assert np.allclose(lhs, rhs, atol=1e-5)


def test_hvp_symmetry_on_nonquadratic_surface():
    # loss = sum(cos theta) has third derivatives, so fd error is live but
    # u^T H v = v^T H u still has to hold to fd accuracy
    def loss_and_grad(theta):
        return float(np.cos(theta).sum()), -np.sin(theta)

    ctx = HvpContext(theta0=np.linspace(-1.0, 1.2, 9), loss_and_grad=loss_and_grad)
    rng = np.random.default_rng(2)
    u, v = rng.standard_normal(9), rng.standard_normal(9)
    assert abs(float(u @ hvp(ctx, v)) - float(v @ hvp(ctx, u))) < 1e-4


def test_hvp_zero_direction_returns_zero():
    ctx = quad_ctx(np.eye(4))
    assert np.array_equal(hvp(ctx, np.zeros(4)), np.zeros(4))


def test_hvp_shape_mismatch_raises():
    ctx = quad_ctx(np.eye(4))
    with pytest.raises(DimensionError):
        hvp(ctx, np.zeros(5))


# ---------------------------------------------------------------------------
# lambda_max on quadratics


def test_lambda_max_diagonal_hand_case():
    res = lambda_max(quad_ctx(np.diag([1.0, 2.0, 5.0])), seed=3)
    assert res.converged
    assert abs(res.value - 5.0) < 1e-9


@pytest.mark.parametrize(
    "family",
    ["indefinite", "negative_definite", "positive_semidefinite"],
)
def test_lambda_max_matches_dense_eigensolve(family):
    # indefinite symmetric matrices defeat naive power iteration (sign
    # oscillation) and negative-definite ones defeat a shifted rerun
    # (cancellation); the Lanczos route has to handle all three
    worst = 0.0
    for s in range(20):
        rng = np.random.default_rng(5000 + s)
        m = rng.standard_normal((20, 20))
        if family == "indefinite":
            a = (m + m.T) / 2.0
        elif family == "negative_definite":
            a = -(m @ m.T / 20.0 + 0.1 * np.eye(20))
        else:
            a = m @ m.T / 20.0
        ref = float(np.linalg.eigvalsh(a)[-1])
        res = lambda_max(quad_ctx(a), seed=s)
        assert res.converged
        worst = max(worst, abs(res.value - ref) / max(abs(ref), 1e-12))
    assert worst < 1e-8


def test_lambda_max_homogeneity():
    rng = np.random.default_rng(7)
    a = sym(rng, 12)
    base = lambda_max(quad_ctx(a), seed=1).value
    scaled = lambda_max(quad_ctx(3.5 * a), seed=1).value
    assert abs(scaled - 3.5 * base) < 1e-9 * abs(3.5 * base)


def test_lambda_max_trace_monotone_and_final():
    rng = np.random.default_rng(8)
    a = sym(rng, 15)
    res = lambda_max(quad_ctx(a), seed=2)
    # the k-th estimate: the same run cut after k iterations
    trace = [lambda_max(quad_ctx(a), seed=2, max_iters=k).value for k in range(1, res.iterations + 1)]
    assert len(trace) == res.iterations
    assert trace[-1] == res.value
    steps = np.diff(trace)
    assert steps.min() >= -1e-9 * max(abs(res.value), 1.0)


def test_lambda_max_nonconverged_reports_last_estimate():
    rng = np.random.default_rng(9)
    a = sym(rng, 20)
    ref = float(np.linalg.eigvalsh(a)[-1])
    res = lambda_max(quad_ctx(a), seed=0, max_iters=2)
    # two Lanczos steps by hand, from the start vector that seed 0 draws
    q1 = np.random.default_rng(0).standard_normal(20)
    q1 /= np.linalg.norm(q1)
    alpha1 = q1 @ a @ q1
    r = a @ q1 - alpha1 * q1
    beta1 = np.linalg.norm(r)
    alpha2 = (r / beta1) @ a @ (r / beta1)
    two_step = np.linalg.eigvalsh([[alpha1, beta1], [beta1, alpha2]])[-1]
    assert not res.converged
    assert res.iterations == 2
    assert res.value == pytest.approx(two_step, rel=1e-9)
    # the last estimate is reported, not the one-step Rayleigh quotient
    assert res.value > alpha1
    # Rayleigh-Ritz approaches from below, so even the crude estimate
    # cannot overshoot the true top eigenvalue
    assert res.value <= ref + 1e-9


def test_lambda_max_zero_hessian():
    res = lambda_max(quad_ctx(np.zeros((6, 6))), seed=0)
    assert res.converged
    assert res.value == 0.0


def test_component_sharpness_block_diagonal():
    a1 = np.diag([1.0, 4.0])
    a2 = np.diag([2.0, 7.0, 3.0])
    a = np.block([[a1, np.zeros((2, 3))], [np.zeros((3, 2)), a2]])
    ctx = quad_ctx(a, segments={"first": slice(0, 2), "second": slice(2, 5)})
    assert abs(lambda_max(ctx, segment="first").value - 4.0) < 1e-9
    assert abs(lambda_max(ctx, segment="second").value - 7.0) < 1e-9
    assert abs(lambda_max(ctx).value - 7.0) < 1e-9


def test_segment_slice_matches_principal_submatrix():
    rng = np.random.default_rng(11)
    a = sym(rng, 10)
    ref = float(np.linalg.eigvalsh(a[3:8, 3:8])[-1])
    res = lambda_max(quad_ctx(a, segments={"block": slice(3, 8)}), segment="block")
    assert abs(res.value - ref) < 1e-8 * max(abs(ref), 1.0)


def test_unknown_segment_name_raises():
    ctx = quad_ctx(np.eye(4), segments={"only": slice(0, 2)})
    with pytest.raises(ContractError, match="unknown segment"):
        lambda_max(ctx, segment="missing")


def test_empty_segment_raises():
    ctx = quad_ctx(np.eye(4), segments={"empty": slice(2, 2)})
    with pytest.raises(ContractError, match="empty"):
        lambda_max(ctx, segment="empty")


@pytest.mark.parametrize("kwargs", [{"max_iters": 0}, {"max_iters": -1}, {"tol": 0.0}, {"tol": -1e-6},
                                    {"tol": float("nan")}])
def test_lambda_max_refuses_no_iterations_or_a_tolerance_not_above_zero(kwargs):
    with pytest.raises(ContractError, match="max_iters >= 1 and tol > 0"):
        lambda_max(quad_ctx(np.eye(4)), **kwargs)


# ---------------------------------------------------------------------------
# lambda_max on a real model surface


@pytest.fixture(scope="module")
def tiny_mlp_ctx():
    raw = make_synthetic(SyntheticConfig(length=1200, seed=0))
    splits = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=16, horizon=16)
    cfg = ModelConfig(backbone="mlp", lookback=16, horizon=16, hidden=8, snr="none")
    f = MlpPredictor(cfg, np.random.default_rng(0))
    return predictor_loss_context(f, splits.train, batch=64)


@pytest.fixture(scope="module")
def tiny_linear_ctx():
    raw = make_synthetic(SyntheticConfig(length=1200, seed=0))
    splits = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=16, horizon=16)
    cfg = ModelConfig(backbone="linear", lookback=16, horizon=16, snr="none")
    f = MlpPredictor(cfg, np.random.default_rng(0))
    return predictor_loss_context(f, splits.train, batch=64)


@pytest.mark.parametrize("batch", [8, 10**6])
def test_context_states_the_windows_its_loss_reads(batch):
    # a batch below the split's window count takes that many windows, one above takes them all
    raw = make_synthetic(SyntheticConfig(length=600, seed=0))
    ds = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=16, horizon=16).val
    assert 8 < len(ds) < 10**6
    f = MlpPredictor(ModelConfig(lookback=16, horizon=16, hidden=8, snr="none"), np.random.default_rng(0))
    ctx = predictor_loss_context(f, ds, batch)
    assert ctx.windows == min(batch, len(ds))
    x, y = (flatten_channels(a[: ctx.windows]) for a in (ds.x, ds.y))
    resid = np.abs(f.forward(Tape(record=False), x).value - y)
    assert ctx.loss_and_grad(ctx.theta0)[0] == pytest.approx(resid.mean(), rel=1e-12)


def test_only_sharpness_builds_curvature_contexts():
    # the next change to curvature probes stays in one module: no other module of the
    # package imports, constructs or names HvpContext
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "tscorrect")
    paths = sorted(glob.glob(os.path.join(src, "*.py")))
    assert "sharpness.py" in map(os.path.basename, paths)
    found = []
    for path in paths:
        if os.path.basename(path) == "sharpness.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.rpartition(".")[2] for a in node.names]
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if "HvpContext" in names:
                found.append(f"{os.path.basename(path)}:{node.lineno}")
    assert found == []


def test_two_contexts_on_one_predictor_stay_independent():
    # criterion 9 builds two contexts on one f before probing either
    raw = make_synthetic(SyntheticConfig(length=1200, seed=0))
    splits = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=16, horizon=16)
    cfg = ModelConfig(backbone="mlp", lookback=16, horizon=16, hidden=8, snr="both")
    f = MlpPredictor(cfg, np.random.default_rng(0))
    before = [v.value.copy() for _, v in f.parameters()]
    alone = lambda_max(predictor_loss_context(f, splits.train, batch=32), seed=3)
    weights = np.random.default_rng(4).uniform(0.0, 1.0, (32 * splits.train.n_channels, 16))
    ctx_a = predictor_loss_context(f, splits.train, batch=32)
    ctx_b = predictor_loss_context(f, splits.train, batch=32, point_weights=weights)
    assert lambda_max(ctx_a, seed=3) == alone  # value bit-equal, same iterations
    assert lambda_max(ctx_b, seed=3).value != alone.value
    assert alone.value > 0.0
    assert all(np.array_equal(v.value, b) for (_, v), b in zip(f.parameters(), before))


def test_point_weights_average_the_loss_over_their_mass():
    # criterion 9 compares a mask's points with the rest: the loss over a set of
    # points is their mean, whatever share of the batch the set holds
    raw = make_synthetic(SyntheticConfig(length=1200, seed=0))
    splits = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=16, horizon=16)
    cfg = ModelConfig(backbone="mlp", lookback=16, horizon=16, hidden=8, snr="both")
    f = MlpPredictor(cfg, np.random.default_rng(0))
    shape = (32 * splits.train.n_channels, 16)
    subset = np.random.default_rng(6).uniform(size=shape) < 0.3

    def context(weights):
        return predictor_loss_context(f, splits.train, batch=32, point_weights=weights)

    ctx = context(subset.astype(np.float64))
    resid = np.abs(f.forward(Tape(record=False), flatten_channels(splits.train.x[:32])).value
                   - flatten_channels(splits.train.y[:32]))
    assert ctx.loss_and_grad(ctx.theta0)[0] == pytest.approx(resid[subset].mean(), rel=1e-12)
    plain = lambda_max(predictor_loss_context(f, splits.train, batch=32), seed=1).value
    assert lambda_max(context(np.full(shape, 0.25)), seed=1).value == plain
    weights = np.random.default_rng(7).uniform(0.0, 1.0, shape)
    one, scaled = (lambda_max(context(c * weights), seed=1).value for c in (1.0, 3.7))
    assert abs(scaled - one) <= 1e-9 * abs(one)
    assert lambda_max(context(np.zeros(shape)), seed=1).value == 0.0


def test_model_lambda_max_matches_dense_fd_hessian(tiny_mlp_ctx):
    ctx = tiny_mlp_ctx
    n = ctx.n
    assert n <= 300  # dense eigensolve must stay cheap
    h = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        h[:, i] = hvp(ctx, e)
    h = (h + h.T) / 2.0
    ref = float(np.linalg.eigvalsh(h)[-1])
    res = lambda_max(ctx, seed=0)
    assert res.converged
    assert abs(res.value - ref) <= 1e-2 * max(abs(ref), 1e-12)


def test_model_segments_match_submatrix_eigensolve(tiny_mlp_ctx, tiny_linear_ctx):
    # the last layer is the projector, any earlier ones the embedding; together they
    # hold every parameter of a predictor without RevIN's affine pair
    for ctx, names in ((tiny_mlp_ctx, ["embedding", "projector"]), (tiny_linear_ctx, ["projector"])):
        assert list(ctx.segments) == names
        assert ctx.segments[names[0]].start == 0 and ctx.segments["projector"].stop == ctx.n
        n = ctx.n
        h = np.zeros((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            h[:, i] = hvp(ctx, e)
        h = (h + h.T) / 2.0
        for name, sl in ctx.segments.items():
            ref = float(np.linalg.eigvalsh(h[sl, sl])[-1])
            res = lambda_max(ctx, segment=name)
            assert abs(res.value - ref) <= 1e-2 * max(abs(ref), 1e-6), (names, name)


def lambda_max_per_vector(ctx, seed=0, max_iters=MAX_POWER_ITERS, tol=RAYLEIGH_TOL, segment=None):
    """Reference: Lanczos that reorthogonalizes against one basis vector at
    a time (modified Gram-Schmidt, twice), the form lambda_max replaced by
    one block product per pass."""
    rng = np.random.default_rng(seed)
    mask = _segment_mask(ctx, segment)
    dim = ctx.n if mask is None else int(round(float(mask.sum())))
    steps = min(max_iters, dim)
    q = _random_unit(ctx.n, rng, mask)
    basis, alphas, betas, theta = [q], [], [], 0.0
    for it in range(1, steps + 1):
        w = hvp(ctx, q)
        w = w * mask if mask is not None else w
        alphas.append(float(q @ w))
        for _ in range(2):
            for b in basis:
                w = w - (b @ w) * b
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas)
        if betas:
            tri += np.diag(betas, 1) + np.diag(betas, -1)
        vals, vecs = np.linalg.eigh(tri)
        theta = float(vals[-1])
        scale = max(abs(theta), 1e-12)
        if beta * abs(float(vecs[-1, -1])) <= tol * scale or beta <= 1e-12 * max(1.0, scale):
            return SharpnessResult(theta, it, True)
        q = w / beta
        basis.append(q)
        betas.append(beta)
    return SharpnessResult(theta, steps, steps == dim)


def test_block_reorthogonalization_matches_per_vector_loop(tiny_mlp_ctx):
    # clustered top eigenvalues keep Lanczos going for many steps, where
    # lost orthogonality would show first
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    eig = np.concatenate([10.0 - 1e-3 * np.arange(8), rng.uniform(-5.0, 5.0, 52)])
    quad = quad_ctx((q * eig) @ q.T, segments={"middle": slice(5, 45)})
    cases = [(quad, None), (quad, "middle"), (tiny_mlp_ctx, None)]
    for ctx, segment in cases:
        for seed in (0, 1):
            ref = lambda_max_per_vector(ctx, seed=seed, segment=segment)
            res = lambda_max(ctx, seed=seed, segment=segment)
            assert (res.iterations, res.converged) == (ref.iterations, ref.converged), segment
            assert abs(res.value - ref.value) <= 1e-12 * abs(ref.value), segment


def count_block_passes(monkeypatch):
    """The basis length of each block Gram-Schmidt pass lambda_max runs, in order."""
    passes, project_out = [], sharpness._project_out
    monkeypatch.setattr(sharpness, "_project_out", lambda b, w, p: passes.append(len(b)) or project_out(b, w, p))
    return passes


def test_a_first_pass_that_cancels_runs_a_second_and_matches_dense_eigensolve(monkeypatch):
    # a clustered top and one eigenvalue of -1e6 keep Lanczos going until the
    # Krylov space is all of R^8; the eighth residual is then roundoff alone,
    # which the first pass against the whole basis cancels, so DGKS runs a second
    passes = count_block_passes(monkeypatch)
    for s in range(4):
        rng = np.random.default_rng(40 + s)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = (q * np.concatenate([[-1e6], 10.0 - 1e-3 * np.arange(7)])) @ q.T
        passes.clear()
        res = lambda_max(quad_ctx(a), seed=s)
        ref = float(np.linalg.eigvalsh(a)[-1])
        assert (res.iterations, res.converged) == (8, True)
        assert passes == [1, 2, 3, 4, 5, 6, 7, 8, 8], s
        assert abs(res.value - ref) <= 1e-8 * abs(ref), s


# ---------------------------------------------------------------------------
# theta0's piece: lambda_max of the almost-everywhere Hessian


@pytest.fixture(scope="module")
def trained_snr_both():
    raw = make_synthetic(SyntheticConfig(length=1200, seed=0))
    splits = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=96, horizon=96)
    cfg = ModelConfig(backbone="mlp", lookback=96, horizon=96, hidden=256, snr="both")
    f = MlpPredictor(cfg, np.random.default_rng(0))
    train_supervised(splits, f, TrainConfig(mode="supervised", lr=3e-3, batch_size=64,
                                            max_epochs=3, seed=0))
    return f, splits.val


def test_lambda_max_does_not_depend_on_the_lanczos_seed(trained_snr_both):
    ctx = predictor_loss_context(*trained_snr_both, 16)
    values = [lambda_max(ctx, seed=s).value for s in range(6)]
    assert max(values) - min(values) <= 1e-6 * max(values), values


def test_segment_sharpness_interlaces_below_the_total(trained_snr_both):
    # Cauchy interlacing: a principal submatrix's top eigenvalue is at most the matrix's
    ctx = predictor_loss_context(*trained_snr_both, 16)
    total = min(lambda_max(ctx, seed=s).value for s in range(6))
    for seg in ctx.segments:
        for s in range(6):
            assert lambda_max(ctx, segment=seg, seed=s).value <= total * (1.0 + 1e-9), (seg, s)


def test_each_lanczos_iteration_on_a_trained_predictor_runs_one_block_pass(trained_snr_both, monkeypatch):
    passes = count_block_passes(monkeypatch)
    ctx = predictor_loss_context(*trained_snr_both, 16)
    for segment in (None, *sorted(ctx.segments)):
        passes.clear()
        res = lambda_max(ctx, segment=segment)
        assert res.converged and passes == list(range(1, res.iterations + 1)), segment


def test_pass_on_the_kept_standardization_is_a_fresh_forward_bit_for_bit(monkeypatch):
    # the context standardizes its batch once; each pass must equal
    # MlpPredictor.forward from scratch on the same frozen relu masks, with
    # RevIN's affine weight and bias still differentiated in the pass
    calls, standardize = [], RevIn.standardize
    monkeypatch.setattr(RevIn, "standardize", lambda rv, x: calls.append(len(x)) or standardize(rv, x))
    raw = make_synthetic(SyntheticConfig(length=600, seed=1))
    splits = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=32, horizon=16)
    for snr, affine in (("both", True), ("none", False)):
        cfg = ModelConfig(lookback=32, horizon=16, hidden=24, snr=snr, revin_affine=affine)
        f = MlpPredictor(cfg, np.random.default_rng(2))
        if affine:
            f.revin.weight.value[...], f.revin.bias.value[...] = 1.3, -0.2
        ctx = predictor_loss_context(f, splits.train, batch=24)
        x, y = (flatten_channels(a[:24]) for a in (splits.train.x, splits.train.y))
        g = copy.deepcopy(f)
        store = ParamStore(g.parameters())
        probe = Tape(record=False)
        probe.masks = []
        w = np.sign(g.forward(probe, x).value - y)
        theta = ctx.theta0 + 1e-3 * np.random.default_rng(3).standard_normal(ctx.n)
        store.value[...] = theta
        tape = Tape()
        tape.frozen = iter(probe.masks)
        loss = tape.mean(tape.mul(tape.sub(g.forward(tape, x), tape.constant(y)), tape.constant(w)))
        tape.backward(loss)
        calls.clear()
        value, grad = ctx.loss_and_grad(theta)
        assert calls == []
        assert value == loss.value.item() and np.array_equal(grad, store.grad), snr
        if affine:
            assert np.all(grad[ctx.n - 2:] != 0.0)  # revin.weight and revin.bias


def test_context_costs_one_forward_and_each_product_two_gradient_passes(trained_snr_both, monkeypatch):
    calls = []
    forward, backward = MlpPredictor.forward, Tape.backward
    monkeypatch.setattr(MlpPredictor, "forward", lambda *a: calls.append("forward") or forward(*a))
    monkeypatch.setattr(Tape, "backward", lambda *a: calls.append("backward") or backward(*a))
    ctx = predictor_loss_context(*trained_snr_both, 16)
    assert calls == ["forward"]
    grad = ctx.loss_and_grad(ctx.theta0)[1]
    directions = [grad, *np.random.default_rng(3).standard_normal((2, ctx.n))]
    for v in directions:
        calls.clear()
        hvp(ctx, v)
        assert calls == ["forward", "backward"] * 2


def test_hvp_leaves_its_inputs_alone_and_returns_a_fresh_array(trained_snr_both):
    # the probes are formed in the context's own vectors and the difference
    # in the first gradient: neither may reach the caller's arrays
    ctx = predictor_loss_context(*trained_snr_both, 16)
    theta0 = ctx.theta0.copy()
    u, v = np.random.default_rng(4).standard_normal((2, ctx.n))
    u_in, v_in = u.copy(), v.copy()
    hu = hvp(ctx, u)
    hu_then = hu.copy()
    hv = hvp(ctx, v)
    assert np.array_equal(u, u_in) and np.array_equal(v, v_in) and np.array_equal(ctx.theta0, theta0)
    assert not np.shares_memory(hu, hv) and np.array_equal(hu, hu_then)
    assert not any(np.shares_memory(h, b) for h in (hu, hv) for b in (u, v, ctx.theta0))


def test_curvature_pass_of_an_snr_both_predictor_records_nine_tape_ops(trained_snr_both, monkeypatch):
    # one spectral_weight and one linear op per layer, the frozen relu, the
    # denormalization, and the residual's sub, weighting mul and mean
    ops, backward = [], Tape.backward
    monkeypatch.setattr(Tape, "backward", lambda tape, root: ops.append(len(tape)) or backward(tape, root))
    ctx = predictor_loss_context(*trained_snr_both, 16)
    hvp(ctx, np.random.default_rng(5).standard_normal(ctx.n))
    assert ops == [9, 9]


# measured on this fixture (16 rows, 49506 parameters): 2.74 MB when the
# probes and their difference were fresh arrays (and each rescaled weight a
# chain of six tape ops), 1.94 MB with them in the context's own vectors
HVP_PEAK_BYTES = 2_300_000


def test_one_product_traces_a_bounded_peak(trained_snr_both):
    ctx = predictor_loss_context(*trained_snr_both, 16)
    v = np.random.default_rng(6).standard_normal(ctx.n)
    hvp(ctx, v)  # first-call allocations (lazy imports, caches) stay out
    tracemalloc.start()
    try:
        hvp(ctx, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= HVP_PEAK_BYTES, peak


def ae_hvp_snr_none(f, x, y, v):
    """The almost-everywhere Hessian-vector product of the predictor's L1
    loss, written out in numpy for an snr-none mlp with no RevIN affine: on
    theta0's piece the loss is bilinear in the two layers, so H v is exact."""
    w1, b1, w2, b2 = (p.value for _, p in f.parameters())
    v1, c1, v2, c2 = np.split(v, np.cumsum([w1.size, b1.size, w2.size]))
    v1, v2 = v1.reshape(w1.shape), v2.reshape(w2.shape)
    mu = x.mean(axis=1, keepdims=True)
    sd = np.sqrt(((x - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
    xn = (x - mu) / sd
    m = xn @ w1.T + b1 > 0.0
    pred = ((xn @ w1.T + b1) * m @ w2.T + b2) * sd + mu
    g = np.sign(pred - y) * sd / y.size  # d loss / d (layer-2 output)
    dz = (g @ v2) * m  # c2 moves no gradient: the loss is linear in b2
    return np.concatenate([(dz.T @ xn).ravel(), dz.sum(axis=0),
                           (g.T @ ((xn @ v1.T + c1) * m)).ravel(), np.zeros(b2.size)])


def test_hvp_is_the_almost_everywhere_product_on_thetas_piece(monkeypatch):
    raw = make_synthetic(SyntheticConfig(length=1200, seed=0))
    splits = build_splits(raw, SplitSpec(0.6, 0.2, 0.2), lookback=16, horizon=16)
    cfg = ModelConfig(backbone="mlp", lookback=16, horizon=16, hidden=8, snr="none")
    f = MlpPredictor(cfg, np.random.default_rng(0))
    ctx = predictor_loss_context(f, splits.train, batch=128)
    x, y = (flatten_channels(a[:128]) for a in (splits.train.x, splits.train.y))
    grad = ctx.loss_and_grad(ctx.theta0)[1]
    # a step of 1e-2 * |theta0| along the gradient moves residuals across zero
    signs = []
    for step in (-1e-2, 0.0, 1e-2):
        probe = copy.deepcopy(f)
        move = step * float(np.linalg.norm(ctx.theta0)) / float(np.linalg.norm(grad))
        ParamStore(probe.parameters()).value[...] = ctx.theta0 + move * grad
        signs.append(np.sign(probe.forward(Tape(record=False), x).value - y))
    assert np.any(signs[0] != signs[1]) or np.any(signs[2] != signs[1])
    for base in (EPS_BASE, 1e-2):
        # a context fixes its step when it is built
        monkeypatch.setattr(sharpness, "EPS_BASE", base)
        probed = predictor_loss_context(f, splits.train, batch=128)
        assert probed.eps == base * max(1.0, float(np.linalg.norm(ctx.theta0)))
        for v in [grad, *np.random.default_rng(8).standard_normal((3, ctx.n))]:
            want = ae_hvp_snr_none(f, x, y, v)
            assert np.linalg.norm(hvp(probed, v) - want) <= 1e-8 * np.linalg.norm(want), base


# ---------------------------------------------------------------------------
# channel alignment


def test_histograms_share_pooled_edges():
    masses = channel_histograms([np.array([0.0, 1.0]), np.array([0.5])], bins=2)
    # pooled edges [0, 0.5, 1]: 0.5 falls in the upper bin
    assert np.array_equal(masses, [[0.5, 0.5], [0.0, 1.0]])


def test_histogram_masses_sum_to_one():
    rng = np.random.default_rng(3)
    masses = channel_histograms([rng.standard_normal(500) for _ in range(4)], bins=32)
    assert masses.shape == (4, 32)
    for row in masses:
        assert abs(float(row.sum()) - 1.0) < 1e-12


def test_histogram_rejects_bad_input():
    with pytest.raises(DimensionError):
        channel_histograms([])
    with pytest.raises(DimensionError):
        channel_histograms([np.array([])])
    with pytest.raises(ContractError):
        channel_histograms([np.array([0.0, np.nan])])


def test_kl_identical_is_zero():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(400)
    a, b = channel_histograms([x, x.copy()], bins=16)
    assert kl_alignment(a, b) == 0.0


def test_kl_two_bin_hand_value():
    a, b = np.array([0.9, 0.1]), np.array([0.1, 0.9])
    # 0.5*(KL(a||b) + KL(b||a)) with both directions equal to 0.8*ln 9
    assert abs(kl_alignment(a, b) - 0.8 * math.log(9.0)) < 1e-12


def test_kl_symmetric_and_nonnegative():
    rng = np.random.default_rng(5)
    a, b = channel_histograms(
        [rng.standard_normal(300), rng.standard_normal(300) + 1.5], bins=24
    )
    assert kl_alignment(a, b) == kl_alignment(b, a)
    assert kl_alignment(a, b) >= 0.0


def test_kl_disjoint_support_is_finite():
    val = kl_alignment(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert math.isfinite(val)
    assert val > 0.0


def test_kl_requires_equal_row_lengths():
    with pytest.raises(DimensionError):
        kl_alignment(np.array([0.5, 0.5]), np.array([0.25, 0.25, 0.5]))
