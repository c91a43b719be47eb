import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscorrect.autodiff import POINTWISE_CHUNK, ParamStore, Tape, Var, conv_channels_last
from tscorrect.errors import ContractError, DimensionError
from tscorrect.losses import co_objective_loss
from tscorrect.models import SIGMA_FLOOR
from tscorrect.training import Adam
from helpers import (away_from_kinks, fd_worst_rel_err, reference_conv_channels_last, reference_levels,
                     reference_pointwise_mlp, weighted_candidate_l1)

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# hand-checkable values


def test_matmul_identity():
    t = Tape()
    a = Var(np.eye(2))
    b = Var(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(t.matmul(a, b).value, b.value)


def test_matmul_row_times_column():
    t = Tape()
    out = t.matmul(Var(np.array([[1.0, 2.0]])), Var(np.array([[3.0], [4.0]])))
    assert out.value.item() == 11.0


def test_abs_relu_values():
    t = Tape()
    x = Var(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(t.abs(x).value, [1.0, 0.0, 2.0])
    assert np.array_equal(t.relu(x).value, [0.0, 0.0, 2.0])


def test_kink_pattern_is_collected_only_on_request():
    t = Tape()
    x = Var(np.array([-1.0, 0.0, 2.0]))
    t.relu(t.abs(x))
    assert t.masks is None
    t.masks = []
    t.relu(t.abs(x))
    t.relu(x)
    assert [m.tolist() for m in t.masks] == [[True, False, True], [False, False, True]]


def test_frozen_relu_mask_drives_forward_and_backward():
    x = Var(np.array([-1.0, 0.5, 2.0, -3.0]), requires_grad=True)
    t = Tape()
    t.frozen = iter([np.array([True, False, True, True])])
    out = t.relu(x)
    # x * m: the masked-in negative passes through, the masked-out positive is 0
    assert np.array_equal(out.value, [-1.0, 0.0, 2.0, -3.0])
    t.backward(t.mean(out))
    assert np.array_equal(x.grad, [0.25, 0.0, 0.25, 0.25])


@pytest.mark.parametrize("masks", [[], [np.array([True, False])], [np.ones((3, 1), dtype=bool)]],
                         ids=["exhausted", "short", "misshapen"])
def test_frozen_relu_refuses_a_mask_it_cannot_use(masks):
    t = Tape()
    t.frozen = iter(masks)
    with pytest.raises(DimensionError, match="frozen mask"):
        t.relu(Var(np.array([1.0, -1.0, 2.0])))


def test_relu_subgradient_zero_at_zero():
    t = Tape()
    x = Var(np.array([0.0, -0.5, 0.5]), requires_grad=True)
    t.backward(t.mean(t.relu(x)))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0 / 3])


def test_abs_subgradient_zero_at_zero():
    t = Tape()
    x = Var(np.array([0.0, -0.5, 0.5]), requires_grad=True)
    t.backward(t.mean(t.abs(x)))
    assert np.array_equal(x.grad, [0.0, -1.0 / 3, 1.0 / 3])


def test_mean_abs_gradient_is_sign_over_n():
    t = Tape()
    x = Var(np.array([0.5, -0.3]), requires_grad=True)
    t.backward(t.mean(t.abs(x)))
    assert np.allclose(x.grad, [0.5, -0.5], atol=0, rtol=0)


def test_mean_value():
    t = Tape()
    assert t.mean(Var(np.array([1.0, 2.0, 3.0]))).value.item() == 2.0
    out = t.mean(Var(np.array([[1.0, 2.0], [3.0, 4.0]])))
    assert out.value.size == 1 and out.value.item() == 2.5


def test_mean_gradient_is_one_over_n():
    t = Tape()
    x = Var(RNG(0).standard_normal((3, 4)), requires_grad=True)
    t.backward(t.mean(x))
    assert np.array_equal(x.grad, np.full((3, 4), 1.0 / 12))


def test_scalar_chain_rule_hand_value():
    # L = mean((W*x - y)^2) on a 1x1 problem, via mul: dL/dW = 2*(6-5)*3 = 6
    t = Tape()
    w = Var(np.array([2.0]), requires_grad=True)
    err = t.sub(t.mul(w, t.constant(np.array([3.0]))), t.constant(np.array([5.0])))
    t.backward(t.mean(t.mul(err, err)))
    assert w.grad.item() == pytest.approx(6.0, abs=1e-12)


def test_conv1d_output_length():
    t = Tape()
    x = Var(np.zeros((1, 1, 96)))
    w = Var(np.zeros((2, 1, 3)))
    b = Var(np.zeros(2))
    assert t.conv1d(x, w, b, stride=2, padding=1).value.shape == (1, 2, 48)


def test_conv1d_refuses_unbatched_input():
    with pytest.raises(DimensionError):
        Tape().conv1d(Var(np.zeros((1, 96))), Var(np.zeros((2, 1, 3))), Var(np.zeros(2)))


def test_conv1d_unit_kernel_is_identity():
    t = Tape()
    x = Var(RNG(2).standard_normal((1, 1, 10)))
    w = Var(np.ones((1, 1, 1)))
    b = Var(np.zeros(1))
    out = t.conv1d(x, w, b, stride=1, padding=0)
    assert np.array_equal(out.value, x.value)


@pytest.mark.parametrize("k, stride, padding", itertools.product((1, 2, 3, 5), (1, 2, 3), (0, 1, 2)))
def test_conv_channels_last_matches_the_padded_reference_bit_for_bit(k, stride, padding):
    # from the shortest input, where T + 2 padding = k gives one output
    # position, up to several positions per tap; strides 2 and 3 exceed k = 1, 2
    rng = RNG([k, stride, padding])
    first = max(1, k - 2 * padding)
    for t_len in range(first, first + k + 2 * stride):
        x, w, b = rng.standard_normal((3, t_len, 2)), rng.standard_normal((4, 2, k)), rng.standard_normal(4)
        out, back = conv_channels_last(x, w, b, stride, padding)
        ref, ref_back = reference_conv_channels_last(x, w, b, stride, padding)
        assert np.array_equal(out, ref), t_len
        g = rng.standard_normal(out.shape)
        for need_x in (True, False):
            for got, want in zip(back(g, need_x), ref_back(g, need_x)):
                assert (got is None and want is None) or np.array_equal(got, want), (t_len, need_x)


def test_conv_pyramid_refuses_an_odd_length_at_any_level():
    w1, b1 = Var(np.ones((2, 1, 3)), requires_grad=True), Var(np.zeros(2), requires_grad=True)
    w2, b2 = Var(np.ones((4, 2, 3)), requires_grad=True), Var(np.zeros(4), requires_grad=True)
    Tape().conv_pyramid(Var(np.ones((2, 8, 1))), [(w1, b1), (w2, b2)])  # levels of 8 and 4
    for t_len in (5, 6):  # level 0 odd; level 1 gets 3
        with pytest.raises(DimensionError):
            Tape().conv_pyramid(Var(np.ones((2, t_len, 1))), [(w1, b1), (w2, b2)])


@pytest.mark.parametrize("c0", [1, 2])
@pytest.mark.parametrize("dm", [2, 4])
@pytest.mark.parametrize("b", [1, 7, 896])
@pytest.mark.parametrize("h", [16, 32, 96, 192])
def test_conv_pyramid_matches_the_per_level_chain(h, b, dm, c0):
    # the one tile GEMM sums in another order than the levels run one by
    # one, so features and every gradient agree to rounding, for 1-4 levels
    rng = RNG([h, b, dm, c0])
    for n_levels in range(1, 5):
        chans = [c0] + [dm << level for level in range(n_levels)]
        layers = [(rng.uniform(-1, 1, (c, c_in, 3)) / np.sqrt(3 * c_in), rng.standard_normal(c))
                  for c_in, c in zip(chans, chans[1:])]
        x = rng.standard_normal((b, h, c0))
        xv = Var(x, requires_grad=True)
        params = [(Var(w, requires_grad=True), Var(bias, requires_grad=True)) for w, bias in layers]
        t = Tape()
        feats = t.conv_pyramid(xv, params)
        upstream = rng.standard_normal(feats.value.shape)
        t.backward(t.mean(t.mul(feats, t.constant(upstream))))
        ref, ref_back = reference_levels(x, layers)
        # the mean's backward hands the product 1/n times the upstream
        ref_gx, ref_grads = ref_back(upstream * (1.0 / upstream.size), True)
        got = [feats.value, xv.grad, *(v.grad for layer in params for v in layer)]
        for i, (a, r) in enumerate(zip(got, [ref, ref_gx, *ref_grads])):
            assert a.shape == r.shape
            assert np.max(np.abs(a - r)) <= 1e-13 * np.max(np.abs(r)), (n_levels, i)


def test_conv1d_zero_weights_gives_bias_broadcast():
    t = Tape()
    x = Var(RNG(3).standard_normal((1, 2, 11)))
    w = Var(np.zeros((3, 2, 3)))
    b = Var(np.array([1.0, -2.0, 0.5]))
    out = t.conv1d(x, w, b, stride=2, padding=1)
    assert np.array_equal(out.value, np.broadcast_to(b.value[:, None], out.value.shape))


# ---------------------------------------------------------------------------
# finite-difference oracle per primitive


def test_fd_matmul():
    rng = RNG(10)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    err = fd_worst_rel_err(lambda t, v: t.mean(t.mul(t.matmul(v[0], v[1]), t.matmul(v[0], v[1]))), [a, b], rng)
    assert err < 1e-6


def test_fd_conv1d():
    rng = RNG(11)
    x = rng.uniform(-2, 2, (1, 2, 10))
    w = rng.uniform(-2, 2, (3, 2, 3))
    b = rng.uniform(-2, 2, 3)

    def build(t, v):
        out = t.conv1d(v[0], v[1], v[2], stride=2, padding=1)
        return t.mean(t.mul(out, out))

    assert fd_worst_rel_err(build, [x, w, b], rng) < 1e-6


def test_fd_conv1d_batched_strides():
    rng = RNG(12)
    for stride, padding in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        x = rng.uniform(-2, 2, (2, 3, 12))
        w = rng.uniform(-2, 2, (4, 3, 3))
        b = rng.uniform(-2, 2, 4)

        def build(t, v):
            out = t.conv1d(v[0], v[1], v[2], stride=stride, padding=padding)
            return t.mean(t.mul(out, out))

        assert fd_worst_rel_err(build, [x, w, b], rng) < 1e-6


def test_fd_elementwise_ops():
    rng = RNG(13)
    a = rng.uniform(-2, 2, (4, 5))
    b = rng.uniform(-2, 2, (4, 5))
    cases = [
        lambda t, v: t.mean(t.add(v[0], v[1])),
        lambda t, v: t.mean(t.sub(v[0], v[1])),
        lambda t, v: t.mean(t.mul(v[0], v[1])),
        lambda t, v: t.mean(t.mul(v[0], -1.7)),
    ]
    for build in cases:
        assert fd_worst_rel_err(build, [a, b], rng) < 1e-6


def test_fd_scalar_broadcast():
    rng = RNG(14)
    a = rng.uniform(-2, 2, (3, 4))
    s = rng.uniform(0.5, 2, (1,))
    for build in (
        lambda t, v: t.mean(t.mul(v[0], v[1])),
        lambda t, v: t.mean(t.mul(v[1], v[0])),
        lambda t, v: t.mean(t.add(v[0], v[1])),
        lambda t, v: t.mean(t.mul(v[0], t.reciprocal(v[1]))),
    ):
        assert fd_worst_rel_err(build, [a, s], rng) < 1e-6


def test_away_from_kinks_moves_each_value_away_from_zero():
    # a value just above -margin must go down: moved up it would land next to 0
    margin = 0.05
    moved = away_from_kinks(np.array([-0.0499999, 0.0, 0.0499999, -0.3, 0.7]), margin)
    assert moved[0] <= -margin
    assert moved[1] >= margin and moved[2] >= margin
    assert np.array_equal(moved[3:], [-0.3, 0.7])


def test_fd_abs_relu_away_from_kinks():
    rng = RNG(15)
    x = away_from_kinks(rng.uniform(-2, 2, (4, 6)))
    assert fd_worst_rel_err(lambda t, v: t.mean(t.abs(v[0])), [x], rng) < 1e-6
    assert fd_worst_rel_err(lambda t, v: t.mean(t.relu(v[0])), [x], rng) < 1e-6


def test_fd_linear():
    rng = RNG(21)
    x, w, b = rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, 4)

    def build(t, v):
        out = t.linear(v[0], v[1], v[2])
        return t.mean(t.mul(out, out))

    assert fd_worst_rel_err(build, [x, w, b], rng) < 1e-6
    assert np.array_equal(Tape().linear(Var(x), Var(w), Var(b)).value, x @ w.T + b)
    with pytest.raises(DimensionError):
        Tape().linear(Var(np.ones((5, 4))), Var(w), Var(b))
    with pytest.raises(DimensionError):
        Tape().linear(Var(x), Var(w), Var(np.ones(3)))


def test_fd_pointwise_mlp():
    rng = RNG(23)
    z, w1, b1 = rng.uniform(-2, 2, (2, 5, 3)), rng.uniform(-2, 2, (6, 3)), rng.uniform(-2, 2, 6)
    w2, b2 = rng.uniform(-2, 2, (2, 6)), rng.uniform(-2, 2, 2)

    def build(t, v):
        out = t.pointwise_mlp(*v)
        return t.mean(t.mul(out, out))

    assert fd_worst_rel_err(build, [z, w1, b1, w2, b2], rng) < 1e-6
    value = Tape().pointwise_mlp(Var(z), Var(w1), Var(b1), Var(w2), Var(b2)).value
    ref = np.maximum(z @ w1.T + b1, 0.0) @ w2.T + b2  # (B, T, S)
    assert value.shape == (2, 2, 5) and value.flags.c_contiguous
    assert np.allclose(value, ref.transpose(0, 2, 1), rtol=1e-14, atol=0)
    for bad in ((np.ones((2, 5, 4)), w1, b1, w2, b2), (z[0], w1, b1, w2, b2),
                (z, w1, np.ones(5), w2, b2), (z, w1, b1, np.ones((2, 5)), b2),
                (z, w1, b1, w2, np.ones(3))):
        with pytest.raises(DimensionError):
            Tape().pointwise_mlp(*map(Var, bad))


def test_pointwise_mlp_matches_layer_chain():
    # the row blocks must not show: forward bit-equal to linear -> relu ->
    # linear, and gradients equal up to the order of the sums over blocks
    rng = RNG(24)
    w1, b1 = rng.uniform(-1, 1, (64, 8)), rng.uniform(-1, 1, 64)
    w2, b2 = rng.uniform(-1, 1, (4, 64)), rng.uniform(-1, 1, 4)
    b1[5] = 0.0
    for n in (1, POINTWISE_CHUNK - 1, POINTWISE_CHUNK, POINTWISE_CHUNK + 1, 3 * POINTWISE_CHUNK + 5):
        z = rng.standard_normal((n, 8))
        z[n // 2] = 0.0  # hidden unit 5 is exactly 0 there: relu's kink
        weight = rng.standard_normal((n, 4))

        def run(layout: str):
            # fused on n windows of one position, whose (n, 4, 1) stack holds the
            # chain's (n, 4), or on one window of n positions, a (1, 4, n) stack
            t = Tape()
            zin = {"chain": z, "windows": z[:, None], "one window": z[None]}[layout]
            v = [Var(a, requires_grad=True) for a in (zin, w1, b1, w2, b2)]
            if layout == "windows":
                out = t.pointwise_mlp(*v)
                t.backward(t.mean(t.mul(out, t.constant(weight[:, :, None]))))
                return out.value[:, :, 0], [v[0].grad[:, 0], *(x.grad for x in v[1:])]
            if layout == "one window":
                out = t.pointwise_mlp(*v)
                t.backward(t.mean(t.mul(out, t.constant(weight.T[None]))))
                return out.value[0].T, [v[0].grad[0], *(x.grad for x in v[1:])]
            # w2 held as the transpose of a contiguous w2.T: the chain's head
            # product x @ w.T is then NN, the orientation the op uses
            v[3].value = np.ascontiguousarray(w2.T).T
            out = t.linear(t.relu(t.linear(v[0], v[1], v[2])), v[3], v[4])
            t.backward(t.mean(t.mul(out, t.constant(weight))))
            return out.value, [x.grad for x in v]

        chain, chain_grads = run("chain")
        # the mean's backward hands the product 1/n times the weight
        ref, ref_grads = reference_pointwise_mlp(z, w1, b1, w2, b2, weight * (1.0 / weight.size), POINTWISE_CHUNK)
        for layout in ("windows", "one window"):
            fused, fused_grads = run(layout)
            assert np.array_equal(fused, chain), (n, layout)
            for a, b in zip(fused_grads, chain_grads):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (n, layout)
            # the blocks written in place sum exactly as fresh blocks do, and
            # both layouts read the same C-ordered gradient rows
            assert np.array_equal(fused, ref), (n, layout)
            for a, b in zip(fused_grads, ref_grads):
                assert np.array_equal(a, b), (n, layout)


@pytest.mark.parametrize("case", ["half dead", "all dead", "one live row per block", "nan row"])
def test_pointwise_mlp_backward_skips_dead_rows(case):
    # a row whose upstream gradient is all zero adds nothing, so backward
    # skips it: gz matches the dense blocks bit for bit, the weight and bias
    # gradients up to the dropped zeros' place in the sums
    rng = RNG(25)
    n = 2 * POINTWISE_CHUNK + 3  # blocks [0, 683), [683, 1367), [1367, 2051)
    z = rng.standard_normal((n, 8))
    w1, b1 = rng.uniform(-1, 1, (64, 8)), rng.uniform(-1, 1, 64)
    w2, b2 = rng.uniform(-1, 1, (4, 64)), rng.uniform(-1, 1, 4)
    weight = rng.standard_normal((n, 4))
    weight[rng.random((n, 4)) < 0.3] = 0.0  # live rows with dead entries
    weight[rng.random(n) < 0.5] = 0.0
    if case == "all dead":
        weight[:] = 0.0
    elif case == "one live row per block":
        # a lone row goes to gemv, which rounds apart from the forward's GEMM
        live = [0, 700, n - 1]
        weight[np.setdiff1d(np.arange(n), live)] = 0.0
        weight[live] = rng.standard_normal((3, 4))
    elif case == "nan row":
        weight[5] = [0.0, 0.0, np.nan, 0.0]
    t = Tape()
    # n windows of one position: the (n, 4, 1) stack's rows are z's rows
    v = [Var(a, requires_grad=True) for a in (z[:, None], w1, b1, w2, b2)]
    opt = Adam(ParamStore(list(zip("w1 b1 w2 b2".split(), v[1:]))), lr=1e-3)
    t.backward(t.mean(t.mul(t.pointwise_mlp(*v), t.constant(weight[:, :, None]))))
    _, ref = reference_pointwise_mlp(z, w1, b1, w2, b2, weight * (1.0 / weight.size), POINTWISE_CHUNK)
    assert np.array_equal(v[0].grad[:, 0], ref[0], equal_nan=True)
    if case == "nan row":
        # NaN counts as live and reaches every gradient: the step is skipped
        assert all(np.isnan(x.grad).any() for x in v)
        opt.step()
        assert opt.skipped_steps == 1
        return
    for x, r in zip(v[1:], ref[1:]):
        assert np.max(np.abs(x.grad - r), initial=0.0) <= 1e-12 * np.max(np.abs(r), initial=0.0)
    if case == "all dead":
        assert not any(x.grad.any() for x in v)


@pytest.mark.parametrize("fill", [np.nan, np.inf, -0.0])
def test_pointwise_mlp_live_rows_nan_and_inf_but_not_negative_zero(fill):
    # a row of NaN or of inf is live and reaches z's gradient; a row of -0.0
    # only is dead, so its z row, NaN here, is never recomputed
    rng = RNG(26)
    z = rng.standard_normal((3, 5, 4))
    w1, b1 = rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, 6)
    w2, b2 = rng.uniform(-1, 1, (2, 6)), rng.uniform(-1, 1, 2)
    weight = rng.standard_normal((3, 2, 5))
    weight[1, :, 2] = fill  # position 2 of window 1: row 7 of the (15, 4) rows
    if fill == 0.0:
        z[1, 2] = np.nan
    v = [Var(a, requires_grad=True) for a in (z, w1, b1, w2, b2)]
    t = Tape()
    with np.errstate(invalid="ignore"):
        t.backward(t.mean(t.mul(t.pointwise_mlp(*v), t.constant(weight))))
    gz = v[0].grad
    others = np.delete(gz.reshape(15, 4), 7, axis=0)
    assert np.isfinite(others).all()
    if fill == 0.0:
        assert all(np.isfinite(x.grad).all() for x in v)
        assert not gz[1, 2].any() and not np.signbit(gz[1, 2]).any()
    else:
        assert not np.isfinite(gz[1, 2]).any()


def spectral_chain(t, w, gamma, u, v):
    """gamma * w / (u^T w v) as the matmul/reciprocal/mul chain the
    spectral_weight op replaced, floor branch included."""
    if u @ (w.value @ v) <= SIGMA_FLOOR:
        return t.mul(gamma, t.mul(w, 1.0 / SIGMA_FLOOR))
    sig = t.matmul(t.constant(u[None, :]), t.matmul(w, t.constant(v[:, None])))  # (1, 1)
    return t.mul(gamma, t.mul(w, t.reciprocal(sig)))


@pytest.mark.parametrize("shape,zero", [((7, 4), False), ((3, 9), False), ((6, 5), True)])
def test_spectral_weight_matches_the_op_chain_bit_for_bit(shape, zero):
    # one op, the same float operations in the same order: value, dW (with the
    # rank-one correction) and dgamma keep the chain's bits, and a zero
    # matrix takes the floor branch in both
    rng = RNG(25)
    w0, gamma0, weight = rng.standard_normal(shape), rng.uniform(0.5, 2.0, 1), rng.standard_normal(shape)
    lu, _, lvt = np.linalg.svd(w0)  # u^T w v > 0 for w's top singular pair
    u, v = lu[:, 0], lvt[0]
    if zero:
        w0[...] = 0.0

    def run(fused: bool):
        t = Tape()
        w, gamma = Var(w0, requires_grad=True), Var(gamma0, requires_grad=True)
        out = t.spectral_weight(w, gamma, u, v, SIGMA_FLOOR) if fused else spectral_chain(t, w, gamma, u, v)
        ops = len(t)
        t.backward(t.mean(t.mul(out, t.constant(weight))))
        return out.value, w.grad, gamma.grad, ops

    (*chain, chain_ops), (*fused, fused_ops) = run(False), run(True)
    assert (chain_ops, fused_ops) == (2 if zero else 5, 1)
    for a, b in zip(fused, chain):
        assert np.array_equal(a, b)


def test_fd_candidate_l1():
    rng = RNG(22)
    c, p, t = rng.uniform(-2, 2, (3, 4, 5)), rng.uniform(-2, 2, (3, 5)), rng.uniform(-2, 2, (3, 5))
    w_pred, w_rec, w_sup = (rng.uniform(0.5, 2.0, (3, 4, 5)) for _ in range(3))

    def build(tape, v):
        return co_objective_loss(tape, v[0], v[1], t, rec_weight=1.5, pred_weight=0.75)

    def build_weighted(tape, v):
        return weighted_candidate_l1(tape, v[0], v[1], t, w_pred, w_rec, w_sup)

    # an odd count of candidates keeps p's sum of signs off 0
    assert fd_worst_rel_err(build, [c[:, :3], p], rng) < 1e-6
    assert fd_worst_rel_err(build_weighted, [c, p], rng) < 1e-6
    # the mean over candidates of each candidate's mean
    terms = 0.75 * np.abs(c - p[:, None]) + 1.5 * np.abs(c - t[:, None])
    value = co_objective_loss(Tape(), Var(c), Var(p), t, rec_weight=1.5, pred_weight=0.75).value.item()
    assert value == pytest.approx(terms.mean(axis=(0, 2)).mean(), rel=1e-14)
    terms = (w_pred * np.abs(c - p[:, None]) + w_rec * np.abs(c - t[:, None])
             + w_sup * np.abs(t - p)[:, None])
    value = weighted_candidate_l1(Tape(), Var(c), Var(p), t, w_pred, w_rec, w_sup).value.item()
    assert value == pytest.approx(terms.mean(axis=(0, 2)).mean(), rel=1e-14)
    # one candidate, a stack of S = 1; a weight of 0 drops its term
    one = co_objective_loss(Tape(), Var(c[:, :1]), Var(p), t, rec_weight=0.0, pred_weight=1.0).value.item()
    assert one == np.abs(c[:, 0] - p).mean()
    with pytest.raises(DimensionError):
        co_objective_loss(Tape(), Var(c), Var(p[:, :4]), t[:, :4], rec_weight=1.0, pred_weight=1.0)
    with pytest.raises(DimensionError):
        co_objective_loss(Tape(), Var(c), Var(p), t[:2], rec_weight=1.0, pred_weight=1.0)


def test_affine_rows_value_grad_and_shapes():
    rng = RNG(23)
    y, sd, mu = rng.standard_normal((5, 3)), rng.uniform(0.5, 2.0, (5, 1)), rng.standard_normal((5, 1))
    assert np.array_equal(Tape().affine_rows(Var(y), sd, mu).value, y * sd + mu)
    up = rng.standard_normal(y.shape)

    def build(tape, v):
        return tape.mean(tape.mul(tape.affine_rows(v[0], sd, mu), tape.constant(up)))

    assert fd_worst_rel_err(build, [y], rng) < 1e-6
    for bad_sd, bad_mu in ((sd[:4], mu[:4]), (sd[:, 0], mu[:, 0]), (sd, mu[:4])):
        with pytest.raises(DimensionError):
            Tape().affine_rows(Var(y), bad_sd, bad_mu)


def candidate_l1_reference(cv, pv, tv, w_pred, w_rec, w_sup):
    """helpers.weighted_candidate_l1 as written before its lean form, from its
    sum() and broadcast_to total: the value and the rule's c and p gradients
    for an upstream gradient of 1."""
    pa, ta = pv[:, None], tv[:, None]
    weights = (w_pred, w_rec, w_sup)
    a, b, d = res = [None if np.ndim(w) == 0 and w == 0 else x - y
                     for w, x, y in zip(weights, (cv, cv, ta), (pa, ta, pa))]
    total = np.broadcast_to(sum(np.abs(r) * w for w, r in zip(weights, res) if r is not None), cv.shape)
    n_cand = cv.shape[1]
    rows = np.ascontiguousarray(np.moveaxis(total, 1, 0))
    value = rows.reshape(n_cand, -1).mean(axis=1).sum() * (1.0 / n_cand)
    k = 1.0 * (1.0 / n_cand) * (1.0 / (rows.size // n_cand))
    ga = np.sign(a) * w_pred if a is not None else 0.0
    gc = np.broadcast_to(ga + (np.sign(b) * w_rec if b is not None else 0.0), cv.shape) * k
    gp = np.broadcast_to(ga + (np.sign(d) * w_sup if d is not None else 0.0), cv.shape)
    return value, gc, gp.sum(axis=1) * -k


def tied_candidates(seed, stacked):
    """c, p, t with ties (c = p, c = t, p = t) and -0.0 entries; c holds
    3 candidates, or only the first when not stacked."""
    rng = RNG(seed)
    c, p, t = rng.uniform(-2, 2, (6, 3, 8)), rng.uniform(-2, 2, (6, 8)), rng.uniform(-2, 2, (6, 8))
    c[0, 0] = p[0]
    c[1, 1] = t[1]
    t[2] = p[2]
    c[3, :, :4], p[3, :4], t[3, :4] = -0.0, 0.0, -0.0
    c[4, 2, :3], p[4, :3], t[4, :3] = 0.0, -0.0, -0.0
    return (c, p, t) if stacked else (c[:, :1].copy(), p, t)


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("weights", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0),
                                     (0.5, 2.0, 1.5), ("m", "m", "m"), ("m", 0.0, 0.0), ("m", 0.0, "m")])
@pytest.mark.parametrize("seed", [0, 1])
def test_candidate_l1_equals_sum_and_broadcast_form(seed, weights, stacked):
    c, p, t = tied_candidates(seed, stacked)
    # "m": a 0/1/2 array of c's shape, as the masked loss passes; its zeros
    # times a negative sign make -0.0 gradient terms
    rng = RNG(seed + 10)
    weights = tuple(rng.integers(0, 3, c.shape) * 1.0 if w == "m" else w for w in weights)
    value, gc, gp = candidate_l1_reference(c, p, t, *weights)
    # co_objective_loss takes the scalar weights without a |t - p| term
    forms = [lambda tape, vc, vp: weighted_candidate_l1(tape, vc, vp, t, *weights)]
    if all(np.ndim(w) == 0 for w in weights) and weights[2] == 0:
        forms.append(lambda tape, vc, vp: co_objective_loss(tape, vc, vp, t, rec_weight=weights[1],
                                                            pred_weight=weights[0]))
    for form in forms:
        tape = Tape()
        vc, vp = Var(c, requires_grad=True), Var(p, requires_grad=True)
        loss = form(tape, vc, vp)
        assert loss.value.item() == value
        # the recorded rule itself, signs of zero included
        rule_c, rule_p = tape._entries[-1][2](np.ones(()))
        for got, ref in ((rule_c, gc), (rule_p, gp)):
            assert got.shape == ref.shape and np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        tape.backward(loss)
        assert np.array_equal(vc.grad, 0.0 + gc) and np.array_equal(vp.grad, 0.0 + gp)


def test_fd_reductions_and_reshapes():
    # one set of values in two shapes: each input is built in the shape it is read in
    rng = RNG(16)
    x = rng.uniform(-2, 2, (2, 6))

    def build_mean_of_means(t, v):
        m = t.mean(v[0])
        return t.mul(m, t.mean(t.mul(v[0], v[0])))

    for shaped in (x, x.reshape(3, 4)):
        assert fd_worst_rel_err(build_mean_of_means, [shaped], rng) < 1e-6


def test_fd_reciprocal():
    rng = RNG(17)
    x = rng.uniform(0.5, 2.0, (3, 3))
    assert fd_worst_rel_err(lambda t, v: t.mean(t.reciprocal(v[0])), [x], rng) < 1e-6


# ---------------------------------------------------------------------------
# graph behaviors


def test_dag_fanout_sums_contributions():
    # z = x used by two consumers; grad must be the sum of both paths
    t = Tape()
    x = Var(np.array([1.5, -0.5]), requires_grad=True)
    out = t.mean(t.add(t.mul(x, x), t.mul(x, 3.0)))
    t.backward(out)
    assert np.allclose(x.grad, (2 * x.value + 3.0) / 2, rtol=0, atol=1e-15)


def test_repeated_backward_accumulates():
    x = Var(np.array([1.0, 2.0]), requires_grad=True)
    store = ParamStore([("x", x)])
    t = Tape()
    out = t.mean(t.mul(x, x))
    t.backward(out)
    once = x.grad.copy()
    t.backward(out)
    assert np.array_equal(x.grad, 2 * once) and np.array_equal(store.grad, 2 * once)
    store.grad.fill(0.0)
    assert np.array_equal(x.grad, np.zeros(2))


def test_param_store_layout_and_views():
    rng = RNG(24)
    shapes = {"w": (3, 4), "b": (3,), "gamma": (1,), "k": (2, 1, 3)}
    values = {n: rng.standard_normal(s) for n, s in shapes.items()}
    named = [(n, Var(v, requires_grad=True)) for n, v in values.items()]
    named[0][1].grad[...] = 5.0
    store = ParamStore(named)
    # list order, one slice per name, gradients from zero
    assert np.array_equal(store.value, np.concatenate([v.ravel() for v in values.values()]))
    assert list(store.slices) == list(shapes)
    assert [s.stop - s.start for s in store.slices.values()] == [int(np.prod(s)) for s in shapes.values()]
    assert store.slices["w"].start == 0 and store.slices["k"].stop == store.value.size
    assert np.array_equal(store.grad, np.zeros(store.value.size))
    # each Var is a view: one flat write sets every parameter, backward fills grad
    vec = store.value * 1.5 + 0.1
    store.value[...] = vec
    for name, v in named:
        assert v.value.shape == shapes[name] and np.array_equal(v.value.ravel(), vec[store.slices[name]])
    t = Tape()
    w, b = named[0][1], named[1][1]
    t.backward(t.mean(t.linear(t.constant(np.ones((2, 4))), w, b)))
    assert np.array_equal(store.grad[store.slices["b"]], np.full(3, 2.0 / 6))
    assert np.array_equal(store.grad[store.slices["w"]], np.full(12, 2.0 / 6))
    assert ParamStore([]).value.shape == (0,)


def test_param_store_refuses_a_repeated_name_or_var_or_gradless_var():
    p, q = Var(np.ones(3), requires_grad=True), Var(np.ones(2), requires_grad=True)
    for bad in ([("p", p), ("q", p)], [("p", p), ("p", q)], [("p", p), ("c", Var(np.ones(2)))]):
        with pytest.raises(ContractError):
            ParamStore(bad)


def test_only_requires_grad_leaves_hold_a_grad():
    t = Tape()
    c = t.constant(np.ones(2))
    x = Var(np.array([1.0, 2.0]), requires_grad=True)
    y = t.mul(x, c)
    t.backward(t.mean(y))
    assert c.grad is None and y.grad is None
    assert y.requires_grad
    assert np.array_equal(x.grad, [0.5, 0.5])


def test_ops_on_constants_only_are_not_recorded():
    t = Tape()
    c = t.mul(t.constant(np.ones((2, 2))), t.constant(np.full((2, 2), 2.0)))
    assert len(t) == 0 and not c.requires_grad and c.grad is None
    assert np.array_equal(c.value, np.full((2, 2), 2.0))
    w = Var(np.eye(2), requires_grad=True)
    t.mean(t.matmul(c, w))
    assert len(t) == 2


def test_constant_operand_leaves_leaf_gradient_unchanged():
    rng = RNG(19)
    x0, w0, b0 = rng.uniform(-2, 2, (2, 3, 10)), rng.uniform(-2, 2, (4, 3, 3)), rng.uniform(-2, 2, 4)
    a0, m0 = rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, (3, 2))
    lw0, lb0 = rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, 4)
    z0, pw0, pb0 = rng.uniform(-2, 2, (1, 7, 3)), rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, 5)
    qw0, qb0 = rng.uniform(-2, 2, (2, 5)), rng.uniform(-2, 2, 2)

    def grads(data_needs_grad: bool):
        t = Tape()
        x, a = Var(x0, data_needs_grad), Var(a0, data_needs_grad)
        z = Var(z0, data_needs_grad)
        w, b, m = Var(w0, True), Var(b0, True), Var(m0, True)
        lw, lb = Var(lw0, True), Var(lb0, True)
        pw, pb, qw, qb = Var(pw0, True), Var(pb0, True), Var(qw0, True), Var(qb0, True)
        conv = t.conv1d(x, w, b, stride=2, padding=1)
        lin = t.linear(a, lw, lb)
        mlp = t.pointwise_mlp(z, pw, pb, qw, qb)
        loss = t.add(t.mean(t.mul(conv, conv)), t.mean(t.abs(t.matmul(a, m))))
        loss = t.add(loss, t.mean(t.mul(mlp, mlp)))
        t.backward(t.add(loss, t.mean(t.mul(lin, lin))))
        return w.grad, b.grad, m.grad, lw.grad, lb.grad, pw.grad, pb.grad, qw.grad, qb.grad

    for full, lean in zip(grads(True), grads(False)):
        assert np.array_equal(full, lean)


def test_non_recording_tape_gives_the_same_values_and_records_nothing():
    rng = RNG(25)
    x, w, b = rng.uniform(-2, 2, (2, 1, 12)), rng.uniform(-2, 2, (4, 1, 3)), rng.uniform(-2, 2, 4)
    w1, b1 = rng.uniform(-2, 2, (6, 2)), rng.uniform(-2, 2, 6)
    w2, b2 = rng.uniform(-2, 2, (2, 6)), rng.uniform(-2, 2, 2)

    def forward(t):
        p = [Var(a, requires_grad=True) for a in (w, b, w1, b1, w2, b2)]
        z = t.conv_pyramid(t.constant(x.transpose(0, 2, 1)), [(p[0], p[1])])
        return t.mean(t.abs(t.pointwise_mlp(z, *p[2:])))  # z: 6 x 4 features folded onto (2, 12, 2)

    recording, silent = Tape(), Tape(record=False)
    out = forward(silent)
    assert np.array_equal(out.value, forward(recording).value)
    assert len(recording) > 0 and len(silent) == 0 and not out.requires_grad
    with pytest.raises(ContractError):
        silent.backward(out)


def test_backward_requires_scalar_root():
    t = Tape()
    x = Var(np.ones(3), requires_grad=True)
    y = t.mul(x, x)
    with pytest.raises(ContractError):
        t.backward(y)


def test_shape_mismatch_raises():
    t = Tape()
    with pytest.raises(DimensionError):
        t.add(Var(np.ones((2, 3))), Var(np.ones((3, 2))))
    with pytest.raises(DimensionError):
        t.matmul(Var(np.ones((2, 3))), Var(np.ones((2, 3))))


def test_reciprocal_rejects_zero():
    with pytest.raises(ContractError):
        Tape().reciprocal(Var(np.array([1.0, 0.0])))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(
    t_len=st.integers(4, 40),
    k=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 3),
)
def test_conv1d_length_formula(t_len, k, stride, padding):
    t_out = (t_len + 2 * padding - k) // stride + 1
    if t_out < 1:
        return
    tape = Tape()
    x = Var(np.zeros((1, 1, t_len)))
    out = tape.conv1d(x, Var(np.zeros((2, 1, k))), Var(np.zeros(2)), stride, padding)
    assert out.value.shape == (1, 2, t_out)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fanout_matches_brute_force_perturbation(seed):
    rng = RNG(seed)
    x0 = away_from_kinks(rng.uniform(-2, 2, 4))

    def build(t, v):
        shared = t.add(v[0], t.constant(np.full(4, 0.25)))
        return t.mean(t.add(t.abs(shared), t.mul(shared, shared)))

    assert fd_worst_rel_err(build, [x0], rng, samples=4) < 1e-4
