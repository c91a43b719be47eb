"""Shared oracles for the test suite.

The central tool is a finite-difference gradient comparator: build the same
scalar loss twice, once on the tape and once as a plain value function, and
compare the tape gradients against central differences coordinate by
coordinate. 64-bit floats make eps=1e-6 comfortably accurate for the 1e-4
tolerances used throughout.
"""

import numpy as np

from tscorrect.autodiff import Tape, Var
from tscorrect.losses import align_candidates


def fd_worst_rel_err(build, arrays, rng, samples=20, eps=1e-6):
    """Worst relative error between tape gradients and central differences.

    build(tape, vars) must return a scalar Var computed from vars, which are
    created fresh from arrays (copied). Gradients are probed at up to
    samples random coordinates per input.
    """
    vars_ = [Var(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]

    def value():
        return build(Tape(), vars_).value.item()

    tape = Tape()
    out = build(tape, vars_)
    tape.backward(out)

    worst = 0.0
    for v in vars_:
        flat = v.value.reshape(-1)
        grad = v.grad.reshape(-1)
        take = min(samples, flat.size)
        idx = rng.choice(flat.size, size=take, replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + eps
            up = value()
            flat[i] = keep - eps
            down = value()
            flat[i] = keep
            num = (up - down) / (2.0 * eps)
            ana = grad[i]
            worst = max(worst, abs(num - ana) / max(1e-8, abs(num), abs(ana)))
    return worst


def fd_model_worst_rel_err(params, loss_value_fn, samples=20, eps=1e-6, rng=None):
    """Same comparison for an already-built model.

    params: list of (name, Var) whose .grad is already populated by one
    backward pass of the loss that loss_value_fn() recomputes as a float.
    """
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for _, p in params:
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        take = min(samples, flat.size)
        idx = rng.choice(flat.size, size=take, replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_value_fn()
            flat[i] = keep - eps
            down = loss_value_fn()
            flat[i] = keep
            num = (up - down) / (2.0 * eps)
            worst = max(worst, abs(num - grad[i]) / max(1e-8, abs(num), abs(grad[i])))
    return worst


def away_from_kinks(a, margin=0.05):
    """Push values in (-margin, 0) down and values in [0, margin) up by margin,
    so abs/relu finite differences stay clean."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.abs(a) < margin, a + np.where(a < 0, -margin, margin), a)


def weighted_candidate_l1(tape, c, p, t, w_pred, w_rec, w_sup):
    """co_objective_loss in its general form, recorded on tape: the mean over
    candidates of each one's mean of w_pred|c - p| + w_rec|c - t| +
    w_sup|t - p|, where each weight is a scalar or an array broadcast against
    c, and a weight that is the scalar 0 drops its term. The bit-exact
    reference for co_objective_loss's scalar weights and for
    scam_masked_loss's weight arrays."""
    c, p = (x if isinstance(x, Var) else Var(x) for x in (c, p))
    cv = c.value
    pv, tv = align_candidates(cv, p.value, np.ascontiguousarray(t, dtype=np.float64))
    weights = (w_pred, w_rec, w_sup)
    a, b, d = res = [None if np.ndim(w) == 0 and w == 0 else x - y
                     for w, x, y in zip(weights, (cv, cv, tv), (pv, tv, pv))]
    kept = [np.abs(r) * w for w, r in zip(weights, res) if r is not None]
    full = lambda x: x if np.shape(x) == cv.shape else np.broadcast_to(x, cv.shape)
    total = full(sum(kept[1:], kept[0]) if kept else 0.0)

    def grads(k, need_c, need_p):
        # ga + 0.0 also turns -0.0 into +0.0, as a sum of terms would
        ga = np.sign(a) * w_pred if a is not None else 0.0
        gc = gp = None
        if need_c:
            gc = full(ga + np.sign(b) * w_rec if b is not None else ga + 0.0) * k
        if need_p:
            gp = full(ga + np.sign(d) * w_sup if d is not None else ga + 0.0).sum(axis=1) * -k
        return gc, gp

    return tape.candidate_mean(c, p, total, grads)


def loss_identity_check(y_tilde, y_hat, y) -> float:
    """Max pointwise gap between the absolute-difference form and the
    masked min form of the correction objective. Should be ~1e-16."""
    c, p, t = (np.ascontiguousarray(a, dtype=np.float64) for a in (y_tilde, y_hat, y))
    a = c - p
    b = c - t
    lhs = np.abs(t - p) + np.abs(a) + np.abs(b) - np.abs(a - b)
    agree = (a * b > 0.0).astype(np.float64)
    rhs = np.abs(t - p) + 2.0 * np.minimum(np.abs(a), np.abs(b)) * agree
    return float(np.max(np.abs(lhs - rhs)))


def reference_conv_channels_last(x, w, b, stride, padding):
    """autodiff.conv_channels_last in its plain form: the padded input, a
    contiguous copy of its sliding windows as the im2col, the bias added
    row by row and the input gradient scattered into the padded length. The
    bit-exact reference for the in-place im2col."""
    B, T, c_in = x.shape
    c_out, _, k = w.shape
    t_out = (T + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (padding, padding), (0, 0))) if padding else x
    cols = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)[:, ::stride]
    flat = np.ascontiguousarray(cols).reshape(B * t_out, c_in * k)
    wf = w.reshape(c_out, c_in * k)
    out = flat @ wf.T
    out += b

    def backward(g, need_x):
        gf = g.reshape(B * t_out, c_out)
        gw, gb = (gf.T @ flat).reshape(w.shape), gf.sum(axis=0)
        if not need_x:
            return None, gw, gb
        gcols = (gf @ wf).reshape(B, t_out, c_in, k)
        gxp = np.zeros(xp.shape)
        for j in range(k):
            gxp[:, j : j + stride * t_out : stride] += gcols[:, :, :, j]
        return gxp[:, padding : padding + T], gw, gb

    return out.reshape(B, t_out, c_out), backward


def reference_levels(x, layers):
    """The conv pyramid level by level (reference_conv_channels_last, stride
    2, padding 1), each level's output the next one's input: the outputs
    folded onto x's T rows side by side, (B, T, D), and backward(g, need_x)
    -> (gx or None, [gw_0, gb_0, ...]), each level fed its slice of g plus
    what the level above sends back."""
    B, T, _ = x.shape
    levels, cur = [], x
    for w, b in layers:
        levels.append(reference_conv_channels_last(cur, w, b, 2, 1))
        cur = levels[-1][0]
    edges = np.cumsum([0] + [out.size // (B * T) for out, _ in levels])
    feats = np.concatenate([out.reshape(B, T, -1) for out, _ in levels], axis=2)

    def backward(g, need_x):
        grads, gx = [], None
        for level in reversed(range(len(levels))):
            out, back = levels[level]
            go = np.ascontiguousarray(g[:, :, edges[level]:edges[level + 1]]).reshape(out.shape)
            if gx is not None:
                go += gx
            gx, gw, gb = back(go, level > 0 or need_x)
            grads[:0] = [gw, gb]
        return gx, grads

    return feats, backward


def reference_tile_pyramid(x, layers):
    """Tape.conv_pyramid in its plain form: K and the two constants read off
    reference_levels on unit windows with zero biases and on a zero window
    with the biases, each tile's input rows gathered by index from a
    zero-padded copy of x next to a one-hot pair of constant columns, and the
    input gradient added back window by window. Same GEMMs in the same
    grouping: the bit-exact reference for the kernel's views. Returns the
    (B, T, D) features and backward(g) -> (gx, [gw_0, gb_0, ...])."""
    B, T, c0 = x.shape
    tile = 2 ** len(layers)
    span, nt = (2 * tile - 1) * c0, T // tile
    units = np.zeros((span, 2 * tile * c0))
    units[np.arange(span), c0 + np.arange(span)] = 1.0  # float j of tile 1's 2 tile - 1 input rows
    zero_biases = [(w, np.zeros(len(w))) for w, _ in layers]
    kf, k_back = reference_levels(units.reshape(span, 2 * tile, c0), zero_biases)
    cf, c_back = reference_levels(np.zeros((1, 2 * tile, c0)), layers)
    # K, then tile 0's constant and the other tiles' one
    k = np.concatenate((kf[:, tile:].reshape(span, -1), cf.reshape(2, -1)))
    xp = np.concatenate((np.zeros((B, tile - 1, c0)), x), axis=1).reshape(B, -1)
    tiles = np.zeros((B, nt, span + 2))
    tiles[:, :, :span] = xp[:, np.arange(nt)[:, None] * tile * c0 + np.arange(span)]
    tiles[:, 0, span] = 1.0
    tiles[:, 1:, span + 1] = 1.0
    tiles = tiles.reshape(B * nt, span + 2)

    def backward(g):
        gf = g.reshape(B * nt, -1)
        gk = tiles.T @ gf
        _, grads = c_back(gk[span:].reshape(1, 2 * tile, -1), False)
        unit_in = np.concatenate((np.zeros((span, len(gk[0]))), gk[:span]), axis=1)
        _, unit_grads = k_back(unit_in.reshape(span, 2 * tile, -1), False)
        for i in range(0, len(grads), 2):
            grads[i] = grads[i] + unit_grads[i]
        gt = (gf @ np.ascontiguousarray(k[:span].T)).reshape(B, nt, span)
        gxp = np.zeros((B, (T + tile - 1) * c0))
        for t in range(nt):
            gxp[:, t * tile * c0:t * tile * c0 + span] += gt[:, t]
        return gxp[:, (tile - 1) * c0:].reshape(x.shape), grads

    return (tiles @ k).reshape(B, T, -1), backward


def conv_levels(g, y):
    """Each conv level's (B, T_l, C_l) output, read back from its slice of
    g.encode(y)'s (B, H, d_feat) features: level l holds columns
    [l dm/2, (l + 1) dm/2), its output unfolded row-major onto the H rows."""
    feats = g.encode(Tape(), y).value
    per = g.cfg.dim_multiplier // 2
    return [np.ascontiguousarray(feats[:, :, l * per:(l + 1) * per]).reshape(len(y), -1, c)
            for l, c in enumerate(g.channels)]


def reference_pointwise_mlp(z, w1, b1, w2, b2, g, chunk):
    """Tape.pointwise_mlp on its (N, in) rows in plain blocked form, each
    block's hidden layer and gradients fresh arrays: the (N, out) output
    relu(z @ w1.T + b1) @ w2.T + b2 and, for its (N, out) upstream gradient
    g, the gradients of z, w1, b1, w2 and b2. The bit-exact reference for
    the in-place blocks; the heads multiply a contiguous w2.T, as the op
    does, and gw2 keeps the plain gr.T @ h, whose bits the op's
    (h.T @ gr).T must match."""
    n, k = len(z), -(-len(z) // chunk)
    blocks = [slice(n * i // k, n * (i + 1) // k) for i in range(k)]

    def hidden(rows):
        h = z[rows] @ w1.T
        h += b1
        return np.maximum(h, 0.0, out=h)

    out, w2t = np.empty((n, len(w2))), np.ascontiguousarray(w2.T)
    for rows in blocks:
        out[rows] = hidden(rows) @ w2t
    out += b2
    gz = np.empty_like(z)
    gw1, gb1, gw2, gb2 = sums = [np.zeros_like(v) for v in (w1, b1, w2, b2)]
    for rows in blocks:
        h, gr = hidden(rows), g[rows]
        gw2 += gr.T @ h
        gb2 += np.ones(len(gr)) @ gr
        gh = gr @ w2
        gh *= h > 0.0
        gw1 += gh.T @ z[rows]
        gb1 += np.ones(len(gh)) @ gh
        gz[rows] = gh @ w1
    return out, (gz, *sums)
