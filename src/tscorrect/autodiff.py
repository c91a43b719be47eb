"""Reverse-mode automatic differentiation over dense float64 arrays.

A small define-by-run engine. A ``Tape`` records each operation on
``Var`` nodes that has an input needing a gradient, together with a
backward rule; an operation on constants only returns a constant and is not
recorded. ``Tape.backward`` replays the records in reverse, keeps the
adjoints of intermediates in a local map and accumulates into ``.grad`` of
the leaves. Only a leaf created with ``requires_grad=True`` has a ``.grad``
array; constants and op outputs have ``.grad is None``, and backward rules
return None for operands that need no gradient. Values are numpy arrays
used purely as float64 storage and BLAS. The one rule written outside this
module is the losses' (losses.py): each forms its per-point loss and its
closed-form gradients and hands them to ``candidate_mean``, which records
them.

Conventions:
  * everything is float64, row-major;
  * no broadcasting beyond scalar-with-array, save for the bias rows of
    ``linear`` (x @ w.T + b) and the conv, added in place to the matmul
    output; ``pointwise_mlp``'s output bias, b tiled r times over r output
    rows at once (its hidden bias rides in the GEMM, against a column of
    ones); the (B, 1) constant columns of ``affine_rows``; and the
    candidate axis of ``candidate_mean``, where candidates c of (B, S, ...)
    meet p of (B, ...), and the gradient of p sums over that axis. Every
    other backward rule stays a plain transpose/sum;
  * layouts: ``conv_pyramid`` works channels-last, (B, T, C); its levels
    (``conv_channels_last``, stride 2, padding 1) run only on unit windows,
    and the batch is one GEMM of x's stride-2^L tiles against the matrix
    they give; ``pointwise_mlp`` maps its (B, T, d) features to the
    (B, S, T) candidate stack the losses read, so no op only moves axes;
  * subgradient choices at kinks: sign(0) = 0 for abs, indicator(x > 0)
    for relu;
  * a Tape and the Vars it produced are confined to one thread;
  * ``Tape(record=False)`` serves forward-only passes: it records nothing,
    so no op keeps its inputs alive for a backward pass that never comes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

# Rows per pointwise_mlp block: 0.5 MB of hidden layer at 64 units, not 44 MB.
POINTWISE_CHUNK = 1024


class Var:
    """A node in the computation graph: a value, plus a gradient array for
    leaves created with requires_grad=True (None for every other Var)."""

    __slots__ = ("value", "grad", "requires_grad")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.value) if self.requires_grad else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"


class ParamStore:
    """The flat layout of named parameters, defined once. `value` and `grad`
    hold every parameter, in list order, as one flat array each, and
    `slices` maps each name to its span of them. The store takes over the
    Vars' storage: each Var's .value and .grad is rebound to a view of its
    span, so one write to `value` sets every parameter and backward
    accumulates straight into `grad`. Gradients start at zero."""

    def __init__(self, named_params: Sequence[tuple[str, Var]]):
        names, params = [n for n, _ in named_params], [v for _, v in named_params]
        if (len(set(names)) != len(names) or len({id(v) for v in params}) != len(params)
                or any(v.grad is None for v in params)):
            raise ContractError("a parameter store needs distinct names and distinct leaves with a grad")
        self.value = np.concatenate([v.value.ravel() for v in params] + [np.zeros(0)])
        self.grad = np.zeros_like(self.value)
        edges = np.cumsum([0] + [v.value.size for v in params]).tolist()
        self.slices = {n: slice(lo, hi) for n, lo, hi in zip(names, edges, edges[1:])}
        for v, span in zip(params, self.slices.values()):
            v.value, v.grad = self.value[span].reshape(v.value.shape), self.grad[span].reshape(v.grad.shape)


def conv_channels_last(x: Array, w: Array, b: Array, stride: int, padding: int):
    """conv1d on x (B, T, C_in): the (B, T_out, C_out) output, and
    backward(g, need_x) -> (gx or None, gw, gb) for g of its shape."""
    B, T, c_in = x.shape
    c_out, _, k = w.shape
    t_out = (T + 2 * padding - k) // stride + 1
    # im2col (B, T_out, C_in, k), one strided copy of x per tap j: output
    # o reads row o * stride + j - padding, and rows outside x are zeros
    cols = np.empty((B, t_out, c_in, k))
    taps = []  # (first output, its input row, output count) of each tap
    for j in range(k):
        lo = min(t_out, max(0, -((j - padding) // stride)))
        hi = max(lo, min(t_out, -((j - padding - T) // stride)))
        row = lo * stride + j - padding
        taps.append((lo, row, hi - lo))
        cols[:, :lo, :, j] = cols[:, hi:, :, j] = 0.0
        cols[:, lo:hi, :, j] = x[:, row : row + stride * (hi - lo) : stride]
    flat = cols.reshape(B * t_out, c_in * k)
    wf = w.reshape(c_out, c_in * k)
    out = flat @ wf.T
    out += b

    def backward(g: Array, need_x: bool):
        gf = g.reshape(B * t_out, c_out)
        gw, gb = (gf.T @ flat).reshape(w.shape), gf.sum(axis=0)
        if not need_x:
            return None, gw, gb
        gcols = (gf @ wf).reshape(B, t_out, c_in, k)
        gx = np.zeros((B, T, c_in))
        for j, (lo, row, n) in enumerate(taps):  # stride keeps each tap's rows disjoint
            gx[:, row : row + stride * n : stride] += gcols[:, lo : lo + n, :, j]
        return gx, gw, gb

    return out.reshape(B, t_out, c_out), backward


def halving_levels(x: Array, layers: Sequence[tuple[Array, Array]]):
    """conv_channels_last levels (w, b), stride 2 and padding 1, on x (B, T,
    C_0), each level's output (B, T_l, C_l) the next one's input, every input
    of even length: the outputs side by side, each flattened per row and
    folded onto T positions, (B, T, D), and backward(g) -> [gw_0, gb_0,
    gw_1, ...], x taken as a constant."""
    B, T, _ = x.shape
    levels = []  # (output, backward) of each level
    for w, b in layers:
        levels.append(conv_channels_last(levels[-1][0] if levels else x, w, b, 2, 1))
    feats = np.concatenate([out.reshape(B, T, -1) for out, _ in levels], axis=2)
    edges = np.cumsum([0] + [out.size // (B * T) for out, _ in levels])

    def backward(g: Array):
        grads, gx = [], None
        for level, (out, back) in reversed(list(enumerate(levels))):
            go = np.ascontiguousarray(g[:, :, edges[level] : edges[level + 1]]).reshape(out.shape)
            if gx is not None:
                go += gx  # what the next level sends back
            gx, gw, gb = back(go, level > 0)
            grads[:0] = [gw, gb]
        return grads

    return feats, backward


class Tape:
    """Ordered record of operations; replayed in reverse by backward()."""

    def __init__(self, record: bool = True):
        self.record = bool(record)
        self._entries: list[tuple[Var, tuple[Var, ...], Callable]] = []
        self.masks: list[Array] | None = None  # a list collects each relu's mask
        self.frozen: Iterator[Array] | None = None  # relu masks to replay, in order

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, value: Array, inputs: tuple[Var, ...], backward: Callable) -> Var:
        """Wrap an op output; record the op only if an input needs a gradient."""
        out = Var(value)
        if self.record and any(v.requires_grad for v in inputs):
            out.requires_grad = True
            self._entries.append((out, inputs, backward))
        return out

    # ---- graph roots -------------------------------------------------

    def constant(self, value) -> Var:
        """Wrap a raw array as a non-differentiable leaf."""
        return Var(value, requires_grad=False)

    # ---- linear algebra ----------------------------------------------

    def matmul(self, a: Var, b: Var) -> Var:
        if a.value.ndim != 2 or b.value.ndim != 2:
            raise DimensionError(
                f"matmul expects 2-D operands, got {a.value.shape} @ {b.value.shape}"
            )
        if a.value.shape[1] != b.value.shape[0]:
            raise DimensionError(
                f"matmul inner dimensions differ: {a.value.shape} @ {b.value.shape}"
            )

        def backward(g: Array):
            return (g @ b.value.T if a.requires_grad else None,
                    a.value.T @ g if b.requires_grad else None)

        return self._record(a.value @ b.value, (a, b), backward)

    def linear(self, x: Var, w: Var, b: Var) -> Var:
        """Dense layer x @ w.T + b for x (B, in), w (out, in), b (out,)."""
        if w.value.ndim != 2 or b.value.shape != w.value.shape[:1]:
            raise DimensionError(f"linear weight {w.value.shape} and bias {b.value.shape} do not match")
        if x.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]:
            raise DimensionError(f"linear expects (B, {w.value.shape[1]}), got {x.value.shape}")
        out = x.value @ w.value.T
        out += b.value

        def backward(g: Array):
            return (g @ w.value if x.requires_grad else None,
                    g.T @ x.value if w.requires_grad else None,
                    # the column sum as a BLAS gemv: faster than g.sum(axis=0)
                    np.ones(len(g)) @ g if b.requires_grad else None)

        return self._record(out, (x, w, b), backward)

    def pointwise_mlp(self, z: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
        """relu(z @ w1.T + b1) @ w2.T + b2 at each position of z (B, T, in),
        for w1 (hidden, in) and w2 (S, hidden), returned as the (B, S, T)
        stack. It runs over the (B*T, in) rows in blocks of at most
        POINTWISE_CHUNK. Backward recomputes each block's hidden layer and
        relu mask: at large B*T a (B*T, hidden) array is tens of MB that the
        allocator maps, faults in and unmaps on every use, which costs more
        than the recomputed matmul.

        Backward works on the live rows only: those whose upstream gradient
        has a nonzero entry, NaN and inf included. A dead row adds nothing to
        any weight gradient and its z gradient is 0, so its recompute is
        skipped; Scam's masked loss leaves about half the rows dead, since off
        M it never reads the candidate. gb2 still sums each whole block; gb1
        sums the live rows only, which can move its last bit."""
        zv, w1v, b1v, w2v = z.value, w1.value, b1.value, w2.value
        if (zv.ndim != 3 or w1v.ndim != 2 or w2v.ndim != 2 or zv.shape[2] != w1v.shape[1]
                or w2v.shape[1] != len(w1v) or b1v.shape != w1v.shape[:1] or b2.value.shape != w2v.shape[:1]):
            raise DimensionError(f"pointwise_mlp got z {zv.shape}, w1 {w1v.shape}, b1 {b1v.shape}, "
                                 f"w2 {w2v.shape}, b2 {b2.value.shape}")
        B, T, d = zv.shape
        zv = zv.reshape(B * T, d)
        # near-equal blocks: a one-row block would go to gemv and round differently
        n, k = len(zv), -(-len(zv) // POINTWISE_CHUNK)
        blocks = [slice(n * i // k, n * (i + 1) // k) for i in range(k)]
        # b1 rides in the first GEMM: z_buf's last column is 1 and w1b's last
        # row b1. A block's z rows, hidden layer, relu mask and hidden gradient
        # go to the leading rows of scratch arrays made once per call
        w1b, z_buf = np.vstack((w1v.T, b1v)), np.ones((-(-n // k), d + 1))
        h_buf = np.empty((len(z_buf), len(w1v)))

        def hidden(zr: Array) -> Array:
            zb = z_buf[: len(zr)]
            zb[:, :d] = zr
            h = np.matmul(zb, w1b, out=h_buf[: len(zb)])
            return np.maximum(h, 0.0, out=h)

        # w2 transposed once, each GEMM NN: BLAS runs x @ W.T for a few outputs 2-3x slower
        out, w2t = np.empty((n, len(w2v))), np.ascontiguousarray(w2v.T)
        for rows in blocks:
            np.matmul(hidden(zv[rows]), w2t, out=out[rows])
        r = math.gcd(n, 256)  # b2 as one row of r copies: `+= b2` would loop only S wide
        out.reshape(-1, r * len(w2v))[...] += np.tile(b2.value, r)

        def backward(g: Array):
            live = (g != 0.0).any(axis=1).reshape(n)  # NaN and inf live, +-0 dead
            g = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(n, -1)  # C-ordered rows, B = 1 too
            gz = np.zeros_like(zv) if z.requires_grad else None
            gh_buf, relu_buf = np.empty_like(h_buf), np.empty(h_buf.shape, dtype=bool)
            gw1, gb1, gw2, gb2 = sums = [np.zeros_like(v.value) for v in (w1, b1, w2, b2)]
            for rows in blocks:
                gb2 += np.ones(rows.stop - rows.start) @ g[rows]
                idx = np.flatnonzero(live[rows]) + rows.start
                if len(idx) == rows.stop - rows.start:
                    idx, zr, gr = rows, zv[rows], g[rows]  # every row live: views
                elif len(idx):
                    if len(idx) == 1:
                        # one row would go to gemv, which rounds apart from the
                        # forward's GEMM: a dead row rides along, adding zeros
                        idx = np.unique([rows.start + (idx[0] == rows.start), idx[0]])
                    zr, gr = np.take(zv, idx, axis=0), np.take(g, idx, axis=0)
                else:
                    continue
                h = hidden(zr)
                gw2 += (h.T @ gr).T  # the same bits as gr.T @ h, faster
                gh = np.matmul(gr, w2v, out=gh_buf[: len(h)])
                gh *= np.greater(h, 0.0, out=relu_buf[: len(h)])
                gw1 += gh.T @ zr
                gb1 += np.ones(len(gh)) @ gh
                if gz is not None:
                    gz[idx] = gh @ w1v
            return (None if gz is None else gz.reshape(B, T, d),
                    *(gv if v.requires_grad else None for v, gv in zip((w1, b1, w2, b2), sums)))

        # Var copies the transposed view: the stack is the one array kept
        return self._record(out.reshape(B, T, -1).transpose(0, 2, 1), (z, w1, b1, w2, b2), backward)

    def conv1d(self, x: Var, w: Var, b: Var, stride: int = 1, padding: int = 0) -> Var:
        """1-D convolution (cross-correlation) along the last axis.

        x: (B, C_in, T); w: (C_out, C_in, k); b: (C_out,).
        Output length T_out = (T + 2*padding - k) // stride + 1.
        """
        if stride < 1 or padding < 0:
            raise DimensionError(f"conv1d needs stride >= 1, padding >= 0, got {stride}, {padding}")
        if w.value.ndim != 3:
            raise DimensionError(f"conv1d weight must be (C_out, C_in, k), got {w.value.shape}")
        if x.value.ndim != 3:
            raise DimensionError(f"conv1d input must be (B, C_in, T), got {x.value.shape}")
        B, c_in, T = x.value.shape
        c_out, c_in_w, k = w.value.shape
        if c_in != c_in_w:
            raise DimensionError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
        if b.value.shape != (c_out,):
            raise DimensionError(f"conv1d bias must be ({c_out},), got {b.value.shape}")
        if T + 2 * padding < k:
            raise DimensionError(f"conv1d window {k} exceeds padded length {T + 2 * padding}")
        out, back = conv_channels_last(x.value.transpose(0, 2, 1), w.value, b.value, stride, padding)

        def backward(g: Array):
            gx, gw, gb = back(g.transpose(0, 2, 1), x.requires_grad)
            if gx is not None:
                gx = gx.transpose(0, 2, 1)
            return gx, gw if w.requires_grad else None, gb if b.requires_grad else None

        return self._record(out.transpose(0, 2, 1), (x, w, b), backward)

    def conv_pyramid(self, x: Var, layers: Sequence[tuple[Var, Var]]) -> Var:
        """``halving_levels`` on x (B, T, C_0), T a multiple of TILE = 2^len(layers):
        (B, T, D). The levels are linear between their biases, so tile t, feature
        rows [t TILE, (t + 1) TILE), is one affine map of the 2 TILE - 1 input rows
        up to its last, zeros before row 0: a matrix K shared by every tile, plus
        tile 0's constant, which the levels' left padding moves, or the other
        tiles' one. K comes from the levels run on unit windows with zero biases,
        the constants from a zero window with the biases; the batch is then one
        GEMM, x's tiles times K, with the constants riding in it as two rows."""
        B, T, c0 = x.value.shape
        tile, params = 1 << len(layers), [v for layer in layers for v in layer]
        if T % tile:
            raise DimensionError(f"{len(layers)} conv levels need a length divisible by {tile}, got {T}")
        lead, span, n = (tile - 1) * c0, (2 * tile - 1) * c0, B * T // tile  # floats before a tile, in all
        k, k_back = halving_levels(np.eye(span, 2 * tile * c0, c0).reshape(span, 2 * tile, c0),
                                   [(w.value, np.zeros_like(b.value)) for w, b in layers])
        c, c_back = halving_levels(np.zeros((1, 2 * tile, c0)), [(w.value, b.value) for w, b in layers])
        k = np.vstack((k[:, tile:].reshape(span, -1), c.reshape(2, -1)))  # unit windows' tile 1; tiles 0, 1
        xp = np.pad(x.value.reshape(B, -1), ((0, 0), (lead, 0)))
        tiles = np.zeros((B, T // tile, span + 2))  # a tile's input rows, then a 1 for its constant
        tiles[:, :, :span] = np.lib.stride_tricks.sliding_window_view(xp, span, axis=1)[:, :: tile * c0]
        tiles[:, 0, span] = tiles[:, 1:, span + 1] = 1.0
        tiles = tiles.reshape(n, span + 2)

        def backward(g: Array):
            gf = g.reshape(n, -1)
            gk = tiles.T @ gf
            grads = c_back(gk[span:].reshape(1, 2 * tile, -1))
            units = k_back(np.hstack((np.zeros_like(gk[:span]), gk[:span])).reshape(span, 2 * tile, -1))
            grads[::2] = [gc + gu for gc, gu in zip(grads[::2], units[::2])]
            gx = None
            if x.requires_grad:  # a window's last TILE rows are its tile, the rest end the tile before
                gt = (gf @ np.ascontiguousarray(k[:span].T)).reshape(B, T // tile, span)
                gx = gt[:, :, lead:].copy()
                gx[:, :-1, c0:] += gt[:, 1:, :lead]
                gx = gx.reshape(x.value.shape)
            return gx, *(gv if v.requires_grad else None for v, gv in zip(params, grads))

        return self._record((tiles @ k).reshape(B, T, -1), (x, *params), backward)

    def spectral_weight(self, w: Var, gamma: Var, u: Array, v: Array, floor: float) -> Var:
        """gamma * w / sigma, sigma = u^T w v with u, v held constant (so dL/dw has
        spectral normalization's rank-one term), frozen at floor when at most floor.
        Same float operations, so the same bits, as the matmul/reciprocal/mul chain."""
        sig = (u[None, :] @ (w.value @ v[:, None])).reshape(1)
        live = not sig[0] <= floor  # a NaN sigma stays live and propagates, as in the chain
        inv = 1.0 / sig if live else np.full(1, 1.0 / floor)
        scaled = w.value * inv

        def backward(g: Array):
            gg = np.sum(g * scaled).reshape(1) if gamma.requires_grad else None
            if not w.requires_grad:
                return None, gg
            gw = g * gamma.value
            d_sig = -np.sum(gw * w.value) * inv * inv  # read before gw is scaled in place
            gw *= inv
            if live:
                gw += np.multiply.outer(u * d_sig[0], v)  # the products of the K = 1 GEMMs
            return gw, gg

        return self._record(gamma.value * scaled, (w, gamma), backward)

    def affine_rows(self, y: Var, scale: Array, shift: Array) -> Var:
        """y * scale + shift for y (B, n) and constant (B, 1) columns."""
        if y.value.ndim != 2 or scale.shape != (len(y.value), 1) or shift.shape != scale.shape:
            raise DimensionError(f"affine_rows got {y.value.shape} with {scale.shape} and {shift.shape}")

        def backward(g: Array):
            return (g * scale,)

        return self._record(y.value * scale + shift, (y,), backward)

    # ---- elementwise ---------------------------------------------------

    def _binary(self, a, b, fwd, bwd_a, bwd_b) -> Var:
        """Same-shape or scalar-with-array op; bwd_*(g, a_value, b_value)
        gives the operand's gradient before summing over a broadcast."""
        a = a if isinstance(a, Var) else Var(a)
        b = b if isinstance(b, Var) else Var(b)
        av, bv = a.value, b.value
        if not (av.shape == bv.shape or av.size == 1 or bv.size == 1):
            raise DimensionError(
                f"elementwise op supports same-shape or scalar-with-array only, "
                f"got {av.shape} and {bv.shape}"
            )

        def grad_of(v: Var, rule, g: Array):
            if not v.requires_grad:
                return None
            gv = rule(g, av, bv)
            return gv if gv.shape == v.value.shape else np.sum(gv).reshape(v.value.shape)

        def backward(g: Array):
            return grad_of(a, bwd_a, g), grad_of(b, bwd_b, g)

        return self._record(fwd(av, bv), (a, b), backward)

    def add(self, a, b) -> Var:
        return self._binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)

    def sub(self, a, b) -> Var:
        return self._binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)

    def mul(self, a, b) -> Var:
        return self._binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)

    def abs(self, x: Var) -> Var:
        s = np.sign(x.value)  # sign(0) = 0

        def backward(g: Array):
            return (g * s,)

        return self._record(np.abs(x.value), (x,), backward)

    def relu(self, x: Var) -> Var:
        """max(x, 0), or x * m for m the next frozen mask, the piece m selects."""
        m = x.value > 0.0 if self.frozen is None else next(self.frozen, None)
        if m is None or m.shape != x.value.shape:
            raise DimensionError(f"relu of {x.value.shape} has no frozen mask of its shape")
        if self.masks is not None:
            self.masks.append(m)

        def backward(g: Array):
            return (g * m,)

        out = np.maximum(x.value, 0.0) if self.frozen is None else x.value * m
        return self._record(out, (x,), backward)

    def reciprocal(self, x: Var) -> Var:
        if np.any(x.value == 0.0):
            raise ContractError("reciprocal of zero")
        inv = 1.0 / x.value

        def backward(g: Array):
            return (-g * inv * inv,)

        return self._record(inv, (x,), backward)

    # ---- candidate losses ------------------------------------------------

    def candidate_mean(self, c: Var, p: Var, total: Array, grads) -> Var:
        """Record the mean over candidates of each one's mean of the per-point
        loss `total`, for candidates c of (B, S, ...) against p of (B, ...);
        grads(k, need_c, need_p) gives c's gradient and p's, summed over the
        candidate axis 1 (None if not needed), for upstream k per point."""
        n_cand = c.value.shape[1]
        # one contiguous row per candidate: each mean adds as its own array would
        rows = np.ascontiguousarray(total.swapaxes(0, 1))
        per = rows.reshape(n_cand, -1).mean(axis=1)
        n_points = rows.size // n_cand

        def backward(g: Array):
            return grads(g.item() * (1.0 / n_cand) * (1.0 / n_points), c.requires_grad, p.requires_grad)

        return self._record(per.sum() * (1.0 / n_cand), (c, p), backward)

    # ---- reductions ----------------------------------------------------

    def mean(self, x: Var) -> Var:
        """Mean over every element, one scalar."""
        shape, scale = x.value.shape, 1.0 / x.value.size

        def backward(g: Array):
            return (np.full(shape, g.item() * scale),)

        return self._record(x.value.mean(), (x,), backward)

    # ---- reverse pass ----------------------------------------------------

    def backward(self, root: Var) -> None:
        """Accumulate d(root)/d(v) into v.grad for every requires_grad leaf v
        that root depends on through this tape. Repeated calls accumulate.
        """
        if not self.record:
            raise ContractError("backward on a tape that records nothing")
        if root.value.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
        if root.grad is not None:  # root is itself a leaf
            root.grad += np.ones_like(root.value)
            return
        # keyed by id(): the tape holds every Var it recorded, so ids stay unique
        adjoint: dict[int, Array] = {id(root): np.ones_like(root.value)}
        for out, inputs, rule in reversed(self._entries):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue
            for v, gv in zip(inputs, rule(g)):
                if gv is None:
                    continue
                if v.grad is not None:
                    v.grad += gv
                elif id(v) in adjoint:
                    adjoint[id(v)] = adjoint[id(v)] + gv
                else:
                    adjoint[id(v)] = gv
