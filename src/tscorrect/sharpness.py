"""Curvature diagnostics and channel-distribution alignment.

Hessian-vector products are one central difference of first-order gradients
at a fixed step, so any loss that exposes (loss, gradient) as a function of a
flat parameter vector can be probed, if it keeps no vector it is given and
gives up the gradient it returns: hvp writes both probes into the context's
own vectors and forms the product in the first gradient. A loss with kinks
(L1, ReLU) is probed on theta0's own piece (``predictor_loss_context``
fixes it once), which no step leaves, so the products are the
almost-everywhere Hessian's, as autograd's double backward computes them.
lambda_max extracts the largest (signed) eigenvalue by Lanczos iteration
with full reorthogonalization: one Hessian-vector product per step, then
one block Gram-Schmidt pass over the basis, and a second only when the first
cancels (Daniel, Gragg, Kaufman and Stewart, 1976: "twice is enough"); top
Ritz values non-decreasing, and exact once the Krylov space exhausts the
(masked) dimension. Plain power iteration on H stalls whenever the extreme
negative eigenvalue rivals the extreme positive one in magnitude, and a
shifted rerun loses the small top eigenvalue to cancellation, so neither
meets the eigensolve-oracle tolerance this module is tested against.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import ParamStore, Tape
from .data import WindowDataset, flatten_channels
from .errors import ContractError, DimensionError

EPS_BASE = 1e-6
RAYLEIGH_TOL = 1e-6
MAX_POWER_ITERS = 100


@dataclass
class HvpContext:
    """A loss surface probed at a fixed point theta0.

    loss_and_grad maps a flat parameter vector, one of the context's own that
    it must not keep, to (loss, gradient), a gradient the caller then owns;
    segments name slices of the vector (for per-component curvature), and
    windows counts the windows the loss reads, if it reads any."""

    theta0: np.ndarray
    loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    segments: dict[str, slice] = field(default_factory=dict)
    windows: int = 0

    def __post_init__(self):
        self.theta0 = np.asarray(self.theta0, dtype=np.float64).ravel()
        self.eps = EPS_BASE * max(1.0, float(np.linalg.norm(self.theta0)))
        self._step, self._probe = np.empty(self.n), np.empty(self.n)

    @property
    def n(self) -> int:
        return self.theta0.size


def hvp(ctx: HvpContext, v: np.ndarray) -> np.ndarray:
    """H @ v by central differences of the gradient along v, at the step
    ctx.eps = EPS_BASE * max(1, |theta0|): two gradient passes."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.shape != ctx.theta0.shape:
        raise DimensionError(f"direction of {v.shape} for {ctx.theta0.shape} parameters")
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return np.zeros_like(v)
    step = np.multiply(np.divide(v, nv, out=ctx._step), ctx.eps, out=ctx._step)  # eps * vhat
    plus = ctx.loss_and_grad(np.add(ctx.theta0, step, out=ctx._probe))[1]
    minus = ctx.loss_and_grad(np.subtract(ctx.theta0, step, out=ctx._probe))[1]
    plus -= minus
    plus *= nv / (2.0 * ctx.eps)
    return plus


@dataclass
class SharpnessResult:
    value: float
    iterations: int
    converged: bool


def _random_unit(n: int, rng: np.random.Generator, mask: np.ndarray | None) -> np.ndarray:
    v = rng.standard_normal(n)
    if mask is not None:
        v = v * mask
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ContractError("empty component segment")
    return v / nv


def _segment_mask(ctx: HvpContext, segment: str | None) -> np.ndarray | None:
    if segment is None:
        return None
    if segment not in ctx.segments:
        raise ContractError(f"unknown segment {segment!r}; have {sorted(ctx.segments)}")
    mask = np.zeros(ctx.n)
    mask[ctx.segments[segment]] = 1.0
    return mask


def _project_out(basis: np.ndarray, w: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """One block Gram-Schmidt pass: w minus its components along basis' rows, in place."""
    w -= np.matmul(basis @ w, basis, out=proj)
    return w


def lambda_max(
    ctx: HvpContext,
    seed: int = 0,
    max_iters: int = MAX_POWER_ITERS,
    tol: float = RAYLEIGH_TOL,
    segment: str | None = None,
) -> SharpnessResult:
    """Largest (algebraic) eigenvalue of the (segment-restricted) Hessian.

    Lanczos with full reorthogonalization: per step one Hessian-vector
    product, the three-term recurrence, one block pass against the whole
    basis, and a second only when the first cut |w| below 1/sqrt(2) of its
    value (the DGKS test). The running estimate is the top eigenvalue of
    the growing tridiagonal matrix; interlacing makes it non-decreasing step
    to step. Converged means the Ritz residual beta*|s_k| (which bounds the
    distance from the estimate to a true eigenvalue) fell below tol relative
    to the estimate, or the Krylov space exhausted the masked dimension, in
    which case the value is exact up to the finite-difference error of the
    Hessian-vector products.
    """
    if max_iters < 1 or not tol > 0:
        raise ContractError(f"lambda_max needs max_iters >= 1 and tol > 0, got {max_iters}, {tol}")
    rng = np.random.default_rng(seed)
    mask = _segment_mask(ctx, segment)

    dim = ctx.n if mask is None else int(round(float(mask.sum())))
    steps = min(max_iters, dim)
    # one block for the Krylov basis: rows never written are never faulted in
    basis = np.empty((steps, ctx.n))
    basis[0] = _random_unit(ctx.n, rng, mask)
    proj = np.empty(ctx.n)
    alphas: list[float] = []
    betas: list[float] = []
    theta = 0.0
    for it in range(1, steps + 1):
        q, done = basis[it - 1], basis[:it]
        w = hvp(ctx, q)
        if mask is not None:
            w *= mask
        alphas.append(float(q @ w))
        w -= np.multiply(q, alphas[-1], out=proj)  # the three-term recurrence, in proj
        if betas:
            w -= np.multiply(basis[it - 2], betas[-1], out=proj)
        before = float(np.linalg.norm(w))
        beta = float(np.linalg.norm(_project_out(done, w, proj)))
        if beta < before / math.sqrt(2.0):  # the first pass cancelled: a second (DGKS)
            beta = float(np.linalg.norm(_project_out(done, w, proj)))
        vals, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta = float(vals[-1])
        scale = max(abs(theta), 1e-12)
        # the Ritz residual met tol, or the Krylov space is invariant, exactly
        if beta * abs(float(vecs[-1, -1])) <= tol * scale or beta <= 1e-12 * max(1.0, scale):
            return SharpnessResult(theta, it, True)
        if it == steps:
            break
        np.divide(w, beta, out=basis[it])
        betas.append(beta)
    return SharpnessResult(theta, steps, steps == dim)


# ---------------------------------------------------------------------------
# predictor contexts


def predictor_loss_context(f, ds: WindowDataset, batch: int = 512,
                           point_weights: np.ndarray | None = None) -> HvpContext:
    """Curvature context for the predictor's L1 loss on its first min(batch, len(ds))
    windows, optionally a weighted mean over output points (e.g. by a mask). It
    probes a private copy of f in its own store, so f, an optimizer whose
    store backs f, and other contexts on f never see its parameter writes.
    Its segments: f's last layer is the projector, any earlier ones the embedding."""
    take = min(batch, len(ds))
    x = flatten_channels(ds.x[:take])
    y = flatten_channels(ds.y[:take])
    if point_weights is not None and point_weights.shape != y.shape:
        raise ContractError(f"point weights {point_weights.shape} vs targets {y.shape}")
    if point_weights is not None and point_weights.mean() > 0:
        # the loss over the weighted points is their weighted mean, so that
        # two weightings of unequal mass are compared on one scale
        point_weights = point_weights / point_weights.mean()
    f = copy.deepcopy(f)
    store = ParamStore(f.parameters())
    # RevIN's statistics and standardized batch depend on x alone: every pass reuses them
    f.revin.kept = (x, *f.revin.standardize(x))
    # theta0's piece: one forward pass keeps its relu masks and residual signs
    # (sign(0) = 0), so each probe's mean((f(x) - y) * w) crosses no kink
    probe = Tape(record=False)
    probe.masks = []
    w = np.sign(f.forward(probe, x).value - y) * (1.0 if point_weights is None else point_weights)

    def loss_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        store.value[...] = theta
        tape = Tape()
        tape.frozen = iter(probe.masks)
        loss = tape.mean(tape.mul(tape.sub(f.forward(tape, x), tape.constant(y)), tape.constant(w)))
        store.grad.fill(0.0)
        tape.backward(loss)
        return loss.value.item(), store.grad.copy()

    *embedding, projector = f.layers
    spans = {seg: [sl for name, sl in store.slices.items() if name.split(".")[0] in layers]
             for seg, layers in (("embedding", embedding), ("projector", [projector]))}
    segments = {seg: slice(own[0].start, own[-1].stop) for seg, own in spans.items() if own}
    return HvpContext(store.value.copy(), loss_and_grad, segments, take)


# ---------------------------------------------------------------------------
# channel alignment


MASS_FLOOR = 1e-10


def channel_histograms(channels: list[np.ndarray], bins: int = 64) -> np.ndarray:
    """(len(channels), bins) masses over uniform bins spanning the pooled min/max."""
    if not channels:
        raise DimensionError("no channels to histogram")
    flat = [np.asarray(c, dtype=np.float64).ravel() for c in channels]
    for c in flat:
        if c.size == 0:
            raise DimensionError("empty channel")
        if not np.isfinite(c).all():
            raise ContractError("non-finite channel values")
    lo = min(float(c.min()) for c in flat)
    hi = max(float(c.max()) for c in flat)
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    return np.stack([np.histogram(c, bins=edges)[0] / c.size for c in flat])


def kl_alignment(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized KL divergence 0.5*(KL(a||b) + KL(b||a)) of two mass rows, floored."""
    if a.shape != b.shape:
        raise DimensionError(f"mass rows of {a.shape} and {b.shape}")
    p = np.maximum(a, MASS_FLOOR)
    p = p / p.sum()
    q = np.maximum(b, MASS_FLOOR)
    q = q / q.sum()
    kl_pq = float(np.sum(p * np.log(p / q)))
    kl_qp = float(np.sum(q * np.log(q / p)))
    return 0.5 * (kl_pq + kl_qp)
