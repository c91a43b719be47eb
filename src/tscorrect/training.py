"""Training loops: supervised, candidate grid search, and joint
(co-objective or masked-correction) training, plus evaluation and epoch
bookkeeping.

All modes share one protocol: channel-independent mini-batches, Adam,
early stopping on validation MSE with best-checkpoint restore, metrics in
standardized units. Runs are deterministic functions of (config, seed).
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import losses as L
from .autodiff import ParamStore, Tape
from .data import SplitWindows, WindowDataset, flatten_channels
from .errors import ConfigError, ContractError
from .models import ReconstructionNet
from .sharpness import HvpContext, lambda_max

MODES = ("supervised", "grid_search", "co_objective", "scam")


@dataclass
class TrainConfig:
    mode: str = "scam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 20
    seed: int = 0
    eval_batch: int = 512
    # candidate grid search
    grid_candidates: int = 8
    grid_inner_steps: int = 2000
    grid_grad_threshold: float = 1e-3
    grid_outer_lr: float = 0.02
    grid_inner_optimizer: str = "adam"
    # optional curvature logging
    log_sharpness: bool = False
    sharpness_batch: int = 512

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("lr", "grid_outer_lr", "adam_eps", "grid_grad_threshold"):
            v = getattr(self, name)
            if not 0 < v < np.inf:
                raise ConfigError(f"learning rates and step sizes must lie in (0, inf), got {name} = {v}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs, patience must be >= 1")
        if self.grid_candidates < 1 or self.grid_inner_steps < 1:
            raise ConfigError("grid search sizes must be >= 1")
        if self.grid_inner_optimizer not in ("adam", "sgd"):
            raise ConfigError(f"grid_inner_optimizer must be adam or sgd, got {self.grid_inner_optimizer!r}")
        if self.eval_batch < 1 or self.sharpness_batch < 1:
            raise ConfigError("batch sizes must be >= 1")


class _Optimizer:
    """One step over a ParamStore, inside _step's update protocol: a
    non-finite gradient anywhere skips it and bumps skipped_steps instead of
    corrupting the parameters or the optimizer state. Subclasses define only
    the update, one op over the store's flat arrays."""

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = float(lr)
        self.skipped_steps = 0

    def step(self) -> None:
        if not np.isfinite(self.store.grad).all():
            self.skipped_steps += 1
            return
        self._update()

    def _update(self) -> None:
        raise NotImplementedError


class Adam(_Optimizer):
    """Standard bias-corrected Adam."""

    def __init__(self, store: ParamStore, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(store, lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = np.zeros_like(store.value)
        self.v = np.zeros_like(store.value)

    def _update(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        g, m, v = self.store.grad, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        self.store.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class Sgd(_Optimizer):
    """Plain gradient descent (the grid-search outer loop, and its inner loop
    when grid_inner_optimizer is sgd)."""

    def _update(self) -> None:
        self.store.value -= self.lr * self.store.grad


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    train_mae: float
    val_mse: float
    val_mae: float
    test_mse: float
    test_mae: float
    rec_corrected: float = 0.0
    pred_corrected: float = 0.0
    sup_in_mask: float = 0.0
    sup_out_mask: float = 0.0
    loss_rec: float = 0.0
    loss_pred: float = 0.0
    loss_target: float = 0.0
    lambda_max: float | None = None
    wall_time_s: float = 0.0


EPOCH_CSV_FIELDS = [f.name for f in fields(EpochRecord)]
BREAKDOWN_FIELDS = [f.name for f in fields(L.LossBreakdown)]

TIMING_FIELDS = {"wall_time_s"}


def _step(opt: _Optimizer, f, backward, *args):
    """Every loop's update: zero opt's gradient, fill it by backward(*args), step,
    then re-solve predictor f's singular pairs unless f is None. Returns backward's result."""
    opt.store.grad.fill(0.0)
    out = backward(*args)
    opt.step()
    if f is not None:
        f.spectral_step()
    return out


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model, ds: WindowDataset, batch: int = 512, scaler=None) -> tuple[float, float]:
    """MSE and MAE of the predictor over every window and channel.

    Metrics are in standardized units unless a scaler is passed, in which
    case predictions and targets are mapped back to raw units first.
    """
    n = len(ds)
    if n == 0:
        raise ContractError("empty window dataset")
    sums = np.zeros(3)
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        x = flatten_channels(ds.x[lo:hi])
        y = flatten_channels(ds.y[lo:hi])
        pred = model.forward(Tape(record=False), x).value
        if scaler is not None:
            # flattened rows cycle through channels within each window
            sd = np.tile(scaler.std, hi - lo)[:, None]
            mu = np.tile(scaler.mean, hi - lo)[:, None]
            pred = pred * sd + mu
            y = y * sd + mu
        sums += _error_sums(pred - y)
    return float(sums[0] / sums[2]), float(sums[1] / sums[2])


def _error_sums(d: np.ndarray) -> np.ndarray:
    return np.array([np.sum(d * d), np.sum(np.abs(d)), d.size], dtype=float)


def _batch_indices(n: int, batch: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[lo : lo + batch] for lo in range(0, n, batch)]


# ---------------------------------------------------------------------------
# shared epoch loop


def _fit(bundle: SplitWindows, f, g, cfg: TrainConfig, batch_loss_fn) -> list[EpochRecord]:
    """Run epochs of batch_loss_fn, early-stop on val MSE, restore the best.

    batch_loss_fn(tape, x, y) returns the loss, the prediction values and
    the batch's LossBreakdown, or None.
    """
    store = ParamStore(f.parameters() + (g.parameters() if g is not None else []))
    opt = Adam(store, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    rng = np.random.default_rng([cfg.seed, 1])
    n = len(bundle.train)
    records: list[EpochRecord] = []
    best_val = np.inf
    best_epoch = -1
    best_state = store.value.copy()
    for epoch in range(cfg.max_epochs):
        t0 = time.perf_counter()
        sums, bsum = np.zeros(3), np.zeros(len(BREAKDOWN_FIELDS))
        for idx in _batch_indices(n, cfg.batch_size, rng):
            x = flatten_channels(bundle.train.x[idx])
            y = flatten_channels(bundle.train.y[idx])
            tape = Tape()
            loss, yhat, parts = batch_loss_fn(tape, x, y)
            _step(opt, f, tape.backward, loss)
            sums += _error_sums(yhat - y)
            if parts is not None:
                bsum += np.array(astuple(parts)) * y.size
        val_mse, val_mae = evaluate(f, bundle.val, cfg.eval_batch)
        test_mse, test_mae = evaluate(f, bundle.test, cfg.eval_batch)
        bmean = bsum / sums[2]  # all zeros when batch_loss_fn gives no breakdown
        lam = None
        if cfg.log_sharpness:
            lam = lambda_max(predictor_loss_context(f, bundle.val, cfg.sharpness_batch), seed=cfg.seed).value
        records.append(EpochRecord(
            epoch=epoch,
            train_mse=float(sums[0] / sums[2]), train_mae=float(sums[1] / sums[2]),
            val_mse=val_mse, val_mae=val_mae,
            test_mse=test_mse, test_mae=test_mae,
            **{name: float(v) for name, v in zip(BREAKDOWN_FIELDS, bmean)},
            lambda_max=lam,
            wall_time_s=time.perf_counter() - t0,
        ))
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_state = store.value.copy()
        elif epoch - best_epoch >= cfg.patience:
            break
    store.value[...] = best_state
    f.spectral_step()
    return records


# ---------------------------------------------------------------------------
# training modes


def train_supervised(bundle: SplitWindows, model, cfg: TrainConfig) -> tuple[object, list[EpochRecord]]:
    """Plain L1 training of the predictor on raw labels."""

    def batch_loss(tape: Tape, x: np.ndarray, y: np.ndarray):
        yhat = model.forward(tape, x)
        loss = tape.mean(tape.abs(tape.sub(yhat, tape.constant(y))))
        return loss, yhat.value, None

    records = _fit(bundle, model, None, cfg, batch_loss)
    return model, records


def train_scam(bundle: SplitWindows, g: ReconstructionNet, f, cfg: TrainConfig):
    """Joint training of the reconstruction net and the predictor, averaged
    over candidates: the masked correction loss, or for mode co_objective its
    unmasked form mean(|c - t| + |c - p|), whose raw-label term trains only
    the reconstruction network and whose closeness term trains both."""
    masked = cfg.mode != "co_objective"

    def batch_loss(tape: Tape, x: np.ndarray, y: np.ndarray):
        yhat = f.forward(tape, x)
        cands = g.forward(tape, y)
        masks = L.compute_masks(cands, yhat, y)
        parts = L.loss_breakdown(masks)
        if masked:
            loss = L.scam_masked_loss(tape, cands, yhat, y, masks)
        else:
            loss = L.co_objective_loss(tape, cands, yhat, y)
        return loss, yhat.value, parts

    records = _fit(bundle, f, g, cfg, batch_loss)
    return f, g, records


# ---------------------------------------------------------------------------
# candidate grid search


@dataclass
class GridRecord:
    index: int
    loss_rec: float
    loss_pred: float
    loss_target: float
    inner_steps: int
    grad_norm: float
    test_mse: float
    test_mae: float


GRID_CSV_FIELDS = [f.name for f in fields(GridRecord)]


def train_grid_search(bundle: SplitWindows, g: ReconstructionNet, predictor_factory,
                      cfg: TrainConfig) -> tuple[object, ReconstructionNet, list[GridRecord]]:
    """Outer loop over candidate label sets (Alg: propose, fit, score, refine).

    Each outer round i freezes the candidate labels of the reconstruction
    parameters phi_i, takes one full-batch gradient step on the reconstruction
    loss mean|c - t| to propose phi_{i+1}, fits a freshly initialized predictor
    theta_i on the frozen candidates until the RMS gradient falls below the
    threshold or the step budget runs out, then scores theta_i on raw test
    labels. Both losses are halves of the co-objective. Returns the predictor
    of the round with the lowest test MSE, and g set back to that round's phi.
    """
    rng = np.random.default_rng([cfg.seed, 2])
    n, nch = len(bundle.train), bundle.train.n_channels
    # row w * nch + c, as flatten_channels orders a batch
    labels = flatten_channels(bundle.train.y)
    records: list[GridRecord] = []
    best = best_f = None
    outer = Sgd(ParamStore(g.parameters()), cfg.grid_outer_lr)
    for i in range(cfg.grid_candidates):
        f = predictor_factory(i)
        theta = ParamStore(f.parameters())
        inner = (Adam(theta, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
                 if cfg.grid_inner_optimizer == "adam" else Sgd(theta, cfg.lr))
        # the |c - t| loss never reads f, so phi can step before theta_i is fit
        phi = outer.store.value.copy()
        frozen, loss_rec = _step(outer, None, _recon_pass, g, labels, cfg.eval_batch * nch)
        # one stream of batches over as many epochs as the budget takes
        batches = (idx for _ in itertools.count() for idx in _batch_indices(n, cfg.batch_size, rng))
        for steps, idx in enumerate(batches, 1):
            x = flatten_channels(bundle.train.x[idx])
            rows = (idx[:, None] * nch + np.arange(nch)).ravel()
            tape = Tape()
            loss = L.co_objective_loss(tape, frozen[rows], f.forward(tape, x), labels[rows],
                                       rec_weight=0.0)
            _step(inner, f, tape.backward, loss)
            # the update reads the gradient and never writes it
            gnorm = float(np.linalg.norm(theta.grad)) / np.sqrt(theta.grad.size)
            if steps >= cfg.grid_inner_steps or gnorm <= cfg.grid_grad_threshold:
                break
        test_mse, test_mae = evaluate(f, bundle.test, cfg.eval_batch)
        records.append(GridRecord(
            index=i, loss_rec=loss_rec, loss_pred=loss.value.item(),
            loss_target=evaluate(f, bundle.train, cfg.eval_batch)[1],
            inner_steps=steps, grad_norm=gnorm, test_mse=test_mse, test_mae=test_mae,
        ))
        if best is None or test_mse < best.test_mse:
            best, best_f, best_phi = records[-1], f, phi
    outer.store.value[...] = best_phi
    return best_f, g, records


def _recon_pass(g: ReconstructionNet, labels: np.ndarray, rows: int) -> tuple[np.ndarray, float]:
    """g's candidates for every label row, and the reconstruction loss mean|c - t|, whose
    gradient accumulates into g's: one taped pass per chunk of `rows` rows at a time."""
    cands, loss_rec = [], 0.0
    for lo in range(0, len(labels), rows):
        y = labels[lo : lo + rows]
        tape = Tape()
        cands.append(g.forward(tape, y))
        # y stands in for the predictions, which a weight of 0 never reads
        chunk = L.co_objective_loss(tape, cands[-1], y, y, pred_weight=0.0)
        tape.backward(tape.mul(chunk, y.size / labels.size))
        loss_rec += chunk.value.item() * (y.size / labels.size)
    return np.concatenate([c.value for c in cands]), loss_rec


# ---------------------------------------------------------------------------
# curvature contexts


def predictor_loss_context(f, ds: WindowDataset, batch: int = 512,
                           point_weights: np.ndarray | None = None) -> HvpContext:
    """Curvature context for the predictor's L1 loss on a fixed batch of
    windows, optionally a weighted mean over output points (e.g. by a mask). It
    probes a private copy of f in its own store, so f, an optimizer whose
    store backs f, and other contexts on f never see its parameter writes."""
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

    spans = store.slices
    segments = {
        seg: slice(min(spans[p].start for p in plist), max(spans[p].stop for p in plist))
        for seg, plist in f.segments().items() if plist
    }
    return HvpContext(store.value.copy(), loss_and_grad, segments)
