"""Forecasting backbones and the label-reconstruction network.

Predictors are channel-independent: every sample is one univariate window
of length L mapped to a horizon of length H. Instance normalization wraps
the backbone (statistics per window, detached). The reconstruction network
g maps a target window to S candidate corrected labels through four
stride-2 channels-last conv layers whose outputs are unfolded back onto
the horizon grid, then a point-wise FFN and one head layer with S outputs.

Spectral rescaling (snr): a layer's effective weight is gamma * W / sigma_max(W),
with sigma_max and its singular vectors recomputed exactly after every
optimizer step from one eigensolve of the smaller Gram matrix. gamma is a
learnable scalar initialized to 1; sigma_max enters the graph as u^T W v
with u and v held constant.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, asdict, fields

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError, DimensionError, LoadError

SIGMA_FLOOR = 1e-12
CONV_KERNEL = 3
N_CONV_LAYERS = 4

SNR_CHOICES = ("none", "pre", "post", "both")
_BACKBONES = ("mlp", "linear")


@dataclass
class ModelConfig:
    backbone: str = "mlp"
    lookback: int = 96
    horizon: int = 96
    hidden: int = 512
    snr: str = "both"
    revin_affine: bool = False
    dim_multiplier: int = 4
    series_count: int = 8
    recon_hidden: int = 128

    def __post_init__(self):
        for f in fields(self):  # the default's exact type: True is no size, 8.0 no int, "false" no bool
            value = getattr(self, f.name)
            if type(value) is not type(f.default):
                raise ConfigError(f"{f.name} must be a {type(f.default).__name__}, got {value!r}")
        if self.backbone not in _BACKBONES:
            raise ConfigError(f"backbone must be one of {_BACKBONES}, got {self.backbone!r}")
        if self.snr not in SNR_CHOICES:
            raise ConfigError(f"snr must be one of {SNR_CHOICES}, got {self.snr!r}")
        if self.lookback < 1 or self.horizon < 1:
            raise ConfigError(f"lookback/horizon must be >= 1, got {self.lookback}/{self.horizon}")
        if self.horizon % 2 ** N_CONV_LAYERS != 0:
            raise ConfigError(
                f"horizon must be divisible by {2 ** N_CONV_LAYERS} "
                f"(four stride-2 layers), got {self.horizon}"
            )
        if self.hidden < 1 or self.recon_hidden < 1:
            raise ConfigError("hidden sizes must be >= 1")
        if self.dim_multiplier < 2 or self.dim_multiplier % 2 != 0:
            raise ConfigError(
                f"dim_multiplier must be even and >= 2 so conv features "
                f"unfold evenly onto the horizon, got {self.dim_multiplier}"
            )
        if self.series_count < 1:
            raise ConfigError(f"series_count must be >= 1, got {self.series_count}")

    @property
    def d_feat(self) -> int:
        return 2 * self.dim_multiplier


# ---------------------------------------------------------------------------
# spectral norm


def top_singular_pair(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Exact top singular pair of w, written into u and v in place; returns sigma_max.

    One symmetric eigensolve of the smaller Gram matrix (W^T W, or W W^T when
    W is wide), O(min(m, n)^3) on top of the O(m n min(m, n)) product. Its top
    eigenvector is one singular vector; W applied to it, normalized, is the
    other. Clustered leading singular values cost nothing extra, unlike an
    iteration whose rate is their ratio. A zero matrix has no direction: u
    and v are left as they are and SIGMA_FLOOR is returned.
    """
    a, x, y = (w, v, u) if w.shape[1] <= w.shape[0] else (w.T, u, v)
    vals, vecs = np.linalg.eigh(a.T @ a)
    if vals[-1] <= 0.0:
        return SIGMA_FLOOR
    x[...] = vecs[:, -1]
    ax = a @ x
    sigma = float(np.linalg.norm(ax))
    y[...] = ax / sigma
    return max(sigma, SIGMA_FLOOR)


# ---------------------------------------------------------------------------
# layers


class LinearLayer:
    """Dense layer with optional spectral rescaling of its weight."""

    u = property(lambda self: self._pair()[0])
    v = property(lambda self: self._pair()[1])

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, snr_enabled: bool = False):
        bound = 1.0 / math.sqrt(in_dim)
        self.w = Var(rng.uniform(-bound, bound, size=(out_dim, in_dim)), requires_grad=True)
        self.b = Var(np.zeros(out_dim), requires_grad=True)
        self.snr_enabled = bool(snr_enabled)
        if self.snr_enabled:
            self.gamma = Var(np.ones(1), requires_grad=True)
            # u, v (m, n) and an (n, min(4, m, n) - 1) block, once the start of a
            # block power iteration, are drawn only to keep the generator's stream,
            # and so each seed's initial parameters, as it was
            rng.standard_normal(out_dim), rng.standard_normal(in_dim)
            if min(4, out_dim, in_dim) > 1:
                rng.standard_normal((in_dim, min(4, out_dim, in_dim) - 1))
            self._uv = None

    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        """u and v, solved from W when first read: a restore that writes W first solves once."""
        if self._uv is None:
            self.spectral_step()
        return self._uv

    def params(self) -> list[tuple[str, Var]]:
        out = [("w", self.w), ("b", self.b)]
        if self.snr_enabled:
            out.append(("gamma", self.gamma))
        return out

    def spectral_step(self) -> None:
        if self.snr_enabled:
            if self._uv is None:  # a zero W leaves them zero: sigma is then floored
                self._uv = np.zeros(len(self.w.value)), np.zeros(self.w.value.shape[1])
            top_singular_pair(self.w.value, *self._uv)

    def effective_weight(self, tape: Tape) -> Var:
        if not self.snr_enabled:
            return self.w
        # a degenerate matrix has no usable direction: its normalizer is frozen
        return tape.spectral_weight(self.w, self.gamma, self.u, self.v, SIGMA_FLOOR)

    def apply(self, tape: Tape, x: Var) -> Var:
        return tape.linear(x, self.effective_weight(tape), self.b)


class RevIn:
    """Reversible per-instance standardization over the time axis.

    Statistics are detached constants; optional affine scale/shift are
    learnable scalars shared across instances.
    """

    def __init__(self, eps: float = 1e-5, affine: bool = False):
        self.eps = float(eps)
        self.affine = bool(affine)
        self.kept = None  # (x, z, (mu, sd)): a fixed batch standardized once, read while x is passed
        if self.affine:
            self.weight = Var(np.ones(1), requires_grad=True)
            self.bias = Var(np.zeros(1), requires_grad=True)

    def standardize(self, x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Each row of x (B, T) standardized, and its (mu, sd) columns: constants of x alone."""
        if x.ndim != 2:
            raise DimensionError(f"revin expects (B, T), got {x.shape}")
        mu = x.mean(axis=1, keepdims=True)
        d = x - mu
        # np.var's own arithmetic, without its wrapper
        sd = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True) / x.shape[1] + self.eps)
        return d / sd, (mu, sd)

    def normalize(self, tape: Tape, x: np.ndarray) -> tuple[Var, tuple[np.ndarray, np.ndarray]]:
        z, stats = self.kept[1:] if self.kept is not None and self.kept[0] is x else self.standardize(x)
        out = tape.constant(z)
        if self.affine:
            out = tape.add(tape.mul(out, self.weight), self.bias)
        return out, stats

    def denormalize(self, tape: Tape, y: Var, stats: tuple[np.ndarray, np.ndarray]) -> Var:
        mu, sd = stats
        if self.affine:
            y = tape.mul(tape.sub(y, self.bias), tape.reciprocal(self.weight))
        return tape.affine_rows(y, sd, mu)

    def params(self) -> list[tuple[str, Var]]:
        if self.affine:
            return [("weight", self.weight), ("bias", self.bias)]
        return []


# ---------------------------------------------------------------------------
# predictors


class MlpPredictor:
    """RevIN -> linear layers with ReLU between them -> inverse RevIN.

    Layer widths are [L, hidden, H] for the mlp backbone and [L, H] for the
    linear one. Spectral rescaling applies to the first layer for snr
    pre/both and to the last for post/both; a single layer is both.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.revin = RevIn(affine=cfg.revin_affine)
        if cfg.backbone == "mlp":
            widths = [cfg.lookback, cfg.hidden, cfg.horizon]
        else:
            widths = [cfg.lookback, cfg.horizon]
        last = len(widths) - 2
        self.layers: dict[str, LinearLayer] = {}
        for i in range(last + 1):
            name = f"layer{i + 1}" if last else "layer"
            snr = (i == 0 and cfg.snr in ("pre", "both")) or (i == last and cfg.snr in ("post", "both"))
            self.layers[name] = LinearLayer(widths[i], widths[i + 1], rng, snr_enabled=snr)

    def forward(self, tape: Tape, x: np.ndarray) -> Var:
        h, stats = self.revin.normalize(tape, x)
        for i, layer in enumerate(self.layers.values()):
            h = layer.apply(tape, tape.relu(h) if i else h)
        return self.revin.denormalize(tape, h, stats)

    def spectral_step(self) -> None:
        for layer in self.layers.values():
            layer.spectral_step()

    def parameters(self) -> list[tuple[str, Var]]:
        out = [(f"{name}.{n}", v) for name, layer in self.layers.items() for n, v in layer.params()]
        out += [(f"revin.{n}", v) for n, v in self.revin.params()]
        return out


def build_predictor(cfg: ModelConfig, rng: np.random.Generator) -> MlpPredictor:
    return MlpPredictor(cfg, rng)


# ---------------------------------------------------------------------------
# reconstruction network


class ReconstructionNet:
    """Label-window encoder with one S-output candidate head layer.

    encode: (B, H) -> (B, H, d_feat); forward runs the FFN and its S heads
    at each horizon position of those features, one pointwise_mlp op, and
    returns the (B, S, H) candidate stack. The conv levels run channels-last;
    each halves the time axis and doubles the channel count, so level l
    holds exactly dim_multiplier/2 features per horizon position once its
    (T_l, C_l) output is unfolded row-major onto the horizon grid. Horizon
    position j therefore reads conv position floor(j * T_l / H), whose
    receptive field on the input window is 2^(l+1) - 1 wide. With no
    nonlinearity between levels, each 16 horizon rows are one affine map of
    the 31 rows up to their last; conv_pyramid applies it as one GEMM.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        dm = cfg.dim_multiplier
        self.channels = [dm * (1 << i) for i in range(N_CONV_LAYERS)]
        self.convs: list[tuple[Var, Var]] = []
        c_prev = 1
        for c in self.channels:
            bound = 1.0 / math.sqrt(c_prev * CONV_KERNEL)
            w = Var(rng.uniform(-bound, bound, size=(c, c_prev, CONV_KERNEL)), requires_grad=True)
            b = Var(np.zeros(c), requires_grad=True)
            self.convs.append((w, b))
            c_prev = c
        self.ffn_in = LinearLayer(cfg.d_feat, cfg.recon_hidden, rng)
        # one (S, recon_hidden) draw: the same numbers as S single-output heads
        self.heads = LinearLayer(cfg.recon_hidden, cfg.series_count, rng)

    def encode(self, tape: Tape, y: np.ndarray) -> Var:
        if y.ndim != 2 or y.shape[1] != self.cfg.horizon:
            raise DimensionError(f"encode expects (B, {self.cfg.horizon}), got {y.shape}")
        return tape.conv_pyramid(tape.constant(y[:, :, None]), self.convs)

    def forward(self, tape: Tape, y: np.ndarray) -> Var:
        """All candidate label sets, stacked: (B, S, H)."""
        ffn, heads = self.ffn_in, self.heads
        return tape.pointwise_mlp(self.encode(tape, y), ffn.w, ffn.b, heads.w, heads.b)

    def parameters(self) -> list[tuple[str, Var]]:
        out = []
        for i, (w, b) in enumerate(self.convs, start=1):
            out += [(f"conv{i}.w", w), (f"conv{i}.b", b)]
        for name in ("ffn_in", "heads"):
            out += [(f"{name}.{n}", v) for n, v in getattr(self, name).params()]
        return out


def build_recon(cfg: ModelConfig, rng: np.random.Generator) -> ReconstructionNet:
    return ReconstructionNet(cfg, rng)


# ---------------------------------------------------------------------------
# checkpoints: uint64-LE header length, JSON header, then raw float64 blocks


_CKPT_VERSION = 4


def save_checkpoint(path: str, kind: str, config: ModelConfig, seed: int, epoch: int, models: dict) -> None:
    arrays = [(f"{mname}.{name}", var.value) for mname in sorted(models) for name, var in models[mname].parameters()]
    header = {
        "format": "tscorrect-checkpoint",
        "version": _CKPT_VERSION,
        "kind": kind,
        "config": asdict(config),
        "seed": int(seed),
        "epoch": int(epoch),
        "blocks": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(len(payload).to_bytes(8, "little"))
        fh.write(payload)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        raw = fh.read(8)
        if len(raw) != 8:
            raise LoadError(f"{path}: truncated checkpoint header length")
        hlen = int.from_bytes(raw, "little")
        payload = fh.read(hlen)
        if len(payload) != hlen:
            raise LoadError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise LoadError(f"{path}: bad checkpoint header: {e}") from None
        if not isinstance(header, dict) or header.get("format") != "tscorrect-checkpoint":
            raise LoadError(f"{path}: not a checkpoint file")
        if header.get("version") != _CKPT_VERSION:
            raise LoadError(f"{path}: checkpoint version {header.get('version')!r}, expected {_CKPT_VERSION}")
        try:
            specs = [(str(spec["name"]), tuple(int(s) for s in spec["shape"])) for spec in header["blocks"]]
            if any(s < 0 for _, shape in specs for s in shape):
                raise ValueError("negative block size")
        except (KeyError, TypeError, ValueError) as e:
            raise LoadError(f"{path}: bad checkpoint block list: {type(e).__name__}: {e}") from None
        twice = sorted(name for name, k in Counter(name for name, _ in specs).items() if k > 1)
        if twice:
            raise LoadError(f"{path}: blocks named twice: {', '.join(twice)}")
        # sized in Python ints before any read: a huge shape is a bad file, not a MemoryError
        declared = 8 * sum(math.prod(shape) for _, shape in specs)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared != held:
            what = "truncated" if declared > held else "trailing bytes after the last block"
            raise LoadError(f"{path}: {what}: blocks declare {declared} bytes, {held} follow the header")
        blocks = {name: np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8").reshape(shape).astype(float)
                  for name, shape in specs}
    return header, blocks


def restore_models(header: dict, blocks: dict[str, np.ndarray],
                   path: str = "checkpoint") -> tuple[ModelConfig, dict]:
    """Rebuild the models named in the checkpoint at `path`; u and v are solved
    from the restored W when first read."""
    try:  # ConfigError is a ValueError, as is a negative seed
        cfg, rng = ModelConfig(**header["config"]), np.random.default_rng(header.get("seed", 0))
    except (KeyError, TypeError, ValueError) as e:
        raise LoadError(f"{path}: bad checkpoint config or seed: {type(e).__name__}: {e}") from None
    names = {name.split(".", 1)[0] for name in blocks}
    models, unread = {}, set(blocks)
    for mname in sorted(names):
        if mname == "predictor":
            models[mname] = build_predictor(cfg, rng)
        elif mname == "recon":
            models[mname] = build_recon(cfg, rng)
        else:
            raise LoadError(f"{path}: unknown model name {mname!r}")
        for name, var in models[mname].parameters():
            key, arr = f"{mname}.{name}", var.value
            if key not in blocks:
                raise LoadError(f"{path}: missing block {key}")
            if blocks[key].shape != arr.shape:
                raise LoadError(
                    f"{path}: block {key} has shape {blocks[key].shape}, "
                    f"model expects {arr.shape}"
                )
            arr[...] = blocks[key]
            unread.discard(key)
    if unread:
        raise LoadError(f"{path}: blocks that no model reads: {', '.join(sorted(unread))}")
    return cfg, models
