"""Dataset handling: CSV reading and writing, chronological splits,
per-channel scaling, sliding windows, and the synthetic generator.

Protocol: splits are chronological by row-count ratios with boundaries at
floor(cumulative ratio * T); validation and test windows may look back
across their left boundary into preceding rows; scaling statistics come
from training rows only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, LoadError

STD_FLOOR = 1e-8


@dataclass
class RawSeries:
    """A multivariate series: rows are time steps, columns are channels."""

    values: np.ndarray  # (T, N) float64
    channel_names: list[str]

    def __post_init__(self):
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2:
            raise DimensionError(f"series values must be 2-D (T, N), got {self.values.shape}")
        if len(self.channel_names) != self.values.shape[1]:
            raise DimensionError(
                f"{len(self.channel_names)} channel names for {self.values.shape[1]} columns"
            )
        if not np.isfinite(self.values).all():
            raise LoadError("series contains non-finite values")


def load_csv(path: str, has_date_column: bool = True) -> RawSeries:
    """Load a header-ed CSV of numeric channels, optional leading date column.

    Raises LoadError citing the 1-based file row and the column name on the
    first unparseable or non-finite cell.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise LoadError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        if not header:
            raise LoadError(f"{path}: empty header row")
        first = 1 if has_date_column else 0
        names = [h.strip() for h in header[first:]]
        if not names:
            raise LoadError(f"{path}: no numeric channels in header {header!r}")
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise LoadError(
                    f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}"
                )
            vals = []
            for name, cell in zip(names, row[first:]):
                try:
                    v = float(cell)
                except ValueError:
                    raise LoadError(
                        f"{path}: row {lineno}, column '{name}': cannot parse {cell.strip()!r}"
                    ) from None
                if not math.isfinite(v):
                    raise LoadError(
                        f"{path}: row {lineno}, column '{name}': non-finite value {cell.strip()!r}"
                    )
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise LoadError(f"{path}: no data rows")
    return RawSeries(np.array(rows, dtype=np.float64), names)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one writer of the toolkit's tables: ints through str, floats through
    repr(float), which reads back exactly, and None as an empty cell."""
    cell = lambda v: "" if v is None else str(v) if isinstance(v, (int, np.integer)) else repr(float(v))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


@dataclass
class SplitSpec:
    """Chronological split ratios; must be positive and sum to 1."""

    train: float = 0.6
    val: float = 0.2
    test: float = 0.2

    def __post_init__(self):
        for name, r in (("train", self.train), ("val", self.val), ("test", self.test)):
            if not 0.0 < r < 1.0:
                raise ConfigError(f"split ratio {name}={r} must be in (0, 1)")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError(
                f"split ratios must sum to 1, got {self.train + self.val + self.test}"
            )

    def boundaries(self, length: int) -> tuple[int, int, int]:
        b1 = int(math.floor(self.train * length))
        b2 = int(math.floor((self.train + self.val) * length))
        return b1, b2, length


class Scaler:
    """Per-channel standardization fitted on training rows only."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)

    @classmethod
    def fit(cls, train_rows: np.ndarray) -> "Scaler":
        if train_rows.ndim != 2 or train_rows.shape[0] < 1:
            raise DimensionError(f"scaler needs (rows, channels), got {train_rows.shape}")
        mean = train_rows.mean(axis=0)
        std = train_rows.std(axis=0)
        return cls(mean, np.maximum(std, STD_FLOOR))

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


@dataclass
class WindowDataset:
    """Sliding (lookback, horizon) windows over a scaled segment.

    origins hold the absolute row index of each window's first input row,
    so downstream code can map any target point back to the raw series.
    """

    x: np.ndarray  # (n, L, N)
    y: np.ndarray  # (n, H, N)
    origins: np.ndarray  # (n,)
    lookback: int
    horizon: int

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_channels(self) -> int:
        return self.x.shape[2]


def make_windows(
    segment: np.ndarray, lookback: int, horizon: int, stride: int = 1, start: int = 0
) -> WindowDataset:
    """Enumerate windows over a (rows, channels) segment.

    Window i covers input rows [i*stride, i*stride+L) and target rows
    [i*stride+L, i*stride+L+H); count is floor((rows-L-H)/stride)+1.
    """
    if segment.ndim != 2:
        raise DimensionError(f"segment must be (rows, channels), got {segment.shape}")
    if lookback < 1 or horizon < 1 or stride < 1:
        raise ConfigError(f"lookback/horizon/stride must be >= 1, got {lookback}/{horizon}/{stride}")
    rows = segment.shape[0]
    if rows < lookback + horizon:
        raise ConfigError(f"segment of {rows} rows cannot fit lookback {lookback} + horizon {horizon}")
    n = (rows - lookback - horizon) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(segment, lookback + horizon, axis=0)
    win = win[:: stride][:n]  # (n, N, L+H)
    x = win[:, :, :lookback].transpose(0, 2, 1)
    y = win[:, :, lookback:].transpose(0, 2, 1)
    origins = start + stride * np.arange(n, dtype=np.int64)
    return WindowDataset(x, y, origins, lookback, horizon)


@dataclass
class SplitWindows:
    """The full data pipeline output: windowed splits plus the scaler."""

    train: WindowDataset
    val: WindowDataset
    test: WindowDataset
    scaler: Scaler
    boundaries: tuple[int, int, int]


def build_splits(
    series: RawSeries,
    spec: SplitSpec,
    lookback: int,
    horizon: int,
    stride: int = 1,
) -> SplitWindows:
    """Split -> fit scaler on train rows -> scale -> window each segment.

    Val/test segments extend lookback rows to the left of their boundary so
    early windows can see context, matching the usual long-horizon protocol.
    """
    b1, b2, b3 = spec.boundaries(len(series.values))
    if b1 < lookback + horizon:
        raise ConfigError(f"train segment of {b1} rows too short for L={lookback}, H={horizon}")
    scaler = Scaler.fit(series.values[:b1])
    scaled = scaler.transform(series.values)
    train = make_windows(scaled[:b1], lookback, horizon, stride, start=0)
    val = make_windows(scaled[b1 - lookback : b2], lookback, horizon, stride, start=b1 - lookback)
    test = make_windows(scaled[b2 - lookback : b3], lookback, horizon, stride, start=b2 - lookback)
    return SplitWindows(train, val, test, scaler, (b1, b2, b3))


def flatten_channels(batch: np.ndarray) -> np.ndarray:
    """(b, T, N) -> (b*N, T): each channel becomes its own univariate sample."""
    if batch.ndim != 3:
        raise DimensionError(f"expected (b, T, N), got {batch.shape}")
    return np.ascontiguousarray(batch.transpose(0, 2, 1)).reshape(-1, batch.shape[1])


@dataclass
class SyntheticConfig:
    """Two-tone sinusoid with alternating noise regimes.

    y_t = amp1*sin(omega1*t) + amp2*sin(omega2*t) + eps_t, where eps_t is
    N(0, sigma1) in even-indexed regimes and N(0, sigma2) in odd ones;
    regime index is floor(t / window_period).
    """

    length: int = 4000
    amp1: float = 1.0
    amp2: float = 0.5
    omega1: float = 2.0 * math.pi / 24.0
    omega2: float = 2.0 * math.pi / 96.0
    sigma1: float = 0.5
    sigma2: float = 0.05
    window_period: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError(f"synthetic length must be >= 1, got {self.length}")
        if self.window_period < 1:
            raise ConfigError(f"window_period must be >= 1, got {self.window_period}")
        if self.seed < 0:
            raise ConfigError(f"synthetic seed must be >= 0, got {self.seed}")
        for name in ("amp1", "amp2", "omega1", "omega2", "sigma1", "sigma2"):
            if not math.isfinite(v := getattr(self, name)):
                raise ConfigError(f"synthetic values must be finite, got {name} = {v}")
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ConfigError("noise levels must be non-negative")


def regime_index(t: np.ndarray | int, window_period: int) -> np.ndarray | int:
    return t // window_period


def make_synthetic(cfg: SyntheticConfig) -> RawSeries:
    """Generate the univariate regime-switching series, deterministic in cfg.seed."""
    t = np.arange(cfg.length, dtype=np.float64)
    clean = cfg.amp1 * np.sin(cfg.omega1 * t) + cfg.amp2 * np.sin(cfg.omega2 * t)
    regimes = regime_index(np.arange(cfg.length), cfg.window_period)
    sigma = np.where(regimes % 2 == 0, cfg.sigma1, cfg.sigma2)
    rng = np.random.default_rng(cfg.seed)
    noise = rng.standard_normal(cfg.length) * sigma
    return RawSeries((clean + noise)[:, None], ["synth"])
