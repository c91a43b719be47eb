import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscorrect.data import (
    RawSeries,
    Scaler,
    SplitSpec,
    SyntheticConfig,
    build_splits,
    flatten_channels,
    load_csv,
    make_synthetic,
    make_windows,
    regime_index,
)
from tscorrect import data
from tscorrect.errors import ConfigError, LoadError


def write_csv(tmp_path, text, name="series.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# loading and writing


def test_write_csv_cell_format(tmp_path):
    path = str(tmp_path / "table.csv")
    third = 1.0 / 3.0
    data.write_csv(path, ["date", "a", "b"], [[0, third, None], (np.int64(1), np.float64(-0.0), 2)])
    assert open(path).read() == f"date,a,b\n0,{third!r},\n1,-0.0,2\n"


def test_load_basic_csv(tmp_path):
    path = write_csv(tmp_path, "date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n2020-01-03,5,6\n")
    s = load_csv(path)
    assert s.values.shape == (3, 2)
    assert tuple(s.channel_names) == ("a", "b")
    assert np.array_equal(s.values, [[1, 2], [3, 4], [5, 6]])


def test_load_without_date_column(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
    s = load_csv(path, has_date_column=False)
    assert s.values.shape == (2, 2)


def test_load_error_cites_row_and_column(tmp_path):
    rows = ["date,a,b"] + [f"d{i},{i},{i}" for i in range(1, 4)] + ["d4,abc,7"]
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(LoadError, match=r"row 5") as err:
        load_csv(path)
    assert "a" in str(err.value)


def test_load_rejects_non_finite(tmp_path):
    path = write_csv(tmp_path, "date,a\nd1,1\nd2,nan\n")
    with pytest.raises(LoadError, match="row 3"):
        load_csv(path)


def test_load_rejects_ragged_row(tmp_path):
    path = write_csv(tmp_path, "date,a,b\nd1,1,2\nd2,3\n")
    with pytest.raises(LoadError, match="row 3"):
        load_csv(path)


def test_load_missing_file():
    with pytest.raises(LoadError):
        load_csv("/nonexistent/nowhere.csv")


# ---------------------------------------------------------------------------
# splits


def test_split_boundaries_round_numbers():
    assert SplitSpec(0.6, 0.2, 0.2).boundaries(100) == (60, 80, 100)


def test_split_boundaries_floor():
    b1, b2, b3 = SplitSpec(0.6, 0.2, 0.2).boundaries(17420)
    assert (b1, b2, b3) == (10452, 13936, 17420)


def test_split_zero_fraction_rejected():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.5, 0.0)


def test_split_ratios_must_sum_to_one():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.2, 0.2)


# ---------------------------------------------------------------------------
# scaling


def test_scaler_hand_values():
    sc = Scaler.fit(np.array([[1.0], [3.0]]))
    out = sc.transform(np.array([[1.0], [3.0]]))
    assert np.allclose(out, [[-1.0], [1.0]])


def test_scaler_constant_channel_floored():
    sc = Scaler.fit(np.full((3, 1), 5.0))
    out = sc.transform(np.full((3, 1), 5.0))
    assert np.allclose(out, 0.0)
    assert sc.std[0] >= 1e-8


def test_scaler_roundtrip():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((50, 3)) * 7 + 2
    sc = Scaler.fit(vals)
    assert np.abs(sc.transform(vals) * sc.std + sc.mean - vals).max() < 1e-12


def test_scaler_sees_only_train_rows():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((300, 2))
    series_a = RawSeries(vals.copy(), ("a", "b"))
    tampered = vals.copy()
    tampered[200:] += 1000.0  # only val/test rows
    series_b = RawSeries(tampered, ("a", "b"))
    spec = SplitSpec(0.6, 0.2, 0.2)
    sa = build_splits(series_a, spec, 8, 4)
    sb = build_splits(series_b, spec, 8, 4)
    assert np.array_equal(sa.scaler.mean, sb.scaler.mean)
    assert np.array_equal(sa.scaler.std, sb.scaler.std)


# ---------------------------------------------------------------------------
# windows


def test_window_count_small():
    ds = make_windows(np.zeros((10, 1)), lookback=3, horizon=2)
    assert len(ds) == 6


def test_window_count_etth1_train():
    ds = make_windows(np.zeros((10452, 1)), lookback=96, horizon=96)
    assert len(ds) == 10261


def test_window_adjacency():
    seg = np.arange(20.0).reshape(-1, 1)
    ds = make_windows(seg, lookback=4, horizon=3)
    for i in range(len(ds)):
        assert ds.x[i, -1, 0] + 1 == ds.y[i, 0, 0]


def test_windows_never_cross_segment_end():
    seg = np.arange(23.0).reshape(-1, 1)
    ds = make_windows(seg, lookback=5, horizon=4, stride=3)
    assert ds.y[:, -1, 0].max() <= 22.0
    assert len(ds) == (23 - 5 - 4) // 3 + 1


def test_window_too_short_segment():
    with pytest.raises(ConfigError):
        make_windows(np.zeros((6, 1)), lookback=4, horizon=3)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(6, 120),
    lookback=st.integers(1, 20),
    horizon=st.integers(1, 20),
    stride=st.integers(1, 5),
)
def test_window_count_formula_by_enumeration(rows, lookback, horizon, stride):
    if rows < lookback + horizon:
        return
    seg = np.arange(float(rows)).reshape(-1, 1)
    ds = make_windows(seg, lookback, horizon, stride)
    expected = 0
    starts = []
    pos = 0
    while pos + lookback + horizon <= rows:
        starts.append(pos)
        expected += 1
        pos += stride
    assert len(ds) == expected == (rows - lookback - horizon) // stride + 1
    assert np.array_equal(ds.origins, starts)
    for i, s in enumerate(starts):
        assert ds.x[i, 0, 0] == s
        assert ds.y[i, -1, 0] == s + lookback + horizon - 1


def test_build_splits_extends_context_left():
    vals = np.arange(200.0).reshape(-1, 1)
    sw = build_splits(RawSeries(vals, ("a",)), SplitSpec(0.6, 0.2, 0.2), 8, 4)
    b1 = sw.boundaries[0]
    # first val window starts lookback rows before the boundary
    assert sw.val.origins[0] == b1 - 8
    # its first target row is exactly the boundary row
    raw_first_target = (sw.val.y[:1] * sw.scaler.std + sw.scaler.mean)[0, 0, 0]
    assert raw_first_target == float(b1)


def test_build_splits_train_too_short():
    vals = np.arange(30.0).reshape(-1, 1)
    with pytest.raises(ConfigError):
        build_splits(RawSeries(vals, ("a",)), SplitSpec(0.6, 0.2, 0.2), 16, 8)


def test_flatten_channels_cycles_within_window():
    batch = np.zeros((2, 3, 2))
    batch[0, :, 0] = [1, 2, 3]
    batch[0, :, 1] = [4, 5, 6]
    batch[1, :, 0] = [7, 8, 9]
    batch[1, :, 1] = [10, 11, 12]
    flat = flatten_channels(batch)
    assert np.array_equal(flat, [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]])


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_noiseless_is_pure_sinusoid():
    cfg = SyntheticConfig(length=500, sigma1=0.0, sigma2=0.0, seed=3)
    s = make_synthetic(cfg)
    t = np.arange(500)
    truth = cfg.amp1 * np.sin(cfg.omega1 * t) + cfg.amp2 * np.sin(cfg.omega2 * t)
    assert np.abs(s.values[:, 0] - truth).max() < 1e-12


def test_synthetic_deterministic():
    cfg = SyntheticConfig(length=400, seed=9)
    assert np.array_equal(make_synthetic(cfg).values, make_synthetic(cfg).values)


def test_regime_index():
    assert regime_index(0, 200) == 0
    assert regime_index(199, 200) == 0
    assert regime_index(200, 200) == 1
    assert np.array_equal(regime_index(np.array([0, 200, 400]), 200), [0, 1, 2])


def test_synthetic_regime_noise_levels():
    cfg = SyntheticConfig(length=4000, sigma1=1.0, sigma2=0.1, window_period=200, seed=5)
    s = make_synthetic(cfg)
    t = np.arange(4000)
    truth = cfg.amp1 * np.sin(cfg.omega1 * t) + cfg.amp2 * np.sin(cfg.omega2 * t)
    resid = s.values[:, 0] - truth
    regimes = regime_index(t, 200)
    even = resid[regimes % 2 == 0]
    odd = resid[regimes % 2 == 1]
    assert 0.9 <= even.std() <= 1.1
    assert 0.05 <= odd.std() <= 0.15


def test_synthetic_regime_variance_ratio_over_seeds():
    # high/low regime residual variance ratio should stay above (s1/s2)^2 / 2
    ratios = []
    for seed in range(10):
        cfg = SyntheticConfig(length=2000, sigma1=1.0, sigma2=0.1, seed=seed)
        s = make_synthetic(cfg)
        t = np.arange(2000)
        truth = cfg.amp1 * np.sin(cfg.omega1 * t) + cfg.amp2 * np.sin(cfg.omega2 * t)
        resid = s.values[:, 0] - truth
        regimes = regime_index(t, cfg.window_period)
        ratios.append(resid[regimes % 2 == 0].var() / resid[regimes % 2 == 1].var())
    assert np.mean(ratios) > (1.0 / 0.1) ** 2 / 2


def test_synthetic_length_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(length=0)
