import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import astuple, replace

from helpers import loss_identity_check, weighted_candidate_l1
from tscorrect.autodiff import Tape, Var
from tscorrect.errors import ContractError, DimensionError
from tscorrect.losses import (
    LossBreakdown,
    co_objective_loss,
    compute_masks,
    loss_breakdown,
    scam_masked_loss,
    summarize_candidates,
    write_mask_dump,
)

RNG = np.random.default_rng


def random_triples(seed, n, include_ties=True):
    rng = RNG(seed)
    y_tilde = rng.uniform(-3, 3, n)
    y_hat = rng.uniform(-3, 3, n)
    y = rng.uniform(-3, 3, n)
    if include_ties and n >= 8:
        k = n // 8
        y_tilde[:k] = y_hat[:k]          # A = 0
        y_tilde[k : 2 * k] = y[k : 2 * k]  # B = 0
        y_hat[2 * k : 3 * k] = y[2 * k : 3 * k]  # |A| = |B| with A = B
        off = y_tilde[3 * k : 4 * k] - y[3 * k : 4 * k]
        y_hat[3 * k : 4 * k] = y_tilde[3 * k : 4 * k] + off  # |A| = |B|, A = -B... sign varies
    return y_tilde, y_hat, y


def one(c):
    """A single candidate as the S = 1 stack the losses take."""
    return np.asarray(c)[:, None]


# ---------------------------------------------------------------------------
# masks


def test_mask_between_case():
    m = compute_masks(one([0.5]), np.array([0.0]), np.array([1.0]))
    assert m.m.item() == pytest.approx(-0.25)
    assert m.mask.item() == 0.0


def test_mask_outside_case():
    m = compute_masks(one([2.0]), np.array([0.0]), np.array([1.0]))
    assert m.m.item() == pytest.approx(2.0)
    assert m.mask.item() == 1.0
    assert m.mask_lt.item() == 0.0  # |A|=2 not < |B|=1


def test_mask_tie_is_zero():
    y = np.array([1.0, -2.0, 0.3])
    m = compute_masks(one(y), y.copy(), RNG(0).standard_normal(3))
    assert np.array_equal(m.mask, np.zeros((3, 1)))


def test_mask_lt_tie_takes_reconstruction_branch():
    # |A| == |B| must set M_lt = 0
    m = compute_masks(one([2.0]), np.array([1.0]), np.array([1.0]))
    assert m.mask.item() == 1.0
    assert m.mask_lt.item() == 0.0


def test_masks_binary():
    yt, yh, y = random_triples(1, 1000)
    ms = compute_masks(one(yt), yh, y)
    assert set(np.unique(ms.mask)) <= {0.0, 1.0}
    assert set(np.unique(ms.mask_lt)) <= {0.0, 1.0}


def test_masks_reject_non_finite():
    with pytest.raises(ContractError, match="y_hat"):
        compute_masks(one(np.ones(2)), np.array([1.0, np.nan]), np.ones(2))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(0.01, 100.0))
def test_masks_scale_covariant(seed, c):
    # ties sit on the decision boundary where one ulp of rounding in c*x can
    # flip the branch, so the property is over non-degenerate triples
    yt, yh, y = random_triples(seed, 64, include_ties=False)
    a = compute_masks(one(yt), yh, y)
    b = compute_masks(one(c * yt), c * yh, c * y)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.mask_lt, b.mask_lt)


def test_masks_scale_covariant_exact_ties():
    # A=0, B=0 and y_hat=y ties scale exactly (same expression both sides)
    yt = np.array([1.5, 2.0, 0.7])
    yh = np.array([1.5, -0.3, 0.2])
    y = np.array([0.4, 2.0, 0.2])
    a = compute_masks(one(yt), yh, y)
    for c in (0.37, 3.0, 12.5):
        b = compute_masks(one(c * yt), c * yh, c * y)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.mask_lt, b.mask_lt)


# ---------------------------------------------------------------------------
# co-objective and identity


def test_co_objective_zero_when_all_equal():
    t = Tape()
    v = Var(np.array([1.0, 2.0]))
    assert co_objective_loss(t, Var(one(v.value)), v, v.value).value.item() == 0.0


def test_co_objective_hand_value():
    t = Tape()
    out = co_objective_loss(t, Var(one([2.0])), Var(np.array([0.0])), np.array([1.0]))
    assert out.value.item() == pytest.approx(3.0)


def test_identity_hand_pairs():
    # |A| + |B| - |A - B| = 2 min(|A|,|B|) [AB > 0]
    assert loss_identity_check(np.array([0.0]), np.array([-0.5]), np.array([0.5])) < 1e-15
    assert loss_identity_check(np.array([2.0]), np.array([0.0]), np.array([1.0])) < 1e-15


def test_identity_on_million_triples():
    yt, yh, y = random_triples(7, 1_000_000)
    assert loss_identity_check(yt, yh, y) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_identity_property(seed):
    yt, yh, y = random_triples(seed, 256)
    assert loss_identity_check(yt, yh, y) < 1e-12


# ---------------------------------------------------------------------------
# masked loss


def test_masked_loss_reduces_to_supervised_when_mask_empty():
    yt = one([0.5, -0.2])
    yh = np.array([1.0, 0.4])
    y = np.array([0.0, -1.0])  # y_tilde strictly between y_hat and y
    ms = compute_masks(yt, yh, y)
    assert ms.mask.sum() == 0.0
    t = Tape()
    out = scam_masked_loss(t, Var(yt), Var(yh), y, ms)
    assert out.value.item() == pytest.approx(np.abs(y - yh).mean())


def test_masked_loss_hand_case_drops_supervised_term():
    # y=1, y_hat=0, y_tilde=2: M=1, M_lt=0 -> contribution 2*|2-1| = 2
    t = Tape()
    yt, yh, y = one([2.0]), np.array([0.0]), np.array([1.0])
    ms = compute_masks(yt, yh, y)
    out = scam_masked_loss(t, Var(yt), Var(yh), y, ms)
    assert out.value.item() == pytest.approx(2.0)


def test_masked_loss_hand_case_outside_mask():
    # y=0, y_hat=3, y_tilde=2: m = (-1)(2) = -2 -> M=0 -> |0-3| = 3
    t = Tape()
    yt, yh, y = one([2.0]), np.array([3.0]), np.array([0.0])
    ms = compute_masks(yt, yh, y)
    out = scam_masked_loss(t, Var(yt), Var(yh), y, ms)
    assert out.value.item() == pytest.approx(3.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_masked_loss_bounded_by_co_objective_plus_supervised(seed):
    yt, yh, y = random_triples(seed, 128)
    yt = one(yt)
    ms = compute_masks(yt, yh, y)
    t = Tape()
    masked = scam_masked_loss(t, Var(yt), Var(yh), y, ms).value.item()
    co = co_objective_loss(t, Var(yt), Var(yh), y).value.item()
    sup = np.abs(y - yh).mean()
    assert masked <= co + sup + 1e-10


def test_masked_loss_gradient_routing_by_finite_differences():
    # at points with M=0 the reconstruction gets no gradient; at points with
    # M=1, M_lt=0 the prediction gets none. Probe both with the loss built
    # from leaf Vars directly.
    # point 0: A=2, B=1 -> M=1, M_lt=0 (reconstruction-corrected)
    # point 1: y_tilde between y_hat and y -> M=0
    # point 2: A=1.5, B=2, same sign -> M=1, M_lt=1 (prediction-corrected)
    # point 3: A=-0.15, B=0.1, opposite signs -> M=0
    yt = one([2.0, 0.5, -1.0, 0.6])
    yh = np.array([0.0, 1.0, -2.5, 0.75])
    y = np.array([1.0, 0.0, -3.0, 0.5])
    ms = compute_masks(yt, yh, y)
    assert ms.mask[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert ms.mask_lt[:, 0].tolist() == [0.0, 0.0, 1.0, 0.0]

    t = Tape()
    vt, vh = Var(yt, requires_grad=True), Var(yh, requires_grad=True)
    t.backward(scam_masked_loss(t, vt, vh, y, ms))

    # reconstruction-corrected point (M=1, M_lt=0): d/dy_hat = 0
    assert vh.grad[0] == 0.0
    assert vt.grad[0] != 0.0
    # out-of-mask point: d/dy_tilde = 0, supervised gradient hits y_hat
    assert vt.grad[1] == 0.0
    assert vh.grad[1] != 0.0
    # prediction-corrected point (M=1, M_lt=1): both pull together
    assert vt.grad[2] != 0.0 and vh.grad[2] != 0.0

    # masks are constants: finite differences of the loss agree per point.
    # The bumped MaskSet keeps the unbumped masks but takes the bumped
    # values' residuals, which are what the loss reads.
    eps = 1e-7
    before = scam_masked_loss(Tape(), Var(yt), Var(yh), y, ms).value.item()
    for i, vec, other in [(0, yh, "hat"), (1, yt, "tilde")]:
        bumped = vec.copy()
        bumped[i] += eps
        c, p = (yt, bumped) if other == "hat" else (bumped, yh)
        held = replace(compute_masks(c, p, y), mask=ms.mask, mask_lt=ms.mask_lt)
        after = scam_masked_loss(Tape(), Var(c), Var(p), y, held).value.item()
        assert abs(after - before) < 1e-6 * eps + 1e-15


# ---------------------------------------------------------------------------
# breakdown


def test_breakdown_tilde_equals_label():
    y = RNG(3).standard_normal(32)
    yh = RNG(4).standard_normal(32)
    ms = compute_masks(one(y), yh, y)
    bd = loss_breakdown(ms)
    assert bd.rec_corrected == 0.0
    assert bd.pred_corrected == 0.0
    assert bd.sup_in_mask == 0.0
    assert bd.sup_out_mask == pytest.approx(np.abs(y - yh).mean())


def test_breakdown_single_point_hand_case():
    yt, yh, y = one([2.0]), np.array([0.0]), np.array([1.0])
    ms = compute_masks(yt, yh, y)
    bd = loss_breakdown(ms)
    assert bd.rec_corrected == pytest.approx(2.0)
    assert bd.pred_corrected == 0.0
    assert bd.sup_in_mask == pytest.approx(1.0)
    assert bd.sup_out_mask == 0.0
    t = Tape()
    co = co_objective_loss(t, Var(yt), Var(yh), y).value.item()
    assert bd.components_total() == pytest.approx(co)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_breakdown_components_sum_to_co_objective(seed):
    yt, yh, y = random_triples(seed, 200)
    yt = one(yt)
    ms = compute_masks(yt, yh, y)
    bd = loss_breakdown(ms)
    t = Tape()
    co = co_objective_loss(t, Var(yt), Var(yh), y).value.item()
    assert abs(bd.components_total() - co) < 1e-10


# ---------------------------------------------------------------------------
# aggregation and dumps


# ---------------------------------------------------------------------------
# candidate stacks


def candidate_stack(seed, b=8, s=4, h=16):
    """(B, S, H) candidates against (B, H) predictions and labels, with the
    ties A = 0, B = 0 and |A| = |B| in some rows."""
    rng = RNG(seed)
    yh = rng.uniform(-3, 3, (b, h))
    y = rng.uniform(-3, 3, (b, h))
    c = rng.uniform(-3, 3, (b, s, h))
    c[0, :, :5] = yh[0, :5]  # A = 0
    c[1, -1] = y[1]  # B = 0
    y[2, :6] = yh[2, :6]  # |A| = |B|
    return c, yh, y


def stacked_loss(c, yh, y, masked):
    """Loss value and gradients of the stacked loss."""
    tape = Tape()
    vc, vh = Var(c, requires_grad=True), Var(yh, requires_grad=True)
    if masked:
        loss = scam_masked_loss(tape, vc, vh, y, compute_masks(c, yh, y))
    else:
        loss = co_objective_loss(tape, vc, vh, y)
    tape.backward(loss)
    return loss.value.item(), vc.grad, vh.grad


def per_candidate_loss(c, yh, y, masked):
    """The same loss from plain tape ops, one candidate at a time, averaged
    over candidates: the formula the stacked loss replaces."""
    tape = Tape()
    cands = [Var(c[:, s], requires_grad=True) for s in range(c.shape[1])]
    vh = Var(yh, requires_grad=True)
    yc = tape.constant(y)
    per = []
    for cs in cands:
        if masked:
            ms = compute_masks(one(cs.value), yh, y)
            mask, mask_lt = ms.mask[:, 0], ms.mask_lt[:, 0]
            m_out = tape.constant(1.0 - mask)
            lt = tape.constant(mask_lt * mask)
            ge = tape.constant((1.0 - mask_lt) * mask)
            sup = tape.mul(tape.abs(tape.sub(yc, vh)), m_out)
            corr = tape.mul(tape.add(tape.mul(tape.abs(tape.sub(cs, vh)), lt),
                                     tape.mul(tape.abs(tape.sub(cs, yc)), ge)), 2.0)
            per.append(tape.mean(tape.add(sup, corr)))
        else:
            per.append(tape.mean(tape.add(tape.abs(tape.sub(cs, yc)), tape.abs(tape.sub(cs, vh)))))
    total = per[0]
    for part in per[1:]:
        total = tape.add(total, part)
    loss = tape.mul(total, 1.0 / len(per))
    tape.backward(loss)
    return loss.value.item(), np.stack([cs.grad for cs in cands], axis=1), vh.grad


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_loss_equals_per_candidate_mean(seed, masked):
    c, yh, y = candidate_stack(seed)
    value, gc, gp = stacked_loss(c, yh, y, masked)
    ref_value, ref_gc, ref_gp = per_candidate_loss(c, yh, y, masked)
    assert value == ref_value
    assert np.array_equal(gc, ref_gc)
    assert np.array_equal(gp, ref_gp)


@pytest.mark.parametrize("masked", [True, False])
def test_identical_candidates_equal_one_candidate(masked):
    c, yh, y = candidate_stack(3, s=1)
    one_value, one_gc, one_gp = stacked_loss(c, yh, y, masked)
    value, gc, gp = stacked_loss(np.repeat(c, 4, axis=1), yh, y, masked)
    assert value == pytest.approx(one_value, rel=1e-15)
    assert np.array_equal(gp, one_gp)
    for s in range(4):
        assert np.array_equal(gc[:, s], one_gc[:, 0] / 4)


def test_stacked_loss_rejects_misaligned_shapes():
    c, yh, y = candidate_stack(4)
    with pytest.raises(DimensionError):
        compute_masks(c[:, :, :8], yh, y)
    with pytest.raises(DimensionError):
        co_objective_loss(Tape(), Var(c), Var(yh[:4]), y[:4][:, :8])


def test_losses_reject_a_candidate_of_the_predictions_shape():
    # one candidate is an S = 1 stack; c of p's shape is no layout
    c, yh, y = candidate_stack(6)
    c = c[:, 0].copy()
    with pytest.raises(DimensionError):
        compute_masks(c, yh, y)
    with pytest.raises(DimensionError):
        co_objective_loss(Tape(), Var(c), Var(yh), y)
    # masks of c's shape, read as a stack of H candidates for each row's one point,
    # pass the mask check and leave the layout to the loss
    masks = compute_masks(c, yh[:, 0], y[:, 0])
    assert masks.mask.shape == c.shape
    with pytest.raises(DimensionError, match="candidates"):
        scam_masked_loss(Tape(), Var(c), Var(yh), y, masks)


def tie_stack(seed, b=8, s=4, h=16):
    """candidate_stack plus the ties c = p, c = t, p = t and (c - p)(c - t)
    = 0 by underflow, and -0.0 inputs."""
    c, yh, y = candidate_stack(seed, b, s, h)
    c[3, 0] = yh[3]  # c = p
    c[4, 1] = y[4]  # c = t
    y[5] = yh[5]  # p = t
    yh[6, :4], y[6, :4] = 0.0, 0.0
    c[6, :, :4] = [1e-200, -1e-200, -0.0, 0.0]  # same-sign residuals whose product underflows
    c[7, 2, :8], yh[7, :8], y[7, 8:] = -0.0, 0.0, -0.0
    return c, yh, y


def weighted_masked_loss(c, yh, y, masks):
    """scam_masked_loss as the weighted candidate_l1 with the weight arrays
    2[M and M_<], 2[M and not M_<] and [not M]: value and gradients."""
    m, lt = masks.mask, masks.mask_lt
    tape = Tape()
    vc, vh = Var(c, requires_grad=True), Var(yh, requires_grad=True)
    loss = weighted_candidate_l1(tape, vc, vh, y, 2.0 * (m & lt), 2.0 * (m & ~lt), 1.0 * ~m)
    tape.backward(loss)
    return loss.value.item(), vc.grad, vh.grad


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("make", [candidate_stack, tie_stack])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_masked_loss_equals_weight_array_form(seed, make, stacked):
    c, yh, y = make(seed)
    if not stacked:
        c = c[:, :1].copy()
    masks = compute_masks(c, yh, y)
    ref = weighted_masked_loss(c, yh, y, masks)
    bd = loss_breakdown(masks)
    # the masks carry their residuals, so equal copies of the arrays give the same loss
    for vc, vh, vy in ((c, yh, y), (c.copy(), yh.copy(), y.copy())):
        tape = Tape()
        vc, vh = Var(vc, requires_grad=True), Var(vh, requires_grad=True)
        loss = scam_masked_loss(tape, vc, vh, vy, masks)
        tape.backward(loss)
        assert loss.value.item() == ref[0]
        assert np.array_equal(vc.grad, ref[1])
        assert np.array_equal(vh.grad, ref[2])
        assert loss_breakdown(compute_masks(vc.value, vh.value, vy)) == bd


@pytest.mark.parametrize("make", [candidate_stack, tie_stack])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_masked_loss_leaves_no_candidate_gradient_off_the_mask(seed, make):
    # off M the loss is |t - p|, which never reads c: a (b, h) with no
    # candidate in M hands the reconstruction net an all-zero row, which
    # Tape.pointwise_mlp's backward skips
    c, yh, y = make(seed)
    masks = compute_masks(c, yh, y)
    _, gc, _ = stacked_loss(c, yh, y, masked=True)
    assert not gc[~masks.mask].any()
    dead = ~masks.mask.any(axis=1)
    assert dead.any() and not gc.transpose(0, 2, 1)[dead].any()


def test_summarize_candidates_equals_per_candidate_loop():
    c, yh, y = candidate_stack(5)
    mask, rec, rec_mass, bd = summarize_candidates(c, yh, y)
    n = c.shape[1]
    ref = np.zeros((3,) + y.shape)
    parts = []
    for s in range(n):
        ms = compute_masks(c[:, s:s + 1], yh, y)
        ind = ms.mask[:, 0] * (1.0 - ms.mask_lt[:, 0])
        ref[0] += ms.mask[:, 0]
        ref[1] += ind
        ref[2] += 2.0 * np.abs(c[:, s] - y) * ind
        parts.append(astuple(loss_breakdown(ms)))
    assert np.array_equal(mask, ref[0] / n)
    assert np.array_equal(rec, ref[1] / n)
    assert np.array_equal(rec_mass, ref[2] / n)
    np.testing.assert_allclose(astuple(bd), np.mean(parts, axis=0), rtol=1e-12)
    assert bd == loss_breakdown(compute_masks(c, yh, y))


def test_mask_dump_roundtrip(tmp_path):
    yt, yh, y = random_triples(9, 16)
    ms = compute_masks(one(yt), yh, y)
    path = str(tmp_path / "dump.csv")
    write_mask_dump(path, np.arange(16), y, yh, yt, ms)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "t,y,y_hat,y_tilde,m,M,M_lt"
    assert len(lines) == 17
    cells = lines[1].split(",")
    assert float(cells[1]) == y[0]
    assert cells[5] in ("0", "1")
    # every row as the format states it: int t, floats by repr, masks as 0/1
    for i, line in enumerate(lines[1:]):
        row = (i, *map(float, (y[i], yh[i], yt[i], ms.m[i, 0])), int(ms.mask[i, 0]), int(ms.mask_lt[i, 0]))
        assert line == "{},{!r},{!r},{!r},{!r},{},{}".format(*row)
    with pytest.raises(DimensionError, match="equal length"):
        write_mask_dump(path, np.arange(15), y, yh, yt, ms)
