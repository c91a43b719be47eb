"""Overlap masks and the label-correction objectives.

Per output point, with candidate label c, prediction p, and raw label t:
  m    = (c - p) * (c - t)        agreement of the two residuals
  M    = [m > 0]                  both residuals on the same side (ties out)
  M_lt = [|c - p| < |c - t|]      prediction closer to the candidate than
                                  the raw label is (ties go to the complement)

The co-objective per point is |c - t| + |c - p|; it decomposes exactly into
  |t - p|                         on points with M = 0,
  |t - p| + 2*min(|c-p|, |c-t|)   on points with M = 1,
which is what the masked training loss uses, with masks held constant.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .autodiff import Tape, Var
from .errors import ContractError, DimensionError


def _as_value(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _check_finite(name: str, v: np.ndarray) -> None:
    if not np.isfinite(v).all():
        raise ContractError(f"non-finite values in {name}")


@dataclass
class MaskSet:
    """Float 0/1 masks, one triple per output point."""

    m: np.ndarray
    mask: np.ndarray  # M: residual products strictly positive
    mask_lt: np.ndarray  # M_<: |c - p| strictly smaller than |c - t|

    def __post_init__(self):
        if not (self.m.shape == self.mask.shape == self.mask_lt.shape):
            raise DimensionError("mask arrays must share one shape")


def compute_masks(y_tilde, y_hat, y) -> MaskSet:
    c, p, t = _as_value(y_tilde), _as_value(y_hat), _as_value(y)
    for name, v in (("y_tilde", c), ("y_hat", p), ("y", t)):
        _check_finite(name, v)
    if not (c.shape == p.shape == t.shape):
        raise DimensionError(f"shape mismatch: {c.shape}, {p.shape}, {t.shape}")
    a = c - p
    b = c - t
    m = a * b
    mask = (m > 0.0).astype(np.float64)
    mask_lt = (np.abs(a) < np.abs(b)).astype(np.float64)
    return MaskSet(m, mask, mask_lt)


def co_objective_loss(tape: Tape, y_tilde: Var, y_hat: Var, y) -> Var:
    """mean(|c - t| + |c - p|). The raw-label term never touches p."""
    yc = y if isinstance(y, Var) else tape.constant(_as_value(y))
    rec = tape.abs(tape.sub(y_tilde, yc))
    pred = tape.abs(tape.sub(y_tilde, y_hat))
    return tape.mean(tape.add(rec, pred))


def scam_masked_loss(tape: Tape, y_tilde: Var, y_hat: Var, y, masks: MaskSet) -> Var:
    """Masked correction loss; masks enter as constants (no gradient).

    mean( |t - p| * (1 - M) + 2 * (|c - p| * M_< + |c - t| * (1 - M_<)) * M )
    """
    yc = y if isinstance(y, Var) else tape.constant(_as_value(y))
    if masks.mask.shape != y_tilde.value.shape:
        raise DimensionError(
            f"masks of {masks.mask.shape} for predictions of {y_tilde.value.shape}"
        )
    m_in = tape.constant(masks.mask)
    m_out = tape.constant(1.0 - masks.mask)
    lt = tape.constant(masks.mask_lt * masks.mask)
    ge = tape.constant((1.0 - masks.mask_lt) * masks.mask)
    sup = tape.mul(tape.abs(tape.sub(yc, y_hat)), m_out)
    corr_pred = tape.mul(tape.abs(tape.sub(y_tilde, y_hat)), lt)
    corr_rec = tape.mul(tape.abs(tape.sub(y_tilde, yc)), ge)
    corrected = tape.scale(tape.add(corr_pred, corr_rec), 2.0)
    return tape.mean(tape.add(sup, corrected))


def loss_identity_check(y_tilde, y_hat, y) -> float:
    """Max pointwise gap between the absolute-difference form and the
    masked min form of the correction objective. Should be ~1e-16."""
    c, p, t = _as_value(y_tilde), _as_value(y_hat), _as_value(y)
    a = c - p
    b = c - t
    lhs = np.abs(t - p) + np.abs(a) + np.abs(b) - np.abs(a - b)
    agree = (a * b > 0.0).astype(np.float64)
    rhs = np.abs(t - p) + 2.0 * np.minimum(np.abs(a), np.abs(b)) * agree
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class LossBreakdown:
    """Per-batch means of the four exclusive components plus raw totals.

    rec_corrected + pred_corrected + sup_in_mask + sup_out_mask equals the
    co-objective mean exactly.
    """

    rec_corrected: float  # 2|c - t| on (M=1, M_<=0) points
    pred_corrected: float  # 2|c - p| on (M=1, M_<=1) points
    sup_in_mask: float  # |t - p| on M=1 points
    sup_out_mask: float  # |t - p| on M=0 points
    loss_rec: float  # mean |c - t|
    loss_pred: float  # mean |c - p|
    loss_target: float  # mean |t - p|

    def components_total(self) -> float:
        return self.rec_corrected + self.pred_corrected + self.sup_in_mask + self.sup_out_mask


def loss_breakdown(y_tilde, y_hat, y, masks: MaskSet) -> LossBreakdown:
    c, p, t = _as_value(y_tilde), _as_value(y_hat), _as_value(y)
    ap = np.abs(c - p)
    at = np.abs(c - t)
    sup = np.abs(t - p)
    inm = masks.mask
    lt = masks.mask_lt
    return LossBreakdown(
        rec_corrected=float(np.mean(2.0 * at * (1.0 - lt) * inm)),
        pred_corrected=float(np.mean(2.0 * ap * lt * inm)),
        sup_in_mask=float(np.mean(sup * inm)),
        sup_out_mask=float(np.mean(sup * (1.0 - inm))),
        loss_rec=float(np.mean(at)),
        loss_pred=float(np.mean(ap)),
        loss_target=float(np.mean(sup)),
    )


def summarize_candidates(cands, y_hat, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, LossBreakdown]:
    """Candidate means for (N, S, H) candidates against (N, H) predictions
    and labels: per point, the mask M, the reconstruction-corrected
    indicator M * (1 - M_<) and that indicator's 2|c - t| mass; plus the
    mean LossBreakdown."""
    c, p, t = _as_value(cands), _as_value(y_hat), _as_value(y)
    n = c.shape[1]
    mask = np.zeros_like(t)
    rec = np.zeros_like(t)
    rec_mass = np.zeros_like(t)
    parts = np.zeros(7)
    for s in range(n):
        masks = compute_masks(c[:, s], p, t)
        ind = masks.mask * (1.0 - masks.mask_lt)
        mask += masks.mask
        rec += ind
        rec_mass += 2.0 * np.abs(c[:, s] - t) * ind
        parts += astuple(loss_breakdown(c[:, s], p, t, masks))
    return mask / n, rec / n, rec_mass / n, LossBreakdown(*(parts / n))


def aggregate_over_series(tape: Tape, losses: list[Var]) -> Var:
    """Mean of per-candidate scalar losses."""
    if not losses:
        raise DimensionError("no per-series losses to aggregate")
    total = losses[0]
    for l in losses[1:]:
        total = tape.add(total, l)
    return tape.scale(total, 1.0 / len(losses))


MASK_DUMP_FIELDS = ["t", "y", "y_hat", "y_tilde", "m", "M", "M_lt"]


def write_mask_dump(path: str, t_index, y, y_hat, y_tilde, masks: MaskSet) -> None:
    """One sample's points as CSV rows (t, y, y_hat, y_tilde, m, M, M_lt)."""
    yv, pv, cv = _as_value(y).ravel(), _as_value(y_hat).ravel(), _as_value(y_tilde).ravel()
    ti = np.asarray(t_index).ravel()
    rows = len(yv)
    if not (len(pv) == len(cv) == len(ti) == rows):
        raise DimensionError("mask dump arrays must have equal length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(MASK_DUMP_FIELDS) + "\n")
        for i in range(rows):
            fh.write(
                f"{int(ti[i])},{float(yv[i])!r},{float(pv[i])!r},{float(cv[i])!r},"
                f"{float(masks.m.ravel()[i])!r},{int(masks.mask.ravel()[i])},{int(masks.mask_lt.ravel()[i])}\n"
            )
