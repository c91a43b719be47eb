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

Every function here takes the S stacked candidates c of (B, S, ...) against
p and t of (B, ...), read with a length-1 axis 1; an objective averages the
candidates' means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .data import write_csv
from .errors import ContractError, DimensionError


def _as_value(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def align_candidates(c: np.ndarray, p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and t read with a length-1 axis 1, against c, a (B, S, ...) stack of
    candidates for p and t of (B, ...)."""
    if p.shape != t.shape or c.ndim != p.ndim + 1 or c.shape[:1] + c.shape[2:] != p.shape:
        raise DimensionError(f"candidates {c.shape} against predictions {p.shape} and labels {t.shape}")
    return p[:, None], t[:, None]


@dataclass
class MaskSet:
    """Boolean masks, the residual product m and the absolute residuals per output point."""

    m: np.ndarray
    mask: np.ndarray  # M: residual products strictly positive
    mask_lt: np.ndarray  # M_<: |c - p| strictly smaller than |c - t|
    ap: np.ndarray  # |c - p|
    at: np.ndarray  # |c - t|
    sup: np.ndarray  # |t - p|, with a length-1 candidate axis


def compute_masks(y_tilde, y_hat, y) -> MaskSet:
    """The masks with their residuals, from one pass."""
    c, p, t = _as_value(y_tilde), _as_value(y_hat), _as_value(y)
    for name, v in (("y_tilde", c), ("y_hat", p), ("y", t)):
        if not np.isfinite(v).all():
            raise ContractError(f"non-finite values in {name}")
    p, t = align_candidates(c, p, t)
    a = c - p
    b = c - t
    m = a * b
    np.abs(a, out=a)
    np.abs(b, out=b)
    return MaskSet(m, m > 0.0, a < b, a, b, np.abs(t - p))


def co_objective_loss(tape: Tape, y_tilde, y_hat, y, rec_weight: float = 1.0,
                      pred_weight: float = 1.0) -> Var:
    """mean(|c - t| + |c - p|). The raw-label term never touches p. A half
    whose weight is 0 is dropped: grid search fits the predictor to the
    |c - p| half and proposes candidates from the |c - t| half."""
    c, p = (x if isinstance(x, Var) else Var(x) for x in (y_tilde, y_hat))
    cv = c.value
    pv, tv = align_candidates(cv, p.value, _as_value(y))
    a = cv - pv if pred_weight != 0 else None
    b = cv - tv if rec_weight != 0 else None
    kept = [np.abs(r) * w for w, r in ((pred_weight, a), (rec_weight, b)) if r is not None]
    total = sum(kept[1:], kept[0]) if kept else np.zeros(cv.shape)

    def grads(k: float, need_c: bool, need_p: bool):
        # ga + 0.0 also turns -0.0 into +0.0, as a sum of terms would
        ga = np.sign(a) * pred_weight if a is not None else np.zeros(cv.shape)
        gc = (ga + np.sign(b) * rec_weight if b is not None else ga + 0.0) * k if need_c else None
        gp = (ga + 0.0).sum(axis=1) * -k if need_p else None
        return gc, gp

    return tape.candidate_mean(c, p, total, grads)


def scam_masked_loss(tape: Tape, y_tilde: Var, y_hat: Var, y, masks: MaskSet) -> Var:
    """Masked correction loss; masks, those of these values, enter as
    constants (no gradient).

    mean( |t - p| * (1 - M) + 2 * (|c - p| * M_< + |c - t| * (1 - M_<)) * M )

    Per point that is 2 min(|c - p|, |c - t|) on M, where c - p and c - t
    share a nonzero sign, and |t - p| off M, all read from the masks;
    t - p is formed again only for its sign, in the backward pass.
    """
    if masks.mask.shape != y_tilde.value.shape:
        raise DimensionError(f"masks of {masks.mask.shape} for predictions of {y_tilde.value.shape}")
    pv, tv = align_candidates(y_tilde.value, y_hat.value, _as_value(y))
    mask, lt, off = masks.mask, masks.mask_lt, ~masks.mask
    # arithmetic on the bool masks: np.where and masked copies run 5x slower
    total = np.minimum(masks.ap, masks.at)
    total *= 2.0
    total *= mask
    total += masks.sup * off

    def grads(k: float, need_c: bool, need_p: bool):
        up = mask & (y_tilde.value > pv)  # sign(c - p) on M: 1 on up, -1 on down
        down = mask & ~up
        gc = np.subtract(up, down, dtype=np.float64) * (2.0 * k) if need_c else None
        gp = (2.0 * np.subtract((up & lt).sum(axis=1), (down & lt).sum(axis=1), dtype=np.float64)
              + np.sign(tv - pv).reshape(y_hat.value.shape) * off.sum(axis=1)) * -k if need_p else None
        return gc, gp

    return tape.candidate_mean(y_tilde, y_hat, total, grads)


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


def loss_breakdown(masks: MaskSet) -> LossBreakdown:
    """The four components and three totals of the arrays the masks came from."""
    ap, at, sup, mask, lt = masks.ap, masks.at, masks.sup, masks.mask, masks.mask_lt
    n = ap.size
    inside = mask.sum(axis=1, keepdims=True)  # candidates in M
    return LossBreakdown(
        rec_corrected=2.0 * float(np.sum(at * (mask & ~lt))) / n,
        pred_corrected=2.0 * float(np.sum(ap * (mask & lt))) / n,
        sup_in_mask=float(np.sum(sup * inside)) / n,
        sup_out_mask=float(np.sum(sup * (mask.shape[1] - inside))) / n,
        loss_rec=float(np.mean(at)),
        loss_pred=float(np.mean(ap)),
        loss_target=float(np.mean(sup)),
    )


def summarize_candidates(cands, y_hat, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, LossBreakdown]:
    """Candidate means for (N, S, H) candidates against (N, H) predictions
    and labels: per point, the mask M, the reconstruction-corrected
    indicator M * (1 - M_<) and that indicator's 2|c - t| mass; plus the
    LossBreakdown over the stack."""
    masks = compute_masks(cands, y_hat, y)
    rec = masks.mask & ~masks.mask_lt
    n = rec.shape[1]
    return (masks.mask.sum(axis=1) / n, rec.sum(axis=1) / n, (masks.at * rec).sum(axis=1) * 2.0 / n,
            loss_breakdown(masks))


MASK_DUMP_FIELDS = ["t", "y", "y_hat", "y_tilde", "m", "M", "M_lt"]


def write_mask_dump(path: str, t_index, y, y_hat, y_tilde, masks: MaskSet) -> None:
    """One sample's points as CSV rows (t, y, y_hat, y_tilde, m, M, M_lt)."""
    values = (np.asarray(t_index).astype(np.int64), *map(_as_value, (y, y_hat, y_tilde)),
              masks.m, masks.mask.view(np.uint8), masks.mask_lt.view(np.uint8))
    cols = [a.ravel().tolist() for a in values]
    if len({len(c) for c in cols}) != 1:
        raise DimensionError("mask dump arrays must have equal length")
    write_csv(path, MASK_DUMP_FIELDS, zip(*cols))
