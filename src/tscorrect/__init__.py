"""Self-correcting label training for lightweight time-series forecasters."""

__version__ = "0.1.0"

from .autodiff import ParamStore, Tape, Var
from .data import (
    RawSeries,
    Scaler,
    SplitSpec,
    SplitWindows,
    SyntheticConfig,
    WindowDataset,
    build_splits,
    load_csv,
    make_synthetic,
    make_windows,
)
from .losses import (
    LossBreakdown,
    MaskSet,
    co_objective_loss,
    compute_masks,
    loss_breakdown,
    loss_identity_check,
    scam_masked_loss,
)
from .models import (
    MlpPredictor,
    ModelConfig,
    ReconstructionNet,
    RevIn,
    build_predictor,
    build_recon,
    load_checkpoint,
    save_checkpoint,
    spectral_norm,
)
from .sharpness import (
    HvpContext,
    SharpnessResult,
    channel_histograms,
    hvp,
    kl_alignment,
    lambda_max,
)
from .training import (
    Adam,
    EpochRecord,
    GridRecord,
    TrainConfig,
    evaluate,
    train_grid_search,
    train_scam,
    train_supervised,
)
