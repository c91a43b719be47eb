"""In-process tracing for the traced benchmark run.

Wraps the public functions behind each per-layer metric and records one
span (name, start, end, parent) per call in memory. Every binding of a
wrapped function is patched, including names imported into other modules
(``tscorrect.training.flatten_channels``, ``tscorrect.cli.evaluate``, ...).
Counters that are too hot for a span (tape ops, Var construction) are plain
integers. Nothing here changes what the program computes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

# Spans that frame a whole command or training loop. They give spans a
# parent but do not count as layer coverage.
CONTAINERS = {"cli.main", "training.train"}

# (module, attribute, span name). "Class.method" patches the class.
TARGETS = [
    ("tscorrect.cli", "main", "cli.main"),
    ("tscorrect.cli", "load_config", "cli.config"),
    ("tscorrect.cli", "_atomic_json", "cli.outputs"),
    ("tscorrect.training", "write_epochs_csv", "cli.outputs"),
    ("tscorrect.sharpness", "channel_histograms", "cli.kl"),
    ("tscorrect.sharpness", "kl_alignment", "cli.kl"),
    ("tscorrect.training", "train_supervised", "training.train"),
    ("tscorrect.training", "train_co_objective", "training.train"),
    ("tscorrect.training", "train_scam", "training.train"),
    ("tscorrect.training", "train_grid_search", "training.train"),
    ("tscorrect.training", "evaluate", "training.eval"),
    ("tscorrect.training", "Adam.step", "training.optimizer"),
    ("tscorrect.training", "Sgd.step", "training.optimizer"),
    ("tscorrect.autodiff", "zero_grads", "autodiff.zero_grads"),
    ("tscorrect.autodiff", "Tape.backward", "autodiff.backward"),
    ("tscorrect.data", "load_csv", "data.load"),
    ("tscorrect.data", "build_splits", "data.load"),
    ("tscorrect.data", "flatten_channels", "data.flatten"),
    ("tscorrect.models", "build_predictor", "models.build"),
    ("tscorrect.models", "build_recon", "models.build"),
    ("tscorrect.models", "MlpPredictor.forward", "models.predictor_forward"),
    ("tscorrect.models", "LinearPredictor.forward", "models.predictor_forward"),
    ("tscorrect.models", "MlpPredictor.spectral_step", "models.spectral_sync"),
    ("tscorrect.models", "LinearPredictor.spectral_step", "models.spectral_sync"),
    ("tscorrect.models", "ReconstructionNet.forward", "models.recon_forward"),
    ("tscorrect.models", "ReconstructionNet.head_outputs", "models.recon_forward"),
    ("tscorrect.models", "ReconstructionNet.intermediate", "models.recon_forward"),
    ("tscorrect.models", "save_checkpoint", "models.checkpoint_save"),
    ("tscorrect.models", "load_checkpoint", "models.checkpoint_load"),
    ("tscorrect.models", "restore_models", "models.checkpoint_load"),
    ("tscorrect.losses", "compute_masks", "losses.masks"),
    ("tscorrect.losses", "loss_breakdown", "losses.masks"),
    ("tscorrect.losses", "scam_masked_loss", "losses.loss_record"),
    ("tscorrect.losses", "co_objective_loss", "losses.loss_record"),
    ("tscorrect.losses", "aggregate_over_series", "losses.loss_record"),
    ("tscorrect.losses", "write_mask_dump", "losses.mask_dump"),
    ("tscorrect.sharpness", "lambda_max", "sharpness.lanczos"),
    ("tscorrect.sharpness", "hvp", "sharpness.hvp"),
]

# Spans each workload must record; a traced run missing one fails.
EXPECTED = {
    "scam_etth1": {
        "cli.main", "cli.config", "cli.outputs", "training.train", "training.eval",
        "training.optimizer", "autodiff.backward", "data.load", "data.flatten",
        "models.build", "models.predictor_forward", "models.spectral_sync",
        "models.recon_forward", "models.checkpoint_save", "losses.masks",
        "losses.loss_record", "losses.mask_dump",
    },
    "supervised_snr_etth1": {
        "cli.main", "cli.config", "cli.outputs", "training.train", "training.eval",
        "training.optimizer", "autodiff.backward", "data.load", "data.flatten",
        "models.build", "models.predictor_forward", "models.spectral_sync",
        "models.checkpoint_save",
    },
    "grid_toy": {
        "cli.main", "cli.config", "cli.outputs", "training.train", "training.eval",
        "training.optimizer", "autodiff.backward", "data.load", "data.flatten",
        "models.build", "models.predictor_forward", "models.spectral_sync",
        "models.recon_forward", "models.checkpoint_save", "losses.loss_record",
    },
    "diagnose_etth1": {
        "cli.main", "cli.config", "cli.outputs", "cli.kl", "autodiff.backward",
        "data.load", "data.flatten", "models.build", "models.predictor_forward",
        "models.recon_forward", "models.checkpoint_load", "losses.masks",
        "losses.mask_dump", "sharpness.lanczos", "sharpness.hvp",
    },
}


class Tracer:
    """Span store plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.count: dict[str, float] = {}
        self.windows: list[tuple[int, int, int, int]] = []  # per backward
        self._win_vars = 0
        self._win_bytes = 0
        self._win_params = 0
        self.steps: list[float] = []  # ms between optimizer steps
        self._last_step: dict[int, tuple[float, int]] = {}
        self._skipped: dict[int, int] = {}
        self.grid_records: list[tuple[int, int]] = []  # (inner_steps, budget)
        self.lanczos: list[tuple[int, bool]] = []
        self.missing: list[str] = []
        self._evals = 0
        self._win_ops = 0

    def bump(self, key: str, by: float = 1) -> None:
        self.count[key] = self.count.get(key, 0) + by

    def wrap(self, fn, name: str, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # a layer calling itself: one span
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(rec, args, out)
            return out

        return wrapper

    def install(self) -> None:
        import tscorrect.cli  # noqa: F401  (loads every submodule)
        from tscorrect import autodiff

        mods = [m for n, m in sys.modules.items() if n == "tscorrect" or n.startswith("tscorrect.")]
        after = {
            "autodiff.backward": self._on_backward,
            "training.optimizer": self._on_step,
            "training.eval": self._on_eval,
            "training.train": self._on_train,
            "models.checkpoint_save": self._on_save,
            "models.checkpoint_load": self._on_load,
            "losses.mask_dump": self._on_mask_dump,
            "sharpness.lanczos": self._on_lanczos,
        }
        for modname, attr, name in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, meth, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            hook = after.get(name)
            if name == "autodiff.zero_grads":
                wrapped = self.wrap(self._counting_zero_grads(orig), name)
            elif name == "autodiff.backward":
                wrapped = self.wrap(self._counting_backward(orig), name, hook)
            else:
                wrapped = self.wrap(orig, name, hook)
            if owner_name:
                setattr(owner, meth, wrapped)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

        tape_cls, var_cls = autodiff.Tape, autodiff.Var
        for op in ("matmul", "conv1d"):
            setattr(tape_cls, op, self._counting(getattr(tape_cls, op), f"autodiff.{op}_calls"))
        var_init = var_cls.__init__
        tracer = self

        def init(v, *args, **kwargs):
            var_init(v, *args, **kwargs)
            tracer._win_vars += 1
            grad = getattr(v, "grad", None)
            if isinstance(grad, np.ndarray):
                tracer._win_bytes += grad.nbytes

        var_cls.__init__ = init

    def _counting(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count[key] = self.count.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_backward(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            self._win_ops = len(tape)
            return fn(tape, *args, **kwargs)

        return wrapper

    def _counting_zero_grads(self, fn):
        @functools.wraps(fn)
        def wrapper(params, *args, **kwargs):
            params = list(params)
            self._win_params += len(params)
            return fn(params, *args, **kwargs)

        return wrapper

    # ---- per-call hooks, run after a span closes ------------------------

    def _on_backward(self, rec, args, out):
        self.windows.append((self._win_ops, self._win_vars, self._win_bytes, self._win_params))
        self._win_vars = self._win_bytes = self._win_params = 0

    def _on_step(self, rec, args, out):
        opt = args[0]
        prev = self._last_step.get(id(opt))
        if prev is not None and prev[1] == self._evals:
            self.steps.append((rec[2] - prev[0]) * 1e3)
        self._last_step[id(opt)] = (rec[2], self._evals)
        skipped = getattr(opt, "skipped_steps", 0)
        self.bump("training.skipped_steps", skipped - self._skipped.get(id(opt), 0))
        self._skipped[id(opt)] = skipped

    def _on_eval(self, rec, args, out):
        self._evals += 1
        ds = args[1]
        self.bump("training.eval_rows", len(ds) * ds.n_channels)

    def _on_train(self, rec, args, out):
        # train_grid_search(bundle, g, factory, cfg) -> (g, [GridRecord])
        for r in out[-1]:
            if hasattr(r, "inner_steps"):
                self.grid_records.append((r.inner_steps, args[-1].grid_inner_steps))

    def _on_save(self, rec, args, out):
        self.bump("models.checkpoint_bytes", os.path.getsize(args[0]))

    def _on_load(self, rec, args, out):
        if isinstance(args[0], str):
            self.bump("models.checkpoint_bytes", os.path.getsize(args[0]))

    def _on_mask_dump(self, rec, args, out):
        self.bump("losses.mask_dump_rows", len(np.asarray(args[2]).ravel()))

    def _on_lanczos(self, rec, args, out):
        self.lanczos.append((out.iterations, bool(out.converged)))

    # ---- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self times, call counts, coverage and counters."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        covered = 0.0
        root = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "cli.main":
                root += end - start
            elif name not in CONTAINERS:
                # outermost layer span: every ancestor is a container
                p = parent
                while p >= 0 and self.spans[p][0] in CONTAINERS:
                    p = self.spans[p][3]
                if p < 0:
                    covered += end - start
        return {
            "self_s": self_s,
            "calls": calls,
            "root_s": root,
            "covered_s": covered,
            "count": self.count,
            "windows": self.windows,
            "steps_ms": self.steps,
            "grid_records": self.grid_records,
            "lanczos": self.lanczos,
            "missing_targets": self.missing,
        }

    def write_spans(self, path: str, run_id: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": run_id, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
