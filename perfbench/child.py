"""One benchmark child process: set up, run CLI commands, report.

    python3 perfbench/child.py --src SRC --jobs JOBS.json --result OUT.json
        [--budget SECONDS] [--trace SPANS.json]

JOBS.json is a list of jobs, each {"config": path, "checkpoint": path or
null, "argv": [tscorrect argv without --out], "out": directory}. Set-up is
timed first on the first job (imports, config parse, csv load, splits, and
model or checkpoint construction). Then the child makes passes over the
jobs, running ``tscorrect.cli.main(argv + ["--out", <out>/rep<n>])`` in
process and timing each command on its own. It always makes one pass, and
makes another only while the next is expected to end within --budget
seconds of the first command's start. A SpeedProbe samples the host's speed
throughout. The result file holds the set-up time and the probe's mean over
it, the process's peak RSS and, per command, its exit code, wall and CPU
time (the probe's own time taken out), the probe's mean, stdout and stderr;
when traced (always a single pass), the span summary too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
from time import perf_counter, process_time


PROBE_INTERVAL_S = 0.05


def probe_kernel() -> float:
    """A fixed piece of pure-Python work, about 1 ms on a 2 GHz Xeon core."""
    acc = 0.0
    d: dict[int, float] = {}
    for i in range(1000):
        d[i & 15] = acc
        acc = acc * 0.5 + (i % 7) * 1.25 + len(d)
        lst = [acc, i, -i]
        acc += max(lst) - min(lst) * 1e-3
    return acc


class SpeedProbe:
    """Samples how fast the host runs this process, while it works.

    Every PROBE_INTERVAL_S a SIGALRM handler times probe_kernel() and keeps
    (start, duration). The handler runs between bytecodes of whatever the
    process is doing and touches none of its state. `mean(t0, t1)` is the
    mean kernel time over an interval, `spent(t0, t1)` the time the probe
    itself took in it, so that callers can take it out of their timings.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_):
        t = perf_counter()
        probe_kernel()
        self.samples.append((t, perf_counter() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _within(self, t0: float, t1: float) -> list[float]:
        return [d for t, d in self.samples if t0 <= t < t1]

    def mean(self, t0: float, t1: float) -> float:
        inside = self._within(t0, t1)
        return sum(inside) / len(inside)

    def spent(self, t0: float, t1: float) -> float:
        return sum(self._within(t0, t1))


def main() -> int:
    probe = SpeedProbe()
    t_setup = perf_counter()
    probe.sample()
    probe.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", default=None, help="write spans here and trace the run")
    args = ap.parse_args()
    with open(args.jobs) as fh:
        jobs = json.load(fh)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import numpy as np
    from tscorrect import cli, models, training

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported tscorrect from {cli.__file__}, not from {src}")

    cfg = cli.load_config(jobs[0]["config"])
    bundle = cli.make_bundle(cfg, cli.load_series(cfg))
    if jobs[0]["checkpoint"]:
        built = models.restore_models(*models.load_checkpoint(jobs[0]["checkpoint"]))
    else:
        mcfg = cli.model_config(cfg)
        seed = cfg["experiment"]["seeds"][0]
        built = [models.build_predictor(mcfg, np.random.default_rng([seed, 10]))]
        if cfg["experiment"]["mode"] != "supervised":
            built.append(models.build_recon(mcfg, np.random.default_rng([seed, 11])))
    t_end = perf_counter()
    setup = {"setup_s": t_end - t_setup - probe.spent(t_setup, t_end),
             "setup_probe_s": probe.mean(t_setup, t_end)}
    del cfg, bundle, built

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    reps = []
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for i, job in enumerate(jobs):
            out, err = io.StringIO(), io.StringIO()
            argv = job["argv"] + ["--out", os.path.join(job["out"], f"rep{len(reps)}")]
            t_run, c_run = perf_counter(), process_time()
            probe.sample()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            t_end, c_end = perf_counter(), process_time()
            spent = probe.spent(t_run, t_end)
            reps.append({"job": i, "rc": rc, "run_s": t_end - t_run - spent,
                         "run_cpu_s": c_end - c_run - spent, "probe_s": probe.mean(t_run, t_end),
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
        now = perf_counter()
        if tracer is not None or now + (now - t_pass) - t_start > args.budget:
            break

    probe.stop()
    result = {
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "timing_fields": sorted(training.TIMING_FIELDS),
        "reps": reps,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.trace, os.path.basename(os.path.dirname(args.result)))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
