"""The traced benchmark run patches tscorrect by name (perfbench/tracing.py).

A rename that leaves a recorded span with no live target only shows up as a
failed traced run, so this checks the names here: every span a workload
must record keeps at least one target that resolves in tscorrect.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def load_tracing():
    # loaded under a private name and left out of sys.modules: reading the
    # tables patches nothing
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolves(modname: str, attr: str) -> bool:
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def test_every_expected_span_has_a_live_target():
    tracing = load_tracing()
    live = {name for modname, attr, name in tracing.TARGETS if resolves(modname, attr)}
    for workload, spans in tracing.EXPECTED.items():
        assert not spans - live, (workload, sorted(spans - live))


def test_tracer_installs_on_this_tree():
    # in a child process, so that no test runs on a patched tscorrect;
    # install() also reads names outside TARGETS, such as Tape.conv1d
    code = "import tracing; tracing.Tracer().install()"
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.dirname(TRACING)])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
