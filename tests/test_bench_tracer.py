"""The benchmark's span tracer still binds every function it wraps."""

import importlib.util
from pathlib import Path

import hiercontrol.cli  # noqa: F401  (the tracer wraps cli.main)
import hiercontrol.leader
import hiercontrol.solvers

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    mod = _load_tracer()
    orig_march = hiercontrol.solvers.march_forward
    orig_gramian = vars(hiercontrol.leader.GramianContext)["gramian_apply"]
    tracer = mod.Tracer()
    assert len(tracer._patches) == len(mod.FUNCTIONS) + len(mod.METHODS)
    tracer.install("t")
    try:
        assert hiercontrol.solvers.march_forward is not orig_march
        assert hiercontrol.leader.march_forward is hiercontrol.solvers.march_forward
        assert vars(hiercontrol.leader.GramianContext)["gramian_apply"] is not orig_gramian
    finally:
        tracer.uninstall()
    assert hiercontrol.solvers.march_forward is orig_march
    assert hiercontrol.leader.march_forward is orig_march
    assert vars(hiercontrol.leader.GramianContext)["gramian_apply"] is orig_gramian
