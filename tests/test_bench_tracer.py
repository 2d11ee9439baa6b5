"""The benchmark's span tracer still binds every function it wraps, and the
program's counters still satisfy the tracer's counting contract."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hiercontrol.cli  # noqa: F401  (the tracer wraps cli.main)
import hiercontrol.fixedpoint
import hiercontrol.leader
import hiercontrol.solvers
from conftest import make_problem
from hiercontrol.grids import SpaceTimeField
from reference import direct

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


def _sweep_context():
    problem = make_problem(cells=16, steps=32)
    zero = np.zeros((problem.tgrid.n_slices, problem.grid.n_nodes))
    # looked up at call time, so the tracer's wrapper runs when installed
    return hiercontrol.fixedpoint.linearize_at(
        problem, SpaceTimeField(problem.grid, problem.tgrid, zero)
    )


def _engine_context(engine, base):
    return direct(base) if engine == "direct" else _sweep_context()


# "direct" runs the same leader on the direct LU oracle of tests/reference.py
@pytest.mark.parametrize("engine", ["direct", "picard"])
def test_counting_contract_on_an_epsilon_sweep(engine):
    # the tracer counts Gramian spans under solve_leader as CG iterations and
    # checks them against sum(cg_iterations) and the contexts' own counters
    epsilons = (1e-2, 1e-4, 1e-6)
    # the oracle twins a context linearized before the tracer installs, so
    # only the oracle's own construction is traced
    base = _sweep_context() if engine == "direct" else None
    cold = _engine_context(engine, base)
    hiercontrol.leader.solve_leader(cold, epsilons[-1])
    tracer = _load_tracer().Tracer()
    tracer.install("sweep")
    try:
        ctx = _engine_context(engine, base)
        for eps in epsilons:
            hiercontrol.leader.solve_leader(ctx, eps)
    finally:
        tracer.uninstall()
    metrics, mismatches = tracer.op_report()
    assert mismatches == []
    assert metrics["leader.context_calls"] == 1
    assert metrics["leader.gramian_calls"] == cold.gramian_applications
    assert metrics["leader.cg_iterations"] == cold.gramian_applications
    if engine == "picard":
        # the sweep's marches run under the traced coupled solves, so a sweep
        # that bound the marches before the tracer installed would read 0
        assert metrics["leader.marches_per_coupled_solve"] > 0
    else:
        # the LU oracle solves each coupled system without a march
        assert metrics["leader.coupled_solves"] > 0
        assert metrics["leader.marches_per_coupled_solve"] == 0
